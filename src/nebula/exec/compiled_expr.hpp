/// \file compiled_expr.hpp
/// \brief Type-specialized batch kernels compiled from expression trees.
///
/// The interpreter walks an `Expression` tree per record and boxes every
/// intermediate in a `Value` variant — exactly the overhead NebulaStream's
/// compiled query engine exists to avoid. At `CompilePlan` time each
/// expression whose leaves resolve to fields of a fused run's layout is
/// lowered (`Expression::CompileKernel`) into a tree of `ScalarKernel`s that
/// evaluate over a whole run of rows at once: field leaves are raw typed
/// loads from the run's input buffer or from a column an earlier Map of the
/// run computed, operators are tight loops over primitive columns, and a
/// registered extension function is one call per batch
/// (`FunctionExpression::EvalColumn`). Text comparisons run over the
/// fixed-width field bytes. Only runtime-registered lambdas, which are
/// written over boxed `Value`s, still make one call per row.
///
/// A kernel evaluates exactly the rows of the span it is given. AND and OR
/// evaluate their right side only over the rows their left side leaves
/// undecided, as the interpreter short-circuits, so every kernel — a
/// registered lambda included — runs on the rows the interpreter runs it
/// on.
///
/// Kernels carry mutable per-node scratch columns, so one kernel instance
/// is bound to one pipeline (single-threaded use), matching the engine's
/// one-worker-per-query execution model. Widening between kernel types
/// replicates the interpreter's `ValueAsDouble`/`ValueAsInt64`/
/// `ValueAsBool` semantics exactly, so compiled and interpreted runs are
/// bit-identical.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nebula/exec/batch.hpp"
#include "nebula/expr.hpp"

namespace nebulameos::nebula::exec {

/// \brief Addresses a run of fixed-size rows, optionally through a
/// selection vector: row \p i lives at `base + Phys(i) * stride`, and a
/// computed column `c` of a fused run holds its value at element `Phys(i)`
/// of `columns[c]`.
struct RowSpan {
  const uint8_t* base = nullptr;
  size_t stride = 0;
  const uint32_t* sel = nullptr;  ///< null = rows 0..count-1
  size_t count = 0;
  /// The fused run's computed columns, indexed by physical row of `base`'s
  /// buffer; null outside a run.
  const uint8_t* const* columns = nullptr;

  /// Physical row index of span row \p i.
  size_t Phys(size_t i) const { return sel != nullptr ? sel[i] : i; }

  const uint8_t* Row(size_t i) const { return base + Phys(i) * stride; }

  /// The same buffer and columns restricted to the \p n physical rows
  /// listed at \p phys.
  RowSpan Subset(const uint32_t* phys, size_t n) const {
    RowSpan out = *this;
    out.sel = phys;
    out.count = n;
    return out;
  }
};

/// Builds the span of \p buffer's records filtered by \p sel (may be null).
RowSpan SpanOf(const TupleBuffer& buffer, const SelectionVector* sel);

/// \brief Where one field of a fused run's rows lives: at a byte offset of
/// the run's input record, or in a computed column of the run.
struct FieldSource {
  static constexpr size_t kInputBuffer = ~size_t{0};

  DataType type = DataType::kInt64;
  /// Index of the run's computed column holding the field, or
  /// `kInputBuffer` for a field of the input buffer.
  size_t column = kInputBuffer;
  size_t offset = 0;  ///< byte offset in the input record (input fields)

  bool computed() const { return column != kInputBuffer; }
};

/// \brief The fields a stage of a fused run compiles against: the run's
/// input schema plus the columns its Maps computed so far, in the order of
/// the stage's logical input schema. A Map that replaces a field shadows it
/// for later stages only; a Project narrows and reorders the list.
class RunLayout {
 public:
  /// Every field of \p input, read from the input buffer.
  explicit RunLayout(const Schema& input);

  /// The source of field \p name, or null when the layout has none.
  const FieldSource* Find(const std::string& name) const;

  const std::vector<FieldSource>& sources() const { return sources_; }

  /// Declared type of every computed column, by column index.
  const std::vector<DataType>& column_types() const { return column_types_; }

  /// Defines a new computed column of \p type and returns its index.
  size_t AddColumn(DataType type);

  /// Replaces the field list (names and sources position for position).
  void SetFields(std::vector<std::string> names,
                 std::vector<FieldSource> sources);

 private:
  std::vector<std::string> names_;
  std::vector<FieldSource> sources_;
  std::vector<DataType> column_types_;
};

/// Bytes per row of a computed column of \p type: 1 for bool, 8 otherwise
/// (text is never computed).
inline size_t ColumnWidth(DataType type) {
  return type == DataType::kBool ? 1 : 8;
}

/// Native result type of a kernel node.
enum class KernelType : uint8_t { kBool, kInt64, kDouble };

/// \brief One compiled expression node: batch evaluation into a typed
/// output column.
class ScalarKernel {
 public:
  explicit ScalarKernel(KernelType type) : type_(type) {}
  virtual ~ScalarKernel() = default;

  KernelType type() const { return type_; }

  /// Native-type evaluation; only the overload matching `type()` is
  /// implemented by a concrete kernel (the others assert).
  virtual void EvalBool(const RowSpan& rows, uint8_t* out) const;
  virtual void EvalInt64(const RowSpan& rows, int64_t* out) const;
  virtual void EvalDouble(const RowSpan& rows, double* out) const;

  /// Widening evaluation with interpreter-identical conversions
  /// (bool → 0/1, int64 ↔ double by cast, truthiness = "!= 0").
  void EvalAsBool(const RowSpan& rows, uint8_t* out) const;
  void EvalAsInt64(const RowSpan& rows, int64_t* out) const;
  void EvalAsDouble(const RowSpan& rows, double* out) const;

 private:
  KernelType type_;
  /// Conversion scratch for the widening wrappers (bytes, retyped per
  /// use); capacity stabilizes after the first batch.
  mutable std::vector<uint8_t> convert_scratch_;
};

using KernelPtr = std::unique_ptr<ScalarKernel>;

// --- Kernel constructors used by Expression::CompileKernel ------------------

/// Raw typed load of the field \p source names: from the input record or
/// from a computed column. nullptr for text types.
KernelPtr MakeLoadKernel(const FieldSource& source);

KernelPtr MakeConstKernel(bool v);
KernelPtr MakeConstKernel(int64_t v);
KernelPtr MakeConstKernel(double v);

/// Arithmetic over both children; \p int_result selects the interpreter's
/// closed-integer evaluation (ArithExpr::int_result_).
KernelPtr MakeArithKernel(ArithOp op, bool int_result, KernelPtr lhs,
                          KernelPtr rhs);

/// Numeric comparison (both sides widened to double, like the interpreter).
KernelPtr MakeCompareKernel(CompareOp op, KernelPtr lhs, KernelPtr rhs);

/// \brief Text comparison of the fixed-width, NUL-padded field of \p width
/// bytes at \p offset against \p literal, with the interpreter's
/// `std::string::compare` semantics: the field's value is its bytes
/// before the first NUL (all \p width bytes when there is none), ordered
/// as `memcmp` orders them. \p literal_on_left evaluates
/// `literal op field` instead of `field op literal`. A literal longer than
/// the width or holding a NUL equals no field value.
KernelPtr MakeTextLiteralCompareKernel(CompareOp op, size_t offset,
                                       size_t width, std::string literal,
                                       bool literal_on_left);

/// Text comparison of two fixed-width, NUL-padded fields of one row
/// (same semantics as `MakeTextLiteralCompareKernel`).
KernelPtr MakeTextFieldCompareKernel(CompareOp op, size_t lhs_offset,
                                     size_t lhs_width, size_t rhs_offset,
                                     size_t rhs_width);

/// Conjunction and disjunction with the interpreter's short circuit: \p rhs
/// runs only over the rows \p lhs leaves undecided (true for AND, false
/// for OR), through a span over those rows' physical indices.
KernelPtr MakeAndKernel(KernelPtr lhs, KernelPtr rhs);
KernelPtr MakeOrKernel(KernelPtr lhs, KernelPtr rhs);
KernelPtr MakeNotKernel(KernelPtr inner);

/// Column-at-a-time body of a registered function: `args[i][r]` is
/// argument i of row r; writes n results to `out`.
using ColumnFn =
    std::function<void(const double* const* args, size_t n, double* out)>;

/// \brief Bridge for registered extension functions: evaluates every
/// runtime argument kernel into a double column, fills a column with the
/// widened value `const_args[i]` for each bind-time constant argument
/// (`arg_kernels[i] == nullptr`), then calls \p fn once per batch. No
/// `Value` boxing, no per-row call.
KernelPtr MakeScalarFnKernel(KernelType out_type, ColumnFn fn,
                             std::vector<KernelPtr> arg_kernels,
                             std::vector<double> const_args);

/// Body of a function written over boxed argument values.
using BoxedFn = std::function<Value(const std::vector<Value>&)>;

/// \brief Bridge for functions written over boxed `Value`s (runtime-
/// registered lambdas): evaluates every runtime argument kernel in its
/// own native type (int64 is never widened through double), boxes each
/// row into one reused argument vector — `const_args[i]` for a constant
/// argument (`arg_kernels[i] == nullptr`) — and calls \p fn once per
/// row. The result converts with `ValueAsBool`/`ValueAsInt64`/
/// `ValueAsDouble` for \p out_type, as the interpreted operators convert
/// it.
KernelPtr MakeBoxedFnKernel(KernelType out_type, BoxedFn fn,
                            std::vector<KernelPtr> arg_kernels,
                            std::vector<Value> const_args);

// --- Cross-stage computed-column cache (kernel-level CSE) --------------------

/// \brief Shared computed columns for one fused kernel run: one slot per
/// distinct subexpression that `PlanKernelCse` found repeated across the
/// run's stages. Each slot holds its column by *physical* row index of the
/// run's input buffer and records which physical rows it holds for the
/// current batch, so every evaluation computes only the rows no earlier one
/// did. Short-circuiting AND/OR means an occurrence may see rows an
/// earlier one skipped (a subexpression first reached on an OR's right side
/// covers only the rows where the left side was false). The owning
/// `BatchKernelOperator` calls `Invalidate()` once per input batch; like
/// `CseCache`, staleness is by epoch. Single-strand state: one cache
/// belongs to one operator instance.
class ColumnCache {
 public:
  struct Slot {
    /// Epoch the slot was last reset under (`~0` = never).
    uint64_t epoch = ~uint64_t{0};
    /// Column storage indexed by physical row index × element width.
    std::vector<uint8_t> data;
    /// 1 where `data` holds the current batch's value of that physical row.
    std::vector<uint8_t> valid;
  };

  /// Adds a slot and returns its index.
  size_t AddSlot() {
    slots_.emplace_back();
    return slots_.size() - 1;
  }

  /// Starts a new input batch of \p rows physical rows: every cached
  /// column becomes stale.
  void Invalidate(size_t rows) {
    ++epoch_;
    rows_ = rows;
  }

  Slot& slot(size_t i) { return slots_[i]; }
  uint64_t epoch() const { return epoch_; }
  size_t rows() const { return rows_; }
  size_t num_slots() const { return slots_.size(); }

 private:
  uint64_t epoch_ = 0;
  size_t rows_ = 0;
  std::vector<Slot> slots_;
};

/// \brief Wraps \p inner so each row's value is computed at most once per
/// cache epoch: an evaluation runs \p inner only over the span's rows the
/// slot does not hold yet, scatters those results into the slot by
/// physical row index and marks them valid, then gathers every requested
/// row from the slot. Returns nullptr when \p inner is null.
KernelPtr MakeColumnCacheKernel(std::shared_ptr<ColumnCache> cache,
                                size_t slot, KernelPtr inner);

}  // namespace nebulameos::nebula::exec
