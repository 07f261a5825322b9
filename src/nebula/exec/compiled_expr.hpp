/// \file compiled_expr.hpp
/// \brief Type-specialized batch kernels compiled from expression trees.
///
/// The interpreter walks an `Expression` tree per record and boxes every
/// intermediate in a `Value` variant — exactly the overhead NebulaStream's
/// compiled query engine exists to avoid. At `CompilePlan` time each
/// expression whose leaves resolve to fixed schema offsets is lowered
/// (`Expression::CompileKernel`) into a tree of `ScalarKernel`s that
/// evaluate over a whole run of rows at once: field leaves are raw
/// offset-typed loads, operators are tight loops over primitive columns,
/// and a registered extension function is one call per batch
/// (`FunctionExpression::EvalColumn`). Text comparisons run over the
/// fixed-width field bytes. Only runtime-registered lambdas, which are
/// written over boxed `Value`s, still make one call per row.
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
#include <vector>

#include "nebula/exec/batch.hpp"
#include "nebula/expr.hpp"

namespace nebulameos::nebula::exec {

/// \brief Addresses a run of fixed-size rows, optionally through a
/// selection vector: row \p i lives at `base + (sel ? sel[i] : i) * stride`.
struct RowSpan {
  const uint8_t* base = nullptr;
  size_t stride = 0;
  const uint32_t* sel = nullptr;  ///< null = rows 0..count-1
  size_t count = 0;

  const uint8_t* Row(size_t i) const {
    return base + (sel != nullptr ? sel[i] : i) * stride;
  }
};

/// Builds the span of \p buffer's records filtered by \p sel (may be null).
RowSpan SpanOf(const TupleBuffer& buffer, const SelectionVector* sel);

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

/// Raw typed load of the field at \p offset; nullptr for text types.
KernelPtr MakeLoadKernel(DataType type, size_t offset);

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
/// run's stages. The first cache kernel evaluated under the current epoch
/// materializes its column — scattered by *physical* row index, so later
/// stages with refined (subset) selections gather the right values without
/// recomputation. The owning `BatchKernelOperator` calls `Invalidate()`
/// once per input batch; like `CseCache`, staleness is by epoch and
/// nothing is cleared. Single-strand state: one cache belongs to one
/// operator instance.
class ColumnCache {
 public:
  struct Slot {
    /// Epoch the column was last materialized under (`~0` = never).
    uint64_t epoch = ~uint64_t{0};
    /// Column storage indexed by physical row index × element width.
    std::vector<uint8_t> data;
  };

  /// Adds a slot and returns its index.
  size_t AddSlot() {
    slots_.emplace_back();
    return slots_.size() - 1;
  }

  /// Starts a new input batch: every cached column becomes stale.
  void Invalidate() { ++epoch_; }

  Slot& slot(size_t i) { return slots_[i]; }
  uint64_t epoch() const { return epoch_; }
  size_t num_slots() const { return slots_.size(); }

 private:
  uint64_t epoch_ = 0;
  std::vector<Slot> slots_;
};

/// \brief Wraps \p inner so its result column is computed at most once per
/// cache epoch: the first evaluation runs \p inner over its span and
/// scatters the results into the slot by physical row index; subsequent
/// evaluations gather from the slot. Sound only under the fused-run
/// invariant that the first evaluation's span is a superset of every later
/// span (stage selections only shrink). Returns nullptr when \p inner is
/// null.
KernelPtr MakeColumnCacheKernel(std::shared_ptr<ColumnCache> cache,
                                size_t slot, KernelPtr inner);

}  // namespace nebulameos::nebula::exec
