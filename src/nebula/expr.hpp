/// \file expr.hpp
/// \brief The expression framework: typed expression trees over records,
/// with a dynamic function registry.
///
/// This is NebulaStream's extension mechanism as the paper uses it: custom
/// operators and functions are "developed through inheritance and
/// composition", and "runtime operator definition through dynamic
/// registration" lets third-party libraries contribute domain logic. The
/// MEOS integration registers `edwithin`, `tpoint_at_stbox` and friends as
/// `FunctionExpression`s in the global `ExpressionRegistry`
/// (see src/nebulameos/meos_expressions.hpp).
///
/// Expressions are built unbound (field names), then `Bind(schema)` resolves
/// names to indices/types once per query before execution.

#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <variant>

#include "nebula/tuple_buffer.hpp"

namespace nebulameos::nebula {

namespace exec {
class ScalarKernel;
using KernelPtr = std::unique_ptr<ScalarKernel>;
class ColumnCache;
class RunLayout;
}  // namespace exec

/// Runtime value produced by expression evaluation.
using Value = std::variant<bool, int64_t, double, std::string>;

/// Numeric widening read of a value (bool → 0/1, text → error-free 0).
double ValueAsDouble(const Value& v);
/// Truthiness of a value.
bool ValueAsBool(const Value& v);
/// Integer read (doubles truncate).
int64_t ValueAsInt64(const Value& v);
/// Display form of a value.
std::string ValueToString(const Value& v);

class Expression;
/// Shared expression handle (trees are immutable after Bind).
using ExprPtr = std::shared_ptr<Expression>;

/// \brief Base class of all expression nodes.
class Expression {
 public:
  virtual ~Expression() = default;

  /// Resolves field references against \p schema. Must be called before
  /// `Eval`. Idempotent.
  virtual Status Bind(const Schema& schema) = 0;

  /// Evaluates the expression on one record. Requires a prior `Bind`.
  virtual Value Eval(const RecordView& rec) const = 0;

  /// The output type after binding.
  virtual DataType output_type() const = 0;

  /// Debug/display form, e.g. "(speed > 22.2)".
  virtual std::string ToString() const = 0;

  /// The compile-time constant value of this node, when it is a literal.
  /// Extension functions use this to resolve configuration arguments (zone
  /// names, box bounds) once at bind time.
  virtual std::optional<Value> ConstantValue() const { return std::nullopt; }

  /// Appends the names of the record fields this expression (transitively)
  /// reads to \p out and returns true. Returns false when the read set
  /// cannot be determined — the conservative default for extension nodes
  /// that do not override it — in which case optimizer passes must treat
  /// the expression as reading *every* field and leave it in place.
  /// Built-in nodes and every `FunctionExpression` subclass report exactly.
  virtual bool ReferencedFields(std::vector<std::string>* out) const {
    (void)out;
    return false;
  }

  /// Lowers this expression to a type-specialized batch kernel whose field
  /// leaves read the fields of \p layout — a fused run's input record
  /// offsets and the columns its earlier Maps computed
  /// (exec/compiled_expr.hpp). Returns nullptr when the node or any
  /// subtree cannot be compiled (a text operand outside a field-or-literal
  /// text comparison, a text-valued function, an extension node without a
  /// column hook) — callers fall back to interpreted `Eval`. Must be
  /// called after `Bind` against the schema whose fields \p layout lists,
  /// and the returned kernel may reference this expression: keep the tree
  /// alive for the kernel's lifetime.
  virtual exec::KernelPtr CompileKernel(const exec::RunLayout& layout) const;
};

// --- Node constructors -------------------------------------------------------

/// Reference to the record field \p name (NebulaStream's `Attribute`).
ExprPtr Attribute(std::string name);

/// Boolean literal.
ExprPtr Lit(bool v);
/// Integer literal.
ExprPtr Lit(int64_t v);
/// Integer literal (convenience for int).
ExprPtr Lit(int v);
/// Double literal.
ExprPtr Lit(double v);
/// Text literal.
ExprPtr Lit(std::string v);

/// Arithmetic operators.
enum class ArithOp { kAdd, kSub, kMul, kDiv, kMod };
/// Binary arithmetic node (int64 when both sides are integers and the
/// operation is closed; double otherwise).
ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr Add(ExprPtr lhs, ExprPtr rhs);
ExprPtr Sub(ExprPtr lhs, ExprPtr rhs);
ExprPtr Mul(ExprPtr lhs, ExprPtr rhs);
ExprPtr Div(ExprPtr lhs, ExprPtr rhs);

/// Comparison operators.
enum class CompareOp { kLt, kLe, kGt, kGe, kEq, kNe };
/// Binary comparison node (numeric sides compare as doubles; two text sides
/// compare lexicographically).
ExprPtr Compare(CompareOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr Lt(ExprPtr lhs, ExprPtr rhs);
ExprPtr Le(ExprPtr lhs, ExprPtr rhs);
ExprPtr Gt(ExprPtr lhs, ExprPtr rhs);
ExprPtr Ge(ExprPtr lhs, ExprPtr rhs);
ExprPtr Eq(ExprPtr lhs, ExprPtr rhs);
ExprPtr Ne(ExprPtr lhs, ExprPtr rhs);

/// Logical conjunction (short-circuit).
ExprPtr And(ExprPtr lhs, ExprPtr rhs);
/// Logical disjunction (short-circuit).
ExprPtr Or(ExprPtr lhs, ExprPtr rhs);
/// Logical negation.
ExprPtr Not(ExprPtr inner);

// --- Extensible functions ----------------------------------------------------

/// \brief Base class for registered n-ary functions.
///
/// Subclasses implement `EvalFn` over evaluated argument values and declare
/// their output type; `Bind` recursively binds arguments. Domain extensions
/// (the MEOS operators) subclass this — composition with any other
/// expression node comes for free.
class FunctionExpression : public Expression {
 public:
  FunctionExpression(std::string name, std::vector<ExprPtr> args,
                     DataType output_type)
      : name_(std::move(name)),
        args_(std::move(args)),
        output_type_(output_type) {}

  Status Bind(const Schema& schema) override;
  Value Eval(const RecordView& rec) const override;
  DataType output_type() const override { return output_type_; }
  std::string ToString() const override;
  bool ReferencedFields(std::vector<std::string>* out) const override;

  /// Generic batch compilation for registered functions: when the subclass
  /// opts in (`ScalarEvaluable`), every argument becomes a double column
  /// and `EvalColumn` runs once per batch over them — no `Value` boxing,
  /// no per-row call through the kernel bridge.
  exec::KernelPtr CompileKernel(const exec::RunLayout& layout) const override;

  const std::string& name() const { return name_; }
  const std::vector<ExprPtr>& args() const { return args_; }

 protected:
  /// Implements the function over already-evaluated argument values.
  virtual Value EvalFn(const std::vector<Value>& args) const = 0;

  /// Batch-compiler opt-in: true when `EvalColumn` implements this
  /// function over unboxed numeric arguments (bind-time configuration
  /// already resolved). Default false: the function only interprets.
  virtual bool ScalarEvaluable() const { return false; }

  /// Column-at-a-time evaluation over \p n rows: `args[i][r]` is the i-th
  /// argument of row r widened to double (`ValueAsDouble` semantics;
  /// constant arguments arrive as filled columns, and constant text
  /// widens to 0 — it is bind-time configuration, not a runtime input).
  /// Writes one result per row to `out[r]`: booleans as 0/1, integer
  /// results integral-valued.
  ///
  /// Precision contract: integer/timestamp arguments round-trip through
  /// double, so they are exact only up to 2^53. Microsecond-epoch
  /// timestamps stay exact until the year 2255; a function whose integer
  /// arguments can exceed 2^53 must not opt in (leave `ScalarEvaluable`
  /// false — the interpreter keeps int64 exact).
  virtual void EvalColumn(const double* const* args, size_t n,
                          double* out) const {
    (void)args;
    for (size_t r = 0; r < n; ++r) out[r] = 0.0;
  }

  /// Hook called at the end of `Bind` (argument types are known).
  virtual Status OnBind(const Schema& schema);

 private:
  std::string name_;
  std::vector<ExprPtr> args_;
  DataType output_type_;
};

/// \brief Global registry mapping function names to factories — the runtime
/// plugin mechanism.
class ExpressionRegistry {
 public:
  /// Factory: builds a function expression from argument expressions.
  using Factory =
      std::function<Result<ExprPtr>(std::vector<ExprPtr> args)>;

  /// The process-wide registry.
  static ExpressionRegistry& Global();

  /// Registers \p factory under \p name; fails when already registered.
  Status Register(const std::string& name, Factory factory);

  /// True iff \p name is registered.
  bool Contains(const std::string& name) const;

  /// Instantiates the function \p name with \p args.
  Result<ExprPtr> Create(const std::string& name,
                         std::vector<ExprPtr> args) const;

  /// All registered names (sorted).
  std::vector<std::string> RegisteredNames() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Factory> factories_;
};

/// Instantiates a registered function from the global registry (asserts
/// existence; use `ExpressionRegistry::Create` for fallible lookup).
ExprPtr Fn(const std::string& name, std::vector<ExprPtr> args);

/// \brief Builds a function expression from a plain callable — the
/// lightweight path for runtime operator definition (no subclass needed).
/// \p fn receives the evaluated argument values. Unless the output or a
/// runtime argument is text, the expression compiles to a batch kernel
/// that calls \p fn once per row it evaluates; a compiled AND/OR
/// short-circuits as the interpreter does, so those are the rows the
/// interpreter calls it on.
ExprPtr MakeLambdaExpr(std::string name, std::vector<ExprPtr> args,
                       DataType output_type,
                       std::function<Value(const std::vector<Value>&)> fn);

/// \brief Registers a lambda-backed function of fixed \p arity under
/// \p name in the global registry.
Status RegisterLambdaFunction(
    const std::string& name, size_t arity, DataType output_type,
    std::function<Value(const std::vector<Value>&)> fn);

/// Registers the built-in math functions ("abs", "sqrt", "least",
/// "greatest", "clamp"). Called once from the engine; safe to call again.
void RegisterBuiltinFunctions();

/// \brief True when \p a and \p b are structurally identical expressions
/// with identical semantics: same node kinds, operators, field names,
/// literal values/types, and (for function expressions) the same function
/// name with structurally equal arguments — registry names identify
/// semantics, so two instantiations of one registered function compare
/// equal. Conservative: any node kind the comparison does not understand
/// (extension expressions subclassing `Expression` directly) compares
/// unequal. Used by the optimizer to prove a filter is demanded by every
/// fan-out branch before hoisting it.
bool StructurallyEqual(const ExprPtr& a, const ExprPtr& b);

/// \brief True when \p expr is safe to treat as *identified by its
/// structure* across independently submitted plans: every node is either a
/// built-in (field/literal/arith/compare/logical/not) or a
/// `FunctionExpression` whose name is registered in the global
/// `ExpressionRegistry` — registered names carry process-wide semantics, so
/// two structurally equal trees compute the same thing. Ad-hoc
/// `MakeLambdaExpr` nodes and unknown extension kinds return false: their
/// names do not pin behaviour, so structural equality would not imply
/// semantic equality. The serving layer requires this before merging
/// operator prefixes across queries.
bool ExpressionMergeSafe(const ExprPtr& expr);

/// \brief Structurally rebuilds \p expr with every constant subtree
/// pre-evaluated into a literal (e.g. `(3.6 * 2)` → `7.2`), setting
/// \p *changed when anything folded. Only pure built-in nodes fold —
/// arithmetic, comparisons, AND/OR/NOT; function expressions and extension
/// nodes are left in place (they may read global state such as the active
/// geofence catalog). Folding reuses the nodes' own `Eval`, so semantics
/// (integer widening, division-by-zero behaviour) match runtime exactly.
ExprPtr FoldConstants(const ExprPtr& expr, bool* changed);

// --- Common-subexpression elimination --------------------------------------

/// \brief Result of `PlanKernelCse` over the expression roots of one fused
/// kernel run (consecutive filter predicates plus the map specs that share
/// their input buffer).
struct KernelCsePlan {
  /// Rewritten trees, position-for-position with the input roots; the
  /// input trees themselves when nothing repeats. Shared subtrees are
  /// wrapped so their *compiled kernels* write/read a cached column;
  /// interpreted `Eval` of a wrapper simply delegates. Rebuilt nodes are
  /// unbound — callers bind against their input schema before compiling.
  std::vector<ExprPtr> roots;
  /// Cross-stage computed-column cache the wrappers' kernels share; null
  /// when `num_shared == 0`. The owning `BatchKernelOperator` invalidates
  /// it once per input batch.
  std::shared_ptr<exec::ColumnCache> cache;
  /// Distinct subexpressions now computed once per batch.
  size_t num_shared = 0;
};

/// \brief Kernel-level CSE, the engine's one common-subexpression
/// mechanism: shares repeated subexpressions across the stages of one fused
/// `BatchKernelOperator` run. The interpreted operators evaluate their
/// trees as written, so they stay a plain reference for these kernels.
/// Each subtree occurring more than once (by `StructurallyEqual`) compiles
/// into a kernel that keeps its column for the current input batch — by
/// physical row index, recording which rows it holds — and every
/// occurrence computes only the rows no earlier occurrence did. An earlier
/// occurrence need not cover a later one's rows: a short-circuiting AND/OR
/// evaluates its right side only over the rows its left side left
/// undecided.
///
/// Conservative by construction: only subtrees whose ancestors are all
/// built-in arithmetic/comparison/logical/NOT nodes are replaced (anything
/// below a function call would require rebuilding the enclosing function
/// node, whose concrete subclass is unknown), and bare field references
/// and literals are never cached (the cache would cost more than the
/// read).
KernelCsePlan PlanKernelCse(std::vector<ExprPtr> roots);

}  // namespace nebulameos::nebula
