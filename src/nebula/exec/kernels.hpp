/// \file kernels.hpp
/// \brief Compiled batch operators: predicate selection, projection and
/// map materialization over whole tuple buffers, and the fused
/// `BatchKernelOperator` that `CompilePlan` lowers Filter→Map→Project
/// runs into.
///
/// The compiled path inverts the interpreter's shape: instead of walking
/// an expression tree per record and copying survivors per operator, a
/// `CompiledPredicate` evaluates its kernel over the whole batch and
/// produces a *selection vector*; a `CompiledMap`/`CompiledProjection`
/// materializes only the selected rows, computing each expression as a
/// column. A maximal run of Filter/Map/Project nodes within one placement
/// segment fuses into a single `BatchKernelOperator` pass, and a fully
/// selective filter passes the input buffer through untouched (zero-copy).
/// `BatchKernelOperator` keeps to the one operator contract (operator.hpp):
/// it reads its input batch's selection and emits either a refined
/// selection over that buffer or a sealed buffer it materialized.
///
/// Compilation is best-effort: `BatchKernelCompiler::Add*` refuses any
/// node whose expressions do not lower to kernels (text-valued map specs
/// and functions, functions over a runtime text argument, extension
/// functions without a column hook), and `CompilePlan` falls back to the
/// interpreted operator for that node.

#pragma once

#include <optional>

#include "nebula/exec/compiled_expr.hpp"
#include "nebula/operators.hpp"

namespace nebulameos::nebula::exec {

/// \brief A filter predicate compiled to a batch kernel: evaluates over
/// every selected row of a batch and emits the surviving row indices.
class CompiledPredicate {
 public:
  /// Binds \p predicate against \p input and lowers it; fails with
  /// `Unimplemented` when the expression does not compile (the caller
  /// falls back to the interpreted `FilterOperator`).
  static Result<CompiledPredicate> Make(const Schema& input,
                                        ExprPtr predicate);

  /// Appends the physical row indices of \p batch's surviving rows to
  /// \p out.
  void Select(const Batch& batch, SelectionVector* out) const;

 private:
  CompiledPredicate(ExprPtr expr, KernelPtr kernel)
      : expr_(std::move(expr)), kernel_(std::move(kernel)) {}

  ExprPtr expr_;  ///< keeps the kernel's bound state alive
  KernelPtr kernel_;
  mutable std::vector<uint8_t> flags_;
};

/// One contiguous byte range moved per row by a materialization (adjacent
/// pass-through fields coalesce into a single memcpy).
struct FieldCopy {
  size_t src_offset;
  size_t dst_offset;
  size_t width;
};

/// \brief A projection compiled to coalesced byte moves: gathers the
/// selected rows' kept fields into an output buffer.
class CompiledProjection {
 public:
  static Result<CompiledProjection> Make(const Schema& input,
                                         const std::vector<std::string>& fields);

  const Schema& output_schema() const { return output_schema_; }

  /// Appends one output record per selected row of \p batch to \p out
  /// (which must have capacity for them).
  void Materialize(const Batch& batch, TupleBuffer* out) const;

 private:
  CompiledProjection() = default;

  Schema output_schema_;
  std::vector<FieldCopy> copies_;
};

/// \brief A map compiled to pass-through byte moves plus one kernel
/// column per computed field, evaluated only for the selected rows.
class CompiledMap {
 public:
  /// Fails with `Unimplemented` when any spec expression does not compile
  /// or computes a text field (the caller falls back to `MapOperator`).
  static Result<CompiledMap> Make(const Schema& input,
                                  const std::vector<MapSpec>& specs);

  const Schema& output_schema() const { return output_schema_; }

  /// Appends one output record per selected row of \p batch to \p out.
  void Materialize(const Batch& batch, TupleBuffer* out) const;

 private:
  struct Computed {
    KernelPtr kernel;
    size_t dst_offset;
    DataType type;
  };

  CompiledMap() = default;

  Schema output_schema_;
  std::vector<FieldCopy> copies_;
  std::vector<Computed> computed_;
  std::vector<ExprPtr> exprs_;  ///< keep kernels' bound state alive
  mutable std::vector<uint8_t> column_scratch_;
};

class BatchKernelCompiler;

/// \brief The physical form of a fused Filter→Map→Project run: one batch
/// pass per input buffer. Predicates refine a selection vector over the
/// current buffer, materializations gather only surviving rows, and when
/// every stage is fully selective the input buffer is emitted untouched.
///
/// Flow counters are tracked per fused stage under the original operator
/// names ("Filter", "Map", "Project"), so `QueryStats::operator_stats` —
/// and the placement pass consuming it — see the same entry sequence as
/// the unfused chain. The base `stats()` accessor reports the fused run
/// as a whole (batch in / batch out, counted by the engine), not any
/// single stage.
class BatchKernelOperator final : public Operator {
 public:
  std::string name() const override;
  const Schema& output_schema() const override { return output_schema_; }

  Status ProcessBatch(const Batch& input, const BatchEmitFn& emit) override;
  void AppendStats(
      const std::string& prefix,
      std::vector<std::pair<std::string, OperatorStats>>* out) const override;

  /// Binds one latency/batch-size histogram pair *per fused stage* under
  /// the stage's original operator name (`op.<path/>Filter.process_micros`
  /// ..., `#k` on a name repeated along the path), matching the unfused
  /// chain's metric names — the same parity `AppendStats` keeps for flow
  /// counters. The base-class whole-operator histograms stay unbound:
  /// stages time themselves inside `ProcessBatch`, and the engine's outer
  /// timing hook no-ops.
  void BindMetrics(metrics::MetricsRegistry* registry,
                   InstrumentNamer* names) override;

  size_t num_stages() const { return stages_.size(); }

  /// The kernel-CSE column cache `CompilePlan` attached (null when the
  /// run shares nothing) — exposed for tests.
  const std::shared_ptr<ColumnCache>& cse_cache() const { return cse_cache_; }

 private:
  friend class BatchKernelCompiler;

  struct Stage {
    std::string name;
    size_t in_record_size = 0;
    size_t out_record_size = 0;
    // Exactly one of the three is set.
    std::optional<CompiledPredicate> predicate;
    std::optional<CompiledMap> map;
    std::optional<CompiledProjection> projection;
    FlowCounters stats;
    metrics::Histogram* process_micros = nullptr;  ///< null until bound
    metrics::Histogram* batch_rows = nullptr;      ///< null until bound
  };

  BatchKernelOperator() = default;

  Schema output_schema_;
  std::vector<Stage> stages_;
  /// Selection scratch: filter stages select into this and only wrap it
  /// in a shared_ptr when a *partial* selection is actually emitted —
  /// fully-selective and empty results allocate nothing.
  SelectionVector scratch_sel_;
  /// Kernel-level CSE state shared by this run's stages; invalidated at
  /// the top of every `ProcessBatch` so cached columns never leak across
  /// input batches. Null when `CompilePlan` found nothing to share.
  std::shared_ptr<ColumnCache> cse_cache_;
};

/// \brief Incremental builder used by `CompilePlan`: absorbs consecutive
/// Filter/Map/Project nodes while their expressions compile; a refused
/// node (or any other operator kind) ends the run, the built operator is
/// flushed into the pipeline, and lowering continues interpreted.
class BatchKernelCompiler {
 public:
  explicit BatchKernelCompiler(Schema input);

  /// Each Add* returns false — leaving the run unchanged — when the
  /// node's expressions do not lower to kernels.
  bool AddFilter(const ExprPtr& predicate);
  bool AddMap(const std::vector<MapSpec>& specs);
  bool AddProject(const std::vector<std::string>& fields);

  /// Attaches the kernel-CSE column cache whose cache kernels the absorbed
  /// expressions reference (`PlanKernelCse`); the fused operator
  /// invalidates it once per input batch.
  void AttachCseCache(std::shared_ptr<ColumnCache> cache);

  size_t num_stages() const { return op_->num_stages(); }

  /// Schema after the absorbed stages.
  const Schema& current_schema() const { return current_; }

  /// Finalizes the fused operator (at least one stage required).
  OperatorPtr Finish() &&;

 private:
  Schema current_;
  std::unique_ptr<BatchKernelOperator> op_;
};

}  // namespace nebulameos::nebula::exec
