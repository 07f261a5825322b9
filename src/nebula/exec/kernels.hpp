/// \file kernels.hpp
/// \brief The fused `BatchKernelOperator` that `CompilePlan` lowers
/// Filter→Map→Project runs into, and the compiler that builds it.
///
/// The compiled path inverts the interpreter's shape: instead of walking
/// an expression tree per record and copying survivors per operator, a
/// maximal run of Filter/Map/Project nodes within one placement segment
/// becomes one pass over its input buffer. Filter stages evaluate their
/// kernel over the selected rows and refine a selection vector; Map stages
/// evaluate each computed field into a run-local column indexed by
/// physical row of that buffer; Project stages only narrow the run's field
/// list. Later stages read computed fields from those columns and
/// pass-through fields from the input buffer, and the run writes one pool
/// buffer at its end, holding only the surviving rows and only its output
/// fields. A run without a Map or Project emits the refined selection over
/// its input buffer with no copy (a fully selective one passes the input
/// batch through untouched). `BatchKernelOperator` keeps to the one
/// operator contract (operator.hpp): it reads its input batch's selection
/// and emits either a refined selection over that buffer or a sealed
/// buffer it wrote.
///
/// Compilation is best-effort: `BatchKernelCompiler::Add*` refuses any
/// node whose expressions do not lower to kernels (text-valued map specs
/// and functions, functions over a runtime text argument, extension
/// functions without a column hook), and `CompilePlan` ends the run there
/// and falls back to the interpreted operator for that node.

#pragma once

#include "nebula/exec/compiled_expr.hpp"
#include "nebula/operators.hpp"

namespace nebulameos::nebula::exec {

/// One contiguous byte range moved per row by the end-of-run write
/// (adjacent pass-through fields coalesce into a single memcpy).
struct FieldCopy {
  size_t src_offset;
  size_t dst_offset;
  size_t width;
};

class BatchKernelCompiler;

/// \brief The physical form of a fused Filter→Map→Project run: one batch
/// pass per input buffer. Predicates refine a selection vector over the
/// input buffer, Maps fill run-local columns for the selected rows, and
/// one write at the end gathers the surviving rows' output fields; when
/// the run has no Map or Project it emits the refined selection instead.
///
/// Only the run sees its stage boundaries, so each stage records its own
/// flow under its original operator name ("Filter", "Map", "Project"):
/// `QueryStats::operator_stats` — and the placement pass consuming it —
/// and the registry see the same entries and names as the unfused chain.
class BatchKernelOperator final : public Operator {
 public:
  std::string name() const override;
  const Schema& output_schema() const override { return output_schema_; }

  Status ProcessBatch(const Batch& input, const BatchEmitFn& emit) override;

  /// Binds the instruments of each fused stage under its original operator
  /// name and appends one entry per stage, in chain order. The base-class
  /// instruments stay unbound, so the engine's hooks no-op: stages record
  /// themselves (the end-of-run write counts toward the last stage).
  void BindMetrics(metrics::MetricsRegistry* registry, InstrumentNamer* names,
                   std::vector<FlowEntry>* entries) override;

  size_t num_stages() const { return stages_.size(); }

  /// The kernel-CSE column cache `CompilePlan` attached (null when the
  /// run shares nothing) — exposed for tests.
  const std::shared_ptr<ColumnCache>& cse_cache() const { return cse_cache_; }

 private:
  friend class BatchKernelCompiler;

  /// One computed field of a Map stage: its kernel and the run column it
  /// fills, stored as the field's declared type.
  struct Computed {
    KernelPtr kernel;
    size_t column;
    DataType type;
  };

  /// One run column copied into the output record (1 or 8 bytes per row).
  struct ColumnCopy {
    size_t column;
    size_t dst_offset;
    DataType type;
  };

  struct Stage {
    std::string name;
    size_t in_record_size = 0;
    size_t out_record_size = 0;
    KernelPtr predicate;             ///< Filter stages only
    std::vector<Computed> computed;  ///< Map stages only
    FlowInstruments flow;                          ///< null until bound
    metrics::Histogram* process_micros = nullptr;  ///< null until bound
  };

  BatchKernelOperator() = default;

  /// Runs one stage over `span`, narrowing it when a filter drops rows;
  /// returns false when no row survives.
  bool RunStage(const Stage& stage, RowSpan* span);
  /// Fills a Map's run column for the rows of `span`.
  void FillColumn(const Computed& computed, const RowSpan& span);
  /// The end-of-run write: one pool buffer holding the output fields of
  /// the rows of `span`, ready to seal.
  Result<TupleBufferPtr> WriteOutput(const TupleBuffer& input,
                                     const RowSpan& span);

  Schema output_schema_;
  std::vector<Stage> stages_;
  /// Keeps the expression trees the kernels reference alive.
  std::vector<ExprPtr> exprs_;
  /// True when the run holds a Map or Project, so it ends in a write.
  bool writes_output_ = false;
  std::vector<FieldCopy> input_copies_;    ///< pass-through output fields
  std::vector<ColumnCopy> column_copies_;  ///< computed output fields
  std::vector<DataType> column_types_;     ///< one per run column
  /// Run columns by physical row of the current input buffer, and their
  /// base pointers as the kernels' spans carry them.
  std::vector<std::vector<uint8_t>> columns_;
  std::vector<const uint8_t*> column_ptrs_;
  /// Selection scratch: filter stages alternate between the two, and a
  /// partial selection is wrapped in a shared_ptr only when it is emitted.
  SelectionVector selections_[2];
  int current_selection_ = -1;  ///< index into selections_, -1 = the input's
  std::vector<uint8_t> flags_;
  std::vector<uint8_t> values_;  ///< a computed field's values (retyped)
  /// Kernel-level CSE state shared by this run's stages; invalidated at
  /// the top of every `ProcessBatch` so cached columns never leak across
  /// input batches. Null when `CompilePlan` found nothing to share.
  std::shared_ptr<ColumnCache> cse_cache_;
};

/// \brief Incremental builder used by `CompilePlan`: absorbs consecutive
/// Filter/Map/Project nodes while their expressions compile; a refused
/// node (or any other operator kind) ends the run, the built operator is
/// flushed into the pipeline, and lowering continues interpreted. Each
/// stage binds against its logical input schema and compiles against the
/// run's layout (`RunLayout`).
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

  /// Logical schema after the absorbed stages.
  const Schema& current_schema() const { return current_; }

  /// Finalizes the fused operator (at least one stage required).
  OperatorPtr Finish() &&;

 private:
  Schema current_;
  RunLayout layout_;  ///< fields of `current_`, position for position
  std::unique_ptr<BatchKernelOperator> op_;
};

}  // namespace nebulameos::nebula::exec
