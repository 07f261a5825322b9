/// \file engine.hpp
/// \brief The node engine: compiles logical queries and executes them.
///
/// Each submitted query compiles into one fused pipeline tree (source →
/// operator chain → sink, or → fan-out → branch pipelines). Execution is
/// pull-based: the query's worker thread fills a buffer from the source,
/// seals it, and pushes it through the chain as a *batch* (buffer +
/// selection vector, exec/batch.hpp) without intermediate queueing —
/// NebulaStream's pipeline model. At a fan-out the shared prefix executes
/// *once* per buffer and every branch receives the *same* sealed batch
/// (zero-copy; selection vectors keep branch filtering independent), so
/// several sinks (alerting + archival) ride one ingest without the
/// hand-off copies the engine used to pay per branch. Multiple queries
/// run concurrently on their own threads.
///
/// Every place a segment's tail hands batches on is a *dispatch target*:
/// a fan-out branch, a key-partition clone of a keyed stateful suffix, or
/// a branch attached to a shared host (`AttachBranch`). The engine keeps
/// one runtime record per target — its strand, its strand instruments,
/// and for a shared-host branch its detached flag and failure — and moves
/// every batch and end-of-stream through one hand-off, with one error
/// path. With `EngineOptions::worker_threads > 1` execution is
/// *morsel-driven* (docs/ARCHITECTURE.md "Threading model"): a fixed
/// worker pool pulls (target, sealed-batch) morsels from per-target
/// strands — each fan-out branch runs concurrently per ingested buffer,
/// and a qualifying keyed stateful suffix is compiled once per worker and
/// fed by hashing the key into per-partition selection vectors, so every
/// clone owns disjoint state and per-key results match sequential
/// execution.
///
/// The engine tracks per-query statistics — events/bytes ingested and
/// emitted, wall-clock time, derived e/s and MB/s, per-operator flow keyed
/// by DAG path and per-sink emitted counts — which the benchmark harness
/// reports against the paper's Table T1 numbers.

#pragma once

#include <atomic>
#include <thread>

#include "common/mutex.hpp"
#include "nebula/metrics/metrics.hpp"
#include "nebula/optimizer.hpp"
#include "nebula/query.hpp"

namespace nebulameos::nebula {

/// \brief Flow counters of one terminal sink, keyed by its DAG path ("" on
/// a linear plan, "0"/"1"/... for fan-out branches, "1.0" nested).
struct SinkStats {
  std::string path;
  std::string name;
  uint64_t events_emitted = 0;
  uint64_t bytes_emitted = 0;
};

/// \brief Post-run (or in-flight) statistics of one query. Its flow is a
/// view over the query's metrics registry: ingest from the
/// `engine.{events,bytes}_ingested` counters, each operator's and sink's
/// flow from its `op.<path/>Name[#k]` instruments (`FlowInstruments`).
struct QueryStats {
  uint64_t events_ingested = 0;
  uint64_t bytes_ingested = 0;
  /// Summed over every sink of the plan.
  uint64_t events_emitted = 0;
  uint64_t bytes_emitted = 0;
  int64_t elapsed_micros = 0;
  /// Pooled buffers drawn across every schema pool of the query — the
  /// allocation-accounting number: zero-copy fan-out means this does not
  /// scale with branch count, and selection-vector filtering means
  /// filters draw nothing at all.
  uint64_t buffers_acquired = 0;
  /// Pooled buffers built across every schema pool of the query. Pools
  /// build on demand up to their cap and reuse what they built, so this
  /// is the query's in-flight high-water mark, summed over its pools —
  /// the memory its buffers hold, in buffers.
  uint64_t buffers_created = 0;
  /// Morsel tasks shed at saturated strand queues under a degradation
  /// shed policy (always 0 under the default `ShedPolicy::kBlock`).
  uint64_t tasks_shed = 0;

  /// Ingested events per second of wall-clock run time.
  double EventsPerSecond() const {
    return elapsed_micros <= 0
               ? 0.0
               : static_cast<double>(events_ingested) /
                     (static_cast<double>(elapsed_micros) / 1e6);
  }

  /// Ingested megabytes (10^6 bytes) per second of wall-clock run time.
  double MegabytesPerSecond() const {
    return elapsed_micros <= 0
               ? 0.0
               : static_cast<double>(bytes_ingested) / 1e6 /
                     (static_cast<double>(elapsed_micros) / 1e6);
  }

  /// Per-operator flow in pipeline (depth-first) order. The key is the
  /// operator name prefixed by its DAG path — plain "Filter" in the
  /// shared prefix or a linear plan, "0/WindowAgg" inside branch 0 — so
  /// shared-prefix work is distinguishable from per-branch work. Fused
  /// kernel runs list one entry per fused stage, and the key-partition
  /// clones of an operator one entry for all of them.
  std::vector<std::pair<std::string, OperatorStats>> operator_stats;

  /// Per-sink emitted counts in DAG-path order (one entry on linear plans).
  std::vector<SinkStats> sink_stats;
};

/// \brief Engine configuration.
struct EngineOptions {
  /// Records per buffer, in [1, 2^32 - 1] (`Submit` and `SubmitShared`
  /// reject other values: a zero-capacity buffer never fills, and
  /// selection vectors index rows as `uint32_t`). Each query keeps one
  /// buffer pool per schema, which builds buffers as the query draws them
  /// and holds at most 128.
  size_t tuples_per_buffer = 1024;
  /// Workers in the morsel-driven pool. 1 executes every query inline on
  /// its ingest thread; N > 1 runs fan-out branches concurrently and
  /// hash-partitions qualifying keyed stateful suffixes N ways, each
  /// dispatch target on a strand that queues at most 8 batches before
  /// ingest blocks. 0 (the default) resolves from the `NM_WORKER_THREADS`
  /// environment variable, else 1 — the toggle the TSan CI job uses to
  /// force every existing test through the concurrent path unchanged.
  size_t worker_threads = 0;
  /// Logical-plan rewrite configuration; `optimizer.enable = false`
  /// submits plans verbatim (A/B benchmarking, debugging).
  OptimizerOptions optimizer;
  /// Lower Filter→Map→Project runs to fused batch kernels at compile time
  /// (`CompileOptions::compiled_kernels`). False forces the interpreted
  /// `Expression::Eval` path everywhere — the A/B switch the benches use
  /// to quantify the compiled-kernel win. Expressions the compiler
  /// refuses fall back to the interpreter either way.
  bool compiled_kernels = true;
  /// Simulated topology for placed plans (non-owning; must outlive the
  /// engine). When set, submitted plans carrying placement annotations
  /// lower their node transitions to network-channel operator pairs and
  /// `Deployment` reports the traffic those channels measured. When null
  /// (the default), placement annotations are ignored and every plan
  /// executes single-node.
  const Topology* topology = nullptr;
  /// When > 0, each running query starts a sampler thread firing at this
  /// interval: every tick derives windowed ingest/emit throughput gauges
  /// (`engine.ingest_events_per_sec` / `engine.emit_events_per_sec`) and
  /// bumps `engine.metric_samples`, so a live snapshot carries *current*
  /// rates. 0 (the default) records no rates and starts no thread.
  Duration metrics_interval = 0;
  /// Fault tolerance (docs/ARCHITECTURE.md "Fault model & recovery"):
  /// `faults.profile` is injected on every lowered network channel
  /// (combined with the per-link `TopologyLink::fault` profiles along its
  /// route), `faults.retry` configures each channel pair's retransmit
  /// queue, backoff and reorder-repair buffer. The `NM_FAULT_PROFILE`
  /// environment variable, when set and parseable, overrides
  /// `faults.profile` at engine construction — the CI fault-injection
  /// gate's whole-suite switch.
  FaultToleranceOptions faults = {};
};

/// \brief `Explain` renderings of a submitted query's plan, captured at
/// submission (the plan itself is consumed by compilation).
struct QueryPlanText {
  std::string logical;    ///< as submitted, pre-optimization
  std::string optimized;  ///< after the rewrite pipeline
};

/// \brief Compiles, runs and tracks queries on one (simulated) node.
class NodeEngine {
 public:
  explicit NodeEngine(EngineOptions options = {});
  ~NodeEngine();

  NodeEngine(const NodeEngine&) = delete;
  NodeEngine& operator=(const NodeEngine&) = delete;

  /// Validates, optimizes (per `EngineOptions::optimizer`) and compiles a
  /// plan; returns its query id. The plan must have a source and a sink on
  /// every root-to-leaf path. Plans carrying placement annotations are
  /// submitted verbatim — placement is computed against a specific
  /// (already-optimized) plan shape, so the rewriter never runs over a
  /// placed plan.
  Result<int> Submit(LogicalPlan plan);

  /// Convenience: builds the fluent query and submits the emitted plan.
  Result<int> Submit(Query query);

  // --- Shared-query serving (serving/shared_query_manager.hpp) ---
  //
  // A *shared host* is a query whose plan is a sink-less linear operator
  // prefix: the source and prefix execute once per buffer, and any number
  // of *shared-host branches* — operator suffixes ending in a sink —
  // attach below it, each receiving the same sealed output batch. They are
  // dispatch targets like a fan-out's branches, added and retired at
  // runtime instead of at submit. The serving layer merges structurally
  // prefix-equal client queries onto one host; these engine hooks are the
  // mechanism.

  /// Submits a shared host: a query whose root target list starts empty
  /// and holds the branches `AttachBranch` adds. \p prefix_plan must pass
  /// `CheckStructure` in `ChainTermination::kSharedPrefix` mode (no sink,
  /// no fan-out; a refusal returns the first finding); it is compiled
  /// verbatim (the serving manager pre-optimizes — rewriting here could
  /// change the shape branch suffixes were matched against) and never
  /// partition-parallelized (branches own the stateful tails). When
  /// \p delivery_node names a topology node different from the prefix's
  /// last placed node, the shared stream is shipped there once over a
  /// single network channel, lowered as `CompilePlan` lowers any placement
  /// transition (`LowerTransition`) — every attached branch then consumes
  /// node-local data, which is what makes the fleet uplink cost
  /// independent of the number of branch queries.
  Result<int> SubmitShared(LogicalPlan prefix_plan,
                           int delivery_node = LogicalOperator::kUnplaced);

  /// Attaches \p suffix_ops (a linear chain ending in a `SinkNode`) as a
  /// new branch of shared host \p host_id — one more dispatch target in
  /// the host's root list — and returns the branch id. The suffix must
  /// pass `CheckStructure` with termination required, as a plan's chain
  /// does at `Validate`, and must not fan out; a refusal is
  /// `InvalidArgument` and attaches nothing. Valid before
  /// `Start` and *while the host runs* — runtime admission: the branch
  /// starts consuming from the next dispatched buffer boundary, with its
  /// own strand (actor-serialized state) and its own metrics under the
  /// `b<id>/` DAG path. The suffix compiles single-node with one
  /// partition: it runs where the shared stream was delivered, and a
  /// `MergeNode` input sink must see its arrivals from one strand. Its
  /// failure detaches only this branch (`BranchStatus`); every other
  /// target's failure fails its query, tagged with the target's path.
  Result<int> AttachBranch(int host_id,
                           std::vector<LogicalOperatorPtr> suffix_ops);

  /// Detaches one shared-host branch: it stops receiving batches at the
  /// next buffer boundary and its queued in-flight tasks drain harmlessly
  /// (the branch's record, with its operator state and statistics, lives
  /// until the host is destroyed). The host keeps running for the
  /// remaining branches; cancelling the host when the *last* branch leaves
  /// is the serving layer's job.
  Status DetachBranch(int host_id, int branch_id);

  /// Per-branch statistics: the host's shared ingest counters plus the
  /// branch's own operator and sink flow — the view a client of the
  /// serving layer sees for its virtual query.
  Result<QueryStats> BranchStats(int host_id, int branch_id) const;

  /// Health of one shared-host branch: OK while the branch is attached (or
  /// was detached cleanly), or the failure that force-detached it — a
  /// branch whose own operators error is detached by the engine with a
  /// descriptive `Status` while its siblings and the shared ingest keep
  /// running (fault isolation). `NotFound` for ids never attached.
  Status BranchStatus(int host_id, int branch_id) const;

  /// Starts the query's worker thread(s).
  Status Start(int query_id);

  /// Blocks until the query's source is exhausted and the pipeline
  /// flushed. Any number of threads may wait on one query; each gets its
  /// final status.
  Status Wait(int query_id);

  /// Requests cooperative cancellation (the source loop stops at the next
  /// buffer boundary), then waits.
  Status Cancel(int query_id);

  /// Convenience: Start + Wait.
  Status RunToCompletion(int query_id);

  /// Statistics snapshot (valid after Wait/Cancel; in-flight reads see the
  /// latest completed buffer counts).
  Result<QueryStats> Stats(int query_id) const;

  /// Point-in-time value copy of the query's metrics registry — safe to
  /// call while the query runs on any number of workers (instrument reads
  /// are relaxed-atomic; the snapshot owns plain values). Every query
  /// records (docs/ARCHITECTURE.md "Observability"): per-operator latency
  /// and batch-size histograms, per-channel wire counters, per-strand
  /// queue depth/task-wait instruments and engine-level flow counters.
  /// Metric names are identical across worker counts: operators key by
  /// DAG path (fused kernel stages under their original chained names,
  /// the k-th same-named one on a path as `<Name>#k`), strand instruments
  /// by dispatch-target path (partition clones share their segment's path
  /// and its instruments).
  Result<metrics::MetricsSnapshot> Metrics(int query_id) const;

  /// The query's plan renderings (pre- and post-optimization), captured at
  /// submission — plan introspection for tests, demos and debugging.
  Result<QueryPlanText> Explain(int query_id) const;

  /// The deployment report *measured* from the traffic the query's
  /// network channels carried (valid after Wait; in-flight reads see the
  /// traffic so far): per-hop payload bytes and transfer seconds, uplink
  /// bytes, wire bytes and frames. A query compiled without placement (or
  /// without a topology) has no channels and reports zero traffic — the
  /// whole pipeline ran on one node.
  Result<DeploymentReport> Deployment(int query_id) const;

  /// Number of registered queries.
  size_t NumQueries() const;

 private:
  struct RunningQuery;

  /// Shared tail of `Submit` and `SubmitShared`: builds a dispatch target
  /// record for every segment of the compiled pipeline, opening and
  /// binding each, and registers the query with its source under a fresh
  /// id.
  Result<int> Register(std::unique_ptr<RunningQuery> rq, SourcePtr source);
  Result<RunningQuery*> Find(int query_id) const;
  void RunLoop(RunningQuery* rq);

  EngineOptions options_;
  size_t worker_threads_ = 1;  ///< resolved from options/env at construction
  mutable nebulameos::Mutex mutex_;
  std::map<int, std::unique_ptr<RunningQuery>> queries_ NM_GUARDED_BY(mutex_);
  int next_id_ NM_GUARDED_BY(mutex_) = 1;
};

}  // namespace nebulameos::nebula
