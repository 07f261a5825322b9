#include "nebula/engine.hpp"

#include <cstdlib>
#include <limits>

#include "common/logging.hpp"
#include "nebula/analysis/pipeline_verifier.hpp"
#include "nebula/analysis/plan_verifier.hpp"
#include "nebula/metrics/sampler.hpp"
#include "nebula/worker_pool.hpp"

namespace nebulameos::nebula {

namespace {

// Worker count resolution: an explicit option wins; otherwise the
// NM_WORKER_THREADS environment variable (the CI/TSan toggle that forces
// every test through the concurrent path unchanged); otherwise 1.
size_t ResolveWorkerThreads(size_t configured) {
  if (configured > 0) return configured;
  if (const char* env = std::getenv("NM_WORKER_THREADS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 1;
}

// splitmix64 finalizer: partition router hash for integer keys. The raw
// key must not pick the partition directly — sequential ids would then
// map adjacent keys to adjacent partitions and skew under stride
// patterns.
uint64_t HashKeyInt(int64_t v) {
  uint64_t x = static_cast<uint64_t>(v) + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// FNV-1a: partition router hash for text keys.
uint64_t HashKeyText(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Cap on the buffers each schema pool of a query's execution context
// builds; pools start empty and build on demand up to it.
constexpr size_t kBuffersPerPool = 128;

// `EngineOptions::tuples_per_buffer` must be in [1, UINT32_MAX]: sources
// fill a zero-capacity buffer with no rows and report more to come, so
// the ingest loop spins, and selection vectors index rows as uint32_t.
Status CheckTuplesPerBuffer(size_t tuples_per_buffer) {
  if (tuples_per_buffer == 0 ||
      tuples_per_buffer > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "EngineOptions::tuples_per_buffer must be in [1, 2^32 - 1], got " +
        std::to_string(tuples_per_buffer));
  }
  return Status::OK();
}

// Morsels a strand queues before a post from the ingest thread blocks
// (or sheds, under a degradation shed policy): the bounded morsel queue
// that backpressures ingest against slow operators.
constexpr size_t kStrandCapacity = 8;

// A segment's dispatch-target path as strand instruments and task
// errors name it.
std::string PathKey(const CompiledPipeline& seg) {
  return seg.path.empty() ? "root" : seg.path;
}

// A segment's DAG path as operator instruments and `operator_stats` keys
// prefix it: "" at the root, "<path>/" elsewhere.
std::string PathPrefix(const CompiledPipeline& seg) {
  return seg.path.empty() ? "" : seg.path + "/";
}

// The `operator_stats` entries of one dispatch target's segment in
// operator order, and each sink's entry index with its `SinkStats` row
// (counts unset). Built once when the instruments bind and immutable
// afterwards, so `Stats` reads it without a lock.
struct FlowView {
  std::vector<FlowEntry> entries;
  std::vector<std::pair<size_t, SinkStats>> sinks;
};

// Appends `view`'s entries to `stats`; each sink's flow also fills its
// `SinkStats` row and counts into the emitted totals.
void AppendFlow(const FlowView& view, QueryStats* stats) {
  const size_t first = stats->operator_stats.size();
  for (const FlowEntry& entry : view.entries) {
    stats->operator_stats.emplace_back(entry.key, entry.flow.Read());
  }
  for (auto [entry, sink] : view.sinks) {
    const OperatorStats& flow = stats->operator_stats[first + entry].second;
    sink.events_emitted = flow.events_in;
    sink.bytes_emitted = flow.bytes_in;
    stats->events_emitted += flow.events_in;
    stats->bytes_emitted += flow.bytes_in;
    stats->sink_stats.push_back(std::move(sink));
  }
}

}  // namespace

struct NodeEngine::RunningQuery {
  int id = 0;
  SourcePtr source;
  CompiledPipeline pipeline;  // operator tree; sinks at the leaves
  std::unique_ptr<ExecutionContext> ctx;

  // The ingest thread. The first waiter joins it under `join_mutex`;
  // concurrent waiters block on the mutex, then read the same status.
  Mutex join_mutex;
  std::thread worker NM_GUARDED_BY(join_mutex);
  std::atomic<bool> cancel{false};
  std::atomic<bool> started{false};
  std::atomic<bool> finished{false};
  Status run_status;  // written by `worker` before it exits

  std::atomic<int64_t> started_at{0};
  std::atomic<int64_t> finished_at{0};

  // Plan renderings captured at submission (the plan is consumed).
  QueryPlanText plan_text;

  // --- Observability (docs/ARCHITECTURE.md "Observability") ---
  // The query's instrument registry. Instruments are resolved once at
  // submission (Prepare) and recorded through raw pointers on the hot
  // path — relaxed atomics, no lock, no map lookup. Declared before
  // `pool` so in-flight worker tasks can still record while the pool
  // destructor drains them.
  metrics::MetricsRegistry metrics;
  // Periodic rate sampler (metrics_interval > 0); declared after the
  // registry (destroyed first) and stopped at the end of RunLoop.
  std::unique_ptr<metrics::Sampler> sampler;
  // Verify-each: check the batch contract (sealed buffer, ascending
  // in-bounds selection) at every segment entry. Set from
  // `OptimizerOptions::verify_each` at submission.
  bool verify_batches = false;
  // Engine-level flow counters and sampler-derived rate gauges.
  metrics::Counter* m_events_ingested =
      metrics.GetCounter("engine.events_ingested");
  metrics::Counter* m_bytes_ingested =
      metrics.GetCounter("engine.bytes_ingested");
  metrics::Counter* m_events_emitted =
      metrics.GetCounter("engine.events_emitted");
  metrics::Counter* m_bytes_emitted =
      metrics.GetCounter("engine.bytes_emitted");
  metrics::Gauge* m_ingest_rate =
      metrics.GetGauge("engine.ingest_events_per_sec");
  metrics::Gauge* m_emit_rate = metrics.GetGauge("engine.emit_events_per_sec");
  metrics::Counter* m_samples = metrics.GetCounter("engine.metric_samples");

  // The `worker.strand.<path>` backpressure instruments of one
  // dispatch-target path.
  struct StrandMetrics {
    metrics::Gauge* queue_depth = nullptr;     ///< live queued-batch count
    metrics::Histogram* task_wait = nullptr;   ///< post → run latency
    std::atomic<int64_t> depth{0};
  };

  // --- Dispatch targets ---
  // One record per dispatch target: a fan-out branch, a key-partition
  // clone or a shared-host branch, plus `root`, the segment the ingest
  // thread runs. `Prepare` builds a record for every segment of the tree
  // `CompilePlan` built; `AttachBranch` adds one per shared-host branch to
  // the root's list, and `DetachBranch` drops it from there. Records live
  // until the query is destroyed, after the pool drained, so a queued task
  // holds a plain pointer to its target even after a detach.
  struct Target;
  using TargetList = std::vector<Target*>;
  struct Target {
    CompiledPipeline* pipe = nullptr;  ///< the segment it runs
    /// Owns `pipe` for a shared-host branch, which runs its own suffix.
    std::unique_ptr<CompiledPipeline> suffix;
    /// Where the segment's tail hands each batch: its fan-out branches, its
    /// key-partition clones (in partition order) or a shared host's
    /// attached branches. Replaced whole under `dyn_mutex`, never changed
    /// in place, so a reader keeps one consistent list per batch.
    std::shared_ptr<const TargetList> targets;
    std::unique_ptr<WorkerPool::Strand> strand;  ///< null at one worker
    /// Its path's instruments; the key-partition clones of one segment
    /// carry its path and share one set, so metric names and queue depth
    /// do not depend on the worker count.
    std::shared_ptr<StrandMetrics> sm;
    FlowView flow;  ///< its segment's `operator_stats` entries
    // Shared-host branches only (`branch_id` is 0 for every other target).
    int branch_id = 0;
    std::atomic<bool> detached{false};
    /// Why the engine detached the branch (OK for a clean detach).
    /// Guarded by dyn_mutex.
    Status failure;
  };
  bool shared_host = false;  ///< submitted via `SubmitShared`
  // Guards every target list, `owned`, `next_branch_id` and (for admission
  // racing `Start`) pool and strand creation. Never held across engine
  // waits. Declared, with the targets, before `pool`: a detached branch's
  // strand may still be in a worker's hands until the pool is gone.
  mutable Mutex dyn_mutex;
  Target root;
  std::vector<std::unique_ptr<Target>> owned NM_GUARDED_BY(dyn_mutex);
  int next_branch_id NM_GUARDED_BY(dyn_mutex) = 1;

  // Morsel execution (worker_threads > 1): every target but the root runs
  // on its own strand, which keeps its stateful operators single-threaded
  // and its buffer order intact while distinct targets run concurrently.
  std::unique_ptr<WorkerPool> pool;
  // Task failure handling: every error that fails the query is recorded
  // with the dispatch-target path it occurred on, and `failed` makes later
  // hand-offs short-circuit. The query's final status is the first *root
  // cause*: the earliest non-Cancelled error (a worker that trips over a
  // neighbour's teardown reports Cancelled — a symptom, not the cause),
  // annotated with its path and the count of secondary errors it masked.
  struct TaskError {
    std::string path;
    Status status;
  };
  std::atomic<bool> failed{false};
  Mutex error_mutex;
  std::vector<TaskError> errors NM_GUARDED_BY(error_mutex);

  void RecordFailure(const std::string& path, const Status& st) {
    {
      MutexLock lock(error_mutex);
      errors.push_back({path, st});
    }
    failed.store(true, std::memory_order_relaxed);
  }

  Status FirstRootCause() NM_EXCLUDES(error_mutex) {
    MutexLock lock(error_mutex);
    if (errors.empty()) return Status::OK();
    const TaskError* root_cause = &errors.front();
    for (const TaskError& e : errors) {
      if (e.status.code() != StatusCode::kCancelled) {
        root_cause = &e;
        break;
      }
    }
    std::string msg =
        "[" + root_cause->path + "] " + root_cause->status.message();
    if (errors.size() > 1) {
      msg += " (+" + std::to_string(errors.size() - 1) +
             " secondary error(s))";
    }
    return Status(root_cause->status.code(), std::move(msg));
  }

  // Opens `t`'s operators and sink, binds their instruments under the
  // names `names` hands out along its DAG path (fused kernels expanding per
  // stage) with their flow entries listed in `t->flow` when `listed`, and
  // binds its channels and its strand instruments (a fresh set unless it
  // shares its sibling clones'). Then builds and prepares a record for each
  // fan-out branch or key-partition clone of its segment. Each branch
  // numbers its repeated operator names afresh; each clone continues from
  // a copy of its segment's numbering (they share its path), so all clones
  // of one operator bind the same instruments and the first clone's
  // entries read them all. Partition clones share their leaf sink, so it
  // is opened once per clone — Open only stores the context. Runs before
  // `t` is reachable from another thread.
  Status Prepare(Target* t, InstrumentNamer names, bool listed) {
    CompiledPipeline* seg = t->pipe;
    const std::string path_key = PathKey(*seg);
    FlowView unlisted;
    FlowView* view = listed ? &t->flow : &unlisted;
    for (OperatorPtr& op : seg->operators) {
      NM_RETURN_NOT_OK(op->Open(ctx.get()));
      op->BindMetrics(&metrics, &names, &view->entries);
    }
    if (seg->sink) {
      NM_RETURN_NOT_OK(seg->sink->Open(ctx.get()));
      seg->sink->BindMetrics(&metrics, &names, &view->entries);
      view->sinks.emplace_back(view->entries.size() - 1,
                               SinkStats{seg->path, seg->sink->name()});
    }
    for (size_t i = 0; i < seg->channels.size(); ++i) {
      const std::shared_ptr<NetworkChannel>& ch = seg->channels[i];
      const std::string base = "channel." + path_key + "." +
                               std::to_string(i) + "." +
                               std::to_string(ch->from_node()) + "->" +
                               std::to_string(ch->to_node());
      ch->BindMetrics(metrics.GetCounter(base + ".wire_bytes"),
                      metrics.GetCounter(base + ".frames"),
                      metrics.GetCounter(base + ".events"),
                      metrics.GetHistogram(base + ".transfer_micros"));
      ch->BindFaultMetrics(metrics.GetCounter(base + ".frames_dropped"),
                           metrics.GetCounter(base + ".retransmits"),
                           metrics.GetCounter(base + ".frames_shed"));
    }
    if (!t->sm) t->sm = std::make_shared<StrandMetrics>();
    t->sm->queue_depth =
        metrics.GetGauge("worker.strand." + path_key + ".queue_depth");
    t->sm->task_wait =
        metrics.GetHistogram("worker.strand." + path_key + ".task_wait_micros");
    const bool clones = !seg->partitions.empty();
    const auto clones_sm = clones ? std::make_shared<StrandMetrics>() : nullptr;
    auto targets = std::make_shared<TargetList>();
    for (CompiledPipeline& below : clones ? seg->partitions : seg->branches) {
      auto record = std::make_unique<Target>();
      record->pipe = &below;
      record->sm = clones_sm;
      NM_RETURN_NOT_OK(
          Prepare(record.get(),
                  clones ? names : InstrumentNamer(PathPrefix(below)),
                  !clones || targets->empty()));
      MutexLock lock(dyn_mutex);
      targets->push_back(owned.emplace_back(std::move(record)).get());
    }
    t->targets = std::move(targets);
    return Status::OK();
  }

  // The targets `t`'s tail dispatches to right now.
  std::shared_ptr<const TargetList> Targets(const Target& t) const
      NM_EXCLUDES(dyn_mutex) {
    MutexLock lock(dyn_mutex);
    return t.targets;
  }

  // Depth-first visit of `t` and every target below it.
  template <typename Fn>
  void ForEachTarget(Target& t, const Fn& fn) NM_REQUIRES(dyn_mutex) {
    fn(t);
    for (Target* below : *t.targets) ForEachTarget(*below, fn);
  }

  // Gives every target below the root that has none its own strand (the
  // root runs on the ingest thread), then, under verify-each, proves that
  // no strand serves two targets: the actor guarantee stateful targets
  // rely on.
  Status AssignStrands() NM_REQUIRES(dyn_mutex) {
    std::vector<std::pair<std::string, const void*>> owners;
    ForEachTarget(root, [this, &owners](Target& t) {
      if (&t == &root) return;
      if (!t.strand) t.strand = pool->MakeStrand();
      owners.emplace_back(PathKey(*t.pipe), t.strand.get());
    });
    return verify_batches ? analysis::VerifyStrandOwnership(owners)
                          : Status::OK();
  }

  // The two units of work a dispatch target receives through `HandOff`:
  // one batch through its chain, and end-of-stream.
  auto Push(const exec::Batch& batch) {
    return [this, batch](Target* t) { return PushThrough(t, 0, batch); };
  }
  auto Finish() {
    return [this](Target* t) { return FinishSegment(t); };
  }

  // Whether a hand-off to `t` is skipped: once the query failed or was
  // cancelled (cancel is not end-of-stream, so no further state is built;
  // the drain that follows only retires the queued captures), or once its
  // shared-host branch detached.
  bool Skip(const Target& t) const {
    return failed.load(std::memory_order_relaxed) ||
           cancel.load(std::memory_order_relaxed) ||
           t.detached.load(std::memory_order_relaxed);
  }

  // The one hand-off, for every dispatch target and every unit of `work`.
  // Without a pool it runs inline and records a zero task wait, so the
  // strand instruments exist and read 0 at one worker, matching the
  // multi-worker metric names. With one it posts to the target's strand,
  // tracking queued depth on post/run and post→run wait per task; strand
  // FIFO order means a finish task observes every batch posted before it.
  // Inline and posted work fail the same way (`Fail`).
  template <typename Work>
  void HandOff(Target* t, Work work) {
    if (Skip(*t)) return;
    StrandMetrics* sm = t->sm.get();
    if (!pool) {
      sm->task_wait->Record(0);
      Fail(t, work(t));
      return;
    }
    const int64_t posted_at = MonotonicNowMicros();
    sm->queue_depth->Set(static_cast<double>(
        sm->depth.fetch_add(1, std::memory_order_relaxed) + 1));
    t->strand->Post([this, t, sm, work = std::move(work), posted_at] {
      sm->task_wait->Record(MonotonicNowMicros() - posted_at);
      sm->queue_depth->Set(static_cast<double>(
          sm->depth.fetch_sub(1, std::memory_order_relaxed) - 1));
      if (!Skip(*t)) Fail(t, work(t));
    });
  }

  // The one error path of a hand-off (a no-op for OK). A shared-host
  // branch whose own operators error is detached with a descriptive status
  // instead of failing the host: its siblings and the shared ingest keep
  // running, and its owner reads the failure through `BranchStatus`. Any
  // other target's error fails the query, tagged with the target's path.
  void Fail(Target* t, const Status& st) NM_EXCLUDES(dyn_mutex) {
    if (st.ok()) return;
    if (t->branch_id == 0) {
      RecordFailure(PathKey(*t->pipe), st);
      return;
    }
    t->detached.store(true, std::memory_order_relaxed);
    MutexLock lock(dyn_mutex);
    t->failure = Status(st.code(), "branch " + t->pipe->path +
                                       " detached: " + st.message());
    NM_LOG_ERROR() << "query " << id << " " << t->failure.ToString();
    RetireLocked(t);
  }

  // Routes each selected row of `batch` to the key-partition clone owning
  // its key (hash of the key field modulo the clone count) as a selection
  // vector over the *shared* sealed buffer — the hand-off copies row
  // indices, never rows.
  void DispatchPartitions(const CompiledPipeline& seg, const TargetList& clones,
                          const exec::Batch& batch) {
    const bool text_key = seg.partition_key_type == DataType::kText16 ||
                          seg.partition_key_type == DataType::kText32;
    std::vector<exec::SelectionVector> sels(clones.size());
    for (size_t i = 0; i < batch.NumRows(); ++i) {
      const size_t row = batch.RowAt(i);
      const RecordView rec = batch.data->At(row);
      const uint64_t h =
          text_key ? HashKeyText(rec.GetText(seg.partition_key_index))
                   : HashKeyInt(rec.GetInt64(seg.partition_key_index));
      sels[h % clones.size()].push_back(static_cast<uint32_t>(row));
    }
    for (size_t p = 0; p < clones.size(); ++p) {
      if (sels[p].empty()) continue;
      HandOff(clones[p],
              Push(exec::Batch(batch.data,
                               std::make_shared<exec::SelectionVector>(
                                   std::move(sels[p])))));
    }
  }

  // End of a segment's operator chain: into the sink at a leaf, else to
  // the key partitions, or once to every other target (every fan-out or
  // shared-host branch receives the *same* sealed batch; buffers are
  // immutable after seal and filters refine selection vectors instead of
  // mutating, so the hand-off is zero-copy).
  Status DispatchTail(Target* t, const exec::Batch& batch) {
    CompiledPipeline* seg = t->pipe;
    if (seg->sink != nullptr) {
      const int64_t start = MonotonicNowMicros();
      const Status st =
          seg->sink->ProcessBatch(batch, [](const exec::Batch&) {});
      seg->sink->RecordProcess(MonotonicNowMicros() - start, batch);
      m_events_emitted->Add(batch.NumRows());
      m_bytes_emitted->Add(batch.SizeBytes());
      return st;
    }
    const std::shared_ptr<const TargetList> targets = Targets(*t);
    if (!seg->partitions.empty()) {
      DispatchPartitions(*seg, *targets, batch);
      return Status::OK();
    }
    for (Target* target : *targets) HandOff(target, Push(batch));
    return Status::OK();
  }

  // The branch `branch_id` of a shared host, attached or retired (cleanly
  // detached or force-detached after a failure); null if never attached.
  Target* FindBranch(int branch_id) const NM_EXCLUDES(dyn_mutex) {
    if (branch_id == 0) return nullptr;  // 0 marks every other target
    MutexLock lock(dyn_mutex);
    for (const std::unique_ptr<Target>& t : owned) {
      if (t->branch_id == branch_id) return t.get();
    }
    return nullptr;
  }

  // Drops `t` from the shared host's list; a no-op once it is gone.
  void RetireLocked(const Target* t) NM_REQUIRES(dyn_mutex) {
    auto targets = std::make_shared<TargetList>(*root.targets);
    std::erase(*targets, t);
    root.targets = std::move(targets);
  }

  // Pushes a batch through segment operators [from..] and onward via
  // `DispatchTail`. The engine is the one place that records flow: each
  // operator's input batch and every batch it forwards land in its flow
  // instruments here. Each operator's process-latency histogram records
  // its *self* time: wall time of ProcessBatch minus the time spent
  // inside the forward continuation (which runs the rest of the chain).
  // Fused batch-kernel operators record their stages internally instead
  // and leave the base instruments unbound, so these hooks no-op for
  // them.
  Status PushThrough(Target* t, size_t from, const exec::Batch& batch) {
    if (verify_batches && from == 0) {
      NM_RETURN_NOT_OK(analysis::VerifyBatch(batch));
    }
    if (from >= t->pipe->operators.size()) {
      return DispatchTail(t, batch);
    }
    Operator* op = t->pipe->operators[from].get();
    int64_t child_micros = 0;
    Status inner = Status::OK();
    auto forward = [this, t, from, op, &inner,
                    &child_micros](const exec::Batch& out) {
      op->RecordOut(out);
      const int64_t t0 = MonotonicNowMicros();
      Status st = PushThrough(t, from + 1, out);
      child_micros += MonotonicNowMicros() - t0;
      if (!st.ok() && inner.ok()) inner = st;
    };
    const int64_t start = MonotonicNowMicros();
    Status s = op->ProcessBatch(batch, forward);
    op->RecordProcess(MonotonicNowMicros() - start - child_micros, batch);
    if (!s.ok()) return s;
    return inner;
  }

  // End-of-stream: cascade Finish through the segment's chain (flushed
  // state flows through the rest of the chain and into the downstream
  // targets), then finish every target below it.
  Status FinishSegment(Target* t) {
    for (size_t i = 0; i < t->pipe->operators.size(); ++i) {
      Operator* op = t->pipe->operators[i].get();
      Status inner = Status::OK();
      auto forward = [this, t, i, op, &inner](const exec::Batch& out) {
        op->RecordOut(out);
        Status st = PushThrough(t, i + 1, out);
        if (!st.ok() && inner.ok()) inner = st;
      };
      Status s = op->Finish(forward);
      if (!s.ok()) return s;
      if (!inner.ok()) return inner;
    }
    const std::shared_ptr<const TargetList> targets = Targets(*t);
    for (Target* target : *targets) HandOff(target, Finish());
    return Status::OK();
  }

  // `Stats` of the whole query (`t` = the root) or `BranchStats` of one
  // shared-host branch: ingest (the registry's engine counters), elapsed
  // time, pool and shed counts, and the flow of `t` and every target below
  // it.
  QueryStats StatsOf(Target& t) NM_EXCLUDES(dyn_mutex) {
    QueryStats stats;
    stats.events_ingested = m_events_ingested->value();
    stats.bytes_ingested = m_bytes_ingested->value();
    if (finished.load()) {
      stats.elapsed_micros = finished_at.load() - started_at.load();
    } else if (started.load()) {
      stats.elapsed_micros = MonotonicNowMicros() - started_at.load();
    }
    stats.buffers_acquired = ctx->TotalBuffersAcquired();
    stats.buffers_created = ctx->TotalBuffersCreated();
    MutexLock lock(dyn_mutex);  // Start creates the pool under it
    stats.tasks_shed = pool ? pool->tasks_shed() : 0;
    ForEachTarget(t, [&stats](const Target& each) {
      AppendFlow(each.flow, &stats);
    });
    return stats;
  }
};

NodeEngine::NodeEngine(EngineOptions options)
    : options_(options),
      worker_threads_(ResolveWorkerThreads(options.worker_threads)) {
  // NM_FAULT_PROFILE overrides the configured channel fault profile — the
  // CI fault-injection gate runs the whole suite lossy through this.
  if (std::optional<FaultProfile> env = EnvFaultProfile()) {
    options_.faults.profile = *env;
  }
}

NodeEngine::~NodeEngine() {
  std::vector<int> ids;
  {
    MutexLock lock(mutex_);
    for (const auto& [id, rq] : queries_) ids.push_back(id);
  }
  for (int id : ids) (void)Cancel(id);
}

Result<int> NodeEngine::Submit(LogicalPlan plan) {
  NM_RETURN_NOT_OK(CheckTuplesPerBuffer(options_.tuples_per_buffer));
  NM_RETURN_NOT_OK(plan.Validate());
  auto rq = std::make_unique<RunningQuery>();
  rq->plan_text.logical = plan.Explain();
  // Placed plans submit verbatim: placement annotations are tied to the
  // exact plan shape they were computed for, and rewrite passes create
  // and move nodes without carrying annotations — rewriting here would
  // silently shift the lowered channel boundaries. (The placement flow
  // rewrites to fixpoint *before* annotating.)
  if (options_.optimizer.enable && !plan.IsPlaced()) {
    const PlanRewriter rewriter = PlanRewriter::Default(options_.optimizer);
    NM_RETURN_NOT_OK(rewriter.Rewrite(&plan));
  }
  rq->plan_text.optimized = plan.Explain();
  if (options_.optimizer.verify_each) {
    analysis::VerifyContext vctx;
    vctx.topology = options_.topology;
    NM_RETURN_NOT_OK(analysis::VerifyPlan(plan, vctx));
  }
  CompileOptions compile_options;
  compile_options.compiled_kernels = options_.compiled_kernels;
  compile_options.partitions = worker_threads_;
  compile_options.faults = options_.faults;
  NM_ASSIGN_OR_RETURN(rq->pipeline,
                      CompilePlan(plan.source()->schema(), plan,
                                  options_.topology, compile_options));
  if (options_.optimizer.verify_each) {
    NM_RETURN_NOT_OK(analysis::VerifyPipeline(rq->pipeline));
    rq->verify_batches = true;
  }
  return Register(std::move(rq), plan.TakeSource());
}

Result<int> NodeEngine::Submit(Query query) {
  NM_ASSIGN_OR_RETURN(LogicalPlan plan, std::move(query).Build());
  return Submit(std::move(plan));
}

Result<int> NodeEngine::Register(std::unique_ptr<RunningQuery> rq,
                                 SourcePtr source) {
  rq->source = std::move(source);
  rq->ctx = std::make_unique<ExecutionContext>(options_.tuples_per_buffer,
                                               kBuffersPerPool);
  rq->root.pipe = &rq->pipeline;
  NM_RETURN_NOT_OK(rq->Prepare(
      &rq->root, InstrumentNamer(PathPrefix(rq->pipeline)), true));
  MutexLock lock(mutex_);
  const int id = next_id_++;
  rq->id = id;
  queries_[id] = std::move(rq);
  return id;
}

Result<NodeEngine::RunningQuery*> NodeEngine::Find(int query_id) const {
  MutexLock lock(mutex_);
  auto it = queries_.find(query_id);
  if (it == queries_.end()) return Status::NotFound("unknown query id");
  return it->second.get();
}

Result<int> NodeEngine::SubmitShared(LogicalPlan plan, int delivery_node) {
  NM_RETURN_NOT_OK(CheckTuplesPerBuffer(options_.tuples_per_buffer));
  if (plan.source() == nullptr) {
    return Status::InvalidArgument("shared plan has no source");
  }
  const std::vector<StructureFinding> findings =
      CheckStructure(plan.ops(), ChainTermination::kSharedPrefix);
  if (!findings.empty()) return findings.front().ToStatus();
  auto rq = std::make_unique<RunningQuery>();
  rq->shared_host = true;
  rq->plan_text.logical = plan.Explain();
  // Submitted verbatim: the serving manager already optimized the prefix,
  // and rewriting here could change the shape branch suffixes were
  // structurally matched against.
  rq->plan_text.optimized = rq->plan_text.logical;
  if (options_.optimizer.verify_each) {
    analysis::VerifyContext vctx;
    vctx.topology = options_.topology;
    vctx.shared_prefix = true;
    NM_RETURN_NOT_OK(analysis::VerifyPlan(plan, vctx));
  }
  CompileOptions compile_options;
  compile_options.compiled_kernels = options_.compiled_kernels;
  compile_options.partitions = 1;  // the stateful tails live in branches
  compile_options.faults = options_.faults;
  NM_ASSIGN_OR_RETURN(rq->pipeline,
                      CompilePlan(plan.source()->schema(), plan,
                                  options_.topology, compile_options));
  // Fleet delivery: ship the shared stream once to the node the branches
  // run on. Every attached branch then consumes node-local data, so the
  // uplink cost stays flat no matter how many client queries share the
  // host.
  if (delivery_node != LogicalOperator::kUnplaced &&
      options_.topology != nullptr) {
    int end_node = plan.source_placement();
    for (const LogicalOperatorPtr& op : plan.ops()) {
      if (op->placement() != LogicalOperator::kUnplaced) {
        end_node = op->placement();
      }
    }
    if (end_node != LogicalOperator::kUnplaced && end_node != delivery_node) {
      NM_RETURN_NOT_OK(LowerTransition(*options_.topology, end_node,
                                       delivery_node,
                                       rq->pipeline.output_schema,
                                       options_.faults, &rq->pipeline));
    }
  }
  if (options_.optimizer.verify_each) {
    analysis::PipelineVerifyContext pctx;
    pctx.expect_dynamic_tail = true;
    NM_RETURN_NOT_OK(analysis::VerifyPipeline(rq->pipeline, pctx));
    rq->verify_batches = true;
  }
  return Register(std::move(rq), plan.TakeSource());
}

Result<int> NodeEngine::AttachBranch(
    int host_id, std::vector<LogicalOperatorPtr> suffix_ops) {
  NM_ASSIGN_OR_RETURN(RunningQuery* rq, Find(host_id));
  if (!rq->shared_host) {
    return Status::FailedPrecondition(
        "query is not a shared host (SubmitShared)");
  }
  const std::vector<StructureFinding> findings =
      CheckStructure(suffix_ops, ChainTermination::kRequired);
  if (!findings.empty()) return findings.front().ToStatus();
  // Past the walk, the suffix ends in a sink or in a terminal fan-out.
  if (suffix_ops.back()->kind() == LogicalOperator::Kind::kFanOut) {
    return Status::InvalidArgument(
        "branch suffix must be linear; attach one branch per leaf");
  }
  auto br = std::make_unique<RunningQuery::Target>();
  {
    MutexLock lock(rq->dyn_mutex);
    br->branch_id = rq->next_branch_id++;
  }
  // Compiled single-node with one partition against the prefix's output
  // schema: the suffix runs where the shared stream was delivered, so
  // branch placement annotations (matched structurally by the serving
  // layer) never open a second channel, and a `MergeNode` input sink sees
  // its arrivals from one strand.
  LogicalPlan suffix_plan;
  for (LogicalOperatorPtr& op : suffix_ops) suffix_plan.Append(std::move(op));
  CompileOptions copts;
  copts.compiled_kernels = options_.compiled_kernels;
  copts.partitions = 1;
  copts.faults = options_.faults;
  br->suffix = std::make_unique<CompiledPipeline>();
  NM_ASSIGN_OR_RETURN(*br->suffix,
                      CompilePlan(rq->pipeline.output_schema, suffix_plan,
                                  nullptr, copts));
  br->pipe = br->suffix.get();
  br->pipe->path = "b" + std::to_string(br->branch_id);
  if (options_.optimizer.verify_each) {
    analysis::PipelineVerifyContext pctx;
    pctx.root_path = br->pipe->path;
    NM_RETURN_NOT_OK(analysis::VerifyPipeline(*br->pipe, pctx));
  }
  NM_RETURN_NOT_OK(
      rq->Prepare(br.get(), InstrumentNamer(PathPrefix(*br->pipe)), true));
  // Publication point: the next dispatch from the host's root sees the
  // branch, so it joins the stream at a buffer boundary — with its strand,
  // which it gets under the same lock once the pool exists.
  const int branch_id = br->branch_id;
  MutexLock lock(rq->dyn_mutex);
  auto targets = std::make_shared<RunningQuery::TargetList>(*rq->root.targets);
  targets->push_back(rq->owned.emplace_back(std::move(br)).get());
  rq->root.targets = std::move(targets);
  if (rq->pool) NM_RETURN_NOT_OK(rq->AssignStrands());
  return branch_id;
}

Status NodeEngine::DetachBranch(int host_id, int branch_id) {
  NM_ASSIGN_OR_RETURN(RunningQuery* rq, Find(host_id));
  RunningQuery::Target* br = rq->FindBranch(branch_id);
  if (br == nullptr) return Status::NotFound("unknown branch id");
  // Flag first: tasks already queued on the branch's strand check the
  // flag and fall through without touching operator state. The record
  // itself lives on with the host — its strand may still be in a worker's
  // hands. Detaching a retired branch (detached earlier, or force-detached
  // after a failure, which stays readable through BranchStatus) is a no-op.
  br->detached.store(true, std::memory_order_relaxed);
  MutexLock lock(rq->dyn_mutex);
  rq->RetireLocked(br);
  return Status::OK();
}

Status NodeEngine::BranchStatus(int host_id, int branch_id) const {
  NM_ASSIGN_OR_RETURN(const RunningQuery* rq, Find(host_id));
  const RunningQuery::Target* br = rq->FindBranch(branch_id);
  if (br == nullptr) return Status::NotFound("unknown branch id");
  MutexLock lock(rq->dyn_mutex);
  return br->failure;
}

Result<QueryStats> NodeEngine::BranchStats(int host_id, int branch_id) const {
  NM_ASSIGN_OR_RETURN(RunningQuery* rq, Find(host_id));
  RunningQuery::Target* br = rq->FindBranch(branch_id);
  if (br == nullptr) return Status::NotFound("unknown branch id");
  // Shared ingest: every branch of the host rides the same source stream.
  return rq->StatsOf(*br);
}

Result<QueryPlanText> NodeEngine::Explain(int query_id) const {
  NM_ASSIGN_OR_RETURN(const RunningQuery* rq, Find(query_id));
  return rq->plan_text;
}

void NodeEngine::RunLoop(RunningQuery* rq) {
  Status status = Status::OK();
  while (!rq->cancel.load() && !rq->failed.load(std::memory_order_relaxed)) {
    TupleBufferPtr buf = rq->ctx->Allocate(rq->source->schema());
    auto more = rq->source->Fill(buf.get());
    if (!more.ok()) {
      status = more.status();
      break;
    }
    rq->m_events_ingested->Add(buf->size());
    rq->m_bytes_ingested->Add(buf->SizeBytes());
    if (!buf->empty()) {
      buf->Seal();
      status = rq->PushThrough(&rq->root, 0, exec::Batch(std::move(buf)));
      if (!status.ok()) break;
    }
    if (!*more) break;
  }
  // Cancellation is not end-of-stream: a cancelled query must not flush
  // its window/CEP state as if the stream completed, so the finish is
  // skipped — partial panes are simply dropped with the query.
  if (status.ok() && !rq->cancel.load()) status = rq->FinishSegment(&rq->root);
  // Run every dispatched morsel (including the finish cascades just
  // posted) to completion before reading the task-side error slot; the
  // drain also guarantees task-captured buffer handles have recycled —
  // on cancellation this is what keeps in-flight strand tasks from
  // touching operator state after teardown began.
  if (rq->pool) rq->pool->Drain();
  // Final sample covers the tail window, then the sampler thread joins —
  // after this no thread but the caller touches the rate gauges.
  if (rq->sampler) rq->sampler->Stop();
  // Ingest/finish errors join the same all-errors model the strand tasks
  // record into, so the reported status is uniformly "first root cause,
  // tagged with its task path, plus a secondary-error count".
  if (!status.ok()) rq->RecordFailure("root", status);
  status = rq->FirstRootCause();
  if (!status.ok()) {
    NM_LOG_ERROR() << "query " << rq->id << " failed: " << status.ToString();
  }
  rq->run_status = status;
  rq->finished_at.store(MonotonicNowMicros());
  rq->finished.store(true);
}

Status NodeEngine::Start(int query_id) {
  NM_ASSIGN_OR_RETURN(RunningQuery* rq, Find(query_id));
  if (rq->started.exchange(true)) {
    return Status::FailedPrecondition("query already started");
  }
  rq->started_at.store(MonotonicNowMicros());
  if (worker_threads_ > 1) {
    // The ingest thread blocks once a target falls kStrandCapacity sealed
    // batches behind (worker-side posts never block — see
    // worker_pool.hpp). Created under dyn_mutex so a concurrent
    // AttachBranch either sees the pool (and gets its strand there) or is
    // seen here (and gets one).
    MutexLock lock(rq->dyn_mutex);
    rq->pool = std::make_unique<WorkerPool>(worker_threads_, kStrandCapacity,
                                            options_.faults.retry.shed_policy);
    NM_RETURN_NOT_OK(rq->AssignStrands());
  }
  if (options_.metrics_interval > 0) {
    // Windowed rates: each tick divides the counter delta since the last
    // tick by the elapsed window, so a long-running query's gauges track
    // the *current* throughput instead of the lifetime average.
    rq->sampler = std::make_unique<metrics::Sampler>(
        options_.metrics_interval,
        [rq, last_in = uint64_t{0},
         last_out = uint64_t{0}](int64_t elapsed_micros) mutable {
          if (elapsed_micros <= 0) return;
          const double secs = static_cast<double>(elapsed_micros) / 1e6;
          const uint64_t in = rq->m_events_ingested->value();
          const uint64_t out = rq->m_events_emitted->value();
          rq->m_ingest_rate->Set(static_cast<double>(in - last_in) / secs);
          rq->m_emit_rate->Set(static_cast<double>(out - last_out) / secs);
          last_in = in;
          last_out = out;
          rq->m_samples->Increment();
        });
  }
  MutexLock lock(rq->join_mutex);
  rq->worker = std::thread([this, rq] { RunLoop(rq); });
  return Status::OK();
}

Status NodeEngine::Wait(int query_id) {
  NM_ASSIGN_OR_RETURN(RunningQuery* rq, Find(query_id));
  if (!rq->started.load()) {
    return Status::FailedPrecondition("query not started");
  }
  MutexLock lock(rq->join_mutex);
  if (rq->worker.joinable()) rq->worker.join();
  return rq->run_status;
}

Status NodeEngine::Cancel(int query_id) {
  NM_ASSIGN_OR_RETURN(RunningQuery* rq, Find(query_id));
  rq->cancel.store(true);
  if (!rq->started.load()) return Status::OK();
  return Wait(query_id);
}

Status NodeEngine::RunToCompletion(int query_id) {
  NM_RETURN_NOT_OK(Start(query_id));
  return Wait(query_id);
}

Result<QueryStats> NodeEngine::Stats(int query_id) const {
  NM_ASSIGN_OR_RETURN(RunningQuery* rq, Find(query_id));
  // A shared host carries its attached branches' flow too, so the host
  // view sums emitted counts across every client riding the prefix.
  return rq->StatsOf(rq->root);
}

Result<metrics::MetricsSnapshot> NodeEngine::Metrics(int query_id) const {
  NM_ASSIGN_OR_RETURN(const RunningQuery* rq, Find(query_id));
  return rq->metrics.Snapshot();
}

Result<DeploymentReport> NodeEngine::Deployment(int query_id) const {
  NM_ASSIGN_OR_RETURN(RunningQuery* rq, Find(query_id));
  // Every channel lowered into any target's segment, depth-first.
  std::vector<std::shared_ptr<NetworkChannel>> channels;
  {
    MutexLock lock(rq->dyn_mutex);
    rq->ForEachTarget(rq->root, [&channels](const RunningQuery::Target& t) {
      channels.insert(channels.end(), t.pipe->channels.begin(),
                      t.pipe->channels.end());
    });
  }
  return MeasureDeployment(channels);
}

size_t NodeEngine::NumQueries() const {
  MutexLock lock(mutex_);
  return queries_.size();
}

}  // namespace nebulameos::nebula
