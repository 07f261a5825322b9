#include "nebula/engine.hpp"

#include <cstdlib>
#include <functional>

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

// Buffers per schema pool of a query's execution context.
constexpr size_t kBuffersPerPool = 128;

// Morsels a strand queues before a post from the ingest thread blocks
// (or sheds, under a degradation shed policy): the bounded morsel queue
// that backpressures ingest against slow operators.
constexpr size_t kStrandCapacity = 8;

// A segment's dispatch-target path as strand instruments and task
// errors name it.
std::string PathKey(const CompiledPipeline& seg) {
  return seg.path.empty() ? "root" : seg.path;
}

/// Depth-first visit of every segment of a compiled pipeline tree.
template <typename Fn>
void ForEachSegment(const CompiledPipeline& seg, const Fn& fn) {
  fn(seg);
  for (const CompiledPipeline& branch : seg.branches) {
    ForEachSegment(branch, fn);
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

  // Ingest-side counters (source output).
  std::atomic<uint64_t> events_ingested{0};
  std::atomic<uint64_t> bytes_ingested{0};
  std::atomic<int64_t> started_at{0};
  std::atomic<int64_t> finished_at{0};

  // Plan renderings captured at submission (the plan is consumed).
  QueryPlanText plan_text;

  // --- Observability (docs/ARCHITECTURE.md "Observability") ---
  // The query's instrument registry. Instruments are resolved once at
  // submission (BindMetricsTree) and recorded through raw pointers on the
  // hot path — relaxed atomics, no lock, no map lookup. Declared before
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

  // Per-dispatch-target backpressure instruments, shared per segment
  // *path*: partition clones carry their segment's path, so a keyed
  // suffix split N ways feeds one gauge/histogram pair — metric names do
  // not depend on the worker count.
  struct StrandMetrics {
    metrics::Gauge* queue_depth = nullptr;     ///< live queued-batch count
    metrics::Histogram* task_wait = nullptr;   ///< post → run latency
    std::atomic<int64_t> depth{0};
  };
  std::map<std::string, std::unique_ptr<StrandMetrics>> strand_metrics_by_path;
  std::map<const CompiledPipeline*, StrandMetrics*> strand_metrics;

  // --- Dynamic branches (shared-query serving) ---
  // A shared host's root segment ends without a sink; its tail dispatches
  // to whatever branches are attached *at that moment*. Branches carry
  // their own compiled pipeline (suffix chain + sink), their own strand
  // (admitted mid-run, so they cannot live in the immutable `strands`
  // map), and their own instruments under the `b<id>` path. In-flight
  // tasks capture the `shared_ptr`, so a detached branch's operator state
  // survives until its queued work drained.
  struct DynamicBranch {
    int id = 0;
    std::unique_ptr<CompiledPipeline> pipeline;  ///< stable address
    std::unique_ptr<WorkerPool::Strand> strand;  ///< null until the pool exists
    StrandMetrics sm;                            ///< own instruments
    std::atomic<bool> detached{false};
    /// Why the engine force-detached the branch (OK for a clean detach).
    /// Guarded by the host's dyn_mutex.
    Status failure;
  };
  bool shared_host = false;  ///< submitted via `SubmitShared`
  // Guards the branch vector, `next_branch_id`, and (for admission racing
  // `Start`) pool/strand creation. Never held across engine waits.
  mutable Mutex dyn_mutex;
  std::vector<std::shared_ptr<DynamicBranch>> dyn_branches
      NM_GUARDED_BY(dyn_mutex);
  // Detached branches parked until host teardown: a branch's strand may
  // still be under a worker's post-task bookkeeping when the last task
  // capture releases, so the strand must not die at detach time. Declared
  // before `pool` — destroyed after the workers joined.
  std::vector<std::shared_ptr<DynamicBranch>> retired_dyn
      NM_GUARDED_BY(dyn_mutex);
  int next_branch_id NM_GUARDED_BY(dyn_mutex) = 1;

  // Resolves the instruments of `seg`'s own operators, sink and channels
  // under its DAG-path prefix (fused kernels expanding per stage), and
  // points `sm` at the strand gauge/histogram pair of its path. Binding a
  // name twice returns the same instrument, so partition clones and their
  // shared sink re-bind harmlessly.
  void BindSegment(CompiledPipeline* seg, StrandMetrics* sm) {
    const std::string prefix = seg->path.empty() ? "" : seg->path + "/";
    const std::string path_key = PathKey(*seg);
    for (OperatorPtr& op : seg->operators) op->BindMetrics(&metrics, prefix);
    if (seg->sink) seg->sink->BindMetrics(&metrics, prefix);
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
    sm->queue_depth =
        metrics.GetGauge("worker.strand." + path_key + ".queue_depth");
    sm->task_wait =
        metrics.GetHistogram("worker.strand." + path_key + ".task_wait_micros");
  }

  // Binds every segment of the pipeline tree, one strand instrument pair
  // per segment path.
  void BindMetricsTree(CompiledPipeline* seg) {
    std::unique_ptr<StrandMetrics>& sm = strand_metrics_by_path[PathKey(*seg)];
    if (!sm) sm = std::make_unique<StrandMetrics>();
    BindSegment(seg, sm.get());
    strand_metrics[seg] = sm.get();
    for (CompiledPipeline& branch : seg->branches) BindMetricsTree(&branch);
    for (CompiledPipeline& part : seg->partitions) BindMetricsTree(&part);
  }

  // Morsel execution (worker_threads > 1): one strand per dispatch target
  // (each fan-out branch, each key partition) keeps that target's
  // stateful operators single-threaded and its buffer order intact while
  // distinct targets run concurrently. Built in Start() before any task
  // is posted, immutable afterwards — lock-free to read. `pool` is
  // declared after `strands` so its destructor (which runs remaining
  // strand tasks) fires first.
  std::map<const CompiledPipeline*, std::unique_ptr<WorkerPool::Strand>>
      strands;
  std::unique_ptr<WorkerPool> pool;
  // Task failure handling: *every* strand/branch error is recorded with
  // the dispatch-target path it occurred on, and `failed` makes later
  // tasks short-circuit. The query's final status is the first *root
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

  void RecordFailure(const Status& st) { RecordFailure("root", st); }

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
    const TaskError* root = &errors.front();
    for (const TaskError& e : errors) {
      if (e.status.code() != StatusCode::kCancelled) {
        root = &e;
        break;
      }
    }
    std::string msg = "[" + root->path + "] " + root->status.message();
    if (errors.size() > 1) {
      msg += " (+" + std::to_string(errors.size() - 1) +
             " secondary error(s))";
    }
    return Status(root->status.code(), std::move(msg));
  }

  // Creates one strand per dispatch target below `seg` (the root segment
  // itself runs on the posting thread).
  void MakeStrands(CompiledPipeline* seg) {
    for (CompiledPipeline& branch : seg->branches) {
      strands[&branch] = pool->MakeStrand();
      MakeStrands(&branch);
    }
    for (CompiledPipeline& part : seg->partitions) {
      strands[&part] = pool->MakeStrand();
      MakeStrands(&part);
    }
  }

  // The two units of work a dispatch target receives through `HandOff`:
  // one batch through its chain, and end-of-stream.
  auto Push(const exec::Batch& batch) {
    return [this, batch](CompiledPipeline* target) {
      return PushThrough(target, 0, batch);
    };
  }
  auto Finish() {
    return [this](CompiledPipeline* target) { return FinishSegment(target); };
  }

  // The one strand hand-off, for every dispatch target — fan-out branch,
  // key partition or dynamic branch (`br` set) — and every unit of
  // `work`. Without a pool it runs inline and records a zero task wait,
  // so the strand instruments exist and read 0 at one worker, matching
  // the multi-worker metric names. With one it posts to the target's
  // strand, tracking queued depth on post/run and post→run wait per task;
  // strand FIFO order means a finish task observes every batch posted
  // before it. A posted task short-circuits once the query failed or was
  // cancelled (cancel is not end-of-stream, so no further state is
  // built; the drain that follows only retires the captures), or once its
  // branch detached. Errors: an inline static error returns to the
  // caller, so the ingest loop skips FinishAll; a posted one is recorded
  // with its path; a dynamic branch's force-detaches only that branch.
  template <typename Work>
  Status HandOff(CompiledPipeline* target, std::shared_ptr<DynamicBranch> br,
                 Work work) {
    if (br && br->detached.load(std::memory_order_relaxed)) {
      return Status::OK();
    }
    StrandMetrics* sm = br ? &br->sm : strand_metrics.at(target);
    if (!pool) {
      sm->task_wait->Record(0);
      const Status st = work(target);
      if (st.ok() || !br) return st;
      FailBranch(br, st);
      return Status::OK();
    }
    WorkerPool::Strand* strand =
        br ? br->strand.get() : strands.at(target).get();
    const int64_t posted_at = MonotonicNowMicros();
    sm->queue_depth->Set(static_cast<double>(
        sm->depth.fetch_add(1, std::memory_order_relaxed) + 1));
    strand->Post([this, target, br = std::move(br), work = std::move(work), sm,
                  posted_at] {
      sm->task_wait->Record(MonotonicNowMicros() - posted_at);
      sm->queue_depth->Set(static_cast<double>(
          sm->depth.fetch_sub(1, std::memory_order_relaxed) - 1));
      if (failed.load(std::memory_order_relaxed) ||
          cancel.load(std::memory_order_relaxed) ||
          (br && br->detached.load(std::memory_order_relaxed))) {
        return;
      }
      const Status st = work(target);
      if (st.ok()) return;
      if (br) {
        FailBranch(br, st);
      } else {
        RecordFailure(PathKey(*target), st);
      }
    });
    return Status::OK();
  }

  // Tail of a shared host: hands `work` to every branch attached right
  // now — each sealed batch (the zero-copy fan-out, for branches that
  // appear and disappear at runtime), then end-of-stream. The snapshot
  // copies shared_ptrs under the lock and hands off outside it, so
  // admission/teardown never contends with branch execution, only with
  // this per-buffer copy.
  template <typename Work>
  Status HandOffToBranches(const Work& work) {
    std::vector<std::shared_ptr<DynamicBranch>> active;
    {
      MutexLock lock(dyn_mutex);
      active = dyn_branches;
    }
    for (std::shared_ptr<DynamicBranch>& br : active) {
      CompiledPipeline* target = br->pipeline.get();
      NM_RETURN_NOT_OK(HandOff(target, std::move(br), work));
    }
    return Status::OK();
  }

  // Routes each selected row of `batch` to the partition owning its key
  // (hash of the key field modulo the partition count) as a selection
  // vector over the *shared* sealed buffer — the hand-off copies row
  // indices, never rows.
  Status DispatchPartitions(CompiledPipeline* seg, const exec::Batch& batch) {
    const size_t num_parts = seg->partitions.size();
    const bool text_key = seg->partition_key_type == DataType::kText16 ||
                          seg->partition_key_type == DataType::kText32;
    std::vector<exec::SelectionVector> sels(num_parts);
    for (size_t i = 0; i < batch.NumRows(); ++i) {
      const size_t row = batch.RowAt(i);
      const RecordView rec = batch.data->At(row);
      const uint64_t h =
          text_key ? HashKeyText(rec.GetText(seg->partition_key_index))
                   : HashKeyInt(rec.GetInt64(seg->partition_key_index));
      sels[h % num_parts].push_back(static_cast<uint32_t>(row));
    }
    for (size_t p = 0; p < num_parts; ++p) {
      if (sels[p].empty()) continue;
      const exec::Batch part(
          batch.data,
          std::make_shared<exec::SelectionVector>(std::move(sels[p])));
      NM_RETURN_NOT_OK(HandOff(&seg->partitions[p], nullptr, Push(part)));
    }
    return Status::OK();
  }

  // End of a segment's operator chain: route the batch onward — to the
  // key partitions, once per fan-out branch (every branch receives the
  // *same* sealed batch; buffers are immutable after seal and filters
  // refine selection vectors instead of mutating, so the hand-off is
  // zero-copy), to a shared host's dynamic branches, or into the sink at
  // a leaf.
  Status DispatchTail(CompiledPipeline* seg, const exec::Batch& batch) {
    if (!seg->partitions.empty()) return DispatchPartitions(seg, batch);
    if (!seg->branches.empty()) {
      for (CompiledPipeline& branch : seg->branches) {
        NM_RETURN_NOT_OK(HandOff(&branch, nullptr, Push(batch)));
      }
      return Status::OK();
    }
    if (seg->sink == nullptr) return HandOffToBranches(Push(batch));
    const uint64_t rows = batch.NumRows();
    const int64_t start = MonotonicNowMicros();
    const Status st = seg->sink->ProcessBatch(batch, [](const exec::Batch&) {});
    seg->sink->RecordProcess(MonotonicNowMicros() - start, rows);
    m_events_emitted->Add(rows);
    const size_t buffer_rows = batch.data->size();
    if (buffer_rows > 0) {
      m_bytes_emitted->Add(rows * (batch.data->SizeBytes() / buffer_rows));
    }
    return st;
  }

  // The branch `branch_id` of a shared host, attached or retired (cleanly
  // detached or force-detached after a failure); null if never attached.
  std::shared_ptr<DynamicBranch> FindBranch(int branch_id) const
      NM_EXCLUDES(dyn_mutex) {
    MutexLock lock(dyn_mutex);
    for (const auto& br : dyn_branches) {
      if (br->id == branch_id) return br;
    }
    for (const auto& br : retired_dyn) {
      if (br->id == branch_id) return br;
    }
    return nullptr;
  }

  // Moves `br` from the attached to the retired branches; a no-op when it
  // already retired.
  void RetireLocked(const DynamicBranch* br) NM_REQUIRES(dyn_mutex) {
    for (auto it = dyn_branches.begin(); it != dyn_branches.end(); ++it) {
      if (it->get() != br) continue;
      retired_dyn.push_back(std::move(*it));
      dyn_branches.erase(it);
      return;
    }
  }

  // Fault isolation for shared hosts: a branch whose own operators error
  // is force-detached with a descriptive status instead of failing the
  // host — its siblings and the shared ingest keep running, and the
  // branch's owner reads the failure through `BranchStatus`. Does NOT set
  // `failed`: that flag kills the whole host.
  void FailBranch(const std::shared_ptr<DynamicBranch>& br,
                  const Status& st) NM_EXCLUDES(dyn_mutex) {
    br->detached.store(true, std::memory_order_relaxed);
    MutexLock lock(dyn_mutex);
    br->failure = Status(st.code(), "branch " + br->pipeline->path +
                                        " detached: " + st.message());
    NM_LOG_ERROR() << "query " << id << " " << br->failure.ToString();
    RetireLocked(br.get());
  }

  // Pushes a batch through segment operators [from..] and onward via
  // `DispatchTail`. Each operator's process-latency histogram records its
  // *self* time: wall time of ProcessBatch minus the time spent inside
  // the forward continuation (which runs the rest of the chain). Fused
  // batch-kernel operators time their stages internally instead and
  // leave the base histograms unbound, so the outer RecordProcess no-ops
  // for them.
  Status PushThrough(CompiledPipeline* seg, size_t from,
                     const exec::Batch& batch) {
    if (verify_batches && from == 0) {
      NM_RETURN_NOT_OK(analysis::VerifyBatch(batch));
    }
    if (from >= seg->operators.size()) {
      return DispatchTail(seg, batch);
    }
    Operator* op = seg->operators[from].get();
    const uint64_t rows_in = batch.NumRows();
    int64_t child_micros = 0;
    Status inner = Status::OK();
    auto forward = [this, seg, from, &inner,
                    &child_micros](const exec::Batch& out) {
      const int64_t t0 = MonotonicNowMicros();
      Status st = PushThrough(seg, from + 1, out);
      child_micros += MonotonicNowMicros() - t0;
      if (!st.ok() && inner.ok()) inner = st;
    };
    const int64_t start = MonotonicNowMicros();
    Status s = op->ProcessBatch(batch, forward);
    op->RecordProcess(MonotonicNowMicros() - start - child_micros, rows_in);
    if (!s.ok()) return s;
    return inner;
  }

  // End-of-stream: cascade Finish through the segment's chain (flushed
  // state flows through the rest of the chain and into the downstream
  // targets), then finish each partition and branch pipeline — or, at a
  // shared host's sink-less leaf, whatever dynamic branches are attached.
  Status FinishSegment(CompiledPipeline* seg) {
    for (size_t i = 0; i < seg->operators.size(); ++i) {
      Status inner = Status::OK();
      auto forward = [this, seg, i, &inner](const TupleBufferPtr& out) {
        out->Seal();
        Status st = PushThrough(seg, i + 1, exec::Batch(out));
        if (!st.ok() && inner.ok()) inner = st;
      };
      Status s = seg->operators[i]->Finish(forward);
      if (!s.ok()) return s;
      if (!inner.ok()) return inner;
    }
    for (CompiledPipeline& part : seg->partitions) {
      NM_RETURN_NOT_OK(HandOff(&part, nullptr, Finish()));
    }
    for (CompiledPipeline& branch : seg->branches) {
      NM_RETURN_NOT_OK(HandOff(&branch, nullptr, Finish()));
    }
    if (seg->sink == nullptr && seg->partitions.empty() &&
        seg->branches.empty()) {
      return HandOffToBranches(Finish());
    }
    return Status::OK();
  }

  Status FinishAll() { return FinishSegment(&pipeline); }

  // Opens every operator and sink in the tree. Partition clones share
  // their leaf sink, so it is opened once per clone — Open only stores
  // the context, which is identical each time.
  Status OpenAll(CompiledPipeline* seg) {
    for (OperatorPtr& op : seg->operators) {
      NM_RETURN_NOT_OK(op->Open(ctx.get()));
    }
    if (seg->sink) NM_RETURN_NOT_OK(seg->sink->Open(ctx.get()));
    for (CompiledPipeline& branch : seg->branches) {
      NM_RETURN_NOT_OK(OpenAll(&branch));
    }
    for (CompiledPipeline& part : seg->partitions) {
      NM_RETURN_NOT_OK(OpenAll(&part));
    }
    return Status::OK();
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
  NM_RETURN_NOT_OK(rq->OpenAll(&rq->pipeline));
  rq->BindMetricsTree(&rq->pipeline);
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
  if (plan.source() == nullptr) {
    return Status::InvalidArgument("shared plan has no source");
  }
  for (const LogicalOperatorPtr& op : plan.ops()) {
    if (op->kind() == LogicalOperator::Kind::kSink ||
        op->kind() == LogicalOperator::Kind::kFanOut) {
      return Status::InvalidArgument(
          "shared prefix must be a sink-less linear chain; consumers "
          "attach via AttachBranch");
    }
  }
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
      NM_ASSIGN_OR_RETURN(std::shared_ptr<NetworkChannel> channel,
                          NetworkChannel::Connect(*options_.topology,
                                                  end_node, delivery_node));
      channel->ConfigureFaults(options_.faults.profile, options_.faults.retry);
      const Schema& schema = rq->pipeline.output_schema;
      NM_ASSIGN_OR_RETURN(OperatorPtr channel_sink,
                          NetworkChannelSink::Make(schema, channel));
      NM_ASSIGN_OR_RETURN(OperatorPtr channel_source,
                          NetworkChannelSource::Make(schema, channel));
      rq->pipeline.operators.push_back(std::move(channel_sink));
      rq->pipeline.operators.push_back(std::move(channel_source));
      rq->pipeline.channels.push_back(std::move(channel));
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
  if (suffix_ops.empty() ||
      suffix_ops.back()->kind() != LogicalOperator::Kind::kSink) {
    return Status::InvalidArgument("branch suffix must end in a sink");
  }
  for (const LogicalOperatorPtr& op : suffix_ops) {
    if (op->kind() == LogicalOperator::Kind::kFanOut) {
      return Status::InvalidArgument(
          "branch suffix must be linear; attach one branch per leaf");
    }
  }
  auto br = std::make_shared<RunningQuery::DynamicBranch>();
  {
    MutexLock lock(rq->dyn_mutex);
    br->id = rq->next_branch_id++;
  }
  // Compiled single-node against the prefix's output schema: the suffix
  // runs where the shared stream was delivered, so branch placement
  // annotations (matched structurally by the serving layer) never open a
  // second channel.
  LogicalPlan suffix_plan;
  for (LogicalOperatorPtr& op : suffix_ops) suffix_plan.Append(std::move(op));
  CompileOptions copts;
  copts.compiled_kernels = options_.compiled_kernels;
  copts.partitions = 1;
  copts.faults = options_.faults;
  br->pipeline = std::make_unique<CompiledPipeline>();
  NM_ASSIGN_OR_RETURN(*br->pipeline,
                      CompilePlan(rq->pipeline.output_schema, suffix_plan,
                                  nullptr, copts));
  if (br->pipeline->sink == nullptr || !br->pipeline->branches.empty()) {
    return Status::InvalidArgument(
        "branch suffix must compile to one linear chain ending in a sink");
  }
  br->pipeline->path = "b" + std::to_string(br->id);
  if (options_.optimizer.verify_each) {
    analysis::PipelineVerifyContext pctx;
    pctx.root_path = br->pipeline->path;
    NM_RETURN_NOT_OK(analysis::VerifyPipeline(*br->pipeline, pctx));
  }
  NM_RETURN_NOT_OK(rq->OpenAll(br->pipeline.get()));
  rq->BindSegment(br->pipeline.get(), &br->sm);
  // Publication point: the next HandOffToBranches snapshot sees the
  // branch, so it joins the stream at a buffer boundary.
  MutexLock lock(rq->dyn_mutex);
  if (rq->pool) br->strand = rq->pool->MakeStrand();
  const int branch_id = br->id;
  rq->dyn_branches.push_back(std::move(br));
  if (options_.optimizer.verify_each && rq->pool) {
    std::vector<std::pair<std::string, const void*>> owners;
    owners.reserve(rq->dyn_branches.size());
    for (const auto& b : rq->dyn_branches) {
      owners.emplace_back(b->pipeline->path, b->strand.get());
    }
    NM_RETURN_NOT_OK(analysis::VerifyStrandOwnership(owners));
  }
  return branch_id;
}

Status NodeEngine::DetachBranch(int host_id, int branch_id) {
  NM_ASSIGN_OR_RETURN(RunningQuery* rq, Find(host_id));
  const std::shared_ptr<RunningQuery::DynamicBranch> br =
      rq->FindBranch(branch_id);
  if (!br) return Status::NotFound("unknown branch id");
  // Flag first: tasks already queued on the branch's strand check the
  // flag and fall through without touching operator state. The branch
  // itself parks in `retired_dyn` rather than dying here — its strand
  // may still be in a worker's hands — and is destroyed with the host.
  // Detaching a retired branch (detached earlier, or force-detached after
  // a failure, which stays readable through BranchStatus) is a no-op.
  br->detached.store(true, std::memory_order_relaxed);
  MutexLock lock(rq->dyn_mutex);
  rq->RetireLocked(br.get());
  return Status::OK();
}

Status NodeEngine::BranchStatus(int host_id, int branch_id) const {
  NM_ASSIGN_OR_RETURN(const RunningQuery* rq, Find(host_id));
  const std::shared_ptr<RunningQuery::DynamicBranch> br =
      rq->FindBranch(branch_id);
  if (!br) return Status::NotFound("unknown branch id");
  MutexLock lock(rq->dyn_mutex);
  return br->failure;
}

Result<QueryStats> NodeEngine::BranchStats(int host_id, int branch_id) const {
  NM_ASSIGN_OR_RETURN(const RunningQuery* rq, Find(host_id));
  const std::shared_ptr<RunningQuery::DynamicBranch> br =
      rq->FindBranch(branch_id);
  if (!br) return Status::NotFound("unknown branch id");
  QueryStats stats;
  // Shared ingest: every branch of the host rides the same source stream.
  stats.events_ingested = rq->events_ingested.load();
  stats.bytes_ingested = rq->bytes_ingested.load();
  if (rq->finished.load()) {
    stats.elapsed_micros = rq->finished_at.load() - rq->started_at.load();
  } else if (rq->started.load()) {
    stats.elapsed_micros = MonotonicNowMicros() - rq->started_at.load();
  }
  stats.buffers_acquired = rq->ctx->TotalBuffersAcquired();
  stats.tasks_shed = rq->pool ? rq->pool->tasks_shed() : 0;
  const std::string prefix = br->pipeline->path + "/";
  for (const OperatorPtr& op : br->pipeline->operators) {
    op->AppendStats(prefix, &stats.operator_stats);
  }
  const OperatorStats sink_flow = br->pipeline->sink->stats();
  stats.operator_stats.emplace_back(prefix + br->pipeline->sink->name(),
                                    sink_flow);
  SinkStats sink_stats;
  sink_stats.path = br->pipeline->path;
  sink_stats.name = br->pipeline->sink->name();
  sink_stats.events_emitted = sink_flow.events_in;
  sink_stats.bytes_emitted = sink_flow.bytes_in;
  stats.events_emitted = sink_stats.events_emitted;
  stats.bytes_emitted = sink_stats.bytes_emitted;
  stats.sink_stats.push_back(std::move(sink_stats));
  return stats;
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
    rq->events_ingested.fetch_add(buf->size());
    rq->bytes_ingested.fetch_add(buf->SizeBytes());
    rq->m_events_ingested->Add(buf->size());
    rq->m_bytes_ingested->Add(buf->SizeBytes());
    if (!buf->empty()) {
      buf->Seal();
      status = rq->PushThrough(&rq->pipeline, 0, exec::Batch(std::move(buf)));
      if (!status.ok()) break;
    }
    if (!*more) break;
  }
  // Cancellation is not end-of-stream: a cancelled query must not flush
  // its window/CEP state as if the stream completed, so FinishAll is
  // skipped — partial panes are simply dropped with the query.
  if (status.ok() && !rq->cancel.load()) status = rq->FinishAll();
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
  if (!status.ok()) rq->RecordFailure(status);
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
    // AttachBranch either sees the pool (and makes its own strand) or is
    // seen here (and gets one).
    MutexLock lock(rq->dyn_mutex);
    rq->pool = std::make_unique<WorkerPool>(worker_threads_, kStrandCapacity,
                                            options_.faults.retry.shed_policy);
    rq->MakeStrands(&rq->pipeline);
    for (const auto& br : rq->dyn_branches) {
      if (!br->strand) br->strand = rq->pool->MakeStrand();
    }
    if (rq->verify_batches && !rq->dyn_branches.empty()) {
      std::vector<std::pair<std::string, const void*>> owners;
      owners.reserve(rq->dyn_branches.size());
      for (const auto& br : rq->dyn_branches) {
        owners.emplace_back(br->pipeline->path, br->strand.get());
      }
      NM_RETURN_NOT_OK(analysis::VerifyStrandOwnership(owners));
    }
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
  NM_ASSIGN_OR_RETURN(const RunningQuery* rq, Find(query_id));
  QueryStats stats;
  stats.events_ingested = rq->events_ingested.load();
  stats.bytes_ingested = rq->bytes_ingested.load();
  if (rq->finished.load()) {
    stats.elapsed_micros = rq->finished_at.load() - rq->started_at.load();
  } else if (rq->started.load()) {
    stats.elapsed_micros = MonotonicNowMicros() - rq->started_at.load();
  }
  stats.buffers_acquired = rq->ctx->TotalBuffersAcquired();
  stats.tasks_shed = rq->pool ? rq->pool->tasks_shed() : 0;
  // Depth-first over the pipeline tree: operators keyed by DAG path, one
  // SinkStats entry per leaf, emitted totals summed across sinks. Fused
  // batch-kernel operators expand to one entry per fused stage, so the
  // sequence matches the logical plan shape either way. Partition clones
  // carry their segment's path and identical operator sequences, so their
  // entries sum element-wise into one per-path sequence — and they share
  // one sink, counted once.
  const auto append_sink = [&stats](const CompiledPipeline& seg,
                                    const std::string& prefix) {
    const OperatorStats sink_flow = seg.sink->stats();
    stats.operator_stats.emplace_back(prefix + seg.sink->name(), sink_flow);
    SinkStats sink_stats;
    sink_stats.path = seg.path;
    sink_stats.name = seg.sink->name();
    sink_stats.events_emitted = sink_flow.events_in;
    sink_stats.bytes_emitted = sink_flow.bytes_in;
    stats.events_emitted += sink_stats.events_emitted;
    stats.bytes_emitted += sink_stats.bytes_emitted;
    stats.sink_stats.push_back(std::move(sink_stats));
  };
  const std::function<void(const CompiledPipeline&)> visit =
      [&](const CompiledPipeline& seg) {
        const std::string prefix = seg.path.empty() ? "" : seg.path + "/";
        for (const OperatorPtr& op : seg.operators) {
          op->AppendStats(prefix, &stats.operator_stats);
        }
        if (!seg.partitions.empty()) {
          std::vector<std::pair<std::string, OperatorStats>> summed;
          for (const CompiledPipeline& part : seg.partitions) {
            std::vector<std::pair<std::string, OperatorStats>> one;
            for (const OperatorPtr& op : part.operators) {
              op->AppendStats(prefix, &one);
            }
            if (summed.empty()) {
              summed = std::move(one);
            } else {
              for (size_t i = 0; i < summed.size() && i < one.size(); ++i) {
                summed[i].second.Add(one[i].second);
              }
            }
          }
          for (auto& entry : summed) {
            stats.operator_stats.push_back(std::move(entry));
          }
          if (seg.partitions.front().sink) {
            append_sink(seg.partitions.front(), prefix);
          }
          return;
        }
        if (seg.sink) append_sink(seg, prefix);
        for (const CompiledPipeline& branch : seg.branches) visit(branch);
      };
  visit(rq->pipeline);
  // Shared hosts carry their attached branches' flow too, so the host
  // view sums emitted counts across every client riding the prefix.
  if (rq->shared_host) {
    std::vector<std::shared_ptr<RunningQuery::DynamicBranch>> branches;
    {
      MutexLock lock(rq->dyn_mutex);
      branches = rq->dyn_branches;
    }
    for (const auto& br : branches) {
      const std::string prefix = br->pipeline->path + "/";
      for (const OperatorPtr& op : br->pipeline->operators) {
        op->AppendStats(prefix, &stats.operator_stats);
      }
      append_sink(*br->pipeline, prefix);
    }
  }
  return stats;
}

Result<metrics::MetricsSnapshot> NodeEngine::Metrics(int query_id) const {
  NM_ASSIGN_OR_RETURN(const RunningQuery* rq, Find(query_id));
  return rq->metrics.Snapshot();
}

Result<DeploymentReport> NodeEngine::Deployment(int query_id) const {
  NM_ASSIGN_OR_RETURN(const RunningQuery* rq, Find(query_id));
  // Every channel lowered anywhere in the pipeline tree, depth-first.
  std::vector<std::shared_ptr<NetworkChannel>> channels;
  ForEachSegment(rq->pipeline, [&channels](const CompiledPipeline& seg) {
    channels.insert(channels.end(), seg.channels.begin(),
                    seg.channels.end());
  });
  return MeasureDeployment(channels);
}

size_t NodeEngine::NumQueries() const {
  MutexLock lock(mutex_);
  return queries_.size();
}

}  // namespace nebulameos::nebula
