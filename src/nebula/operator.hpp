/// \file operator.hpp
/// \brief The physical operator interface and execution context.
///
/// Queries compile into chains of `Operator`s executed inside one pipeline
/// (operator fusion: a buffer flows through the whole chain without
/// queueing, as in NebulaStream's compiled pipelines). Operators are
/// constructed with their *input schema* — expression binding happens at
/// build time, so malformed queries fail at submission, not mid-stream.
///
/// `ExecutionContext` provides pooled buffer allocation (one
/// `BufferManager` per distinct output schema) and is shared by all
/// operators of a running query.

#pragma once

#include <atomic>
#include <map>

#include "common/function_ref.hpp"
#include "nebula/buffer_manager.hpp"
#include "nebula/exec/batch.hpp"
#include "nebula/expr.hpp"
#include "nebula/metrics/metrics.hpp"

namespace nebulameos::nebula {

/// \brief Per-operator flow counters (events and bytes in/out).
struct OperatorStats {
  uint64_t events_in = 0;
  uint64_t events_out = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  /// Records shed instead of processed: late arrivals a stateful operator
  /// refused (its monotonicity guard) or frames dropped by a degradation
  /// policy. 0 for operators that never shed.
  uint64_t events_shed = 0;

  /// Fraction of input events that produced output (1.0 when no input).
  double Selectivity() const {
    return events_in == 0
               ? 1.0
               : static_cast<double>(events_out) /
                     static_cast<double>(events_in);
  }

  /// Element-wise accumulation — the aggregation step behind summing one
  /// logical operator's counters over its per-partition clones.
  void Add(const OperatorStats& other) {
    events_in += other.events_in;
    events_out += other.events_out;
    bytes_in += other.bytes_in;
    bytes_out += other.bytes_out;
    events_shed += other.events_shed;
  }
};

/// \brief The live, updatable form of `OperatorStats`: relaxed atomics so
/// the engine can count an operator's flow on a worker strand while
/// another thread snapshots `Stats()` mid-run without a data race.
/// Increments are atomic, so they stay exact even where strands share an
/// operator (key-partition clones share their leaf sink); readers see a
/// near-current snapshot.
class FlowCounters {
 public:
  void AddIn(uint64_t events, uint64_t bytes) {
    events_in_.fetch_add(events, std::memory_order_relaxed);
    bytes_in_.fetch_add(bytes, std::memory_order_relaxed);
  }

  void AddOut(uint64_t events, uint64_t bytes) {
    events_out_.fetch_add(events, std::memory_order_relaxed);
    bytes_out_.fetch_add(bytes, std::memory_order_relaxed);
  }

  void AddShed(uint64_t events) {
    events_shed_.fetch_add(events, std::memory_order_relaxed);
  }

  OperatorStats Snapshot() const {
    OperatorStats s;
    s.events_in = events_in_.load(std::memory_order_relaxed);
    s.events_out = events_out_.load(std::memory_order_relaxed);
    s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
    s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
    s.events_shed = events_shed_.load(std::memory_order_relaxed);
    return s;
  }

  // Value-copyable (atomics are not), so structs holding counters stay
  // movable. Only safe while no other thread is mutating `other`.
  FlowCounters() = default;
  FlowCounters(const FlowCounters& other) { *this = other; }
  FlowCounters& operator=(const FlowCounters& other) {
    events_in_.store(other.events_in_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    events_out_.store(other.events_out_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    bytes_in_.store(other.bytes_in_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    bytes_out_.store(other.bytes_out_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    events_shed_.store(other.events_shed_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    return *this;
  }

 private:
  std::atomic<uint64_t> events_in_{0};
  std::atomic<uint64_t> events_out_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
  std::atomic<uint64_t> events_shed_{0};
};

/// \brief Shared runtime services for one query execution.
class ExecutionContext {
 public:
  /// \p tuples_per_buffer shapes every pool this context creates (one pool
  /// per distinct schema), and \p pool_size caps the buffers each builds.
  /// Pools start empty and build buffers as queries draw them.
  explicit ExecutionContext(size_t tuples_per_buffer = 1024,
                            size_t pool_size = 128)
      : tuples_per_buffer_(tuples_per_buffer), pool_size_(pool_size) {}

  /// Allocates an empty pooled buffer shaped for \p schema (blocking when
  /// the pool is exhausted — backpressure).
  TupleBufferPtr Allocate(const Schema& schema);

  size_t tuples_per_buffer() const { return tuples_per_buffer_; }

  /// Total buffers handed out across every pool of this context — the
  /// pool-accounting number behind the zero-copy fan-out acceptance: a
  /// branch hand-off shares the batch instead of drawing a copy, so this
  /// must not scale with branch count.
  uint64_t TotalBuffersAcquired() const;

  /// Total buffers built across every pool of this context: the query's
  /// in-flight high-water mark per pool, summed (at most the cap per
  /// pool), since pools build on demand and never free before they die.
  uint64_t TotalBuffersCreated() const;

 private:
  size_t tuples_per_buffer_;
  size_t pool_size_;
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<BufferManager>> pools_;
};

/// \brief Hands out the instrument names of the operators along one DAG
/// path: the first operator (or fused stage) named N binds
/// `op.<path/>N.*`, the k-th one (k >= 2) `op.<path/>N#k.*`, so two
/// same-named operators on a path never share an instrument. Copyable: a
/// segment's key-partition clones each continue from a copy of their
/// parent segment's names, so the clones of one operator bind one name.
class InstrumentNamer {
 public:
  /// \p path_prefix is the DAG path plus '/' ("" at the root).
  explicit InstrumentNamer(std::string path_prefix)
      : prefix_(std::move(path_prefix)) {}

  /// Instrument base name (`op.<path/>N` or `op.<path/>N#k`) of the next
  /// operator named \p name on this path.
  std::string Next(const std::string& name) {
    const int k = ++seen_[name];
    std::string base = "op." + prefix_ + name;
    if (k >= 2) base += "#" + std::to_string(k);
    return base;
  }

 private:
  std::string prefix_;
  std::map<std::string, int> seen_;
};

/// \brief Base class of all physical operators.
///
/// One contract: batches in, sealed batches out. The engine is the only
/// caller — it pushes each batch through `ProcessBatch`, flushes with
/// `Finish` at end of stream, and records every operator's flow (events
/// and bytes in and out) around those calls. Operators count only the
/// records they shed (`CountShed`).
class Operator {
 public:
  /// Downstream hand-off: the operator calls this once per output batch.
  /// A batch may share the input buffer under a selection vector
  /// (zero-copy); a buffer the operator wrote itself is sealed before it
  /// is emitted (`exec::SealedBatch`). A non-owning `FunctionRef` (not
  /// `std::function`): the emit callable lives on the caller's stack for
  /// the duration of the call, and the compiled pipeline's inner loop
  /// crosses this hop once per batch per operator — it must not pay a
  /// type-erased copy each time.
  using BatchEmitFn = FunctionRef<void(const exec::Batch&)>;

  virtual ~Operator() = default;

  /// Operator display name ("Filter", "WindowAgg", ...).
  virtual std::string name() const = 0;

  /// Schema of the buffers this operator emits.
  virtual const Schema& output_schema() const = 0;

  /// Called once before processing; stores the execution context.
  virtual Status Open(ExecutionContext* ctx) {
    ctx_ = ctx;
    return Status::OK();
  }

  /// Processes one input batch, emitting zero or more output batches.
  /// \p input is a sealed buffer plus an optional selection vector; the
  /// operator reads only the selected rows (`input.RowAt(i)`).
  virtual Status ProcessBatch(const exec::Batch& input,
                              const BatchEmitFn& emit) = 0;

  /// End-of-stream: flush any remaining state (window panes, open runs).
  virtual Status Finish(const BatchEmitFn& /*emit*/) { return Status::OK(); }

  /// Flow counters snapshot (safe to call while the operator runs on a
  /// different thread; see `FlowCounters`).
  OperatorStats stats() const { return stats_.Snapshot(); }

  /// Engine-side flow accounting: records one batch (selected rows only)
  /// into or out of this operator. The engine calls these where it times
  /// the operator; operators never do.
  void CountIn(const exec::Batch& batch) {
    stats_.AddIn(batch.NumRows(), batch.SizeBytes());
  }
  void CountOut(const exec::Batch& batch) {
    stats_.AddOut(batch.NumRows(), batch.SizeBytes());
  }

  /// Appends this operator's flow counters to \p out keyed by
  /// `prefix + name()`. Fused batch-kernel operators expand to one entry
  /// per fused logical stage, in chain order, so plan-shaped consumers
  /// (`QueryStats::operator_stats`, the placement pass) see the same
  /// sequence whether or not the chain was fused. Thread-safe: counters
  /// are snapshotted atomically per entry.
  virtual void AppendStats(
      const std::string& prefix,
      std::vector<std::pair<std::string, OperatorStats>>* out) const {
    out->emplace_back(prefix + name(), stats_.Snapshot());
  }

  /// Resolves this operator's instruments from \p registry under the next
  /// name \p names hands out for `name()`: the process-latency and
  /// batch-size histograms `<base>.process_micros` / `.batch_rows` that
  /// the engine records into around each `ProcessBatch` call (self-time:
  /// downstream time is subtracted), plus `<base>.late_shed` for
  /// operators that shed late records. Fused batch-kernel operators
  /// override this to bind one histogram pair per fused stage under the
  /// original chained names ("Filter", "Map", ...) and time stages
  /// themselves — metric names then match the unfused chain, the same
  /// parity contract `AppendStats` keeps. Called once before the query
  /// starts; instrument pointers stay valid as long as the registry (the
  /// running query).
  virtual void BindMetrics(metrics::MetricsRegistry* registry,
                           InstrumentNamer* names) {
    const std::string base = names->Next(name());
    process_micros_ = registry->GetHistogram(base + ".process_micros");
    batch_rows_ = registry->GetHistogram(base + ".batch_rows");
    if (ShedsLateRecords()) {
      late_shed_counter_ = registry->GetCounter(base + ".late_shed");
    }
  }

  /// Records one timed `ProcessBatch` call (engine-side; no-op until
  /// `BindMetrics` ran). Lock-free.
  void RecordProcess(int64_t self_micros, uint64_t rows_in) {
    if (process_micros_ == nullptr) return;
    process_micros_->Record(self_micros);
    batch_rows_->Record(static_cast<int64_t>(rows_in));
  }

 protected:
  /// Stateful operators with a monotonicity guard return true, so
  /// `BindMetrics` surfaces their `<base>.late_shed` counter.
  virtual bool ShedsLateRecords() const { return false; }

  /// Records \p events records shed by a monotonicity guard or
  /// degradation policy, mirroring into the `late_shed` instrument when
  /// one is bound.
  void CountShed(uint64_t events) {
    stats_.AddShed(events);
    if (late_shed_counter_ != nullptr) late_shed_counter_->Add(events);
  }

  ExecutionContext* ctx_ = nullptr;
  FlowCounters stats_;
  metrics::Histogram* process_micros_ = nullptr;  ///< null until bound
  metrics::Histogram* batch_rows_ = nullptr;      ///< null until bound
  metrics::Counter* late_shed_counter_ = nullptr;  ///< null until bound
};

using OperatorPtr = std::unique_ptr<Operator>;

}  // namespace nebulameos::nebula
