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

#include <map>

#include "common/function_ref.hpp"
#include "nebula/buffer_manager.hpp"
#include "nebula/exec/batch.hpp"
#include "nebula/expr.hpp"
#include "nebula/metrics/metrics.hpp"

namespace nebulameos::nebula {

/// \brief One operator's flow: events and bytes in and out, and events
/// shed. A value read from the query's metrics registry
/// (`FlowInstruments::Read`), never counted on its own.
struct OperatorStats {
  uint64_t events_in = 0;
  uint64_t events_out = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  /// Records shed instead of processed: late arrivals a stateful operator
  /// refused (its monotonicity guard). 0 for operators that never shed.
  uint64_t events_shed = 0;

  /// Fraction of input events that produced output (1.0 when no input).
  double Selectivity() const {
    return events_in == 0
               ? 1.0
               : static_cast<double>(events_out) /
                     static_cast<double>(events_in);
  }
};

/// \brief The registry instruments holding the flow of one operator, fused
/// kernel stage or sink under its `op.<path/>Name[#k]` base: `.batch_rows`
/// (rows per input batch; its sum is the events in), the counters
/// `.bytes_in`, `.events_out`, `.bytes_out`, and `.late_shed` for
/// operators that shed. Relaxed atomics: any strand records while `Stats`
/// reads, and key-partition clones sum into one name. Null until bound.
struct FlowInstruments {
  metrics::Histogram* batch_rows = nullptr;
  metrics::Counter* bytes_in = nullptr;
  metrics::Counter* events_out = nullptr;
  metrics::Counter* bytes_out = nullptr;
  metrics::Counter* events_shed = nullptr;  ///< null unless the operator sheds

  static FlowInstruments Bind(metrics::MetricsRegistry* registry,
                              const std::string& base, bool sheds) {
    FlowInstruments flow;
    flow.batch_rows = registry->GetHistogram(base + ".batch_rows");
    flow.bytes_in = registry->GetCounter(base + ".bytes_in");
    flow.events_out = registry->GetCounter(base + ".events_out");
    flow.bytes_out = registry->GetCounter(base + ".bytes_out");
    if (sheds) flow.events_shed = registry->GetCounter(base + ".late_shed");
    return flow;
  }

  bool bound() const { return batch_rows != nullptr; }

  /// One input or output batch of \p events rows and \p bytes bytes.
  void RecordIn(uint64_t events, uint64_t bytes) const {
    batch_rows->Record(static_cast<int64_t>(events));
    bytes_in->Add(bytes);
  }
  void RecordOut(uint64_t events, uint64_t bytes) const {
    events_out->Add(events);
    bytes_out->Add(bytes);
  }

  /// The flow recorded so far (bound only).
  OperatorStats Read() const {
    OperatorStats s;
    s.events_in = static_cast<uint64_t>(batch_rows->sum());
    s.bytes_in = bytes_in->value();
    s.events_out = events_out->value();
    s.bytes_out = bytes_out->value();
    s.events_shed = events_shed != nullptr ? events_shed->value() : 0;
    return s;
  }
};

/// \brief One `QueryStats::operator_stats` entry as bound: its key (the DAG
/// path prefix and the operator or stage name, "0/Filter") and the
/// instruments its flow is read from.
struct FlowEntry {
  std::string key;
  FlowInstruments flow;
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

  /// The `operator_stats` key of an operator named \p name on this path
  /// (`<path/>N`, the same for every repeat of the name).
  std::string Key(const std::string& name) const { return prefix_ + name; }

 private:
  std::string prefix_;
  std::map<std::string, int> seen_;
};

/// \brief Base class of all physical operators.
///
/// One contract: batches in, sealed batches out. The engine is the only
/// caller — it pushes each batch through `ProcessBatch`, flushes with
/// `Finish` at end of stream, and records every operator's flow (events
/// and bytes in and out) around those calls into the instruments
/// `BindMetrics` resolved. Operators record only the records they shed
/// (`CountShed`).
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

  /// Resolves this operator's instruments from \p registry under the next
  /// name \p names hands out for `name()` — its `FlowInstruments`, also
  /// appended to \p entries as its `operator_stats` entry, and the
  /// self-time histogram `<base>.process_micros` — once before the query
  /// starts; the pointers live as long as the registry. Fused batch-kernel
  /// operators bind one set per fused stage under the original chained
  /// names ("Filter", "Map", ...), so names and entries match the unfused
  /// chain.
  virtual void BindMetrics(metrics::MetricsRegistry* registry,
                           InstrumentNamer* names,
                           std::vector<FlowEntry>* entries) {
    const std::string base = names->Next(name());
    process_micros_ = registry->GetHistogram(base + ".process_micros");
    flow_ = FlowInstruments::Bind(registry, base, ShedsLateRecords());
    entries->push_back({names->Key(name()), flow_});
  }

  /// Engine-side recording, lock-free: one `ProcessBatch` call's self
  /// time and input batch, and each batch the operator forwards (selected
  /// rows only). No-ops until bound, and for fused operators, whose stages
  /// record themselves.
  void RecordProcess(int64_t self_micros, const exec::Batch& input) const {
    if (!flow_.bound()) return;
    process_micros_->Record(self_micros);
    flow_.RecordIn(input.NumRows(), input.SizeBytes());
  }
  void RecordOut(const exec::Batch& batch) const {
    if (flow_.bound()) flow_.RecordOut(batch.NumRows(), batch.SizeBytes());
  }

 protected:
  /// Stateful operators with a monotonicity guard return true, so
  /// `BindMetrics` binds their `<base>.late_shed` counter.
  virtual bool ShedsLateRecords() const { return false; }

  /// Records \p events records shed by a monotonicity guard (no-op until
  /// bound).
  void CountShed(uint64_t events) const {
    if (flow_.events_shed != nullptr) flow_.events_shed->Add(events);
  }

  ExecutionContext* ctx_ = nullptr;
  FlowInstruments flow_;
  metrics::Histogram* process_micros_ = nullptr;  ///< null until bound
};

using OperatorPtr = std::unique_ptr<Operator>;

}  // namespace nebulameos::nebula
