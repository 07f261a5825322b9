/// \file operators.hpp
/// \brief Concrete stream operators: filter, map, project, window
/// aggregation (tumbling/sliding and threshold), and sinks.
///
/// Every operator is built through a fallible `Make` that receives the
/// *input schema*, binds its expressions, and derives the output schema.

#pragma once

#include <atomic>
#include <cstdio>
#include <limits>
#include <mutex>

#include "nebula/operator.hpp"
#include "nebula/topology.hpp"
#include "nebula/window.hpp"

namespace nebulameos::nebula {

// --- Filter -------------------------------------------------------------------

/// \brief Emits only records for which the predicate evaluates true.
///
/// The interpreted fallback for predicates the batch compiler refuses.
/// Still selection-aware: `ProcessBatch` evaluates per record but emits
/// the input buffer with a refined selection vector — no survivor copies.
class FilterOperator : public Operator {
 public:
  static Result<OperatorPtr> Make(const Schema& input, ExprPtr predicate);

  std::string name() const override { return "Filter"; }
  const Schema& output_schema() const override { return schema_; }
  Status ProcessBatch(const exec::Batch& input,
                      const BatchEmitFn& emit) override;

 private:
  FilterOperator(Schema schema, ExprPtr predicate,
                 std::shared_ptr<CseCache> cse_cache)
      : schema_(std::move(schema)),
        predicate_(std::move(predicate)),
        cse_cache_(std::move(cse_cache)) {}
  Schema schema_;
  ExprPtr predicate_;
  /// Shared-subexpression memo of the `PlanCse`-rewritten predicate; null
  /// when nothing repeats. Strand-serialized with the operator, so the
  /// per-record epoch bump needs no synchronization.
  std::shared_ptr<CseCache> cse_cache_;
  /// Selection scratch: only a *partial* result takes ownership of it
  /// (one allocation); fully-selective and empty results allocate nothing.
  exec::SelectionVector scratch_sel_;
};

// --- Map ----------------------------------------------------------------------

/// One computed field: `expr AS name` (replaces `name` when it exists).
struct MapSpec {
  std::string name;
  ExprPtr expr;
};

/// \brief Resolved layout of a map: the output schema plus, per output
/// field, either the input field to copy (`copy_from[i] >= 0`) or the
/// bound spec expression to evaluate (`exprs[expr_of[i]]`). Shared by the
/// interpreted `MapOperator` and the Map stages of a fused kernel run
/// (`exec::BatchKernelCompiler::AddMap`), so the two paths cannot disagree
/// about the layout.
struct MapLayout {
  Schema output_schema;
  std::vector<int> copy_from;
  std::vector<int> expr_of;
  std::vector<ExprPtr> exprs;  ///< bound against the input schema
};

/// Binds \p specs against \p input and derives the map layout.
Result<MapLayout> PlanMapLayout(const Schema& input,
                                std::vector<MapSpec> specs);

/// \brief Adds or replaces computed fields (interpreted fallback).
class MapOperator : public Operator {
 public:
  static Result<OperatorPtr> Make(const Schema& input,
                                  std::vector<MapSpec> specs);

  std::string name() const override { return "Map"; }
  const Schema& output_schema() const override {
    return layout_.output_schema;
  }
  Status ProcessBatch(const exec::Batch& input,
                      const BatchEmitFn& emit) override;

 private:
  MapOperator() = default;

  void WriteRecord(const RecordView& rec, RecordWriter* w) const;

  Schema input_schema_;
  MapLayout layout_;
  /// Shared-subexpression memo spanning *all* spec expressions (a subtree
  /// repeated across two computed fields evaluates once per record); null
  /// when nothing repeats.
  std::shared_ptr<CseCache> cse_cache_;
};

// --- Project ------------------------------------------------------------------

/// \brief Keeps only the named fields, in the given order (interpreted
/// fallback).
class ProjectOperator : public Operator {
 public:
  static Result<OperatorPtr> Make(const Schema& input,
                                  std::vector<std::string> fields);

  std::string name() const override { return "Project"; }
  const Schema& output_schema() const override { return output_schema_; }
  Status ProcessBatch(const exec::Batch& input,
                      const BatchEmitFn& emit) override;

 private:
  ProjectOperator() = default;

  void WriteRecord(const RecordView& rec, RecordWriter* w) const;

  Schema output_schema_;
  std::vector<size_t> indices_;
};

// --- Windowed aggregation -------------------------------------------------------

/// \brief Configuration of a keyed time-window aggregation.
struct WindowAggOptions {
  std::string key_field;   ///< "" = global (unkeyed)
  std::string time_field;  ///< event-time field (kTimestamp or kInt64)
  WindowSpec window;       ///< tumbling or sliding
  std::vector<AggregateSpec> aggregates;
  std::vector<CustomAggregatorFactory> custom_aggregators;
  Duration allowed_lateness = 0;  ///< watermark slack
};

/// \brief Event-time keyed window aggregation with watermark-based firing.
///
/// Output schema: [key] + window_start + window_end + aggregate fields +
/// custom-aggregator fields. Panes fire when the watermark (max event time −
/// allowed lateness) passes their window end; `Finish` flushes the rest in
/// deterministic (window, key) order.
///
/// Monotonicity guard: a record whose every assigned pane already fired
/// (its window end ≤ the highest watermark this operator fired up to)
/// cannot be applied without re-emitting a closed window, so it is shed
/// and counted (`events_shed` / `op.<path>.WindowAgg.late_shed`) instead
/// of faulting or double-firing. Records late within `allowed_lateness`
/// still join their live panes as before.
class WindowAggOperator : public Operator {
 public:
  static Result<OperatorPtr> Make(const Schema& input,
                                  WindowAggOptions options);

  std::string name() const override { return "WindowAgg"; }
  const Schema& output_schema() const override { return output_schema_; }
  Status ProcessBatch(const exec::Batch& input,
                      const BatchEmitFn& emit) override;
  Status Finish(const BatchEmitFn& emit) override;

 private:
  bool ShedsLateRecords() const override { return true; }

  struct Pane {
    std::vector<AggState> states;
    std::vector<std::unique_ptr<CustomAggregator>> customs;
  };
  using KeyValue = std::variant<int64_t, std::string>;
  using PaneKey = std::pair<Timestamp, KeyValue>;  // (window_start, key)

  WindowAggOperator() = default;

  Pane MakePane() const;
  KeyValue KeyOf(const RecordView& rec) const;
  void WritePane(const PaneKey& key, Pane& pane, TupleBuffer* out) const;
  Status FireUpTo(Timestamp watermark, const BatchEmitFn& emit);

  Schema input_schema_;
  Schema output_schema_;
  WindowAggOptions options_;
  WindowAssigner assigner_{WindowAssigner::Make(TumblingWindowSpec{1}).value()};
  bool keyed_ = false;
  size_t key_index_ = 0;
  DataType key_type_ = DataType::kInt64;
  size_t time_index_ = 0;
  std::vector<size_t> agg_field_index_;
  size_t custom_first_field_ = 0;
  std::map<PaneKey, Pane> panes_;
  Timestamp max_event_time_ = std::numeric_limits<Timestamp>::min();
  /// Highest watermark `FireUpTo` ran with; panes ending at or before it
  /// are closed for good (guard against late-record pane resurrection).
  Timestamp fired_through_ = std::numeric_limits<Timestamp>::min();
  std::vector<Timestamp> scratch_starts_;
};

// --- Threshold window -------------------------------------------------------------

/// \brief Configuration of a keyed threshold-window aggregation.
struct ThresholdWindowOptions {
  ExprPtr predicate;       ///< window is open (per key) while this holds
  Duration min_duration = 0;
  std::string key_field;   ///< "" = global
  std::string time_field;
  std::vector<AggregateSpec> aggregates;
  std::vector<CustomAggregatorFactory> custom_aggregators;
};

/// \brief Data-driven windows: one window per maximal run of records
/// satisfying the predicate (per key); runs shorter than `min_duration`
/// are dropped.
///
/// Output schema: [key] + window_start + window_end + aggregates + customs.
class ThresholdWindowOperator : public Operator {
 public:
  static Result<OperatorPtr> Make(const Schema& input,
                                  ThresholdWindowOptions options);

  std::string name() const override { return "ThresholdWindow"; }
  const Schema& output_schema() const override { return output_schema_; }
  Status ProcessBatch(const exec::Batch& input,
                      const BatchEmitFn& emit) override;
  Status Finish(const BatchEmitFn& emit) override;

 private:
  bool ShedsLateRecords() const override { return true; }

  struct OpenWindow {
    Timestamp start = 0;
    Timestamp last = 0;
    std::vector<AggState> states;
    std::vector<std::unique_ptr<CustomAggregator>> customs;
  };
  using KeyValue = std::variant<int64_t, std::string>;

  ThresholdWindowOperator() = default;

  OpenWindow MakeWindow(Timestamp start) const;
  void CloseInto(const KeyValue& key, OpenWindow& win, TupleBuffer* out) const;

  Schema input_schema_;
  Schema output_schema_;
  ThresholdWindowOptions options_;
  bool keyed_ = false;
  size_t key_index_ = 0;
  DataType key_type_ = DataType::kInt64;
  size_t time_index_ = 0;
  std::vector<size_t> agg_field_index_;
  size_t custom_first_field_ = 0;
  std::map<KeyValue, OpenWindow> open_;
  /// Per key, the `last` timestamp of the most recently closed window. A
  /// satisfying record at or before it would resurrect a window already
  /// emitted, so the monotonicity guard sheds it instead (counted).
  std::map<KeyValue, Timestamp> closed_through_;
};

// --- Network channel pair ---------------------------------------------------

/// Wire frame header size: `[record_count u64][buffer_seq u64]
/// [watermark i64][channel_seq u64]`, followed by the raw record bytes.
/// `buffer_seq`/`watermark` restore the buffer metadata downstream;
/// `channel_seq` is the contiguous per-channel delivery sequence the
/// retransmit/reorder-repair protocol runs on.
inline constexpr size_t kWireFrameHeaderBytes = 4 * sizeof(uint64_t);

/// \brief Upstream half of a lowered node transition: serializes the
/// selected rows of each input batch into a wire frame (32-byte header,
/// see `kWireFrameHeaderBytes`, then the raw record bytes) and sends it over
/// the `NetworkChannel` under a contiguous channel sequence number. The
/// channel retains a bounded copy of each unacknowledged frame so the
/// paired source can request retransmits; `Finish` flushes any frames the
/// fault injector is still holding (reorder slot, delay queue).
///
/// `CompilePlan` always places the paired `NetworkChannelSource`
/// immediately downstream; the batch this operator emits (its input,
/// unchanged) is only the scheduling hand-off that drives the pair within
/// the fused pipeline — the *data* the rest of the chain sees travels
/// through the serialized frame. Stats: like every operator's, record
/// payload in and out; the channel reports wire bytes
/// (`channel.*.wire_bytes`, `DeploymentReport`).
class NetworkChannelSink : public Operator {
 public:
  static Result<OperatorPtr> Make(const Schema& input,
                                  std::shared_ptr<NetworkChannel> channel);

  std::string name() const override { return "NetworkChannelSink"; }
  const Schema& output_schema() const override { return schema_; }
  Status ProcessBatch(const exec::Batch& input,
                      const BatchEmitFn& emit) override;
  Status Finish(const BatchEmitFn& emit) override;

  const std::shared_ptr<NetworkChannel>& channel() const { return channel_; }

 private:
  NetworkChannelSink(Schema schema, std::shared_ptr<NetworkChannel> channel)
      : schema_(std::move(schema)), channel_(std::move(channel)) {}
  Schema schema_;
  std::shared_ptr<NetworkChannel> channel_;
  uint64_t next_seq_ = 0;  ///< next channel sequence number to assign
};

/// \brief Downstream half of a node transition: drains its channel,
/// deserializes each wire frame into freshly allocated buffers (restoring
/// buffer sequence numbers and watermarks) and emits them. The input
/// batch it receives from the paired `NetworkChannelSink` is ignored —
/// it only schedules the drain.
///
/// Delivery hardening: frames land in a bounded reorder-repair buffer
/// keyed by channel sequence and are released strictly in sequence order;
/// duplicates are suppressed, acknowledged frames are released from the
/// sender's retransmit queue, and a gap (dropped frame) is repaired by
/// requesting a retransmit — immediately when the repair buffer
/// overflows its capacity, and at `Finish` for any missing tail. An
/// unrecoverable gap (channel dead, frame shed from the retransmit queue,
/// or retransmit attempts exhausted) follows the channel's shed policy:
/// `kBlock` fails the query with a `Status` naming the channel, the drop
/// policies skip the gap and count the frames as lost. Watermarks are
/// clamped per channel so repair-buffer release never regresses them.
/// Stats: like every operator's, record payload in (the scheduling
/// hand-off) and out (the reconstructed records); wire bytes are the
/// channel's to report.
class NetworkChannelSource : public Operator {
 public:
  static Result<OperatorPtr> Make(const Schema& schema,
                                  std::shared_ptr<NetworkChannel> channel);

  std::string name() const override { return "NetworkChannelSource"; }
  const Schema& output_schema() const override { return schema_; }
  Status ProcessBatch(const exec::Batch& input,
                      const BatchEmitFn& emit) override;
  Status Finish(const BatchEmitFn& emit) override;

 private:
  /// One parsed frame waiting in the reorder-repair buffer.
  struct PendingFrame {
    uint64_t count = 0;       ///< record count (parsed header)
    uint64_t buffer_seq = 0;  ///< original buffer sequence number
    int64_t watermark = 0;
    std::vector<uint8_t> frame;  ///< full wire frame (payload after header)
  };

  NetworkChannelSource(Schema schema, std::shared_ptr<NetworkChannel> channel)
      : schema_(std::move(schema)), channel_(std::move(channel)) {}

  /// Receives everything currently deliverable, repairs gaps (always under
  /// buffer pressure; also the missing tail when \p at_end), and emits
  /// released frames in sequence order.
  Status Drain(const BatchEmitFn& emit, bool at_end);
  /// Parses one wire frame into the repair buffer (suppressing
  /// duplicates).
  Status StashFrame(std::vector<uint8_t> frame);
  /// Releases the in-sequence prefix of the repair buffer and
  /// acknowledges it.
  Status ReleaseReady(const BatchEmitFn& emit);
  /// Deserializes one released frame into pooled buffers and emits them.
  Status EmitFrame(const PendingFrame& pending, const BatchEmitFn& emit);

  Schema schema_;
  std::shared_ptr<NetworkChannel> channel_;
  /// Reorder-repair buffer keyed by channel sequence; bounded by
  /// `retry_options().reorder_capacity` (overflow triggers gap repair).
  std::map<uint64_t, PendingFrame> pending_;
  uint64_t next_seq_ = 0;  ///< next channel sequence to release
  /// Per-channel watermark clamp: emitted watermarks are monotonic even
  /// when the repair path reconstructs frames whose stored watermarks ran
  /// backwards.
  int64_t last_watermark_ = std::numeric_limits<int64_t>::min();
};

// --- Sinks -------------------------------------------------------------------

/// \brief Terminal operator; consumes batches and emits nothing. Concrete
/// sinks override `Consume`, which receives the batch so sinks read
/// through the selection vector directly — the leaf of the zero-copy path
/// never materializes.
class SinkOperator : public Operator {
 public:
  const Schema& output_schema() const override { return schema_; }
  Status ProcessBatch(const exec::Batch& input,
                      const BatchEmitFn& emit) override;

 protected:
  explicit SinkOperator(Schema schema) : schema_(std::move(schema)) {}
  /// Consumes the selected rows (`batch.data->At(batch.RowAt(i))`).
  virtual Status Consume(const exec::Batch& batch) = 0;
  Schema schema_;
};

/// \brief Collects result rows as `Value` vectors (thread-safe reads).
class CollectSink : public SinkOperator {
 public:
  explicit CollectSink(Schema schema, size_t max_rows = 1 << 22)
      : SinkOperator(std::move(schema)), max_rows_(max_rows) {}

  std::string name() const override { return "CollectSink"; }

  /// Snapshot of collected rows.
  std::vector<std::vector<Value>> Rows() const;
  /// Number of rows collected so far.
  size_t RowCount() const;

 protected:
  Status Consume(const exec::Batch& batch) override;

 private:
  mutable std::mutex mutex_;
  std::vector<std::vector<Value>> rows_;
  size_t max_rows_;
};

/// \brief Counts events and bytes only (benchmark sink).
class CountingSink : public SinkOperator {
 public:
  explicit CountingSink(Schema schema) : SinkOperator(std::move(schema)) {}
  std::string name() const override { return "CountingSink"; }

  uint64_t events() const { return events_.load(); }
  uint64_t bytes() const { return bytes_.load(); }

 protected:
  Status Consume(const exec::Batch& batch) override;

 private:
  std::atomic<uint64_t> events_{0};
  std::atomic<uint64_t> bytes_{0};
};

/// \brief Writes rows as CSV (header + one line per record).
class CsvSink : public SinkOperator {
 public:
  static Result<std::shared_ptr<CsvSink>> Open(Schema schema,
                                               const std::string& path);
  ~CsvSink() override;
  std::string name() const override { return "CsvSink"; }

 protected:
  Status Consume(const exec::Batch& batch) override;

 private:
  CsvSink(Schema schema, FILE* file)
      : SinkOperator(std::move(schema)), file_(file) {}
  FILE* file_;
  std::mutex mutex_;
};

}  // namespace nebulameos::nebula
