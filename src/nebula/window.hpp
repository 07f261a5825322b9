/// \file window.hpp
/// \brief Window definitions and aggregation specifications.
///
/// The paper extends NebulaStream's "window definition expressions and
/// operands" so spatiotemporal streams can be grouped with **tumbling**,
/// **sliding** and **threshold** windows. This module defines those window
/// specs, the event-time assigner for time windows, the standard aggregate
/// functions, and the `CustomAggregator` extension hook through which the
/// MEOS integration contributes spatiotemporal aggregates (trajectory
/// assembly, spatiotemporal extent).

#pragma once

#include <functional>
#include <memory>
#include <variant>

#include "nebula/expr.hpp"

namespace nebulameos::nebula {

/// \brief Fixed-size, non-overlapping event-time windows.
struct TumblingWindowSpec {
  Duration size = 0;
};

/// \brief Fixed-size windows sliding by `slide` (overlapping when
/// slide < size).
struct SlidingWindowSpec {
  Duration size = 0;
  Duration slide = 0;
};

/// A time-window specification. Threshold windows are data-driven and
/// configured by `ThresholdWindowOptions` (operators.hpp) instead.
using WindowSpec = std::variant<TumblingWindowSpec, SlidingWindowSpec>;

/// \brief Assigns event timestamps to time-window start offsets.
class WindowAssigner {
 public:
  /// Builds an assigner for tumbling or sliding windows.
  static Result<WindowAssigner> Make(const WindowSpec& spec);

  /// Start timestamps of every window containing \p t (one for tumbling).
  void AssignWindows(Timestamp t, std::vector<Timestamp>* starts) const;

  /// Window length.
  Duration size() const { return size_; }
  /// Window slide (== size for tumbling).
  Duration slide() const { return slide_; }

 private:
  WindowAssigner(Duration size, Duration slide) : size_(size), slide_(slide) {}
  Duration size_;
  Duration slide_;
};

// --- Aggregates ---------------------------------------------------------------

/// Standard aggregate functions over a numeric field.
enum class AggKind { kCount, kSum, kAvg, kMin, kMax, kFirst, kLast };

/// \brief One aggregate output: `kind(field) AS output_name`.
struct AggregateSpec {
  AggKind kind;
  std::string field;        ///< input field (ignored for kCount)
  std::string output_name;  ///< output field name

  static AggregateSpec Count(std::string out) {
    return {AggKind::kCount, "", std::move(out)};
  }
  static AggregateSpec Sum(std::string field, std::string out) {
    return {AggKind::kSum, std::move(field), std::move(out)};
  }
  static AggregateSpec Avg(std::string field, std::string out) {
    return {AggKind::kAvg, std::move(field), std::move(out)};
  }
  static AggregateSpec Min(std::string field, std::string out) {
    return {AggKind::kMin, std::move(field), std::move(out)};
  }
  static AggregateSpec Max(std::string field, std::string out) {
    return {AggKind::kMax, std::move(field), std::move(out)};
  }
  static AggregateSpec First(std::string field, std::string out) {
    return {AggKind::kFirst, std::move(field), std::move(out)};
  }
  static AggregateSpec Last(std::string field, std::string out) {
    return {AggKind::kLast, std::move(field), std::move(out)};
  }
};

/// \brief Incremental state for one `AggregateSpec` within one window pane.
class AggState {
 public:
  /// Folds one value observed at \p t into the state.
  void Add(double v, Timestamp t);
  /// Result for \p kind given the folded state.
  double Result(AggKind kind) const;
  /// Number of folded values.
  int64_t count() const { return count_; }

 private:
  int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double first_ = 0.0;
  double last_ = 0.0;
  Timestamp first_t_ = 0;
  Timestamp last_t_ = 0;
};

/// \brief Extension hook: a stateful aggregator contributed by a plugin.
///
/// A custom aggregator consumes every record of a window pane and writes one
/// or more output fields into the window's result row. The MEOS integration
/// uses this to assemble `TGeomPointSeq` trajectories inside windows and
/// derive spatiotemporal measures from them.
class CustomAggregator {
 public:
  virtual ~CustomAggregator() = default;

  /// Folds one record (with its event time) into the state.
  virtual void Add(const RecordView& rec, Timestamp event_time) = 0;

  /// The fields this aggregator appends to the window output schema.
  virtual std::vector<struct Field> OutputFields() const = 0;

  /// Writes this aggregator's outputs; \p first_index is the index of its
  /// first output field in the result schema.
  virtual void WriteResult(RecordWriter* out, size_t first_index) = 0;

  /// Resolves input field names once the input schema is known.
  virtual Status Bind(const Schema& schema) = 0;
};

/// Factory producing a fresh custom-aggregator state per window pane.
using CustomAggregatorFactory =
    std::function<std::unique_ptr<CustomAggregator>()>;

}  // namespace nebulameos::nebula
