/// \file query.hpp
/// \brief The declarative query API: a fluent builder that emits a
/// `LogicalPlan` (logical_plan.hpp).
///
/// Mirrors NebulaStream's query interface:
///
/// ```cpp
/// Result<LogicalPlan> plan =
///     Query::From(std::move(source))
///         .Filter(Lt(Attribute("speed"), Lit(22.2)))
///         .Map("speed_kmh", Mul(Attribute("speed"), Lit(3.6)))
///         .KeyBy("train_id")
///         .TumblingWindow(Minutes(1), "ts")
///         .Aggregate({AggregateSpec::Avg("speed", "avg_speed")})
///         .To(sink)
///         .Build();
/// ```
///
/// The builder is *thin*: every step appends a node to the plan IR, and
/// `Build()` surfaces builder misuse — `Aggregate` without a pending
/// window, a window never completed with `Aggregate` — as `Result` errors
/// instead of silently misbehaving at submission. Plan-shape rules are
/// the plan's: a `KeyBy` never consumed builds fine and is refused by
/// `LogicalPlan::Validate`, `CompilePlan` and `NodeEngine::Submit`. The
/// emitted plan can be inspected (`Explain`), optimized (optimizer.hpp)
/// and lowered (`CompilePlan`); `NodeEngine::Submit` accepts either a
/// finished plan or the builder itself.
///
/// Queries can *branch*: `FanOut` terminates the shared prefix with
/// several sub-queries built via `Query::Branch()`, each ending in its own
/// `To(sink)`, and `Split(n)` is the handle-style sugar over it:
///
/// ```cpp
/// SplitQuery split = Query::From(std::move(source))
///                        .Map("speed_kmh", Mul(Attribute("speed"), Lit(3.6)))
///                        .Split(2);
/// std::move(split[0]).Filter(alert_condition).To(alert_sink);
/// std::move(split[1]).KeyBy("zone")
///     .TumblingWindow(Seconds(30), "ts")
///     .Aggregate({AggregateSpec::Avg("noise_db", "avg_noise")})
///     .To(archive_sink);
/// Result<LogicalPlan> plan = std::move(split).Build();
/// ```
///
/// The shared prefix (source + Map above) executes once per buffer at
/// runtime; each branch consumes its full output.

#pragma once

#include "nebula/logical_plan.hpp"

namespace nebulameos::nebula {

class SplitQuery;

/// \brief Fluent builder producing a `LogicalPlan`.
class Query {
 public:
  /// Starts a query from a source (takes ownership).
  static Query From(SourcePtr source);

  /// Starts a sourceless sub-query describing one fan-out branch (consumed
  /// by `FanOut`). Branches support every fluent step and must terminate
  /// in `To` (or a nested `FanOut`).
  static Query Branch();

  /// Adds a filter step.
  Query&& Filter(ExprPtr predicate) &&;

  /// Adds one computed field.
  Query&& Map(std::string name, ExprPtr expr) &&;

  /// Adds several computed fields at once.
  Query&& MapAll(std::vector<MapSpec> specs) &&;

  /// Keeps only the named fields.
  Query&& Project(std::vector<std::string> fields) &&;

  /// Sets the partitioning key for the next window/CEP step. A key that is
  /// not consumed by the immediately following step builds, but the plan
  /// fails `LogicalPlan::Validate` and `CompilePlan`.
  Query&& KeyBy(std::string field) &&;

  /// Starts a tumbling-window aggregation (finish with `Aggregate`).
  Query&& TumblingWindow(Duration size, std::string time_field) &&;

  /// Starts a sliding-window aggregation (finish with `Aggregate`).
  Query&& SlidingWindow(Duration size, Duration slide,
                        std::string time_field) &&;

  /// Starts a threshold-window aggregation (finish with `Aggregate`).
  Query&& ThresholdWindow(ExprPtr predicate, Duration min_duration,
                          std::string time_field) &&;

  /// Completes the pending window with aggregates (and optional custom
  /// aggregators). Calling this without a pending window is a build error.
  Query&& Aggregate(std::vector<AggregateSpec> aggs,
                    std::vector<CustomAggregatorFactory> customs = {}) &&;

  /// Adds a CEP step.
  Query&& Detect(Pattern pattern, std::vector<Measure> measures) &&;

  /// Adds a temporal lookup join: enriches each record with the
  /// time-nearest matching record of a bounded side stream.
  Query&& JoinLookup(TemporalLookupJoinOptions options) &&;

  /// Terminates the query with a sink (shared so callers can inspect
  /// results after the run).
  Query&& To(std::shared_ptr<SinkOperator> sink) &&;

  /// Terminates the query with a fan-out into \p branches (each built with
  /// `Query::Branch()` and ending in its own `To`). The steps before this
  /// call become the branches' shared prefix, executed once at runtime.
  Query&& FanOut(std::vector<Query> branches) &&;

  /// Splits the query into \p n branches sharing every step added so far.
  /// Sugar over `Branch`/`FanOut`: continue each `split[i]` fluently,
  /// terminate it in `To`, then `std::move(split).Build()`.
  SplitQuery Split(size_t n) &&;

  /// Emits the logical plan. Fails when the fluent chain was misused
  /// (`Aggregate` without a window, a window left open, ...); structural
  /// plan checks — missing sink, dangling `KeyBy` — live in
  /// `LogicalPlan::Validate` and run at submission.
  Result<LogicalPlan> Build() &&;

 private:
  friend class SplitQuery;

  Query() = default;

  // Records the first misuse; later steps keep appending so the error
  // message refers to the earliest problem.
  void Fail(const std::string& message);
  // Appends a node unless a window is pending (steps between a window and
  // its Aggregate are a misuse).
  void AppendStep(LogicalOperatorPtr node, const char* what);
  // Parks a window node awaiting Aggregate(), with the same guard.
  void SetPendingWindow(LogicalOperatorPtr node, const char* what);

  LogicalPlan plan_;
  // Window awaiting Aggregate(); appended to the plan on completion.
  LogicalOperatorPtr pending_window_;
  Status error_;
};

/// \brief The result of `Query::Split`: the shared trunk plus `n` fluent
/// branch builders. Fluent steps on `split[i]` mutate the stored branch in
/// place (the `&&`-qualified methods return a reference to the same
/// object), so the idiom is `std::move(split[i]).Filter(...).To(sink);`.
class SplitQuery {
 public:
  SplitQuery(SplitQuery&&) = default;
  SplitQuery& operator=(SplitQuery&&) = default;

  /// Branch builder \p i (fails hard on out-of-range).
  Query& operator[](size_t i);

  /// Number of branches.
  size_t size() const { return branches_.size(); }

  /// Assembles trunk + fan-out and emits the logical plan.
  Result<LogicalPlan> Build() &&;

 private:
  friend class Query;

  SplitQuery(Query trunk, std::vector<Query> branches)
      : trunk_(std::move(trunk)), branches_(std::move(branches)) {}

  Query trunk_;
  std::vector<Query> branches_;
};

}  // namespace nebulameos::nebula
