/// \file cep.hpp
/// \brief Complex event processing: NFA-based pattern matching over keyed
/// streams.
///
/// The paper's GCEP queries (battery-curve deviations, unscheduled stops,
/// repeated emergency braking) extend the CEP model of Ziehn [VLDB 2020 PhD
/// Workshop]. This kernel implements SASE-style patterns with
/// *skip-till-next-match* semantics:
///
/// * a `Pattern` is a sequence of named steps, each with a predicate over
///   the current event;
/// * steps may be negated (the pattern fails if a matching event arrives
///   before the following step matches) or Kleene-plus (`one_or_more`);
/// * a `within` duration bounds first-to-last event time;
/// * matching is partitioned by an optional key field.
///
/// Matches are projected to output rows through `Measure`s — aggregates
/// over the events bound to a step (first/last/count/min/max/avg of a
/// field). The `CepOperator` wraps the matcher as a standard stream
/// operator.

#pragma once

#include <deque>

#include "nebula/operator.hpp"

namespace nebulameos::nebula {

/// \brief One pattern step: `name: predicate` with optional quantifiers.
struct PatternStep {
  std::string name;      ///< binding name, e.g. "a"
  ExprPtr predicate;     ///< over the current event
  bool negated = false;  ///< kill runs when a matching event arrives
  bool one_or_more = false;  ///< Kleene plus (greedy)
};

/// \brief A sequential event pattern with time bound and partitioning.
struct Pattern {
  std::vector<PatternStep> steps;
  Duration within = 0;      ///< 0 = unbounded
  std::string key_field;    ///< "" = global
  std::string time_field;   ///< event-time field
  /// When true, a new run is not started while another run (same key) has
  /// matched only the first step — one pending run per key instead of one
  /// per triggering event. Use for alert-style patterns whose first step
  /// matches frequently (e.g. "train is moving"), where per-event run
  /// creation would explode state and duplicate alerts.
  bool suppress_duplicate_starts = false;
};

/// Sources of a measure value.
enum class MeasureKind { kFirst, kLast, kCount, kMin, kMax, kAvg };

/// \brief One output column computed from a matched step's events:
/// `kind(step.field) AS output_name`.
struct Measure {
  std::string output_name;
  MeasureKind kind;
  std::string step;   ///< step binding name
  std::string field;  ///< input field (ignored for kCount)

  static Measure First(std::string step, std::string field, std::string out) {
    return {std::move(out), MeasureKind::kFirst, std::move(step),
            std::move(field)};
  }
  static Measure Last(std::string step, std::string field, std::string out) {
    return {std::move(out), MeasureKind::kLast, std::move(step),
            std::move(field)};
  }
  static Measure Count(std::string step, std::string out) {
    return {std::move(out), MeasureKind::kCount, std::move(step), ""};
  }
  static Measure Min(std::string step, std::string field, std::string out) {
    return {std::move(out), MeasureKind::kMin, std::move(step),
            std::move(field)};
  }
  static Measure Max(std::string step, std::string field, std::string out) {
    return {std::move(out), MeasureKind::kMax, std::move(step),
            std::move(field)};
  }
  static Measure Avg(std::string step, std::string field, std::string out) {
    return {std::move(out), MeasureKind::kAvg, std::move(step),
            std::move(field)};
  }
};

/// \brief CEP operator: feeds events through the NFA and emits one row per
/// complete match.
///
/// Output schema: [key] + match_start + match_end + measures (kCount →
/// INT64, others DOUBLE).
class CepOperator : public Operator {
 public:
  static Result<OperatorPtr> Make(const Schema& input, Pattern pattern,
                                  std::vector<Measure> measures);

  std::string name() const override { return "CEP"; }
  const Schema& output_schema() const override { return output_schema_; }
  /// Feeds the selected rows straight through the NFA.
  Status ProcessBatch(const exec::Batch& input,
                      const BatchEmitFn& emit) override;

  /// Currently active partial runs (all keys) — exposed for tests and
  /// capacity monitoring.
  size_t ActiveRuns() const;

 private:
  // A partial match: per-step folded measure state (events are not
  // retained — measures fold incrementally, keeping runs O(1) in space).
  struct StepFold {
    int64_t count = 0;
    double first = 0.0;
    double last = 0.0;
    double min = 0.0;
    double max = 0.0;
    double sum = 0.0;

    void Add(double v) {
      if (count == 0) {
        first = min = max = v;
      } else {
        min = std::min(min, v);
        max = std::max(max, v);
      }
      last = v;
      sum += v;
      ++count;
    }
  };

  struct Run {
    size_t step = 0;  // next step to satisfy
    Timestamp start = 0;
    Timestamp last = 0;
    int64_t kleene_matches = 0;   // matches folded into the current Kleene step
    std::vector<StepFold> folds;  // one per measure
  };

  using KeyValue = std::variant<int64_t, std::string>;

  CepOperator() = default;

  bool ShedsLateRecords() const override { return true; }

  KeyValue KeyOf(const RecordView& rec) const;
  void EmitMatch(const KeyValue& key, const Run& run, TupleBuffer* out) const;
  // Advances `run` with event `rec` at time `t`; returns true when the run
  // survives (possibly completed — flagged via *completed).
  bool AdvanceRun(Run* run, const RecordView& rec, Timestamp t,
                  bool* completed) const;

  Schema input_schema_;
  Schema output_schema_;
  Pattern pattern_;
  std::vector<Measure> measures_;
  std::vector<int> measure_field_index_;  // -1 for kCount
  std::vector<int> step_index_by_name_;   // measure -> step index
  bool keyed_ = false;
  size_t key_index_ = 0;
  DataType key_type_ = DataType::kInt64;
  size_t time_index_ = 0;
  std::map<KeyValue, std::deque<Run>> runs_;
  size_t max_runs_per_key_ = 1024;  // guard against run explosion
  /// Per-key monotonicity guard: highest event time seen. A record with
  /// an earlier timestamp would run the NFA's `within` expiry backwards
  /// and corrupt partial matches, so it is shed and counted instead
  /// (`events_shed` / `op.<path>.CEP.late_shed`).
  std::map<KeyValue, Timestamp> max_time_;
};

}  // namespace nebulameos::nebula
