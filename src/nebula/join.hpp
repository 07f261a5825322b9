/// \file join.hpp
/// \brief Temporal lookup join: enrich a stream with the time-nearest
/// record of a second (bounded) stream.
///
/// The paper's Q4 "integrates weather data from OpenMeteo" into the train
/// stream. This operator implements that integration as a first-class
/// join rather than a function call: the right side — a bounded stream of
/// timestamped observations (weather per zone per hour) — is drained into
/// an index at `Open`; each left record is then joined with the right
/// record of equal key whose timestamp is nearest within `max_age`
/// (a temporal-table join in Flink terms). Inner-join semantics: left
/// records with no match are dropped and counted.

#pragma once

#include <unordered_map>

#include "nebula/operator.hpp"
#include "nebula/source.hpp"

namespace nebulameos::nebula {

/// \brief Configuration of the temporal lookup join.
struct TemporalLookupJoinOptions {
  /// Bounded right side; drained once when the operator opens. Shared so a
  /// plan can be compiled for schema inference without consuming it.
  std::shared_ptr<Source> lookup;
  std::string left_key;    ///< INT64 key field on the left
  std::string right_key;   ///< INT64 key field on the right
  std::string left_time;   ///< event-time field on the left
  std::string right_time;  ///< event-time field on the right
  /// Maximum |left.ts − right.ts| for a match.
  Duration max_age = 0;
  /// Prefix applied to right-side field names that collide with left ones.
  std::string collision_prefix = "r_";
};

/// \brief The operator. Output schema: left fields, then the right fields
/// except its key and time columns (already represented on the left).
class TemporalLookupJoinOperator : public Operator {
 public:
  static Result<OperatorPtr> Make(const Schema& input,
                                  TemporalLookupJoinOptions options);

  std::string name() const override { return "TemporalLookupJoin"; }
  const Schema& output_schema() const override { return output_schema_; }
  Status Open(ExecutionContext* ctx) override;
  Status ProcessBatch(const exec::Batch& input,
                      const BatchEmitFn& emit) override;

  /// Left records dropped because no right record matched.
  uint64_t unmatched() const { return unmatched_; }
  /// Right records indexed at open.
  size_t lookup_size() const { return lookup_rows_; }

 private:
  TemporalLookupJoinOperator() = default;

  struct RightRow {
    Timestamp ts;
    std::vector<uint8_t> bytes;  // full right record
  };

  const RightRow* FindNearest(int64_t key, Timestamp ts) const;

  Schema input_schema_;
  Schema right_schema_;
  Schema output_schema_;
  TemporalLookupJoinOptions options_;
  size_t left_key_index_ = 0;
  size_t left_time_index_ = 0;
  size_t right_key_index_ = 0;
  size_t right_time_index_ = 0;
  std::vector<size_t> right_payload_indices_;  // right fields copied out
  std::unordered_map<int64_t, std::vector<RightRow>> index_;
  uint64_t unmatched_ = 0;
  size_t lookup_rows_ = 0;
  bool opened_ = false;
};

}  // namespace nebulameos::nebula
