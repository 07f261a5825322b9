/// \file topk_nearest.hpp
/// \brief Top-k nearest moving objects — the paper's stated future-work
/// aggregation ("identifying the top-k nearest trains").
///
/// A windowed cross-key operator: per tumbling window it assembles one
/// trajectory per object (key), computes the pairwise *nearest-approach*
/// distance between the moving objects (exact per-segment minimum of the
/// relative motion, not a snapshot distance), and emits, for every object,
/// its k nearest neighbours in that window:
///
///   (object, window_start, window_end, rank, neighbor, min_distance_m)
///
/// Windows fire on the event-time watermark like the engine's window
/// aggregation; `Finish` flushes the tail.

#pragma once

#include "meos/tgeompoint.hpp"
#include "nebula/operator.hpp"

namespace nebulameos::integration {

/// \brief Configuration of the top-k nearest operator.
struct TopKNearestOptions {
  size_t k = 3;              ///< neighbours per object
  Duration window = 0;       ///< tumbling window size (> 0)
  std::string key_field;     ///< object id (kInt64)
  std::string time_field;    ///< event-time field
  std::string lon_field = "lon";
  std::string lat_field = "lat";
  meos::Metric metric = meos::Metric::kWgs84;
};

/// \brief The operator. Input: keyed position stream. Output schema:
/// `object:INT64, window_start, window_end, rank:INT64, neighbor:INT64,
/// min_distance_m:DOUBLE`.
class TopKNearestOperator : public nebula::Operator {
 public:
  static Result<nebula::OperatorPtr> Make(const nebula::Schema& input,
                                          TopKNearestOptions options);

  std::string name() const override { return "TopKNearest"; }
  const nebula::Schema& output_schema() const override {
    return output_schema_;
  }
  Status ProcessBatch(const nebula::exec::Batch& input,
                      const BatchEmitFn& emit) override;
  Status Finish(const BatchEmitFn& emit) override;

 private:
  TopKNearestOperator() = default;

  using Track = std::vector<meos::TInstant<meos::Point>>;
  using Pane = std::map<int64_t, Track>;  // key -> positions

  Status FireUpTo(Timestamp watermark, const BatchEmitFn& emit);
  void EmitPane(Timestamp window_start, Pane& pane, const BatchEmitFn& emit);

  nebula::Schema input_schema_;
  nebula::Schema output_schema_;
  TopKNearestOptions options_;
  size_t key_index_ = 0;
  size_t time_index_ = 0;
  size_t lon_index_ = 0;
  size_t lat_index_ = 0;
  std::map<Timestamp, Pane> panes_;  // window_start -> pane
  Timestamp max_event_time_ = std::numeric_limits<Timestamp>::min();
};

}  // namespace nebulameos::integration
