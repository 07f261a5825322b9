#include "nebulameos/topk_nearest.hpp"

#include <algorithm>

namespace nebulameos::integration {

using nebula::DataType;
using nebula::Field;
using nebula::OperatorPtr;
using nebula::RecordView;
using nebula::RecordWriter;
using nebula::Schema;
using nebula::TupleBufferPtr;

Result<OperatorPtr> TopKNearestOperator::Make(const Schema& input,
                                              TopKNearestOptions options) {
  if (options.k == 0) {
    return Status::InvalidArgument("top-k nearest: k must be > 0");
  }
  if (options.window <= 0) {
    return Status::InvalidArgument("top-k nearest: window must be > 0");
  }
  auto op = std::unique_ptr<TopKNearestOperator>(new TopKNearestOperator());
  op->input_schema_ = input;
  NM_ASSIGN_OR_RETURN(op->key_index_, input.IndexOf(options.key_field));
  if (input.field(op->key_index_).type != DataType::kInt64) {
    return Status::InvalidArgument("top-k nearest: key must be INT64");
  }
  NM_ASSIGN_OR_RETURN(op->time_index_, input.IndexOf(options.time_field));
  NM_ASSIGN_OR_RETURN(op->lon_index_, input.IndexOf(options.lon_field));
  NM_ASSIGN_OR_RETURN(op->lat_index_, input.IndexOf(options.lat_field));
  NM_ASSIGN_OR_RETURN(
      op->output_schema_,
      Schema::Make({Field{"object", DataType::kInt64},
                    Field{"window_start", DataType::kTimestamp},
                    Field{"window_end", DataType::kTimestamp},
                    Field{"rank", DataType::kInt64},
                    Field{"neighbor", DataType::kInt64},
                    Field{"min_distance_m", DataType::kDouble}}));
  op->options_ = std::move(options);
  return OperatorPtr(std::move(op));
}

Status TopKNearestOperator::ProcessBatch(const nebula::exec::Batch& input,
                                         const BatchEmitFn& emit) {
  for (size_t i = 0; i < input.NumRows(); ++i) {
    const RecordView rec = input.data->At(input.RowAt(i));
    const Timestamp t = rec.GetInt64(time_index_);
    max_event_time_ = std::max(max_event_time_, t);
    const Timestamp start = (t / options_.window) * options_.window;
    panes_[start][rec.GetInt64(key_index_)].push_back(
        {meos::Point{rec.GetDouble(lon_index_), rec.GetDouble(lat_index_)},
         t});
  }
  if (max_event_time_ != std::numeric_limits<Timestamp>::min()) {
    return FireUpTo(max_event_time_, emit);
  }
  return Status::OK();
}

Status TopKNearestOperator::Finish(const BatchEmitFn& emit) {
  return FireUpTo(std::numeric_limits<Timestamp>::max(), emit);
}

Status TopKNearestOperator::FireUpTo(Timestamp watermark,
                                     const BatchEmitFn& emit) {
  auto it = panes_.begin();
  while (it != panes_.end()) {
    if (it->first + options_.window > watermark) break;  // ordered by start
    EmitPane(it->first, it->second, emit);
    it = panes_.erase(it);
  }
  return Status::OK();
}

void TopKNearestOperator::EmitPane(Timestamp window_start, Pane& pane,
                                   const BatchEmitFn& emit) {
  // Build one trajectory per object (records may arrive out of order).
  std::vector<std::pair<int64_t, meos::TGeomPointSeq>> trajectories;
  trajectories.reserve(pane.size());
  for (auto& [key, track] : pane) {
    std::sort(track.begin(), track.end(),
              [](const meos::TInstant<meos::Point>& a,
                 const meos::TInstant<meos::Point>& b) { return a.t < b.t; });
    Track unique;
    unique.reserve(track.size());
    for (const auto& ins : track) {
      if (unique.empty() || ins.t > unique.back().t) unique.push_back(ins);
    }
    auto seq = meos::TGeomPointSeq::Make(std::move(unique));
    if (seq.ok()) trajectories.emplace_back(key, std::move(*seq));
  }
  if (trajectories.size() < 2) return;

  // Pairwise nearest-approach distances (symmetric: computed once).
  const size_t n = trajectories.size();
  std::vector<std::vector<double>> dist(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double d = meos::MovingMinDistance(
          trajectories[i].second, trajectories[j].second, options_.metric);
      dist[i][j] = d;
      dist[j][i] = d;
    }
  }

  TupleBufferPtr out = ctx_->Allocate(output_schema_);
  for (size_t i = 0; i < n; ++i) {
    // Rank the other objects by nearest approach.
    std::vector<size_t> order;
    for (size_t j = 0; j < n; ++j) {
      if (j != i) order.push_back(j);
    }
    std::sort(order.begin(), order.end(),
              [&](size_t x, size_t y) { return dist[i][x] < dist[i][y]; });
    const size_t limit = std::min(options_.k, order.size());
    for (size_t r = 0; r < limit; ++r) {
      if (out->full()) {
        emit(nebula::exec::SealedBatch(out));
        out = ctx_->Allocate(output_schema_);
      }
      RecordWriter w = out->Append();
      w.SetInt64(0, trajectories[i].first);
      w.SetInt64(1, window_start);
      w.SetInt64(2, window_start + options_.window);
      w.SetInt64(3, static_cast<int64_t>(r + 1));
      w.SetInt64(4, trajectories[order[r]].first);
      w.SetDouble(5, dist[i][order[r]]);
    }
  }
  if (!out->empty()) emit(nebula::exec::SealedBatch(std::move(out)));
}

}  // namespace nebulameos::integration
