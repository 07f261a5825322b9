// Tests for the top-k nearest moving-objects operator
// (src/nebulameos/topk_nearest) and the MovingMinDistance primitive.

#include <gtest/gtest.h>

#include "nebulameos/topk_nearest.hpp"
#include "sncb/records.hpp"

namespace nebulameos::integration {
namespace {

using nebula::RecordWriter;
using nebula::Schema;
using nebula::TupleBuffer;
using nebula::TupleBufferPtr;
using nebula::Value;
using nebula::ValueAsDouble;
using nebula::ValueAsInt64;

Schema PosSchema() {
  return Schema::Build()
      .AddInt64("train_id")
      .AddTimestamp("ts")
      .AddDouble("lon")
      .AddDouble("lat")
      .Finish();
}

TEST(MovingMinDistance, CrossingPaths) {
  auto a = meos::TGeomPointSeq::Make(
      {{meos::Point{0, 0}, 0}, {meos::Point{10, 0}, 100}});
  auto b = meos::TGeomPointSeq::Make(
      {{meos::Point{10, 1}, 0}, {meos::Point{0, 1}, 100}});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // They cross at t=50 with lateral offset 1.
  EXPECT_NEAR(MovingMinDistance(*a, *b, meos::Metric::kCartesian), 1.0,
              1e-9);
}

TEST(MovingMinDistance, DisjointPeriodsAreInfinite) {
  auto a = meos::TGeomPointSeq::Make(
      {{meos::Point{0, 0}, 0}, {meos::Point{1, 0}, 10}});
  auto b = meos::TGeomPointSeq::Make(
      {{meos::Point{0, 0}, 20}, {meos::Point{1, 0}, 30}});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(std::isinf(MovingMinDistance(*a, *b, meos::Metric::kCartesian)));
}

TEST(MovingMinDistance, ParallelConstantGap) {
  auto a = meos::TGeomPointSeq::Make(
      {{meos::Point{0, 0}, 0}, {meos::Point{10, 0}, 100}});
  auto b = meos::TGeomPointSeq::Make(
      {{meos::Point{0, 4}, 0}, {meos::Point{10, 4}, 100}});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(MovingMinDistance(*a, *b, meos::Metric::kCartesian), 4.0,
              1e-9);
}

class TopKHarness {
 public:
  explicit TopKHarness(TopKNearestOptions options) {
    auto op = TopKNearestOperator::Make(PosSchema(), std::move(options));
    EXPECT_TRUE(op.ok()) << op.status().ToString();
    op_ = std::move(*op);
    EXPECT_TRUE(op_->Open(&ctx_).ok());
  }

  void Feed(
      std::initializer_list<std::tuple<int64_t, Timestamp, double, double>>
          rows) {
    auto buf = std::make_shared<TupleBuffer>(PosSchema(), rows.size());
    for (const auto& [key, ts, lon, lat] : rows) {
      RecordWriter w = buf->Append();
      w.SetInt64(0, key);
      w.SetInt64(1, ts);
      w.SetDouble(2, lon);
      w.SetDouble(3, lat);
    }
    EXPECT_TRUE(
        op_->ProcessBatch(nebula::exec::SealedBatch(buf), collector_).ok());
  }

  void Finish() { EXPECT_TRUE(op_->Finish(collector_).ok()); }

  // Stored callable: Operator::BatchEmitFn is a non-owning FunctionRef, so
  // the referenced callable must outlive the ProcessBatch/Finish call.
  std::function<void(const nebula::exec::Batch&)> MakeCollector() {
    return [this](const nebula::exec::Batch& out) {
      for (size_t i = 0; i < out.NumRows(); ++i) {
        const auto rec = out.data->At(out.RowAt(i));
        rows_.push_back({Value(rec.GetInt64(0)), Value(rec.GetInt64(1)),
                         Value(rec.GetInt64(2)), Value(rec.GetInt64(3)),
                         Value(rec.GetInt64(4)), Value(rec.GetDouble(5))});
      }
    };
  }

  const std::vector<std::vector<Value>>& rows() const { return rows_; }

 private:
  nebula::ExecutionContext ctx_;
  nebula::OperatorPtr op_;
  std::vector<std::vector<Value>> rows_;
  std::function<void(const nebula::exec::Batch&)> collector_ = MakeCollector();
};

TopKNearestOptions Options(size_t k) {
  TopKNearestOptions options;
  options.k = k;
  options.window = Minutes(1);
  options.key_field = "train_id";
  options.time_field = "ts";
  options.metric = meos::Metric::kCartesian;
  return options;
}

TEST(TopKNearest, Validation) {
  TopKNearestOptions options = Options(3);
  options.k = 0;
  EXPECT_FALSE(TopKNearestOperator::Make(PosSchema(), options).ok());
  options = Options(3);
  options.window = 0;
  EXPECT_FALSE(TopKNearestOperator::Make(PosSchema(), options).ok());
  options = Options(3);
  options.key_field = "missing";
  EXPECT_FALSE(TopKNearestOperator::Make(PosSchema(), options).ok());
}

TEST(TopKNearest, RanksNeighborsByNearestApproach) {
  TopKHarness h(Options(2));
  // Three stationary objects on a line: 0 at x=0, 1 at x=1, 2 at x=10.
  h.Feed({{0, Seconds(1), 0.0, 0.0},
          {1, Seconds(1), 1.0, 0.0},
          {2, Seconds(1), 10.0, 0.0},
          {0, Seconds(30), 0.0, 0.0},
          {1, Seconds(30), 1.0, 0.0},
          {2, Seconds(30), 10.0, 0.0}});
  h.Finish();
  // Each of the 3 objects gets k=2 neighbour rows.
  ASSERT_EQ(h.rows().size(), 6u);
  // Object 0: nearest is 1 (d=1), then 2 (d=10).
  EXPECT_EQ(ValueAsInt64(h.rows()[0][0]), 0);
  EXPECT_EQ(ValueAsInt64(h.rows()[0][3]), 1);  // rank 1
  EXPECT_EQ(ValueAsInt64(h.rows()[0][4]), 1);  // neighbor id
  EXPECT_NEAR(ValueAsDouble(h.rows()[0][5]), 1.0, 1e-9);
  EXPECT_EQ(ValueAsInt64(h.rows()[1][4]), 2);
  EXPECT_NEAR(ValueAsDouble(h.rows()[1][5]), 10.0, 1e-9);
  // Object 2: nearest is 1 (d=9).
  EXPECT_EQ(ValueAsInt64(h.rows()[4][0]), 2);
  EXPECT_EQ(ValueAsInt64(h.rows()[4][4]), 1);
  EXPECT_NEAR(ValueAsDouble(h.rows()[4][5]), 9.0, 1e-9);
}

TEST(TopKNearest, UsesNearestApproachNotSnapshot) {
  TopKHarness h(Options(1));
  // Objects 0 and 1 cross mid-window; 2 stays 3 units from 0 throughout.
  // Snapshot distances at the two instants: |0-1| = 8 both times, but the
  // crossing brings them within 0 of each other.
  h.Feed({{0, Seconds(0), 0.0, 0.0},
          {1, Seconds(0), 8.0, 0.0},
          {2, Seconds(0), 0.0, 3.0},
          {0, Seconds(30), 8.0, 0.0},
          {1, Seconds(30), 0.0, 0.0},
          {2, Seconds(30), 8.0, 3.0}});
  h.Finish();
  // Object 0's nearest must be 1 (crossing → distance 0), not 2 (3.0).
  ASSERT_GE(h.rows().size(), 1u);
  EXPECT_EQ(ValueAsInt64(h.rows()[0][0]), 0);
  EXPECT_EQ(ValueAsInt64(h.rows()[0][4]), 1);
  EXPECT_NEAR(ValueAsDouble(h.rows()[0][5]), 0.0, 1e-9);
}

TEST(TopKNearest, KLargerThanFleetIsClamped) {
  TopKHarness h(Options(10));
  h.Feed({{0, Seconds(1), 0.0, 0.0},
          {1, Seconds(1), 1.0, 0.0},
          {0, Seconds(2), 0.0, 0.0},
          {1, Seconds(2), 1.0, 0.0}});
  h.Finish();
  // Two objects: each gets exactly one neighbour row.
  EXPECT_EQ(h.rows().size(), 2u);
}

TEST(TopKNearest, WindowsFireOnWatermark) {
  TopKHarness h(Options(1));
  h.Feed({{0, Seconds(1), 0.0, 0.0},
          {1, Seconds(2), 5.0, 0.0},
          {0, Seconds(20), 0.0, 0.0},
          {1, Seconds(21), 5.0, 0.0}});
  EXPECT_TRUE(h.rows().empty());  // window [0, 60) still open
  // An event in the next window advances the watermark past the first.
  h.Feed({{0, Minutes(1) + Seconds(1), 0.0, 0.0}});
  EXPECT_EQ(h.rows().size(), 2u);
  h.Finish();  // the second window has a single object: nothing to rank
  EXPECT_EQ(h.rows().size(), 2u);
}

TEST(TopKNearest, SingleObjectEmitsNothing) {
  TopKHarness h(Options(2));
  h.Feed({{0, Seconds(1), 0.0, 0.0}, {0, Seconds(2), 1.0, 0.0}});
  h.Finish();
  EXPECT_TRUE(h.rows().empty());
}

TEST(TopKNearest, SncbFleetEndToEnd) {
  // Real fleet stream: every train must report k=2 neighbours per fired
  // window, with positive metric distances.
  const sncb::RailNetwork network = sncb::BuildBelgianNetwork();
  sncb::SncbSources sources(&network);
  TopKNearestOptions options;
  options.k = 2;
  options.window = Minutes(2);
  options.key_field = "train_id";
  options.time_field = "ts";
  options.metric = meos::Metric::kWgs84;
  auto op = TopKNearestOperator::Make(sncb::PositionSchema(), options);
  ASSERT_TRUE(op.ok());
  nebula::ExecutionContext ctx;
  ASSERT_TRUE((*op)->Open(&ctx).ok());
  auto source = sources.Position(60'000);
  std::vector<std::vector<Value>> rows;
  auto collect = [&](const nebula::exec::Batch& out) {
    for (size_t i = 0; i < out.NumRows(); ++i) {
      const auto rec = out.data->At(out.RowAt(i));
      rows.push_back({Value(rec.GetInt64(0)), Value(rec.GetInt64(3)),
                      Value(rec.GetInt64(4)), Value(rec.GetDouble(5))});
    }
  };
  while (true) {
    auto buf = std::make_shared<TupleBuffer>(sncb::PositionSchema(), 4096);
    auto more = source->Fill(buf.get());
    ASSERT_TRUE(more.ok());
    if (!buf->empty()) {
      ASSERT_TRUE(
          (*op)->ProcessBatch(nebula::exec::SealedBatch(buf), collect).ok());
    }
    if (!*more) break;
  }
  ASSERT_TRUE((*op)->Finish(collect).ok());
  ASSERT_FALSE(rows.empty());
  for (const auto& row : rows) {
    EXPECT_GE(ValueAsInt64(row[0]), 0);
    EXPECT_LT(ValueAsInt64(row[0]), 6);
    EXPECT_GE(ValueAsInt64(row[1]), 1);  // rank
    EXPECT_LE(ValueAsInt64(row[1]), 2);
    EXPECT_NE(ValueAsInt64(row[0]), ValueAsInt64(row[2]));  // not itself
    EXPECT_GT(ValueAsDouble(row[3]), 0.0);                  // meters apart
  }
}

}  // namespace
}  // namespace nebulameos::integration
