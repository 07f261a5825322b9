// Tests for the spatiotemporal window aggregators
// (src/nebulameos/trajectory): stream → MEOS trajectory → exact operations.

#include <gtest/gtest.h>

#include "nebula/operators.hpp"
#include "nebulameos/plugin.hpp"
#include "nebulameos/trajectory.hpp"

namespace nebulameos::integration {
namespace {

using nebula::AggregateSpec;
using nebula::OperatorPtr;
using nebula::RecordWriter;
using nebula::Schema;
using nebula::TupleBuffer;
using nebula::TupleBufferPtr;
using nebula::Value;
using nebula::ValueAsBool;
using nebula::ValueAsDouble;
using nebula::ValueAsInt64;
using nebula::WindowAggOptions;

Schema PosSchema() {
  return Schema::Build()
      .AddInt64("train_id")
      .AddTimestamp("ts")
      .AddDouble("lon")
      .AddDouble("lat")
      .Finish();
}

class TrajectoryAggTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto registry = std::make_shared<GeofenceRegistry>();
    registry->AddPolygonZone(
        "corridor", ZoneKind::kMaintenance,
        *Polygon::Make(
            {{4.34, 50.80}, {4.36, 50.80}, {4.36, 50.90}, {4.34, 50.90}}));
    registry->AddPoi("ws", "workshop", {4.35, 50.87});
    ASSERT_TRUE(RegisterMeosPlugin(registry).ok());
    SetActiveGeofences(registry);
  }

  TrajectoryFields Fields() {
    TrajectoryFields f;
    f.lon = "lon";
    f.lat = "lat";
    f.time = "ts";
    return f;
  }

  // Runs one tumbling window over a straight northbound track and returns
  // the single result row.
  std::vector<Value> RunWindow(
      std::vector<nebula::CustomAggregatorFactory> customs) {
    WindowAggOptions opts;
    opts.key_field = "train_id";
    opts.time_field = "ts";
    opts.window = nebula::TumblingWindowSpec{Minutes(10)};
    opts.aggregates = {AggregateSpec::Count("n")};
    opts.custom_aggregators = std::move(customs);
    auto op = nebula::WindowAggOperator::Make(PosSchema(), opts);
    EXPECT_TRUE(op.ok()) << op.status().ToString();
    nebula::ExecutionContext ctx;
    EXPECT_TRUE((*op)->Open(&ctx).ok());
    schema_ = (*op)->output_schema();

    // Northbound at constant speed: 0.001 deg lat (≈111 m) per 10 s.
    auto buf = std::make_shared<TupleBuffer>(PosSchema(), 32);
    for (int i = 0; i < 30; ++i) {
      RecordWriter w = buf->Append();
      w.SetInt64(0, 1);
      w.SetInt64(1, Seconds(10 * i));
      w.SetDouble(2, 4.35);
      w.SetDouble(3, 50.80 + 0.001 * i);
    }
    std::vector<std::vector<Value>> rows;
    auto collect = [&](const nebula::exec::Batch& out) {
      for (size_t i = 0; i < out.NumRows(); ++i) {
        const nebula::RecordView rec = out.data->At(out.RowAt(i));
        std::vector<Value> row;
        for (size_t f = 0; f < out.data->schema().num_fields(); ++f) {
          switch (out.data->schema().field(f).type) {
            case nebula::DataType::kBool:
              row.emplace_back(rec.GetBool(f));
              break;
            case nebula::DataType::kDouble:
              row.emplace_back(rec.GetDouble(f));
              break;
            default:
              row.emplace_back(rec.GetInt64(f));
          }
        }
        rows.push_back(std::move(row));
      }
    };
    EXPECT_TRUE(
        (*op)->ProcessBatch(nebula::exec::SealedBatch(buf), collect).ok());
    EXPECT_TRUE((*op)->Finish(collect).ok());
    EXPECT_EQ(rows.size(), 1u);
    return rows.empty() ? std::vector<Value>{} : rows[0];
  }

  size_t FieldIndex(const std::string& name) {
    auto idx = schema_.IndexOf(name);
    EXPECT_TRUE(idx.ok()) << name;
    return *idx;
  }

  Schema schema_;
};

TEST_F(TrajectoryAggTest, MetricsAggregator) {
  auto row = RunWindow({TrajectoryMetricsAggregator::Factory(Fields())});
  ASSERT_FALSE(row.empty());
  EXPECT_EQ(ValueAsInt64(row[FieldIndex("traj_points")]), 30);
  // 29 segments of ~111.2 m.
  const double length = ValueAsDouble(row[FieldIndex("traj_length_m")]);
  EXPECT_NEAR(length, 29 * 111.2, 40.0);
  // 29 segments over 290 s at ~11.1 m/s.
  EXPECT_NEAR(ValueAsDouble(row[FieldIndex("traj_avg_speed_ms")]), 11.1, 0.3);
  EXPECT_NEAR(ValueAsDouble(row[FieldIndex("traj_max_speed_ms")]), 11.1, 0.3);
}

TEST_F(TrajectoryAggTest, EdwithinAggregatorPoi) {
  // Track passes within ~0 m of the workshop at lat 50.87... but the
  // trajectory only reaches 50.829 (30 points x 0.001): ~4.5 km short.
  auto row = RunWindow(
      {EdwithinAggregator::Factory("ws", 5000.0, "ws5k", Fields()),
       EdwithinAggregator::Factory("ws", 1000.0, "ws1k", Fields())});
  ASSERT_FALSE(row.empty());
  EXPECT_TRUE(ValueAsBool(row[FieldIndex("ws5k_edwithin")]));
  EXPECT_FALSE(ValueAsBool(row[FieldIndex("ws1k_edwithin")]));
  const double min_dist = ValueAsDouble(row[FieldIndex("ws5k_min_dist_m")]);
  EXPECT_NEAR(min_dist, 4560.0, 100.0);
  EXPECT_DOUBLE_EQ(min_dist,
                   ValueAsDouble(row[FieldIndex("ws1k_min_dist_m")]));
}

TEST_F(TrajectoryAggTest, ZoneDwellAggregator) {
  // The corridor spans the whole track laterally; the trajectory is inside
  // for its entire 290 s duration.
  auto row = RunWindow({ZoneDwellAggregator::Factory("corridor", "dwell",
                                                     Fields())});
  ASSERT_FALSE(row.empty());
  EXPECT_TRUE(ValueAsBool(row[FieldIndex("dwell_entered")]));
  EXPECT_NEAR(ValueAsDouble(row[FieldIndex("dwell_seconds")]), 290.0, 1.0);
}

TEST_F(TrajectoryAggTest, ExtentAggregator) {
  auto row = RunWindow({ExtentAggregatorAdapter::Factory(Fields())});
  ASSERT_FALSE(row.empty());
  EXPECT_DOUBLE_EQ(ValueAsDouble(row[FieldIndex("extent_xmin")]), 4.35);
  EXPECT_DOUBLE_EQ(ValueAsDouble(row[FieldIndex("extent_xmax")]), 4.35);
  EXPECT_DOUBLE_EQ(ValueAsDouble(row[FieldIndex("extent_ymin")]), 50.80);
  EXPECT_NEAR(ValueAsDouble(row[FieldIndex("extent_ymax")]), 50.829, 1e-9);
}

TEST_F(TrajectoryAggTest, BindFailsOnMissingFields) {
  TrajectoryFields wrong;
  wrong.lon = "nope";
  TrajectoryMetricsAggregator agg(wrong);
  EXPECT_FALSE(agg.Bind(PosSchema()).ok());
}

TEST_F(TrajectoryAggTest, EdwithinUnknownTargetFailsBind) {
  EdwithinAggregator agg("no-such-target", 100.0, "x", Fields());
  EXPECT_FALSE(agg.Bind(PosSchema()).ok());
}

TEST_F(TrajectoryAggTest, OutOfOrderRecordsAreSorted) {
  // Shuffle arrival order; the finalized trajectory sorts by time.
  TrajectoryMetricsAggregator agg(Fields());
  ASSERT_TRUE(agg.Bind(PosSchema()).ok());
  TupleBuffer buf(PosSchema(), 3);
  const Timestamp times[3] = {Seconds(20), Seconds(0), Seconds(10)};
  const double lats[3] = {50.82, 50.80, 50.81};
  for (int i = 0; i < 3; ++i) {
    RecordWriter w = buf.Append();
    w.SetInt64(0, 1);
    w.SetInt64(1, times[i]);
    w.SetDouble(2, 4.35);
    w.SetDouble(3, lats[i]);
    agg.Add(buf.At(i), times[i]);
  }
  // Write into a result row: 1 custom field block of 4.
  Schema out_schema = Schema::Build()
                          .AddInt64("traj_points")
                          .AddDouble("traj_length_m")
                          .AddDouble("traj_avg_speed_ms")
                          .AddDouble("traj_max_speed_ms")
                          .Finish();
  TupleBuffer out(out_schema, 1);
  RecordWriter w = out.Append();
  agg.WriteResult(&w, 0);
  EXPECT_EQ(out.At(0).GetInt64(0), 3);
  // Monotone northbound after sorting: 0.02 deg ≈ 2 × 1112 m (arrival order
  // would have produced 2x that by zig-zagging).
  EXPECT_NEAR(out.At(0).GetDouble(1), 2224.0, 20.0);
}

}  // namespace
}  // namespace nebulameos::integration
