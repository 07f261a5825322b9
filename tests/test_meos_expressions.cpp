// Tests for the MEOS expression plugin (src/nebulameos/meos_expressions,
// plugin) — edwithin, tpoint_at_stbox (MeosAtStbox), zone functions.

#include <gtest/gtest.h>

#include <set>

#include "nebula/exec/compiled_expr.hpp"
#include "nebulameos/plugin.hpp"

namespace nebulameos::integration {
namespace {

using nebula::Attribute;
using nebula::ExprPtr;
using nebula::Fn;
using nebula::Lit;
using nebula::RecordWriter;
using nebula::Schema;
using nebula::TupleBuffer;
using nebula::Value;
using nebula::ValueAsBool;
using nebula::ValueAsDouble;
using nebula::ValueAsInt64;

Schema PosSchema() {
  return Schema::Build()
      .AddDouble("lon")
      .AddDouble("lat")
      .AddTimestamp("ts")
      .Finish();
}

class MeosExprTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto registry = std::make_shared<GeofenceRegistry>();
    registry->AddPolygonZone(
        "zone-a", ZoneKind::kMaintenance,
        *Polygon::Make({{4.0, 50.0}, {4.1, 50.0}, {4.1, 50.1}, {4.0, 50.1}}),
        40.0);
    registry->AddCircleZone("zone-b", ZoneKind::kHighRisk,
                            Circle{{4.35, 50.85}, 1000.0}, 60.0);
    registry->AddPoi("poi-ws", "workshop", {4.37, 50.88});
    Status st = RegisterMeosPlugin(registry);
    ASSERT_TRUE(st.ok()) << st.ToString();
    SetActiveGeofences(registry);
  }

  // Evaluates `expr` on a single (lon, lat, ts) record.
  Value Eval(const ExprPtr& expr, double lon, double lat, Timestamp ts = 0) {
    TupleBuffer buf(PosSchema(), 1);
    RecordWriter w = buf.Append();
    w.SetDouble(0, lon);
    w.SetDouble(1, lat);
    w.SetInt64(2, ts);
    Status st = expr->Bind(buf.schema());
    EXPECT_TRUE(st.ok()) << st.ToString();
    return expr->Eval(buf.At(0));
  }

  ExprPtr LonLat(const std::string& fn, std::vector<ExprPtr> extra) {
    std::vector<ExprPtr> args = {Attribute("lon"), Attribute("lat")};
    for (auto& e : extra) args.push_back(std::move(e));
    return Fn(fn, std::move(args));
  }
};

TEST_F(MeosExprTest, PluginRegistered) {
  EXPECT_TRUE(MeosPluginRegistered());
  auto& reg = nebula::ExpressionRegistry::Global();
  for (const char* name :
       {"edwithin", "tpoint_at_stbox", "in_zone", "in_zone_kind", "zone_id",
        "zone_speed_limit", "nearest_poi_distance", "nearest_poi_id",
        "haversine_m"}) {
    EXPECT_TRUE(reg.Contains(name)) << name;
  }
  // Re-registration is idempotent.
  EXPECT_TRUE(RegisterMeosPlugin().ok());
}

TEST_F(MeosExprTest, EdwithinAgainstPoi) {
  auto near = LonLat("edwithin", {Lit(std::string("poi-ws")), Lit(2000.0)});
  EXPECT_TRUE(ValueAsBool(Eval(near, 4.37, 50.89)));   // ~1.1 km away
  EXPECT_FALSE(ValueAsBool(Eval(near, 4.37, 50.95)));  // ~7.8 km away
}

TEST_F(MeosExprTest, EdwithinAgainstZone) {
  // zone-b is a 1 km circle: edwithin 500 m extends the reach to 1.5 km.
  auto near = LonLat("edwithin", {Lit(std::string("zone-b")), Lit(500.0)});
  EXPECT_TRUE(ValueAsBool(Eval(near, 4.35, 50.85)));    // center
  EXPECT_TRUE(ValueAsBool(Eval(near, 4.35, 50.862)));   // ~1.33 km: within
  EXPECT_FALSE(ValueAsBool(Eval(near, 4.35, 50.875)));  // ~2.8 km: outside
}

TEST_F(MeosExprTest, EdwithinErrors) {
  auto& reg = nebula::ExpressionRegistry::Global();
  // Wrong arity.
  EXPECT_FALSE(reg.Create("edwithin", {Lit(1.0)}).ok());
  // Non-literal target.
  auto bad = LonLat("edwithin", {Attribute("lon"), Lit(10.0)});
  TupleBuffer buf(PosSchema(), 1);
  EXPECT_FALSE(bad->Bind(buf.schema()).ok());
  // Unknown target.
  auto unknown =
      LonLat("edwithin", {Lit(std::string("no-such")), Lit(10.0)});
  EXPECT_FALSE(unknown->Bind(buf.schema()).ok());
}

TEST_F(MeosExprTest, MeosAtStboxFiltersSpaceAndTime) {
  auto box = meos::STBox::Make(4.0, 50.0, 4.5, 51.0,
                               meos::Period(Seconds(100), Seconds(200)));
  ASSERT_TRUE(box.ok());
  auto expr = MeosAtStboxExpression::FromBox(
      Attribute("lon"), Attribute("lat"), Attribute("ts"), *box);
  EXPECT_TRUE(ValueAsBool(Eval(expr, 4.2, 50.5, Seconds(150))));
  EXPECT_FALSE(ValueAsBool(Eval(expr, 4.2, 50.5, Seconds(250))));  // time out
  EXPECT_FALSE(ValueAsBool(Eval(expr, 5.0, 50.5, Seconds(150))));  // space out
  // Boundary is inclusive.
  EXPECT_TRUE(ValueAsBool(Eval(expr, 4.0, 50.0, Seconds(100))));
}

TEST_F(MeosExprTest, MeosAtStboxByName) {
  auto expr = Fn("tpoint_at_stbox",
                 {Attribute("lon"), Attribute("lat"), Attribute("ts"),
                  Lit(4.0), Lit(50.0), Lit(4.5), Lit(51.0),
                  Lit(int64_t{0}), Lit(Seconds(100))});
  EXPECT_TRUE(ValueAsBool(Eval(expr, 4.1, 50.1, Seconds(50))));
  EXPECT_FALSE(ValueAsBool(Eval(expr, 4.1, 50.1, Seconds(150))));
}

TEST_F(MeosExprTest, InZoneByName) {
  auto in_a = LonLat("in_zone", {Lit(std::string("zone-a"))});
  EXPECT_TRUE(ValueAsBool(Eval(in_a, 4.05, 50.05)));
  EXPECT_FALSE(ValueAsBool(Eval(in_a, 4.2, 50.05)));
  TupleBuffer buf(PosSchema(), 1);
  auto unknown = LonLat("in_zone", {Lit(std::string("zone-zzz"))});
  EXPECT_FALSE(unknown->Bind(buf.schema()).ok());
}

TEST_F(MeosExprTest, InZoneKindAndZoneId) {
  auto in_maint = LonLat("in_zone_kind", {Lit(std::string("maintenance"))});
  EXPECT_TRUE(ValueAsBool(Eval(in_maint, 4.05, 50.05)));
  EXPECT_FALSE(ValueAsBool(Eval(in_maint, 4.35, 50.85)));
  auto any = LonLat("in_zone_kind", {Lit(std::string(""))});
  EXPECT_TRUE(ValueAsBool(Eval(any, 4.35, 50.85)));
  auto id = LonLat("zone_id", {Lit(std::string("maintenance"))});
  EXPECT_EQ(ValueAsInt64(Eval(id, 4.05, 50.05)), 0);
  EXPECT_EQ(ValueAsInt64(Eval(id, 5.9, 49.0)), -1);
  // Unknown kind fails at bind.
  TupleBuffer buf(PosSchema(), 1);
  auto bad = LonLat("in_zone_kind", {Lit(std::string("volcano"))});
  EXPECT_FALSE(bad->Bind(buf.schema()).ok());
}

TEST_F(MeosExprTest, ZoneSpeedLimit) {
  auto limit = LonLat("zone_speed_limit", {Lit(120.0)});
  EXPECT_DOUBLE_EQ(ValueAsDouble(Eval(limit, 4.05, 50.05)), 40.0);
  EXPECT_DOUBLE_EQ(ValueAsDouble(Eval(limit, 4.35, 50.85)), 60.0);
  EXPECT_DOUBLE_EQ(ValueAsDouble(Eval(limit, 5.9, 49.0)), 120.0);
}

TEST_F(MeosExprTest, NearestPoi) {
  auto dist = LonLat("nearest_poi_distance", {Lit(std::string("workshop"))});
  const double d = ValueAsDouble(Eval(dist, 4.37, 50.89));
  EXPECT_NEAR(d, 1112.0, 30.0);  // ~0.01 deg latitude
  auto id = LonLat("nearest_poi_id", {Lit(std::string("workshop"))});
  EXPECT_EQ(ValueAsInt64(Eval(id, 4.37, 50.89)), 0);
  auto none = LonLat("nearest_poi_id", {Lit(std::string("garage"))});
  EXPECT_EQ(ValueAsInt64(Eval(none, 4.37, 50.89)), -1);
}

TEST_F(MeosExprTest, HaversineFunction) {
  auto d = Fn("haversine_m", {Attribute("lon"), Attribute("lat"), Lit(4.37),
                              Lit(50.88)});
  EXPECT_NEAR(ValueAsDouble(Eval(d, 4.37, 50.89)), 1112.0, 30.0);
  EXPECT_DOUBLE_EQ(ValueAsDouble(Eval(d, 4.37, 50.88)), 0.0);
}

TEST_F(MeosExprTest, ComposesWithNativeExpressions) {
  // NOT in_zone('zone-a') AND edwithin(poi, 100 km): composition across
  // plugin and native nodes.
  auto expr = nebula::And(
      nebula::Not(LonLat("in_zone", {Lit(std::string("zone-a"))})),
      LonLat("edwithin", {Lit(std::string("poi-ws")), Lit(100'000.0)}));
  EXPECT_TRUE(ValueAsBool(Eval(expr, 4.35, 50.85)));
  EXPECT_FALSE(ValueAsBool(Eval(expr, 4.05, 50.05)));  // inside zone-a
}

TEST_F(MeosExprTest, ColumnKernelsMatchInterpreterOnEveryFunction) {
  // Every MEOS function compiles to one column call per batch; the kernel
  // must reproduce Eval exactly on positions inside, near and outside the
  // zones, the POI and the box.
  const Schema schema = PosSchema();
  TupleBuffer buf(schema, 11 * 11);
  for (int i = 0; i <= 10; ++i) {
    for (int j = 0; j <= 10; ++j) {
      RecordWriter w = buf.Append();
      w.SetDouble(0, 3.95 + 0.05 * i);
      w.SetDouble(1, 49.95 + 0.1 * j);
      w.SetInt64(2, Seconds(20 * (i + j)));
    }
  }
  // Each expression with the number of distinct values it takes over the
  // grid at least (the registry holds one POI, so its id is constant).
  const std::vector<std::pair<ExprPtr, size_t>> cases = {
      {LonLat("edwithin", {Lit(std::string("poi-ws")), Lit(20'000.0)}), 2},
      {LonLat("edwithin", {Lit(std::string("zone-a")), Lit(5'000.0)}), 2},
      {Fn("tpoint_at_stbox",
          {Attribute("lon"), Attribute("lat"), Attribute("ts"), Lit(4.0),
           Lit(50.0), Lit(4.3), Lit(50.6), Lit(Seconds(60)),
           Lit(Seconds(300))}),
       2},
      {LonLat("in_zone", {Lit(std::string("zone-b"))}), 2},
      {LonLat("in_zone_kind", {Lit(std::string("maintenance"))}), 2},
      {LonLat("in_zone_kind", {Lit(std::string(""))}), 2},
      {LonLat("zone_id", {Lit(std::string("high_risk"))}), 2},
      {LonLat("zone_speed_limit", {Lit(120.0)}), 3},
      {LonLat("nearest_poi_distance", {Lit(std::string("workshop"))}), 2},
      {LonLat("nearest_poi_id", {Lit(std::string("workshop"))}), 1},
      {Fn("haversine_m",
          {Attribute("lon"), Attribute("lat"), Lit(4.37), Lit(50.88)}),
       2},
  };
  for (const auto& [expr, min_distinct] : cases) {
    ASSERT_TRUE(expr->Bind(schema).ok()) << expr->ToString();
    nebula::exec::KernelPtr kernel =
        expr->CompileKernel(nebula::exec::RunLayout(schema));
    ASSERT_NE(kernel, nullptr) << expr->ToString();
    std::vector<double> out(buf.size());
    kernel->EvalAsDouble(nebula::exec::SpanOf(buf, nullptr), out.data());
    for (size_t r = 0; r < buf.size(); ++r) {
      EXPECT_EQ(out[r], ValueAsDouble(expr->Eval(buf.At(r))))
          << expr->ToString() << " row " << r;
    }
    EXPECT_GE(std::set<double>(out.begin(), out.end()).size(), min_distinct)
        << expr->ToString();
  }
}

TEST_F(MeosExprTest, ParseZoneKindNames) {
  auto any = ParseZoneKind("");
  ASSERT_TRUE(any.ok());
  EXPECT_FALSE(any->has_value());
  auto maint = ParseZoneKind("maintenance");
  ASSERT_TRUE(maint.ok());
  EXPECT_EQ(**maint, ZoneKind::kMaintenance);
  EXPECT_FALSE(ParseZoneKind("volcano").ok());
}

}  // namespace
}  // namespace nebulameos::integration
