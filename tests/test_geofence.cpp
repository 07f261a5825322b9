// Tests for the geofence registry (src/nebulameos/geofence).

#include <gtest/gtest.h>

#include <limits>

#include "nebulameos/geofence.hpp"
#include "sncb/network.hpp"
#include "sncb/train_sim.hpp"

namespace nebulameos::integration {
namespace {

Polygon Rect(double x0, double y0, double x1, double y1) {
  auto poly = Polygon::Make({{x0, y0}, {x1, y0}, {x1, y1}, {x0, y1}});
  EXPECT_TRUE(poly.ok());
  return *poly;
}

TEST(Zone, PolygonContainsAndDistance) {
  Zone zone;
  zone.shape = Rect(4.0, 50.0, 4.1, 50.1);
  EXPECT_TRUE(zone.Contains({4.05, 50.05}));
  EXPECT_FALSE(zone.Contains({4.2, 50.05}));
  EXPECT_DOUBLE_EQ(zone.DistanceTo({4.05, 50.05}), 0.0);
  EXPECT_GT(zone.DistanceTo({4.2, 50.05}), 1000.0);  // ~7 km east
}

TEST(Zone, CircleContainsMetricRadius) {
  Zone zone;
  zone.shape = Circle{{4.35, 50.85}, 500.0};
  EXPECT_TRUE(zone.Contains({4.35, 50.85}));
  // ~400 m north (0.0036 deg lat).
  EXPECT_TRUE(zone.Contains({4.35, 50.8536}));
  // 0.01 deg ≈ 1112 m north: outside the 500 m radius by ~612 m.
  EXPECT_FALSE(zone.Contains({4.35, 50.86}));
  EXPECT_NEAR(zone.DistanceTo({4.35, 50.86}), 1112.0 - 500.0, 30.0);
}

TEST(Zone, BoundingBoxCoversCircle) {
  Zone zone;
  zone.shape = Circle{{4.35, 50.85}, 500.0};
  const meos::GeoBox box = zone.BoundingBox();
  EXPECT_TRUE(box.Contains({4.35, 50.8545}));
  EXPECT_LT(box.xmin, 4.35);
  EXPECT_GT(box.xmax, 4.35);
}

class RegistryTest : public ::testing::Test {
 protected:
  RegistryTest() {
    maintenance_id_ = registry_.AddPolygonZone(
        "maint-1", ZoneKind::kMaintenance, Rect(4.0, 50.0, 4.1, 50.1), 40.0);
    station_id_ = registry_.AddCircleZone(
        "station-1", ZoneKind::kStation, Circle{{4.35, 50.85}, 400.0}, 30.0);
    risk_id_ = registry_.AddCircleZone(
        "curve-1", ZoneKind::kHighRisk, Circle{{4.05, 50.05}, 8000.0}, 80.0);
    workshop_poi_ = registry_.AddPoi("ws-1", "workshop", {4.37, 50.88});
    registry_.AddPoi("depot-1", "depot", {4.50, 50.90});
  }

  GeofenceRegistry registry_;
  int64_t maintenance_id_ = 0;
  int64_t station_id_ = 0;
  int64_t risk_id_ = 0;
  int64_t workshop_poi_ = 0;
};

TEST_F(RegistryTest, FindByNameAndId) {
  ASSERT_NE(registry_.FindZone("maint-1"), nullptr);
  EXPECT_EQ(registry_.FindZone("maint-1")->id, maintenance_id_);
  EXPECT_EQ(registry_.FindZone(station_id_)->name, "station-1");
  EXPECT_EQ(registry_.FindZone("nope"), nullptr);
  EXPECT_EQ(registry_.FindZone(999), nullptr);
  ASSERT_NE(registry_.FindPoi("ws-1"), nullptr);
  EXPECT_EQ(registry_.FindPoi("nope"), nullptr);
}

TEST_F(RegistryTest, ZonesContainingWithKindFilter) {
  // (4.05, 50.05) is inside both the maintenance rect and the risk circle.
  auto all = registry_.ZonesContaining({4.05, 50.05});
  EXPECT_EQ(all.size(), 2u);
  auto maint =
      registry_.ZonesContaining({4.05, 50.05}, ZoneKind::kMaintenance);
  ASSERT_EQ(maint.size(), 1u);
  EXPECT_EQ(maint[0]->id, maintenance_id_);
  EXPECT_TRUE(
      registry_.ZonesContaining({4.05, 50.05}, ZoneKind::kStation).empty());
}

TEST_F(RegistryTest, InAnyZoneAndZoneIdAt) {
  EXPECT_TRUE(registry_.InAnyZone({4.05, 50.05}));
  EXPECT_TRUE(registry_.InAnyZone({4.05, 50.05}, ZoneKind::kHighRisk));
  EXPECT_FALSE(registry_.InAnyZone({5.5, 49.0}));
  EXPECT_EQ(registry_.ZoneIdAt({4.05, 50.05}, ZoneKind::kMaintenance),
            maintenance_id_);
  EXPECT_EQ(registry_.ZoneIdAt({5.5, 49.0}), -1);
}

TEST_F(RegistryTest, SpeedLimitTakesMinimum) {
  // Inside both maintenance (40) and high-risk (80): min wins.
  EXPECT_DOUBLE_EQ(registry_.SpeedLimitAt({4.05, 50.05}, 120.0), 40.0);
  // Outside all zones: default.
  EXPECT_DOUBLE_EQ(registry_.SpeedLimitAt({5.5, 49.0}, 120.0), 120.0);
}

TEST_F(RegistryTest, NearestPoiByKind) {
  double dist = 0.0;
  const Poi* poi = registry_.NearestPoi({4.36, 50.87}, "workshop", &dist);
  ASSERT_NE(poi, nullptr);
  EXPECT_EQ(poi->id, workshop_poi_);
  EXPECT_LT(dist, 2000.0);
  // Kind filter: no "garage" POIs.
  EXPECT_EQ(registry_.NearestPoi({4.36, 50.87}, "garage", &dist), nullptr);
  EXPECT_TRUE(std::isinf(dist));
  // Empty kind matches everything.
  EXPECT_NE(registry_.NearestPoi({4.49, 50.90}, "", &dist), nullptr);
}

TEST_F(RegistryTest, IndexAndLinearScanAgree) {
  // Property: containment answers must not depend on the grid index — for
  // every lookup, every zone kind and no kind, on this fixture's registry
  // and on the SNCB one.
  const sncb::RailNetwork network = sncb::BuildBelgianNetwork();
  GeofenceRegistry sncb_registry;
  sncb::PopulateSncbGeofences(network, &sncb_registry);

  std::vector<Point> points;
  for (int i = 0; i < 200; ++i) {
    points.push_back({3.9 + 0.002 * i, 49.95 + 0.0015 * i});
  }
  sncb::FleetConfig fleet;
  fleet.tick = Seconds(5);  // a few simulated hours across the network
  sncb::FleetSimulator sim(&network, fleet);
  for (int i = 0; i < 6000; ++i) {
    const sncb::TrainEvent ev = sim.Next();
    points.push_back({ev.lon, ev.lat});
  }
  // Inside no zone's cell: far from Belgium, and near the ends of the
  // int32 cell-index range.
  for (const Point& p : std::vector<Point>{{0.0, 0.0},
                                           {-170.0, -80.0},
                                           {4.35, -50.85},
                                           {1e8, 50.85},
                                           {-1e8, -1e8}}) {
    points.push_back(p);
  }
  // Coordinates without a cell index: the lookups must answer as for a
  // point inside no zone.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Point> no_cell;
  for (const double bad : {nan, inf, -inf, 1e300, -1e300}) {
    no_cell.push_back({bad, 50.85});
    no_cell.push_back({4.35, bad});
    no_cell.push_back({bad, bad});
  }
  points.insert(points.end(), no_cell.begin(), no_cell.end());

  const std::vector<std::optional<ZoneKind>> kinds = {
      std::nullopt,        ZoneKind::kMaintenance,    ZoneKind::kStation,
      ZoneKind::kWorkshop, ZoneKind::kNoiseSensitive, ZoneKind::kHighRisk,
      ZoneKind::kWeather};
  for (GeofenceRegistry* registry : {&registry_, &sncb_registry}) {
    size_t hits = 0;
    for (size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      for (const std::optional<ZoneKind>& kind : kinds) {
        const std::string where =
            "point " + std::to_string(i) + " kind " +
            (kind ? ZoneKindName(*kind) : "any");
        registry->SetIndexEnabled(true);
        const bool indexed = registry->InAnyZone(p, kind);
        const int64_t id_indexed = registry->ZoneIdAt(p, kind);
        const auto zones_indexed = registry->ZonesContaining(p, kind);
        registry->SetIndexEnabled(false);
        EXPECT_EQ(registry->InAnyZone(p, kind), indexed) << where;
        EXPECT_EQ(registry->ZoneIdAt(p, kind), id_indexed) << where;
        EXPECT_EQ(registry->ZonesContaining(p, kind), zones_indexed) << where;
        hits += indexed ? 1 : 0;
      }
      registry->SetIndexEnabled(true);
      const double limit_indexed = registry->SpeedLimitAt(p, 120.0);
      registry->SetIndexEnabled(false);
      EXPECT_EQ(registry->SpeedLimitAt(p, 120.0), limit_indexed)
          << "point " << i;
    }
    registry->SetIndexEnabled(true);
    EXPECT_GT(hits, 0u);  // the probes do reach zones
    for (const Point& p : no_cell) {
      EXPECT_FALSE(registry->InAnyZone(p));
      EXPECT_EQ(registry->ZoneIdAt(p), -1);
      EXPECT_TRUE(registry->ZonesContaining(p).empty());
      EXPECT_EQ(registry->SpeedLimitAt(p, 120.0), 120.0);
    }
  }
}

TEST(SncbGeofences, PopulatesAllKinds) {
  const sncb::RailNetwork network = sncb::BuildBelgianNetwork();
  GeofenceRegistry registry;
  sncb::PopulateSncbGeofences(network, &registry);
  EXPECT_GE(registry.NumZones(), 20u);
  EXPECT_GE(registry.NumPois(), 3u);
  int counts[6] = {0};
  for (const Zone& z : registry.zones()) {
    counts[static_cast<int>(z.kind)]++;
  }
  EXPECT_EQ(counts[static_cast<int>(ZoneKind::kStation)], 12);
  EXPECT_EQ(counts[static_cast<int>(ZoneKind::kWorkshop)], 3);
  EXPECT_EQ(counts[static_cast<int>(ZoneKind::kMaintenance)], 2);
  EXPECT_EQ(counts[static_cast<int>(ZoneKind::kNoiseSensitive)], 3);
  EXPECT_EQ(counts[static_cast<int>(ZoneKind::kHighRisk)], 3);
  EXPECT_EQ(counts[static_cast<int>(ZoneKind::kWeather)], 6);
  // Brussels-Midi station zone contains its own center.
  const Zone* bm = registry.FindZone("station:Brussels-Midi");
  ASSERT_NE(bm, nullptr);
  EXPECT_TRUE(bm->Contains({4.3355, 50.8357}));
}

TEST(ZoneKindName, AllNamed) {
  EXPECT_STREQ(ZoneKindName(ZoneKind::kMaintenance), "maintenance");
  EXPECT_STREQ(ZoneKindName(ZoneKind::kStation), "station");
  EXPECT_STREQ(ZoneKindName(ZoneKind::kWorkshop), "workshop");
  EXPECT_STREQ(ZoneKindName(ZoneKind::kNoiseSensitive), "noise_sensitive");
  EXPECT_STREQ(ZoneKindName(ZoneKind::kHighRisk), "high_risk");
  EXPECT_STREQ(ZoneKindName(ZoneKind::kWeather), "weather");
}

}  // namespace
}  // namespace nebulameos::integration
