// End-to-end tests of the paper's eight demonstration queries
// (src/queries) over the simulated SNCB fleet.

#include <gtest/gtest.h>

#include <algorithm>

#include "queries/queries.hpp"

namespace nebulameos::queries {
namespace {

using nebula::NodeEngine;
using nebula::Value;
using nebula::ValueAsBool;
using nebula::ValueAsDouble;
using nebula::ValueAsInt64;

class QueriesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto env = DemoEnvironment::Create();
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    env_ = env->get();
    shared_env_ = *env;
  }

  // Runs a built query to completion and returns the collected rows.
  std::vector<std::vector<Value>> Run(Result<BuiltQuery> built) {
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    NodeEngine engine;
    auto id = engine.Submit(std::move(built->plan));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_TRUE(engine.RunToCompletion(*id).ok());
    return built->collect ? built->collect->Rows()
                          : std::vector<std::vector<Value>>{};
  }

  QueryOptions SmallRun(uint64_t events = 120'000) {
    QueryOptions options;
    options.max_events = events;
    options.sink = SinkMode::kCollect;
    return options;
  }

  static DemoEnvironment* env_;
  static std::shared_ptr<DemoEnvironment> shared_env_;
};

DemoEnvironment* QueriesTest::env_ = nullptr;
std::shared_ptr<DemoEnvironment> QueriesTest::shared_env_;

TEST_F(QueriesTest, EnvironmentRegistersEverything) {
  EXPECT_TRUE(integration::MeosPluginRegistered());
  EXPECT_TRUE(
      nebula::ExpressionRegistry::Global().Contains("weather_speed_limit"));
  EXPECT_GE(env_->geofences()->NumZones(), 20u);
}

TEST_F(QueriesTest, Q1SuppressesAlertsInMaintenanceZones) {
  const auto rows = Run(BuildQ1AlertFiltering(*env_, SmallRun()));
  // Alerts exist and none of them lies inside a maintenance zone.
  EXPECT_FALSE(rows.empty());
  for (const auto& row : rows) {
    const integration::Point p{ValueAsDouble(row[2]), ValueAsDouble(row[3])};
    EXPECT_FALSE(env_->geofences()->InAnyZone(
        p, integration::ZoneKind::kMaintenance));
    // Only alert-typed events survive.
    const std::string type = std::get<std::string>(row[5]);
    EXPECT_NE(type, "normal");
  }
}

TEST_F(QueriesTest, Q2AggregatesNoiseInsideNoiseZones) {
  const auto rows = Run(BuildQ2NoiseMonitoring(*env_, SmallRun(200'000)));
  EXPECT_FALSE(rows.empty());
  for (const auto& row : rows) {
    // zone, window_start, window_end, avg, max, count
    const int64_t zone = ValueAsInt64(row[0]);
    const auto* z = env_->geofences()->FindZone(zone);
    ASSERT_NE(z, nullptr);
    EXPECT_EQ(z->kind, integration::ZoneKind::kNoiseSensitive);
    EXPECT_LE(ValueAsDouble(row[3]), ValueAsDouble(row[4]));  // avg <= max
    EXPECT_GT(ValueAsInt64(row[5]), 0);
    EXPECT_EQ(ValueAsInt64(row[2]) - ValueAsInt64(row[1]), Seconds(30));
  }
}

TEST_F(QueriesTest, Q3FlagsOnlyOverLimitEvents) {
  const auto rows = Run(BuildQ3DynamicSpeedLimit(*env_, SmallRun()));
  for (const auto& row : rows) {
    // train_id, ts, lon, lat, speed_kmh, limit_kmh
    EXPECT_GT(ValueAsDouble(row[4]), ValueAsDouble(row[5]));
  }
}

TEST_F(QueriesTest, Q4WeatherLimitNeverExceedsZoneLimit) {
  const auto rows = Run(BuildQ4WeatherSpeedZones(*env_, SmallRun()));
  for (const auto& row : rows) {
    // ..., speed_kmh, limit_kmh, weather_condition, weather_intensity
    EXPECT_GT(ValueAsDouble(row[4]), ValueAsDouble(row[5]));
    const int64_t cond = ValueAsInt64(row[6]);
    EXPECT_GE(cond, 0);
    EXPECT_LE(cond, 4);
  }
}

TEST_F(QueriesTest, Q4JoinVariantMatchesEmbeddedWeatherSemantics) {
  // The join variant computes the same advisory from a separate weather
  // stream. Same zones, same provider, same limit function — every
  // advisory must still satisfy the over-limit + degraded-weather
  // invariants, and the volume must be in the same ballpark as Q4.
  const auto embedded = Run(BuildQ4WeatherSpeedZones(*env_, SmallRun()));
  const auto joined = Run(BuildQ4WeatherJoin(*env_, SmallRun()));
  EXPECT_FALSE(joined.empty());
  for (const auto& row : joined) {
    EXPECT_GT(ValueAsDouble(row[4]), ValueAsDouble(row[5]));
    const int64_t cond = ValueAsInt64(row[6]);
    EXPECT_GE(cond, 1);  // degraded weather only (never clear)
    EXPECT_LE(cond, 4);
  }
  // The joined stream samples weather every 15 min instead of continuously,
  // so counts differ but not wildly.
  EXPECT_GT(joined.size() * 4, embedded.size() / 4);
}

TEST_F(QueriesTest, Q5FlagsOnlyDegradedBatteryTrain) {
  QueryOptions options = SmallRun(600'000);
  const auto rows = Run(BuildQ5BatteryMonitoring(*env_, options));
  ASSERT_FALSE(rows.empty());
  for (const auto& row : rows) {
    // train_id, window_start, window_end, avg_dev, max_dev, max_temp,
    // lon, lat, samples, workshop_id, workshop_dist_m
    EXPECT_EQ(ValueAsInt64(row[0]), options.fleet.degraded_battery_train);
    EXPECT_GT(ValueAsDouble(row[3]), 0.35);
    EXPECT_GE(ValueAsInt64(row[9]), 0);           // workshop found
    EXPECT_GT(ValueAsDouble(row[10]), 0.0);       // at some distance
    EXPECT_GE(ValueAsInt64(row[2]), ValueAsInt64(row[1]) + Seconds(30));
  }
}

TEST_F(QueriesTest, Q6DetectsRushHourOverload) {
  // 6 trains x 250 ms tick: ~2.6 hours of simulated time for 220k events;
  // starting at 08:00 the morning rush (07-09) boards heavily.
  const auto rows = Run(BuildQ6HeavyLoad(*env_, SmallRun(220'000)));
  EXPECT_FALSE(rows.empty());
  for (const auto& row : rows) {
    // train, window_start, window_end, avg_pax, max_pax, seats, temp, n
    EXPECT_GT(ValueAsDouble(row[3]), ValueAsDouble(row[5]));  // avg > seats
    EXPECT_GE(ValueAsDouble(row[4]), ValueAsDouble(row[3]));  // max >= avg
  }
}

TEST_F(QueriesTest, Q7FindsUnscheduledStopsOutsideZones) {
  // Raise the stop probability so a 400k-event run reliably contains stops.
  QueryOptions options = SmallRun(400'000);
  options.fleet.unscheduled_stop_prob = 4e-4;
  const auto rows = Run(BuildQ7UnscheduledStops(*env_, options));
  ASSERT_FALSE(rows.empty());
  for (const auto& row : rows) {
    // train, match_start, match_end, stop_events, stop_lon, stop_lat
    EXPECT_GE(ValueAsInt64(row[3]), 120);
    const integration::Point p{ValueAsDouble(row[4]), ValueAsDouble(row[5])};
    EXPECT_FALSE(
        env_->geofences()->InAnyZone(p, integration::ZoneKind::kStation));
    EXPECT_FALSE(
        env_->geofences()->InAnyZone(p, integration::ZoneKind::kWorkshop));
  }
}

TEST_F(QueriesTest, Q8DetectsRepeatedEmergencyBraking) {
  const auto rows = Run(BuildQ8BrakeMonitoring(*env_, SmallRun(600'000)));
  ASSERT_FALSE(rows.empty());
  QueryOptions options;
  int64_t degraded_matches = 0;
  for (const auto& row : rows) {
    // train, match_start, match_end, first_min_bar, second_min_bar, ...
    EXPECT_LE(ValueAsDouble(row[3]), 2.2);
    EXPECT_LE(ValueAsDouble(row[4]), 2.2);
    EXPECT_LE(ValueAsInt64(row[2]) - ValueAsInt64(row[1]), Minutes(15));
    if (ValueAsInt64(row[0]) == options.fleet.degraded_brake_train) {
      ++degraded_matches;
    }
  }
  // The degraded-brake train dominates the matches.
  EXPECT_GT(degraded_matches * 2, static_cast<int64_t>(rows.size()));
}

TEST_F(QueriesTest, BuildQueryDispatchAndNames) {
  EXPECT_FALSE(BuildQuery(0, *env_, SmallRun()).ok());
  EXPECT_FALSE(BuildQuery(9, *env_, SmallRun()).ok());
  for (int q = 1; q <= 8; ++q) {
    auto built = BuildQuery(q, *env_, SmallRun(1000));
    EXPECT_TRUE(built.ok()) << "Q" << q << ": " << built.status().ToString();
    EXPECT_NE(std::string(QueryName(q)), "unknown");
  }
  EXPECT_EQ(std::string(QueryName(42)), "unknown");
}

TEST_F(QueriesTest, PaperThroughputTable) {
  EXPECT_DOUBLE_EQ(PaperReportedThroughput(1).megabytes_per_s, 2.24);
  EXPECT_DOUBLE_EQ(PaperReportedThroughput(5).kilo_events_per_s, 8.0);
  EXPECT_DOUBLE_EQ(PaperReportedThroughput(6).megabytes_per_s, 3.68);
  EXPECT_DOUBLE_EQ(PaperReportedThroughput(7).megabytes_per_s, 0.40);
  EXPECT_DOUBLE_EQ(PaperReportedThroughput(8).kilo_events_per_s, 20.0);
}

TEST_F(QueriesTest, PacedSourceHoldsOfferedLoad) {
  QueryOptions options;
  options.max_events = 5'000;
  options.sink = SinkMode::kCounting;
  options.pace_events_per_second = 20'000.0;  // the paper's Q1 rate
  auto built = BuildQ1AlertFiltering(*env_, options);
  ASSERT_TRUE(built.ok());
  nebula::NodeEngine engine;
  auto id = engine.Submit(std::move(built->plan));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine.RunToCompletion(*id).ok());
  auto stats = engine.Stats(*id);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->events_ingested, 5'000u);
  // 5000 events at 20k e/s take ~0.25 s: the paced rate must be close to
  // the target, never above it by more than scheduling jitter.
  EXPECT_GT(stats->EventsPerSecond(), 20'000.0 * 0.7);
  EXPECT_LT(stats->EventsPerSecond(), 20'000.0 * 1.3);
}

TEST_F(QueriesTest, CountingSinkModeWorks) {
  QueryOptions options;
  options.max_events = 50'000;
  options.sink = SinkMode::kCounting;
  auto built = BuildQ1AlertFiltering(*env_, options);
  ASSERT_TRUE(built.ok());
  ASSERT_NE(built->counting, nullptr);
  EXPECT_EQ(built->collect, nullptr);
  NodeEngine engine;
  auto id = engine.Submit(std::move(built->plan));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine.RunToCompletion(*id).ok());
  auto stats = engine.Stats(*id);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->events_ingested, 50'000u);
  EXPECT_EQ(stats->bytes_ingested, 50'000u * 112u);
}

// The multi-sink acceptance scenario: ONE plan whose shared SNCB ingest
// prefix fans out to a geofence-alert sink and a windowed-aggregate
// archival sink. Per-operator stats prove the prefix executed once, the
// Explain rendering shows the DAG, and the optimizer does not change the
// sink contents.
TEST_F(QueriesTest, SharedIngestFanOutServesAlertsAndArchiveFromOneStream) {
  const uint64_t kEvents = 120'000;
  auto run = [&](bool optimize) {
    QueryOptions options;
    options.max_events = kEvents;
    options.sink = SinkMode::kCollect;
    auto built = BuildSharedIngestFanOut(*env_, options);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    nebula::EngineOptions engine_options;
    engine_options.optimizer.enable = optimize;
    NodeEngine engine(engine_options);
    auto id = engine.Submit(std::move(built->plan));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    if (optimize) {
      // The DAG rendering: annotated shared prefix, one subtree per branch.
      auto text = engine.Explain(*id);
      EXPECT_TRUE(text.ok());
      EXPECT_NE(text->logical.find("[shared]"), std::string::npos)
          << text->logical;
      EXPECT_NE(text->logical.find("FanOut(2 branches)"), std::string::npos);
      EXPECT_NE(text->logical.find("[branch 0]"), std::string::npos);
      EXPECT_NE(text->logical.find("[branch 1]"), std::string::npos);
    }
    EXPECT_TRUE(engine.RunToCompletion(*id).ok());
    auto stats = engine.Stats(*id);
    EXPECT_TRUE(stats.ok());
    // The shared prefix executed once: ingested events equal ONE stream's
    // worth, and the shared Map saw each event exactly once.
    EXPECT_EQ(stats->events_ingested, kEvents);
    bool found_shared_map = false;
    for (const auto& [name, op] : stats->operator_stats) {
      if (name == "Map") {
        found_shared_map = true;
        EXPECT_EQ(op.events_in, kEvents);
      }
    }
    EXPECT_TRUE(found_shared_map);
    // Both branch sinks fed from that one ingest, keyed by DAG path.
    EXPECT_EQ(stats->sink_stats.size(), 2u);
    EXPECT_EQ(built->collects.size(), 2u);
    // At N workers the archive branch runs hash-partitioned and its
    // emission order is unspecified, so both sinks compare as row sets.
    auto alerts = built->collects[0]->Rows();
    auto archive = built->collects[1]->Rows();
    std::sort(alerts.begin(), alerts.end());
    std::sort(archive.begin(), archive.end());
    return std::make_pair(std::move(alerts), std::move(archive));
  };
  const auto [opt_alerts, opt_archive] = run(true);
  const auto [raw_alerts, raw_archive] = run(false);
  // The alert branch behaves like Q1 (alerts outside maintenance zones),
  // the archive branch like Q2 (noise stats in noise-sensitive zones).
  EXPECT_FALSE(opt_alerts.empty());
  EXPECT_FALSE(opt_archive.empty());
  for (const auto& row : opt_alerts) {
    EXPECT_NE(std::get<std::string>(row[5]), "normal");
  }
  // Optimizer on/off produce identical sink row sets. Variant equality
  // compares text cells (event_type) for real.
  ASSERT_EQ(opt_alerts.size(), raw_alerts.size());
  ASSERT_EQ(opt_archive.size(), raw_archive.size());
  for (size_t i = 0; i < opt_alerts.size(); ++i) {
    ASSERT_EQ(opt_alerts[i].size(), raw_alerts[i].size());
    for (size_t j = 0; j < opt_alerts[i].size(); ++j) {
      EXPECT_TRUE(opt_alerts[i][j] == raw_alerts[i][j])
          << "alert row " << i << " col " << j;
    }
  }
  for (size_t i = 0; i < opt_archive.size(); ++i) {
    ASSERT_EQ(opt_archive[i].size(), raw_archive[i].size());
    for (size_t j = 0; j < opt_archive[i].size(); ++j) {
      EXPECT_TRUE(opt_archive[i][j] == raw_archive[i][j])
          << "archive row " << i << " col " << j;
    }
  }
}

}  // namespace
}  // namespace nebulameos::queries
