// Tier-2 concurrency equivalence suite for morsel-driven execution:
// every demonstration query (Q1–Q8 plus the Q4 join variant), the
// shared-ingest fan-out and a placed plan over network channels must
// produce the same results with `worker_threads` 2 and 4 as with the
// sequential engine (1) — same ingested/emitted record counts and the
// same sink row *sets* (rows are compared sorted: partitioned keyed
// state and concurrent branches emit in no specified order, which is
// exactly the freedom the morsel scheduler exploits).
//
// Run under ThreadSanitizer (scripts/check.sh tsan mode, or the CI
// `sanitize-thread` job) this suite doubles as the data-race gate for
// the worker pool, the hash partition router, the shared-batch fan-out
// hand-off and the atomic flow counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "queries/queries.hpp"

namespace nebulameos::queries {
namespace {

using nebula::CollectSink;
using nebula::EngineOptions;
using nebula::LogicalPlan;
using nebula::NodeEngine;
using nebula::QueryStats;
using nebula::Value;

// One run's observable outcome: flow totals, per-operator flow, every
// sink's rows as a sorted multiset, and the query's final metrics
// snapshot.
struct RunOutcome {
  uint64_t events_ingested = 0;
  uint64_t events_emitted = 0;
  std::vector<std::pair<std::string, nebula::OperatorStats>> operator_stats;
  std::vector<std::vector<std::vector<Value>>> sinks;
  nebula::metrics::MetricsSnapshot metrics;
};

// The DAG path of an `operator_stats` key ("" in the root segment).
std::string PathOf(const std::string& key) {
  const size_t slash = key.rfind('/');
  return slash == std::string::npos ? std::string() : key.substr(0, slash);
}

// Flow is conserved along every path: the root's first operator takes in
// every ingested event, each entry's output is the next entry's input, and
// a fan-out's output is each branch's first input ("1.0" hangs below "1",
// "0" below the root).
void ExpectFlowConserved(const RunOutcome& run, const std::string& label) {
  std::map<std::string, uint64_t> path_out;  // last output seen per path
  for (const auto& [key, flow] : run.operator_stats) {
    const std::string path = PathOf(key);
    auto last = path_out.find(path);
    uint64_t expected_in = 0;
    if (last != path_out.end()) {
      expected_in = last->second;
    } else if (path.empty()) {
      expected_in = run.events_ingested;
    } else {
      const size_t dot = path.rfind('.');
      const std::string parent =
          dot == std::string::npos ? std::string() : path.substr(0, dot);
      auto parent_out = path_out.find(parent);
      expected_in = parent_out != path_out.end() ? parent_out->second
                                                 : run.events_ingested;
    }
    EXPECT_EQ(flow.events_in, expected_in) << label << " " << key;
    path_out[path] = flow.events_out;
  }
}

// Every registered metric name, across all three instrument kinds.
std::set<std::string> MetricNames(const nebula::metrics::MetricsSnapshot& m) {
  std::set<std::string> names;
  for (const auto& [name, value] : m.counters) names.insert(name);
  for (const auto& [name, value] : m.gauges) names.insert(name);
  for (const auto& [name, value] : m.histograms) names.insert(name);
  return names;
}

std::vector<std::vector<Value>> Sorted(std::vector<std::vector<Value>> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

class EngineConcurrencyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto env = DemoEnvironment::Create();
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    shared_env_ = *env;
    env_ = env->get();
  }

  static QueryOptions SmallRun(uint64_t events = 60'000) {
    QueryOptions options;
    options.max_events = events;
    options.sink = SinkMode::kCollect;
    return options;
  }

  // Submits `plan` to a fresh engine with `workers` threads, runs it to
  // completion and snapshots the outcome.
  static RunOutcome RunPlan(
      LogicalPlan plan,
      const std::vector<std::shared_ptr<CollectSink>>& sinks, size_t workers,
      const nebula::Topology* topology = nullptr) {
    EngineOptions options;
    options.worker_threads = workers;
    options.topology = topology;
    NodeEngine engine(options);
    auto id = engine.Submit(std::move(plan));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    const auto st = engine.RunToCompletion(*id);
    EXPECT_TRUE(st.ok()) << st.ToString();
    auto stats = engine.Stats(*id);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    RunOutcome outcome;
    if (!stats.ok()) return outcome;
    outcome.events_ingested = stats->events_ingested;
    outcome.events_emitted = stats->events_emitted;
    outcome.operator_stats = stats->operator_stats;
    auto metrics = engine.Metrics(*id);
    EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
    if (metrics.ok()) outcome.metrics = *std::move(metrics);
    for (const auto& sink : sinks) outcome.sinks.push_back(Sorted(sink->Rows()));
    return outcome;
  }

  // The suite's input for query `number`: 60k events, on a fleet that
  // gives every query rows to compare. Q4 emits nothing at the default
  // seed, and Q7 needs a raised stop probability to see stops.
  static QueryOptions RunFor(int number) {
    QueryOptions options = SmallRun();
    if (number == 4) options.fleet.seed = 3;
    if (number == 7) options.fleet.unscheduled_stop_prob = 4e-4;
    return options;
  }

  static RunOutcome RunQueryWithWorkers(int number, size_t workers) {
    auto built = BuildQuery(number, *env_, RunFor(number));
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return RunPlan(std::move(built->plan), {built->collect}, workers);
  }

  // The core assertion: worker counts 2 and 4 reproduce the sequential
  // outcome exactly (as row sets, and per-operator flow entry for entry),
  // and flow is conserved along every path of both runs.
  static void ExpectEquivalent(const RunOutcome& sequential,
                               const RunOutcome& concurrent,
                               const std::string& label) {
    EXPECT_EQ(sequential.events_ingested, concurrent.events_ingested)
        << label;
    EXPECT_EQ(sequential.events_emitted, concurrent.events_emitted) << label;
    ASSERT_EQ(sequential.operator_stats.size(),
              concurrent.operator_stats.size())
        << label;
    for (size_t i = 0; i < sequential.operator_stats.size(); ++i) {
      const auto& [key, seq] = sequential.operator_stats[i];
      const auto& [ckey, con] = concurrent.operator_stats[i];
      EXPECT_EQ(key, ckey) << label;
      EXPECT_EQ(seq.events_in, con.events_in) << label << " " << key;
      EXPECT_EQ(seq.events_out, con.events_out) << label << " " << key;
      EXPECT_EQ(seq.bytes_in, con.bytes_in) << label << " " << key;
      EXPECT_EQ(seq.bytes_out, con.bytes_out) << label << " " << key;
      EXPECT_EQ(seq.events_shed, con.events_shed) << label << " " << key;
    }
    ExpectFlowConserved(sequential, label + " (sequential)");
    ExpectFlowConserved(concurrent, label);
    ASSERT_EQ(sequential.sinks.size(), concurrent.sinks.size()) << label;
    for (size_t s = 0; s < sequential.sinks.size(); ++s) {
      EXPECT_EQ(sequential.sinks[s], concurrent.sinks[s])
          << label << " sink " << s;
    }
    // Metric names are a property of the plan, not of the worker count:
    // strand instruments key by segment path (partition clones share
    // their segment's), fused kernel stages by their original chained
    // names — so dashboards survive scaling the pool.
    EXPECT_EQ(MetricNames(sequential.metrics), MetricNames(concurrent.metrics))
        << label;
  }

  // Instrumentation floor for any completed run: engine flow counters
  // moved, at least one per-operator latency histogram recorded samples,
  // and every dispatch-target path published its queue-depth gauge and
  // task-wait histogram (the backpressure signal).
  static void ExpectInstrumented(const RunOutcome& run,
                                 const std::string& label) {
    EXPECT_GT(run.metrics.counters.at("engine.events_ingested"), 0u) << label;
    // Some queries legitimately emit nothing on the test's event budget
    // (their filters never fire); the counter must still exist.
    EXPECT_EQ(run.metrics.counters.count("engine.events_emitted"), 1u)
        << label;
    bool operator_latency_recorded = false;
    for (const auto& [name, hist] : run.metrics.histograms) {
      if (name.rfind("op.", 0) == 0 &&
          name.find(".process_micros") != std::string::npos && hist.count > 0) {
        operator_latency_recorded = true;
        break;
      }
    }
    EXPECT_TRUE(operator_latency_recorded) << label;
    size_t strand_gauges = 0;
    for (const auto& [name, value] : run.metrics.gauges) {
      if (name.rfind("worker.strand.", 0) == 0 &&
          name.find(".queue_depth") != std::string::npos) {
        ++strand_gauges;
        EXPECT_GE(value, 0.0) << label << " " << name;
        // The matching task-wait histogram rides the same path key.
        const std::string wait_name =
            name.substr(0, name.size() - std::string(".queue_depth").size()) +
            ".task_wait_micros";
        EXPECT_EQ(run.metrics.histograms.count(wait_name), 1u)
            << label << " " << wait_name;
      }
    }
    EXPECT_GE(strand_gauges, 1u) << label;
  }

  // A worker-count comparison of empty sinks compares nothing: every sink
  // of the sequential run must hold rows.
  static void ExpectRowsToCompare(const RunOutcome& sequential,
                                  const std::string& label) {
    EXPECT_FALSE(sequential.sinks.empty()) << label;
    for (size_t s = 0; s < sequential.sinks.size(); ++s) {
      EXPECT_FALSE(sequential.sinks[s].empty()) << label << " sink " << s;
    }
  }

  // Runs query `number` at 1, 2 and 4 workers; returns the 1-worker run.
  static RunOutcome CheckQueryAcrossWorkerCounts(int number) {
    const RunOutcome sequential = RunQueryWithWorkers(number, 1);
    EXPECT_GT(sequential.events_ingested, 0u) << QueryName(number);
    ExpectRowsToCompare(sequential, QueryName(number));
    ExpectInstrumented(sequential,
                       std::string(QueryName(number)) + " @ 1 worker");
    for (const size_t workers : {size_t{2}, size_t{4}}) {
      const RunOutcome concurrent = RunQueryWithWorkers(number, workers);
      const std::string label = std::string(QueryName(number)) + " @ " +
                                std::to_string(workers) + " workers";
      ExpectEquivalent(sequential, concurrent, label);
      ExpectInstrumented(concurrent, label);
    }
    return sequential;
  }

  // Two `Map`s on one path bind their own instruments: the first keeps
  // `op.Map.*`, the second gets `op.Map#2.*`, and each records samples.
  static void ExpectOneInstrumentPerMap(const RunOutcome& run,
                                        const std::string& label) {
    for (const char* name : {"op.Map.batch_rows", "op.Map#2.batch_rows"}) {
      const auto hist = run.metrics.histograms.find(name);
      ASSERT_NE(hist, run.metrics.histograms.end()) << label << " " << name;
      EXPECT_GT(hist->second.count, 0u) << label << " " << name;
    }
  }

  static DemoEnvironment* env_;
  static std::shared_ptr<DemoEnvironment> shared_env_;
};

DemoEnvironment* EngineConcurrencyTest::env_ = nullptr;
std::shared_ptr<DemoEnvironment> EngineConcurrencyTest::shared_env_;

TEST_F(EngineConcurrencyTest, Q1AlertFiltering) {
  CheckQueryAcrossWorkerCounts(1);
}

TEST_F(EngineConcurrencyTest, Q2NoiseMonitoring) {
  CheckQueryAcrossWorkerCounts(2);
}

TEST_F(EngineConcurrencyTest, Q3DynamicSpeedLimit) {
  CheckQueryAcrossWorkerCounts(3);
}

// Q4 fuses two Map stages into one kernel run; Q5 maps before and after
// its window. Either way each Map owns its histograms.
TEST_F(EngineConcurrencyTest, Q4WeatherSpeedZones) {
  ExpectOneInstrumentPerMap(CheckQueryAcrossWorkerCounts(4), "Q4");
}

TEST_F(EngineConcurrencyTest, Q5BatteryMonitoring) {
  ExpectOneInstrumentPerMap(CheckQueryAcrossWorkerCounts(5), "Q5");
}

TEST_F(EngineConcurrencyTest, Q6HeavyLoad) {
  CheckQueryAcrossWorkerCounts(6);
}

TEST_F(EngineConcurrencyTest, Q7UnscheduledStops) {
  CheckQueryAcrossWorkerCounts(7);
}

TEST_F(EngineConcurrencyTest, Q8BrakeMonitoring) {
  CheckQueryAcrossWorkerCounts(8);
}

// The lookup-join variant exercises the partitioning *guard*: a join in
// the suffix keeps the chain sequential, and results must still agree.
TEST_F(EngineConcurrencyTest, Q4WeatherJoinVariant) {
  auto run = [&](size_t workers) {
    auto built = BuildQ4WeatherJoin(*env_, RunFor(4));
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return RunPlan(std::move(built->plan), {built->collect}, workers);
  };
  const RunOutcome sequential = run(1);
  EXPECT_GT(sequential.events_ingested, 0u);
  ExpectRowsToCompare(sequential, "Q4 join");
  ExpectEquivalent(sequential, run(2), "Q4 join @ 2 workers");
  ExpectEquivalent(sequential, run(4), "Q4 join @ 4 workers");
}

// The shared-ingest fan-out: both branches must see the full shared
// prefix output concurrently and agree with the sequential run — the
// zero-copy shared-batch hand-off under real parallelism.
TEST_F(EngineConcurrencyTest, SharedIngestFanOut) {
  auto run = [&](size_t workers) {
    auto built = BuildSharedIngestFanOut(*env_, SmallRun());
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return RunPlan(std::move(built->plan), built->collects, workers);
  };
  const RunOutcome sequential = run(1);
  ASSERT_EQ(sequential.sinks.size(), 2u);
  EXPECT_GT(sequential.events_ingested, 0u);
  ExpectRowsToCompare(sequential, "fan-out");
  ExpectInstrumented(sequential, "fan-out @ 1 worker");
  const RunOutcome four = run(4);
  ExpectEquivalent(sequential, run(2), "fan-out @ 2 workers");
  ExpectEquivalent(sequential, four, "fan-out @ 4 workers");
  ExpectInstrumented(four, "fan-out @ 4 workers");
  // Both branch strands publish their own backpressure instruments.
  EXPECT_EQ(four.metrics.gauges.count("worker.strand.0.queue_depth"), 1u);
  EXPECT_EQ(four.metrics.gauges.count("worker.strand.1.queue_depth"), 1u);
  // With a real pool, branch dispatches recorded actual task waits.
  const auto& wait =
      four.metrics.histograms.at("worker.strand.0.task_wait_micros");
  EXPECT_GT(wait.count, 0u);
}

// A placed fan-out plan executing over simulated network channels: the
// channel sink/source pairs sit inside branch strands, so frames are
// produced and drained on worker threads. Results must match the
// sequential placed run.
TEST_F(EngineConcurrencyTest, PlacedPlanAcrossNetworkChannels) {
  using nebula::AnnotateEdgePushdownPlacement;
  using nebula::Topology;
  constexpr int kEdge = 2;   // train-0 in the SNCB reference topology
  constexpr int kCloud = 1;  // cloud worker
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(50));
  auto run = [&](size_t workers) {
    auto built = BuildSharedIngestFanOut(*env_, SmallRun(30'000));
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    AnnotateEdgePushdownPlacement(&built->plan, kEdge, kCloud);
    return RunPlan(std::move(built->plan), built->collects, workers, &topo);
  };
  const RunOutcome sequential = run(1);
  ASSERT_EQ(sequential.sinks.size(), 2u);
  EXPECT_GT(sequential.events_ingested, 0u);
  ExpectInstrumented(sequential, "placed fan-out @ 1 worker");
  const RunOutcome four = run(4);
  ExpectEquivalent(sequential, run(2), "placed fan-out @ 2 workers");
  ExpectEquivalent(sequential, four, "placed fan-out @ 4 workers");
  ExpectInstrumented(four, "placed fan-out @ 4 workers");
  // The lowered network channels published wire counters and carried
  // traffic, at both worker counts under the same names.
  for (const RunOutcome* run_ptr : {&sequential, &four}) {
    uint64_t wire_bytes = 0;
    uint64_t frames = 0;
    bool transfer_hist = false;
    for (const auto& [name, value] : run_ptr->metrics.counters) {
      if (name.rfind("channel.", 0) != 0) continue;
      if (name.find(".wire_bytes") != std::string::npos) wire_bytes += value;
      if (name.find(".frames") != std::string::npos) frames += value;
    }
    for (const auto& [name, hist] : run_ptr->metrics.histograms) {
      if (name.rfind("channel.", 0) == 0 &&
          name.find(".transfer_micros") != std::string::npos &&
          hist.count > 0) {
        transfer_hist = true;
      }
    }
    EXPECT_GT(wire_bytes, 0u);
    EXPECT_GT(frames, 0u);
    EXPECT_TRUE(transfer_hist);
  }
}

// Regression for cancellation during active processing on a DAG plan:
// with 4 workers, strand tasks are in flight when `Cancel` lands. The
// engine must drain those tasks before operator state is torn down (no
// use-after-free — the TSan job re-runs this test) and must *not* flush
// window/CEP state as if the stream had completed. Repeated a few times
// to vary where in the stream the cancel lands.
TEST_F(EngineConcurrencyTest, CancelDuringProcessingDrainsInFlightWork) {
  for (int round = 0; round < 3; ++round) {
    auto built = BuildSharedIngestFanOut(*env_, SmallRun(50'000'000));
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    EngineOptions options;
    options.worker_threads = 4;
    NodeEngine engine(options);
    auto id = engine.Submit(std::move(built->plan));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ASSERT_TRUE(engine.Start(*id).ok());
    // Let real work get in flight before cancelling.
    while (engine.Stats(*id)->events_ingested == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(engine.Cancel(*id).ok());
    // The cancelled query stays inspectable and its counters consistent.
    auto stats = engine.Stats(*id);
    ASSERT_TRUE(stats.ok());
    EXPECT_GT(stats->events_ingested, 0u);
    EXPECT_LT(stats->events_ingested, 50'000'000u);
  }
}

}  // namespace
}  // namespace nebulameos::queries
