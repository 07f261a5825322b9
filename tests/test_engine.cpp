// End-to-end engine tests: query API, plan emission and compilation,
// operators through the NodeEngine, cancellation, statistics (one
// accounting plane: `Stats` reads the metrics registry), plan
// introspection.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <thread>
#include <tuple>

#include "nebula/engine.hpp"
#include "queries/queries.hpp"

namespace nebulameos::nebula {
namespace {

Schema EventSchema() {
  return Schema::Build()
      .AddInt64("key")
      .AddTimestamp("ts")
      .AddDouble("value")
      .Finish();
}

std::vector<std::vector<Value>> MakeRows(int n) {
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back({Value(int64_t{i % 3}), Value(Seconds(i)),
                    Value(static_cast<double>(i))});
  }
  return rows;
}

SourcePtr MakeSource(int n, size_t rounds = 1) {
  return std::make_unique<MemorySource>(EventSchema(), MakeRows(n), rounds,
                                        "ts");
}

TEST(Engine, SubmitRequiresSourceAndSink) {
  NodeEngine engine;
  Query no_sink = Query::From(MakeSource(3));
  EXPECT_FALSE(engine.Submit(std::move(no_sink)).ok());
}

TEST(Engine, FilterQuery) {
  NodeEngine engine;
  auto sink = std::make_shared<CollectSink>(EventSchema());
  auto id = engine.Submit(Query::From(MakeSource(10))
                              .Filter(Ge(Attribute("value"), Lit(5.0)))
                              .To(sink));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(engine.RunToCompletion(*id).ok());
  EXPECT_EQ(sink->RowCount(), 5u);
  for (const auto& row : sink->Rows()) {
    EXPECT_GE(ValueAsDouble(row[2]), 5.0);
  }
}

TEST(Engine, MapAddsAndReplacesFields) {
  NodeEngine engine;
  auto plan = Query::From(MakeSource(4))
                  .Map("double_value", Mul(Attribute("value"), Lit(2.0)))
                  .Map("value", Add(Attribute("value"), Lit(100.0)))
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto out = plan->OutputSchema();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out->HasField("double_value"));
  EXPECT_EQ(out->num_fields(), 4u);  // value replaced in place

  auto sink = std::make_shared<CollectSink>(*out);
  plan->SetSink(sink);
  auto id = engine.Submit(std::move(*plan));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine.RunToCompletion(*id).ok());
  const auto rows = sink->Rows();
  ASSERT_EQ(rows.size(), 4u);
  // Row i: double_value = 2i (from the original value), value = i + 100.
  EXPECT_DOUBLE_EQ(ValueAsDouble(rows[3][3]), 6.0);
  EXPECT_DOUBLE_EQ(ValueAsDouble(rows[3][2]), 103.0);
}

TEST(Engine, ProjectReordersFields) {
  auto plan = Query::From(MakeSource(2)).Project({"value", "key"}).Build();
  ASSERT_TRUE(plan.ok());
  auto pipe = CompilePlan(EventSchema(), *plan);
  ASSERT_TRUE(pipe.ok());
  const Schema& out = pipe->operators.back()->output_schema();
  ASSERT_EQ(out.num_fields(), 2u);
  EXPECT_EQ(out.field(0).name, "value");
  EXPECT_EQ(out.field(1).name, "key");
}

TEST(Engine, CompileRejectsBadPlans) {
  {
    auto plan =
        Query::From(MakeSource(2)).Filter(Gt(Attribute("nope"), Lit(1))).Build();
    ASSERT_TRUE(plan.ok());
    EXPECT_FALSE(CompilePlan(EventSchema(), *plan).ok());
  }
  {
    auto plan = Query::From(MakeSource(2)).Project({"nope"}).Build();
    ASSERT_TRUE(plan.ok());
    EXPECT_FALSE(CompilePlan(EventSchema(), *plan).ok());
  }
}

TEST(Engine, KeyByWithoutWindowIsRejected) {
  // Regression: a dangling KeyBy used to be silently dropped; it is now a
  // hard validation error at submission.
  NodeEngine engine;
  auto sink = std::make_shared<CountingSink>(EventSchema());
  auto id = engine.Submit(Query::From(MakeSource(4))
                              .KeyBy("key")
                              .Filter(Ge(Attribute("value"), Lit(0.0)))
                              .To(sink));
  ASSERT_FALSE(id.ok());
  EXPECT_NE(id.status().message().find("KeyBy"), std::string::npos)
      << id.status().ToString();
}

TEST(Engine, WindowAggThroughEngine) {
  NodeEngine engine;
  auto plan = Query::From(MakeSource(10))
                  .KeyBy("key")
                  .TumblingWindow(Seconds(5), "ts")
                  .Aggregate({AggregateSpec::Count("n"),
                              AggregateSpec::Sum("value", "total")})
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto out = plan->OutputSchema();
  ASSERT_TRUE(out.ok());
  auto sink = std::make_shared<CollectSink>(*out);
  plan->SetSink(sink);
  auto id = engine.Submit(std::move(*plan));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine.RunToCompletion(*id).ok());
  // 10 events at 1 e/s over keys {0,1,2}: windows [0,5) and [5,10).
  const auto rows = sink->Rows();
  int64_t total_events = 0;
  double total_value = 0.0;
  for (const auto& row : rows) {
    total_events += ValueAsInt64(row[3]);
    total_value += ValueAsDouble(row[4]);
  }
  EXPECT_EQ(total_events, 10);
  EXPECT_DOUBLE_EQ(total_value, 45.0);  // sum 0..9
}

TEST(Engine, ChainedFilterMapWindow) {
  NodeEngine engine;
  auto plan = Query::From(MakeSource(20))
                  .Filter(Ge(Attribute("value"), Lit(10.0)))
                  .Map("scaled", Mul(Attribute("value"), Lit(0.5)))
                  .KeyBy("key")
                  .TumblingWindow(Seconds(100), "ts")
                  .Aggregate({AggregateSpec::Max("scaled", "peak")})
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto out = plan->OutputSchema();
  ASSERT_TRUE(out.ok());
  auto sink = std::make_shared<CollectSink>(*out);
  plan->SetSink(sink);
  auto id = engine.Submit(std::move(*plan));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine.RunToCompletion(*id).ok());
  double max_peak = 0.0;
  for (const auto& row : sink->Rows()) {
    max_peak = std::max(max_peak, ValueAsDouble(row[3]));
  }
  EXPECT_DOUBLE_EQ(max_peak, 9.5);  // value 19 scaled
}

TEST(Engine, ExplainReportsSubmittedAndOptimizedPlan) {
  NodeEngine engine;
  auto sink = std::make_shared<CountingSink>(EventSchema());
  auto id = engine.Submit(Query::From(MakeSource(10))
                              .Map("scaled", Mul(Attribute("value"), Lit(2.0)))
                              .Filter(Ge(Attribute("value"), Lit(5.0)))
                              .Project({"key", "ts", "value"})
                              .To(sink));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto text = engine.Explain(*id);
  ASSERT_TRUE(text.ok());
  // Pre-optimization: the plan as submitted (Map before Filter).
  EXPECT_NE(text->logical.find("Map(scaled :="), std::string::npos)
      << text->logical;
  EXPECT_LT(text->logical.find("Map(scaled"), text->logical.find("Filter"));
  // Post-optimization: the filter was pushed below the map, and the dead
  // "scaled" field (projected away) was eliminated with its map.
  EXPECT_EQ(text->optimized.find("Map("), std::string::npos)
      << text->optimized;
  EXPECT_NE(text->optimized.find("Filter"), std::string::npos);
  ASSERT_TRUE(engine.RunToCompletion(*id).ok());
  EXPECT_EQ(sink->events(), 5u);
}

TEST(Engine, OptimizerDisableSubmitsVerbatim) {
  EngineOptions opts;
  opts.optimizer.enable = false;
  NodeEngine engine(opts);
  auto sink = std::make_shared<CountingSink>(EventSchema());
  auto id = engine.Submit(Query::From(MakeSource(10))
                              .Filter(Ge(Attribute("value"), Lit(5.0)))
                              .Filter(Lt(Attribute("value"), Lit(8.0)))
                              .To(sink));
  ASSERT_TRUE(id.ok());
  auto text = engine.Explain(*id);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text->logical, text->optimized);
  ASSERT_TRUE(engine.RunToCompletion(*id).ok());
  EXPECT_EQ(sink->events(), 3u);  // values 5, 6, 7
}

TEST(Engine, StatsCountEventsAndBytes) {
  NodeEngine engine;
  auto sink = std::make_shared<CountingSink>(EventSchema());
  auto id = engine.Submit(Query::From(MakeSource(100)).To(sink));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine.RunToCompletion(*id).ok());
  auto stats = engine.Stats(*id);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->events_ingested, 100u);
  EXPECT_EQ(stats->bytes_ingested, 100 * EventSchema().record_size());
  EXPECT_EQ(stats->events_emitted, 100u);
  EXPECT_GT(stats->elapsed_micros, 0);
  EXPECT_GT(stats->EventsPerSecond(), 0.0);
  EXPECT_GT(stats->MegabytesPerSecond(), 0.0);
  // Sink appears in operator stats.
  ASSERT_FALSE(stats->operator_stats.empty());
  EXPECT_EQ(stats->operator_stats.back().first, "CountingSink");
  EXPECT_EQ(stats->operator_stats.back().second.events_in, 100u);
}

TEST(Engine, MultipleRoundsRepeatData) {
  NodeEngine engine;
  auto sink = std::make_shared<CountingSink>(EventSchema());
  auto id = engine.Submit(Query::From(MakeSource(10, /*rounds=*/3)).To(sink));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine.RunToCompletion(*id).ok());
  EXPECT_EQ(sink->events(), 30u);
}

TEST(Engine, GeneratorSourceUnboundedWithMax) {
  NodeEngine engine;
  Schema schema = EventSchema();
  int64_t i = 0;
  auto source = std::make_unique<GeneratorSource>(
      schema,
      [&i](RecordWriter* w) {
        w->SetInt64(0, 0);
        w->SetInt64(1, Seconds(i));
        w->SetDouble(2, static_cast<double>(i));
        ++i;
        return true;
      },
      /*max_events=*/500, "ts");
  auto sink = std::make_shared<CountingSink>(schema);
  auto id = engine.Submit(Query::From(std::move(source)).To(sink));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine.RunToCompletion(*id).ok());
  EXPECT_EQ(sink->events(), 500u);
}

TEST(Engine, GeneratorEndsStream) {
  NodeEngine engine;
  Schema schema = EventSchema();
  int64_t i = 0;
  auto source = std::make_unique<GeneratorSource>(
      schema,
      [&i](RecordWriter* w) {
        if (i >= 7) return false;  // generator-driven end
        w->SetInt64(0, 0);
        w->SetInt64(1, Seconds(i));
        w->SetDouble(2, 0.0);
        ++i;
        return true;
      },
      /*max_events=*/0, "ts");
  auto sink = std::make_shared<CountingSink>(schema);
  auto id = engine.Submit(Query::From(std::move(source)).To(sink));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine.RunToCompletion(*id).ok());
  EXPECT_EQ(sink->events(), 7u);
}

TEST(Engine, CancelStopsLongRun) {
  NodeEngine engine;
  Schema schema = EventSchema();
  auto source = std::make_unique<GeneratorSource>(
      schema,
      [](RecordWriter* w) {
        w->SetInt64(0, 0);
        w->SetInt64(1, 0);
        w->SetDouble(2, 0.0);
        return true;  // endless
      },
      /*max_events=*/0, "");
  auto sink = std::make_shared<CountingSink>(schema);
  auto id = engine.Submit(Query::From(std::move(source)).To(sink));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine.Start(*id).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(engine.Cancel(*id).ok());
  EXPECT_GT(sink->events(), 0u);
}

TEST(Engine, UnknownQueryIdErrors) {
  NodeEngine engine;
  EXPECT_FALSE(engine.Start(42).ok());
  EXPECT_FALSE(engine.Wait(42).ok());
  EXPECT_FALSE(engine.Stats(42).ok());
  EXPECT_FALSE(engine.Explain(42).ok());
}

TEST(Engine, ConcurrentQueries) {
  NodeEngine engine;
  std::vector<std::shared_ptr<CountingSink>> sinks;
  std::vector<int> ids;
  for (int k = 0; k < 4; ++k) {
    auto sink = std::make_shared<CountingSink>(EventSchema());
    auto id = engine.Submit(Query::From(MakeSource(1000)).To(sink));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
    sinks.push_back(sink);
  }
  for (int id : ids) ASSERT_TRUE(engine.Start(id).ok());
  for (int id : ids) ASSERT_TRUE(engine.Wait(id).ok());
  for (const auto& sink : sinks) EXPECT_EQ(sink->events(), 1000u);
  EXPECT_EQ(engine.NumQueries(), 4u);
}

TEST(Engine, CsvRoundTrip) {
  const std::string path = "/tmp/nm_engine_csv_test.csv";
  {
    auto sink = CsvSink::Open(EventSchema(), path);
    ASSERT_TRUE(sink.ok());
    NodeEngine engine;
    auto id = engine.Submit(Query::From(MakeSource(5)).To(*sink));
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(engine.RunToCompletion(*id).ok());
  }
  // Read it back through CsvSource.
  auto source = CsvSource::Open(EventSchema(), path, /*skip_header=*/true, "ts");
  ASSERT_TRUE(source.ok());
  NodeEngine engine;
  auto sink = std::make_shared<CollectSink>(EventSchema());
  auto id = engine.Submit(Query::From(std::move(*source)).To(sink));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine.RunToCompletion(*id).ok());
  const auto rows = sink->Rows();
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_DOUBLE_EQ(ValueAsDouble(rows[4][2]), 4.0);
  std::remove(path.c_str());
}

// --- One accounting plane ------------------------------------------------

// Every `operator_stats` and `sink_stats` entry of `stats` reads the same
// numbers from the snapshot `m`: `batch_rows` sum, counters and
// `late_shed` of `op.<key>` (`op.<key>#k` for the k-th entry of one key).
// Ingest reads the engine counters, and so does the emitted total when
// `all_sinks` (no sink that ran has left `stats`).
void ExpectOnePlane(const QueryStats& stats, const metrics::MetricsSnapshot& m,
                    bool all_sinks) {
  auto counter = [&m](const std::string& name) { return m.counters.at(name); };
  auto events_in = [&m](const std::string& base) {
    return static_cast<uint64_t>(m.histograms.at(base + ".batch_rows").sum);
  };
  EXPECT_EQ(stats.events_ingested, counter("engine.events_ingested"));
  EXPECT_EQ(stats.bytes_ingested, counter("engine.bytes_ingested"));
  if (all_sinks) {
    EXPECT_EQ(stats.events_emitted, counter("engine.events_emitted"));
    EXPECT_EQ(stats.bytes_emitted, counter("engine.bytes_emitted"));
  }
  std::map<std::string, int> seen;
  for (const auto& [key, flow] : stats.operator_stats) {
    const int k = ++seen[key];
    const std::string base =
        "op." + key + (k >= 2 ? "#" + std::to_string(k) : "");
    const auto shed = m.counters.find(base + ".late_shed");
    EXPECT_EQ(std::make_tuple(flow.events_in, flow.bytes_in, flow.events_out,
                              flow.bytes_out, flow.events_shed),
              std::make_tuple(events_in(base), counter(base + ".bytes_in"),
                              counter(base + ".events_out"),
                              counter(base + ".bytes_out"),
                              shed == m.counters.end() ? 0 : shed->second))
        << base;
  }
  for (const SinkStats& sink : stats.sink_stats) {
    const std::string base =
        "op." + (sink.path.empty() ? "" : sink.path + "/") + sink.name;
    EXPECT_EQ(sink.events_emitted, events_in(base)) << base;
    EXPECT_EQ(sink.bytes_emitted, counter(base + ".bytes_in")) << base;
  }
}

// A keyed plan partitioned 4 ways (with late rows its windows shed), the
// paper's shared-ingest fan-out, and that fan-out placed over channel
// pairs, each run at 4 workers.
TEST(OneAccountingPlane, PartitionedFanOutAndPlacedPlans) {
  std::vector<std::vector<Value>> rows = MakeRows(3000);
  for (int64_t key = 0; key < 3; ++key) {  // each window fired long ago
    rows.push_back({Value(key), Value(Seconds(5)), Value(50.0)});
  }
  auto keyed =
      Query::From(std::make_unique<MemorySource>(EventSchema(),
                                                 std::move(rows), 1, "ts"))
          .Filter(Ge(Attribute("value"), Lit(10.0)))
          .KeyBy("key")
          .TumblingWindow(Seconds(100), "ts")
          .Aggregate({AggregateSpec::Count("n")})
          .Map("twice", Mul(Attribute("n"), Lit(int64_t{2})))
          .Build();
  ASSERT_TRUE(keyed.ok()) << keyed.status().ToString();
  keyed->SetSink(std::make_shared<CountingSink>(*keyed->OutputSchema()));
  CompileOptions four;
  four.partitions = 4;
  auto pipe = CompilePlan(EventSchema(), *keyed, nullptr, four);
  ASSERT_TRUE(pipe.ok()) << pipe.status().ToString();
  ASSERT_EQ(pipe->partitions.size(), 4u);

  auto env = queries::DemoEnvironment::Create();
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  queries::QueryOptions fan_out_options;
  fan_out_options.max_events = 20'000;
  auto fan_out = queries::BuildSharedIngestFanOut(**env, fan_out_options);
  auto placed = queries::BuildSharedIngestFanOut(**env, fan_out_options);
  ASSERT_TRUE(fan_out.ok() && placed.ok());
  AnnotateEdgePushdownPlacement(&placed->plan, 2, 1);
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(50));

  LogicalPlan plans[] = {std::move(*keyed), std::move(fan_out->plan),
                         std::move(placed->plan)};
  for (size_t p = 0; p < 3; ++p) {
    SCOPED_TRACE("plan " + std::to_string(p));
    EngineOptions options;
    options.worker_threads = 4;
    options.topology = p == 2 ? &topo : nullptr;
    NodeEngine engine(options);
    auto id = engine.Submit(std::move(plans[p]));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ASSERT_TRUE(engine.RunToCompletion(*id).ok());
    auto stats = engine.Stats(*id);
    auto metrics = engine.Metrics(*id);
    ASSERT_TRUE(stats.ok() && metrics.ok());
    EXPECT_GT(stats->events_emitted, 0u);
    ExpectOnePlane(*stats, *metrics, /*all_sinks=*/true);
    uint64_t shed = 0;
    bool channels = false;
    for (const auto& [key, flow] : stats->operator_stats) {
      shed += flow.events_shed;
      channels = channels || key.find("NetworkChannel") != std::string::npos;
    }
    EXPECT_EQ(shed, p == 0 ? 3u : 0u);
    EXPECT_EQ(stats->sink_stats.size(), p == 0 ? 1u : 2u);
    EXPECT_EQ(channels, p == 2);
  }
}

// Waits up to ~10 s for `cond`.
bool Eventually(const std::function<bool()>& cond) {
  for (int t = 0; t < 10'000 && !cond(); ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return cond();
}

// A 4-worker shared host over an endless stream: branch A attaches before
// the start, B and C mid-stream, and C detaches again, while a second
// thread polls `Stats`, `BranchStats` and `Metrics` (the TSan job runs
// this). Once stopped, the host's stats (A, B) and each branch's read
// the host's one registry.
TEST(OneAccountingPlane, SharedHostPolledWhileBranchesAttachAndDetach) {
  EngineOptions options;
  options.worker_threads = 4;
  NodeEngine engine(options);
  LogicalPlan prefix;
  prefix.SetSource(std::make_unique<GeneratorSource>(
      EventSchema(),
      [i = int64_t{0}](RecordWriter* w) mutable {
        w->SetInt64(0, i % 3);
        w->SetInt64(1, Seconds(i));
        w->SetDouble(2, static_cast<double>(i % 2000));
        ++i;
        return true;
      },
      /*max_events=*/0, "ts"));
  prefix.Append(std::make_unique<FilterNode>(Ge(Attribute("value"), Lit(10.0))));
  auto host = engine.SubmitShared(std::move(prefix));
  ASSERT_TRUE(host.ok()) << host.status().ToString();
  auto attach = [&engine, &host](double min_value) {
    std::vector<LogicalOperatorPtr> suffix;
    suffix.push_back(
        std::make_unique<FilterNode>(Ge(Attribute("value"), Lit(min_value))));
    suffix.push_back(std::make_unique<SinkNode>(
        std::make_shared<CountingSink>(EventSchema())));
    auto id = engine.AttachBranch(*host, std::move(suffix));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return id.ok() ? *id : 0;
  };
  auto emitted = [&engine, &host](int branch) {
    auto stats = engine.BranchStats(*host, branch);
    return stats.ok() ? stats->events_emitted : 0;
  };
  const int a = attach(1000.0);
  std::atomic<int> b{0};
  std::atomic<bool> done{false};
  std::thread poller([&] {
    uint64_t last_ingested = 0;
    while (!done.load()) {
      auto stats = engine.Stats(*host);
      EXPECT_TRUE(stats.ok() && engine.BranchStats(*host, a).ok() &&
                  engine.Metrics(*host).ok());
      if (stats.ok()) {
        EXPECT_GE(stats->events_ingested, last_ingested);
        last_ingested = stats->events_ingested;
      }
      if (const int id = b.load(); id != 0) {
        EXPECT_TRUE(engine.BranchStats(*host, id).ok());
      }
    }
  });
  ASSERT_TRUE(engine.Start(*host).ok());
  EXPECT_TRUE(Eventually([&] { return emitted(a) > 0; }));
  b.store(attach(1500.0));
  const int c = attach(500.0);
  EXPECT_TRUE(Eventually([&] { return emitted(c) > 0; }));
  EXPECT_TRUE(engine.DetachBranch(*host, c).ok());
  const uint64_t at_detach = emitted(b);
  EXPECT_TRUE(Eventually([&] { return emitted(b) > at_detach; }));
  EXPECT_TRUE(engine.Cancel(*host).ok());
  done.store(true);
  poller.join();

  auto metrics = engine.Metrics(*host);
  auto stats = engine.Stats(*host);
  ASSERT_TRUE(metrics.ok() && stats.ok());
  EXPECT_EQ(stats->sink_stats.size(), 2u);
  // C's rows count in the engine's emitted counter, not in the host's.
  ExpectOnePlane(*stats, *metrics, /*all_sinks=*/false);
  for (const int branch : {a, b.load(), c}) {
    SCOPED_TRACE("branch " + std::to_string(branch));
    auto branch_stats = engine.BranchStats(*host, branch);
    ASSERT_TRUE(branch_stats.ok()) << branch_stats.status().ToString();
    ExpectOnePlane(*branch_stats, *metrics, /*all_sinks=*/false);
  }
}

// A branch suffix passes the structural walk a plan's chain passes at
// `Validate`: a sink before the end of the chain, or a window without
// aggregates, is refused and attaches nothing, so the host's one valid
// branch sees every row it selects.
TEST(SharedHost, AttachBranchRefusesWhatValidateRefuses) {
  NodeEngine engine;
  LogicalPlan prefix;
  prefix.SetSource(MakeSource(40));
  auto host = engine.SubmitShared(std::move(prefix));
  ASSERT_TRUE(host.ok()) << host.status().ToString();
  const auto over_ten = [] {
    return std::make_unique<FilterNode>(Gt(Attribute("value"), Lit(10.0)));
  };

  auto a = std::make_shared<CountingSink>(EventSchema());
  std::vector<LogicalOperatorPtr> interior_sink;
  interior_sink.push_back(std::make_unique<SinkNode>(a));
  interior_sink.push_back(over_ten());
  interior_sink.push_back(std::make_unique<SinkNode>(
      std::make_shared<CountingSink>(EventSchema())));
  const Status interior =
      engine.AttachBranch(*host, std::move(interior_sink)).status();
  EXPECT_EQ(interior.code(), StatusCode::kInvalidArgument)
      << interior.ToString();

  WindowAggOptions window;
  window.window = TumblingWindowSpec{Seconds(10)};
  window.time_field = "ts";
  std::vector<LogicalOperatorPtr> no_aggregates;
  no_aggregates.push_back(std::make_unique<WindowAggNode>(std::move(window)));
  no_aggregates.push_back(std::make_unique<SinkNode>(
      std::make_shared<CountingSink>(Schema::Build()
                                         .AddTimestamp("window_start")
                                         .AddTimestamp("window_end")
                                         .Finish())));
  const Status empty_window =
      engine.AttachBranch(*host, std::move(no_aggregates)).status();
  EXPECT_EQ(empty_window.code(), StatusCode::kInvalidArgument)
      << empty_window.ToString();

  auto b = std::make_shared<CountingSink>(EventSchema());
  std::vector<LogicalOperatorPtr> valid;
  valid.push_back(over_ten());
  valid.push_back(std::make_unique<SinkNode>(b));
  ASSERT_TRUE(engine.AttachBranch(*host, std::move(valid)).ok());
  ASSERT_TRUE(engine.RunToCompletion(*host).ok());
  EXPECT_EQ(a->events(), 0u);
  EXPECT_EQ(b->events(), 29u);  // values 11..39
  auto stats = engine.Stats(*host);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->sink_stats.size(), 1u);
}

}  // namespace
}  // namespace nebulameos::nebula
