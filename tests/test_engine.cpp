// End-to-end engine tests: query API, plan emission and compilation,
// operators through the NodeEngine, cancellation, statistics, plan
// introspection.

#include <gtest/gtest.h>

#include "nebula/engine.hpp"

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

}  // namespace
}  // namespace nebulameos::nebula
