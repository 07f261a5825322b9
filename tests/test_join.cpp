// Tests for the temporal lookup join (src/nebula/join) and the Q4 join
// variant over the weather-observation stream.

#include <gtest/gtest.h>

#include "nebula/engine.hpp"
#include "sncb/records.hpp"

namespace nebulameos::nebula {
namespace {

Schema LeftSchema() {
  return Schema::Build()
      .AddInt64("cell")
      .AddTimestamp("ts")
      .AddDouble("reading")
      .Finish();
}

Schema RightSchema() {
  return Schema::Build()
      .AddInt64("cell")
      .AddTimestamp("ts")
      .AddInt64("condition")
      .AddDouble("intensity")
      .Finish();
}

std::shared_ptr<Source> MakeRight(
    std::vector<std::tuple<int64_t, Timestamp, int64_t, double>> rows) {
  std::vector<std::vector<Value>> data;
  for (const auto& [cell, ts, cond, intensity] : rows) {
    data.push_back({Value(cell), Value(ts), Value(cond), Value(intensity)});
  }
  return std::make_shared<MemorySource>(RightSchema(), std::move(data), 1,
                                        "ts");
}

TemporalLookupJoinOptions Options(std::shared_ptr<Source> right,
                                  Duration max_age = Minutes(30)) {
  TemporalLookupJoinOptions options;
  options.lookup = std::move(right);
  options.left_key = "cell";
  options.right_key = "cell";
  options.left_time = "ts";
  options.right_time = "ts";
  options.max_age = max_age;
  return options;
}

class JoinHarness {
 public:
  explicit JoinHarness(TemporalLookupJoinOptions options) {
    auto op = TemporalLookupJoinOperator::Make(LeftSchema(),
                                               std::move(options));
    EXPECT_TRUE(op.ok()) << op.status().ToString();
    op_ = std::move(*op);
    EXPECT_TRUE(op_->Open(&ctx_).ok());
  }

  void Feed(std::initializer_list<std::tuple<int64_t, Timestamp, double>> rows) {
    auto buf = std::make_shared<TupleBuffer>(LeftSchema(), rows.size());
    for (const auto& [cell, ts, reading] : rows) {
      RecordWriter w = buf->Append();
      w.SetInt64(0, cell);
      w.SetInt64(1, ts);
      w.SetDouble(2, reading);
    }
    auto collect = [this](const exec::Batch& out) {
      const Schema& schema = out.data->schema();
      for (size_t i = 0; i < out.NumRows(); ++i) {
        const RecordView rec = out.data->At(out.RowAt(i));
        std::vector<Value> row;
        for (size_t f = 0; f < schema.num_fields(); ++f) {
          if (schema.field(f).type == DataType::kDouble) {
            row.emplace_back(rec.GetDouble(f));
          } else {
            row.emplace_back(rec.GetInt64(f));
          }
        }
        rows_.push_back(std::move(row));
      }
    };
    EXPECT_TRUE(op_->ProcessBatch(exec::SealedBatch(buf), collect).ok());
  }

  TemporalLookupJoinOperator* op() {
    return static_cast<TemporalLookupJoinOperator*>(op_.get());
  }
  const std::vector<std::vector<Value>>& rows() const { return rows_; }

 private:
  ExecutionContext ctx_;
  OperatorPtr op_;
  std::vector<std::vector<Value>> rows_;
};

TEST(TemporalLookupJoin, Validation) {
  auto right = MakeRight({});
  TemporalLookupJoinOptions options = Options(right);
  options.lookup = nullptr;
  EXPECT_FALSE(TemporalLookupJoinOperator::Make(LeftSchema(), options).ok());
  options = Options(right);
  options.max_age = 0;
  EXPECT_FALSE(TemporalLookupJoinOperator::Make(LeftSchema(), options).ok());
  options = Options(right);
  options.left_key = "missing";
  EXPECT_FALSE(TemporalLookupJoinOperator::Make(LeftSchema(), options).ok());
  options = Options(right);
  options.right_key = "intensity";  // not INT64
  EXPECT_FALSE(TemporalLookupJoinOperator::Make(LeftSchema(), options).ok());
}

TEST(TemporalLookupJoin, OutputSchemaExcludesRightKeyAndTime) {
  auto op = TemporalLookupJoinOperator::Make(LeftSchema(),
                                             Options(MakeRight({})));
  ASSERT_TRUE(op.ok());
  const Schema& out = (*op)->output_schema();
  ASSERT_EQ(out.num_fields(), 5u);  // cell, ts, reading + condition, intensity
  EXPECT_TRUE(out.HasField("condition"));
  EXPECT_TRUE(out.HasField("intensity"));
}

TEST(TemporalLookupJoin, CollidingRightNamesArePrefixed) {
  // Right side carries a "reading" column too.
  Schema right_schema = Schema::Build()
                            .AddInt64("cell")
                            .AddTimestamp("ts")
                            .AddDouble("reading")
                            .Finish();
  auto right = std::make_shared<MemorySource>(
      right_schema, std::vector<std::vector<Value>>{}, 1, "ts");
  auto op =
      TemporalLookupJoinOperator::Make(LeftSchema(), Options(right));
  ASSERT_TRUE(op.ok());
  EXPECT_TRUE((*op)->output_schema().HasField("r_reading"));
}

TEST(TemporalLookupJoin, JoinsNearestObservation) {
  JoinHarness h(Options(MakeRight({{7, Minutes(0), 1, 0.2},
                                   {7, Minutes(60), 2, 0.8},
                                   {9, Minutes(0), 3, 0.5}})));
  EXPECT_EQ(h.op()->lookup_size(), 3u);
  h.Feed({{7, Minutes(10), 1.0},    // nearest: t=0 (cond 1)
          {7, Minutes(50), 2.0},    // nearest: t=60 (cond 2)
          {9, Minutes(20), 3.0}});  // nearest: t=0 (cond 3)
  ASSERT_EQ(h.rows().size(), 3u);
  EXPECT_EQ(ValueAsInt64(h.rows()[0][3]), 1);
  EXPECT_DOUBLE_EQ(ValueAsDouble(h.rows()[0][4]), 0.2);
  EXPECT_EQ(ValueAsInt64(h.rows()[1][3]), 2);
  EXPECT_EQ(ValueAsInt64(h.rows()[2][3]), 3);
  EXPECT_EQ(h.op()->unmatched(), 0u);
}

TEST(TemporalLookupJoin, MaxAgeDropsStaleMatches) {
  JoinHarness h(Options(MakeRight({{7, Minutes(0), 1, 0.2}}),
                        /*max_age=*/Minutes(15)));
  h.Feed({{7, Minutes(10), 1.0},    // within 15 min: joined
          {7, Minutes(30), 2.0},    // 30 min gap: dropped
          {8, Minutes(5), 3.0}});   // unknown key: dropped
  ASSERT_EQ(h.rows().size(), 1u);
  EXPECT_DOUBLE_EQ(ValueAsDouble(h.rows()[0][2]), 1.0);
  EXPECT_EQ(h.op()->unmatched(), 2u);
}

TEST(TemporalLookupJoin, LeftFieldsSurviveVerbatim) {
  JoinHarness h(Options(MakeRight({{7, Minutes(0), 1, 0.25}})));
  h.Feed({{7, Minutes(1), 42.5}});
  ASSERT_EQ(h.rows().size(), 1u);
  EXPECT_EQ(ValueAsInt64(h.rows()[0][0]), 7);
  EXPECT_EQ(ValueAsInt64(h.rows()[0][1]), Minutes(1));
  EXPECT_DOUBLE_EQ(ValueAsDouble(h.rows()[0][2]), 42.5);
}

TEST(TemporalLookupJoin, ThroughQueryApi) {
  // Left stream via MemorySource, joined and filtered inside a full query.
  std::vector<std::vector<Value>> left_rows;
  for (int i = 0; i < 100; ++i) {
    left_rows.push_back({Value(int64_t{i % 2}), Value(Minutes(i)),
                         Value(static_cast<double>(i))});
  }
  auto left = std::make_unique<MemorySource>(LeftSchema(),
                                             std::move(left_rows), 1, "ts");
  std::vector<std::tuple<int64_t, Timestamp, int64_t, double>> right_rows;
  for (int m = 0; m < 100; m += 10) {
    right_rows.emplace_back(0, Minutes(m), m / 10, 0.5);
    right_rows.emplace_back(1, Minutes(m), m / 10 + 100, 0.5);
  }
  auto plan = Query::From(std::move(left))
                  .JoinLookup(Options(MakeRight(right_rows)))
                  .Filter(Ge(Attribute("condition"), Lit(100)))
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto out = plan->OutputSchema();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto sink = std::make_shared<CollectSink>(*out);
  plan->SetSink(sink);
  NodeEngine engine;
  auto id = engine.Submit(std::move(*plan));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine.RunToCompletion(*id).ok());
  // Only cell-1 rows pass the condition filter: 50 of 100.
  EXPECT_EQ(sink->RowCount(), 50u);
}

TEST(TemporalLookupJoin, WeatherStreamJoinsFleet) {
  // The canned weather stream joins every fleet position (full coverage).
  const Timestamp start = MakeTimestamp(2023, 6, 1, 8, 0, 0);
  auto weather = std::shared_ptr<Source>(
      sncb::MakeWeatherObservationStream(42, start, Hours(2)));
  TemporalLookupJoinOptions options;
  options.lookup = weather;
  options.left_key = "cell";
  options.right_key = "cell";
  options.left_time = "ts";
  options.right_time = "ts";
  options.max_age = Hours(1);
  // Left: positions mapped to weather cells.
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 60; ++i) {
    rows.push_back({Value(int64_t{i % 6}), Value(start + Minutes(i)),
                    Value(0.0)});
  }
  auto left =
      std::make_unique<MemorySource>(LeftSchema(), std::move(rows), 1, "ts");
  auto plan = Query::From(std::move(left)).JoinLookup(options).Build();
  ASSERT_TRUE(plan.ok());
  auto out = plan->OutputSchema();
  ASSERT_TRUE(out.ok());
  auto sink = std::make_shared<CountingSink>(*out);
  plan->SetSink(sink);
  NodeEngine engine;
  auto id = engine.Submit(std::move(*plan));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine.RunToCompletion(*id).ok());
  EXPECT_EQ(sink->events(), 60u);  // every position matched an observation
}

}  // namespace
}  // namespace nebulameos::nebula
