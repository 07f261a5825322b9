// Tests for windowing: assigner, aggregate state, window operators
// (tumbling/sliding/threshold) — the paper's window extensions.

#include <gtest/gtest.h>

#include "nebula/operators.hpp"

namespace nebulameos::nebula {
namespace {

Schema EventSchema() {
  return Schema::Build()
      .AddInt64("key")
      .AddTimestamp("ts")
      .AddDouble("value")
      .Finish();
}

// Feeds rows through an operator and collects emitted rows.
class WindowHarness {
 public:
  explicit WindowHarness(OperatorPtr op) : op_(std::move(op)) {
    EXPECT_TRUE(op_->Open(&ctx_).ok());
  }

  void Feed(std::initializer_list<std::tuple<int64_t, Timestamp, double>> rows) {
    auto buf = std::make_shared<TupleBuffer>(EventSchema(), rows.size());
    for (const auto& [key, ts, value] : rows) {
      RecordWriter w = buf->Append();
      w.SetInt64(0, key);
      w.SetInt64(1, ts);
      w.SetDouble(2, value);
    }
    EXPECT_TRUE(op_->ProcessBatch(exec::SealedBatch(buf), collector_).ok());
  }

  void Finish() { EXPECT_TRUE(op_->Finish(collector_).ok()); }

  // Stored callable: Operator::BatchEmitFn is a non-owning FunctionRef, so
  // the referenced callable must outlive the ProcessBatch/Finish call.
  std::function<void(const exec::Batch&)> MakeCollector() {
    return [this](const exec::Batch& out) {
      for (size_t i = 0; i < out.NumRows(); ++i) {
        const RecordView rec = out.data->At(out.RowAt(i));
        std::vector<Value> row;
        for (size_t f = 0; f < out.data->schema().num_fields(); ++f) {
          switch (out.data->schema().field(f).type) {
            case DataType::kBool:
              row.emplace_back(rec.GetBool(f));
              break;
            case DataType::kInt64:
            case DataType::kTimestamp:
              row.emplace_back(rec.GetInt64(f));
              break;
            case DataType::kDouble:
              row.emplace_back(rec.GetDouble(f));
              break;
            default:
              row.emplace_back(rec.GetText(f));
          }
        }
        rows_.push_back(std::move(row));
      }
    };
  }

  const std::vector<std::vector<Value>>& rows() const { return rows_; }
  Operator* op() { return op_.get(); }

 private:
  ExecutionContext ctx_;
  OperatorPtr op_;
  std::vector<std::vector<Value>> rows_;
  std::function<void(const exec::Batch&)> collector_ = MakeCollector();
};

TEST(WindowAssigner, TumblingSingleWindow) {
  auto assigner = WindowAssigner::Make(TumblingWindowSpec{Seconds(10)});
  ASSERT_TRUE(assigner.ok());
  std::vector<Timestamp> starts;
  assigner->AssignWindows(Seconds(25), &starts);
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts[0], Seconds(20));
  // Exactly on a boundary belongs to the window starting there.
  assigner->AssignWindows(Seconds(30), &starts);
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts[0], Seconds(30));
}

TEST(WindowAssigner, SlidingMultipleWindows) {
  auto assigner =
      WindowAssigner::Make(SlidingWindowSpec{Seconds(10), Seconds(5)});
  ASSERT_TRUE(assigner.ok());
  std::vector<Timestamp> starts;
  assigner->AssignWindows(Seconds(12), &starts);
  // Windows [10,20) and [5,15) contain t=12.
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts[0], Seconds(10));
  EXPECT_EQ(starts[1], Seconds(5));
}

TEST(WindowAssigner, Validation) {
  EXPECT_FALSE(WindowAssigner::Make(TumblingWindowSpec{0}).ok());
  EXPECT_FALSE(
      WindowAssigner::Make(SlidingWindowSpec{Seconds(5), Seconds(10)}).ok());
  EXPECT_FALSE(WindowAssigner::Make(ThresholdWindowSpec{}).ok());
}

TEST(AggState, AllKinds) {
  AggState state;
  state.Add(3.0, 10);
  state.Add(1.0, 20);
  state.Add(5.0, 30);
  EXPECT_DOUBLE_EQ(state.Result(AggKind::kCount), 3.0);
  EXPECT_DOUBLE_EQ(state.Result(AggKind::kSum), 9.0);
  EXPECT_DOUBLE_EQ(state.Result(AggKind::kAvg), 3.0);
  EXPECT_DOUBLE_EQ(state.Result(AggKind::kMin), 1.0);
  EXPECT_DOUBLE_EQ(state.Result(AggKind::kMax), 5.0);
  EXPECT_DOUBLE_EQ(state.Result(AggKind::kFirst), 3.0);
  EXPECT_DOUBLE_EQ(state.Result(AggKind::kLast), 5.0);
}

TEST(AggState, FirstLastByEventTime) {
  AggState state;
  state.Add(3.0, 30);  // arrives first but is temporally last
  state.Add(1.0, 10);
  EXPECT_DOUBLE_EQ(state.Result(AggKind::kFirst), 1.0);
  EXPECT_DOUBLE_EQ(state.Result(AggKind::kLast), 3.0);
}

WindowAggOptions TumblingOptions(Duration size) {
  WindowAggOptions opts;
  opts.key_field = "key";
  opts.time_field = "ts";
  opts.window = TumblingWindowSpec{size};
  opts.aggregates = {AggregateSpec::Avg("value", "avg_value"),
                     AggregateSpec::Count("n")};
  return opts;
}

TEST(WindowAggOperator, TumblingKeyedAggregation) {
  auto op = WindowAggOperator::Make(EventSchema(), TumblingOptions(Seconds(10)));
  ASSERT_TRUE(op.ok()) << op.status().ToString();
  WindowHarness h(std::move(*op));
  h.Feed({{1, Seconds(1), 2.0},
          {1, Seconds(2), 4.0},
          {2, Seconds(3), 10.0},
          {1, Seconds(12), 6.0}});
  h.Finish();
  // Expected panes: (key=1, [0,10)) avg 3 n 2; (key=2, [0,10)) avg 10 n 1;
  // (key=1, [10,20)) avg 6 n 1 — emitted in (window, key) order.
  ASSERT_EQ(h.rows().size(), 3u);
  EXPECT_EQ(ValueAsInt64(h.rows()[0][0]), 1);
  EXPECT_EQ(ValueAsInt64(h.rows()[0][1]), 0);            // window_start
  EXPECT_EQ(ValueAsInt64(h.rows()[0][2]), Seconds(10));  // window_end
  EXPECT_DOUBLE_EQ(ValueAsDouble(h.rows()[0][3]), 3.0);
  EXPECT_EQ(ValueAsInt64(h.rows()[0][4]), 2);
  EXPECT_EQ(ValueAsInt64(h.rows()[1][0]), 2);
  EXPECT_DOUBLE_EQ(ValueAsDouble(h.rows()[1][3]), 10.0);
  EXPECT_EQ(ValueAsInt64(h.rows()[2][0]), 1);
  EXPECT_DOUBLE_EQ(ValueAsDouble(h.rows()[2][3]), 6.0);
}

TEST(WindowAggOperator, WatermarkFiresClosedPanes) {
  auto op = WindowAggOperator::Make(EventSchema(), TumblingOptions(Seconds(10)));
  ASSERT_TRUE(op.ok());
  WindowHarness h(std::move(*op));
  h.Feed({{1, Seconds(1), 2.0}});
  EXPECT_TRUE(h.rows().empty());  // window still open
  h.Feed({{1, Seconds(11), 4.0}});
  // Watermark = 11s > window end 10s: the first pane fires without Finish.
  ASSERT_EQ(h.rows().size(), 1u);
  EXPECT_DOUBLE_EQ(ValueAsDouble(h.rows()[0][3]), 2.0);
  h.Finish();
  EXPECT_EQ(h.rows().size(), 2u);
}

TEST(WindowAggOperator, SlidingOverlapCountsTwice) {
  WindowAggOptions opts = TumblingOptions(0);
  opts.window = SlidingWindowSpec{Seconds(10), Seconds(5)};
  auto op = WindowAggOperator::Make(EventSchema(), opts);
  ASSERT_TRUE(op.ok());
  WindowHarness h(std::move(*op));
  h.Feed({{1, Seconds(7), 2.0}});
  h.Finish();
  // Event at 7s belongs to windows [0,10) and [5,15).
  ASSERT_EQ(h.rows().size(), 2u);
  EXPECT_EQ(ValueAsInt64(h.rows()[0][1]), 0);
  EXPECT_EQ(ValueAsInt64(h.rows()[1][1]), Seconds(5));
}

TEST(WindowAggOperator, GlobalWindowWithoutKey) {
  WindowAggOptions opts;
  opts.time_field = "ts";
  opts.window = TumblingWindowSpec{Seconds(10)};
  opts.aggregates = {AggregateSpec::Sum("value", "total")};
  auto op = WindowAggOperator::Make(EventSchema(), opts);
  ASSERT_TRUE(op.ok());
  WindowHarness h(std::move(*op));
  h.Feed({{1, Seconds(1), 2.0}, {2, Seconds(2), 3.0}});
  h.Finish();
  ASSERT_EQ(h.rows().size(), 1u);
  // Unkeyed output: window_start, window_end, total.
  EXPECT_DOUBLE_EQ(ValueAsDouble(h.rows()[0][2]), 5.0);
}

TEST(WindowAggOperator, Validation) {
  WindowAggOptions opts = TumblingOptions(Seconds(10));
  opts.time_field = "";
  EXPECT_FALSE(WindowAggOperator::Make(EventSchema(), opts).ok());
  opts = TumblingOptions(Seconds(10));
  opts.key_field = "missing";
  EXPECT_FALSE(WindowAggOperator::Make(EventSchema(), opts).ok());
  opts = TumblingOptions(Seconds(10));
  opts.window = ThresholdWindowSpec{Lit(true), 0};
  EXPECT_FALSE(WindowAggOperator::Make(EventSchema(), opts).ok());
  opts = TumblingOptions(Seconds(10));
  opts.aggregates = {AggregateSpec::Avg("missing", "x")};
  EXPECT_FALSE(WindowAggOperator::Make(EventSchema(), opts).ok());
}

ThresholdWindowOptions ThresholdOptions(double threshold,
                                        Duration min_duration) {
  ThresholdWindowOptions opts;
  opts.predicate = Gt(Attribute("value"), Lit(threshold));
  opts.min_duration = min_duration;
  opts.key_field = "key";
  opts.time_field = "ts";
  opts.aggregates = {AggregateSpec::Max("value", "peak"),
                     AggregateSpec::Count("n")};
  return opts;
}

TEST(ThresholdWindowOperator, OpensAndClosesOnPredicate) {
  auto op = ThresholdWindowOperator::Make(EventSchema(),
                                          ThresholdOptions(5.0, 0));
  ASSERT_TRUE(op.ok()) << op.status().ToString();
  WindowHarness h(std::move(*op));
  h.Feed({{1, Seconds(1), 3.0},    // below: no window
          {1, Seconds(2), 7.0},    // opens
          {1, Seconds(3), 9.0},    // extends
          {1, Seconds(4), 2.0},    // closes -> emit
          {1, Seconds(5), 8.0}});  // reopens (still open at end)
  ASSERT_EQ(h.rows().size(), 1u);
  EXPECT_EQ(ValueAsInt64(h.rows()[0][1]), Seconds(2));  // window_start
  EXPECT_EQ(ValueAsInt64(h.rows()[0][2]), Seconds(3));  // window_end
  EXPECT_DOUBLE_EQ(ValueAsDouble(h.rows()[0][3]), 9.0);
  EXPECT_EQ(ValueAsInt64(h.rows()[0][4]), 2);
  h.Finish();  // flushes the reopened window
  ASSERT_EQ(h.rows().size(), 2u);
  EXPECT_EQ(ValueAsInt64(h.rows()[1][1]), Seconds(5));
}

TEST(ThresholdWindowOperator, MinDurationFilters) {
  auto op = ThresholdWindowOperator::Make(EventSchema(),
                                          ThresholdOptions(5.0, Seconds(5)));
  ASSERT_TRUE(op.ok());
  WindowHarness h(std::move(*op));
  // A 1-second burst: too short.
  h.Feed({{1, Seconds(1), 7.0}, {1, Seconds(2), 3.0}});
  EXPECT_TRUE(h.rows().empty());
  // A 6-second run: long enough.
  h.Feed({{1, Seconds(10), 7.0},
          {1, Seconds(13), 8.0},
          {1, Seconds(16), 9.0},
          {1, Seconds(17), 1.0}});
  ASSERT_EQ(h.rows().size(), 1u);
  EXPECT_EQ(ValueAsInt64(h.rows()[0][1]), Seconds(10));
  EXPECT_EQ(ValueAsInt64(h.rows()[0][2]), Seconds(16));
}

TEST(ThresholdWindowOperator, PerKeyIndependence) {
  auto op = ThresholdWindowOperator::Make(EventSchema(),
                                          ThresholdOptions(5.0, 0));
  ASSERT_TRUE(op.ok());
  WindowHarness h(std::move(*op));
  h.Feed({{1, Seconds(1), 7.0},
          {2, Seconds(2), 9.0},
          {1, Seconds(3), 1.0},    // closes key 1 only
          {2, Seconds(4), 9.5}});  // key 2 still open
  ASSERT_EQ(h.rows().size(), 1u);
  EXPECT_EQ(ValueAsInt64(h.rows()[0][0]), 1);
  h.Finish();
  EXPECT_EQ(h.rows().size(), 2u);
}

TEST(ThresholdWindowOperator, Validation) {
  ThresholdWindowOptions opts = ThresholdOptions(5.0, 0);
  opts.predicate = nullptr;
  EXPECT_FALSE(ThresholdWindowOperator::Make(EventSchema(), opts).ok());
  opts = ThresholdOptions(5.0, 0);
  opts.time_field = "missing";
  EXPECT_FALSE(ThresholdWindowOperator::Make(EventSchema(), opts).ok());
}

// A custom aggregator counting records (plugin hook check).
class CountingCustomAgg : public CustomAggregator {
 public:
  void Add(const RecordView&, Timestamp) override { ++count_; }
  std::vector<Field> OutputFields() const override {
    return {{"custom_count", DataType::kInt64}};
  }
  void WriteResult(RecordWriter* out, size_t first_index) override {
    out->SetInt64(first_index, count_);
  }
  Status Bind(const Schema&) override { return Status::OK(); }

 private:
  int64_t count_ = 0;
};

TEST(WindowAggOperator, CustomAggregatorExtendsOutput) {
  WindowAggOptions opts = TumblingOptions(Seconds(10));
  opts.custom_aggregators = {
      []() { return std::make_unique<CountingCustomAgg>(); }};
  auto op = WindowAggOperator::Make(EventSchema(), opts);
  ASSERT_TRUE(op.ok());
  EXPECT_TRUE((*op)->output_schema().HasField("custom_count"));
  WindowHarness h(std::move(*op));
  h.Feed({{1, Seconds(1), 2.0}, {1, Seconds(2), 4.0}});
  h.Finish();
  ASSERT_EQ(h.rows().size(), 1u);
  EXPECT_EQ(ValueAsInt64(h.rows()[0].back()), 2);
}

}  // namespace
}  // namespace nebulameos::nebula
