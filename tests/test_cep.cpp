// Tests for the CEP kernel (src/nebula/cep): sequences, Kleene plus,
// negation, within-bounds, measures, keyed runs.

#include <gtest/gtest.h>

#include "nebula/cep.hpp"

namespace nebulameos::nebula {
namespace {

Schema EventSchema() {
  return Schema::Build()
      .AddInt64("key")
      .AddTimestamp("ts")
      .AddDouble("value")
      .Finish();
}

class CepHarness {
 public:
  CepHarness(Pattern pattern, std::vector<Measure> measures) {
    auto op = CepOperator::Make(EventSchema(), std::move(pattern),
                                std::move(measures));
    EXPECT_TRUE(op.ok()) << op.status().ToString();
    op_ = std::move(*op);
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
        matches_.push_back(std::move(row));
      }
    };
    EXPECT_TRUE(op_->ProcessBatch(exec::SealedBatch(buf), collect).ok());
  }

  const std::vector<std::vector<Value>>& matches() const { return matches_; }
  CepOperator* op() { return static_cast<CepOperator*>(op_.get()); }

 private:
  ExecutionContext ctx_;
  OperatorPtr op_;
  std::vector<std::vector<Value>> matches_;
};

Pattern SimpleSeq(Duration within = 0) {
  Pattern p;
  p.steps = {PatternStep{"a", Gt(Attribute("value"), Lit(5.0)), false, false},
             PatternStep{"b", Lt(Attribute("value"), Lit(1.0)), false, false}};
  p.within = within;
  p.key_field = "key";
  p.time_field = "ts";
  return p;
}

TEST(Cep, MakeValidation) {
  Pattern p = SimpleSeq();
  p.steps.clear();
  EXPECT_FALSE(CepOperator::Make(EventSchema(), p, {}).ok());
  p = SimpleSeq();
  p.time_field = "";
  EXPECT_FALSE(CepOperator::Make(EventSchema(), p, {}).ok());
  p = SimpleSeq();
  p.steps.front().negated = true;
  EXPECT_FALSE(CepOperator::Make(EventSchema(), p, {}).ok());
  p = SimpleSeq();
  p.steps.back().negated = true;
  EXPECT_FALSE(CepOperator::Make(EventSchema(), p, {}).ok());
  p = SimpleSeq();
  EXPECT_FALSE(
      CepOperator::Make(EventSchema(), p,
                        {Measure::Count("unknown_step", "n")})
          .ok());
  EXPECT_FALSE(
      CepOperator::Make(EventSchema(), p,
                        {Measure::Max("a", "missing_field", "m")})
          .ok());
}

TEST(Cep, SimpleSequenceMatches) {
  CepHarness h(SimpleSeq(), {Measure::First("a", "value", "a_value"),
                             Measure::First("b", "value", "b_value")});
  h.Feed({{1, Seconds(1), 7.0},    // a
          {1, Seconds(2), 3.0},    // neither (skip-till-next-match)
          {1, Seconds(3), 0.5}});  // b -> match
  ASSERT_EQ(h.matches().size(), 1u);
  const auto& m = h.matches()[0];
  EXPECT_EQ(ValueAsInt64(m[0]), 1);           // key
  EXPECT_EQ(ValueAsInt64(m[1]), Seconds(1));  // match_start
  EXPECT_EQ(ValueAsInt64(m[2]), Seconds(3));  // match_end
  EXPECT_DOUBLE_EQ(ValueAsDouble(m[3]), 7.0);
  EXPECT_DOUBLE_EQ(ValueAsDouble(m[4]), 0.5);
}

TEST(Cep, NoMatchWithoutTrigger) {
  CepHarness h(SimpleSeq(), {});
  h.Feed({{1, Seconds(1), 3.0}, {1, Seconds(2), 4.0}});
  EXPECT_TRUE(h.matches().empty());
}

TEST(Cep, KeysAreIndependent) {
  CepHarness h(SimpleSeq(), {});
  h.Feed({{1, Seconds(1), 7.0},    // a for key 1
          {2, Seconds(2), 0.5},    // b for key 2 (no a yet: no match)
          {2, Seconds(3), 7.0},    // a for key 2
          {1, Seconds(4), 0.5},    // b for key 1 -> match key 1
          {2, Seconds(5), 0.5}});  // b for key 2 -> match key 2
  ASSERT_EQ(h.matches().size(), 2u);
  EXPECT_EQ(ValueAsInt64(h.matches()[0][0]), 1);
  EXPECT_EQ(ValueAsInt64(h.matches()[1][0]), 2);
}

TEST(Cep, WithinExpiresRuns) {
  CepHarness h(SimpleSeq(Seconds(5)), {});
  h.Feed({{1, Seconds(1), 7.0},     // a
          {1, Seconds(10), 0.5}});  // b, but 9s later: run expired
  EXPECT_TRUE(h.matches().empty());
  h.Feed({{1, Seconds(11), 7.0},    // a again
          {1, Seconds(13), 0.5}});  // within 5s -> match
  EXPECT_EQ(h.matches().size(), 1u);
}

TEST(Cep, MultipleConcurrentRuns) {
  // Two 'a' events both match with the next 'b'.
  CepHarness h(SimpleSeq(), {Measure::First("a", "value", "a_value")});
  h.Feed({{1, Seconds(1), 6.0},
          {1, Seconds(2), 8.0},
          {1, Seconds(3), 0.5}});
  ASSERT_EQ(h.matches().size(), 2u);
  EXPECT_DOUBLE_EQ(ValueAsDouble(h.matches()[0][3]), 6.0);
  EXPECT_DOUBLE_EQ(ValueAsDouble(h.matches()[1][3]), 8.0);
}

Pattern KleenePattern() {
  Pattern p;
  p.steps = {
      PatternStep{"start", Gt(Attribute("value"), Lit(5.0)), false, false},
      PatternStep{"low", Lt(Attribute("value"), Lit(1.0)), false, true},
      PatternStep{"end", Gt(Attribute("value"), Lit(5.0)), false, false}};
  p.key_field = "key";
  p.time_field = "ts";
  return p;
}

TEST(Cep, KleenePlusAccumulates) {
  CepHarness h(KleenePattern(), {Measure::Count("low", "n_low"),
                                 Measure::Min("low", "value", "min_low"),
                                 Measure::Avg("low", "value", "avg_low")});
  h.Feed({{1, Seconds(1), 7.0},    // start
          {1, Seconds(2), 0.5},    // low x1
          {1, Seconds(3), 0.3},    // low x2
          {1, Seconds(4), 0.1},    // low x3
          {1, Seconds(5), 9.0}});  // end -> match
  ASSERT_EQ(h.matches().size(), 1u);
  const auto& m = h.matches()[0];
  EXPECT_EQ(ValueAsInt64(m[3]), 3);
  EXPECT_DOUBLE_EQ(ValueAsDouble(m[4]), 0.1);
  EXPECT_NEAR(ValueAsDouble(m[5]), 0.3, 1e-9);
}

TEST(Cep, KleeneRequiresAtLeastOne) {
  CepHarness h(KleenePattern(), {});
  h.Feed({{1, Seconds(1), 7.0},    // start
          {1, Seconds(2), 9.0}});  // end-like event, but no 'low' yet:
                                   // it instead starts another run
  EXPECT_TRUE(h.matches().empty());
}

Pattern NegationPattern() {
  // a, !forbidden, c: match a→c unless a forbidden event intervenes.
  Pattern p;
  p.steps = {
      PatternStep{"a", Gt(Attribute("value"), Lit(5.0)), false, false},
      PatternStep{"forbidden", Lt(Attribute("value"), Lit(0.0)), true, false},
      PatternStep{"c", Eq(Attribute("value"), Lit(1.0)), false, false}};
  p.key_field = "key";
  p.time_field = "ts";
  return p;
}

TEST(Cep, NegationKillsRun) {
  CepHarness h(NegationPattern(), {});
  h.Feed({{1, Seconds(1), 7.0},    // a
          {1, Seconds(2), -3.0},   // forbidden -> kill
          {1, Seconds(3), 1.0}});  // c: no run alive
  EXPECT_TRUE(h.matches().empty());
}

TEST(Cep, NegationAllowsCleanSequence) {
  CepHarness h(NegationPattern(), {});
  h.Feed({{1, Seconds(1), 7.0},    // a
          {1, Seconds(2), 3.0},    // irrelevant
          {1, Seconds(3), 1.0}});  // c -> match (no forbidden seen)
  EXPECT_EQ(h.matches().size(), 1u);
}

TEST(Cep, SingleStepPatternEmitsPerEvent) {
  Pattern p;
  p.steps = {PatternStep{"hit", Gt(Attribute("value"), Lit(5.0)), false,
                         false}};
  p.key_field = "key";
  p.time_field = "ts";
  CepHarness h(p, {Measure::First("hit", "value", "v")});
  h.Feed({{1, Seconds(1), 7.0}, {1, Seconds(2), 2.0}, {1, Seconds(3), 8.0}});
  ASSERT_EQ(h.matches().size(), 2u);
  EXPECT_DOUBLE_EQ(ValueAsDouble(h.matches()[1][3]), 8.0);
}

TEST(Cep, OutputSchemaShape) {
  Pattern p = SimpleSeq();
  auto op = CepOperator::Make(EventSchema(), p,
                              {Measure::Count("a", "n_a"),
                               Measure::Last("b", "value", "last_b")});
  ASSERT_TRUE(op.ok());
  const Schema& out = (*op)->output_schema();
  ASSERT_EQ(out.num_fields(), 5u);
  EXPECT_EQ(out.field(0).name, "key");
  EXPECT_EQ(out.field(1).name, "match_start");
  EXPECT_EQ(out.field(2).name, "match_end");
  EXPECT_EQ(out.field(3).name, "n_a");
  EXPECT_EQ(out.field(3).type, DataType::kInt64);
  EXPECT_EQ(out.field(4).name, "last_b");
  EXPECT_EQ(out.field(4).type, DataType::kDouble);
}

TEST(Cep, SuppressDuplicateStartsKeepsOnePendingRun) {
  Pattern p = SimpleSeq();
  p.suppress_duplicate_starts = true;
  CepHarness h(p, {Measure::First("a", "value", "a_value")});
  h.Feed({{1, Seconds(1), 6.0},    // starts the pending run
          {1, Seconds(2), 8.0},    // suppressed (run already pending)
          {1, Seconds(3), 0.5}});  // completes exactly one match
  ASSERT_EQ(h.matches().size(), 1u);
  EXPECT_DOUBLE_EQ(ValueAsDouble(h.matches()[0][3]), 6.0);  // earliest start
  EXPECT_EQ(h.op()->ActiveRuns(), 0u);
  // After completion a new run may start again.
  h.Feed({{1, Seconds(4), 7.0}, {1, Seconds(5), 0.2}});
  EXPECT_EQ(h.matches().size(), 2u);
}

TEST(Cep, RunsTrackedAndBounded) {
  CepHarness h(SimpleSeq(), {});
  EXPECT_EQ(h.op()->ActiveRuns(), 0u);
  h.Feed({{1, Seconds(1), 7.0}, {1, Seconds(2), 8.0}});
  EXPECT_EQ(h.op()->ActiveRuns(), 2u);
  h.Feed({{1, Seconds(3), 0.5}});  // both complete
  EXPECT_EQ(h.op()->ActiveRuns(), 0u);
}

}  // namespace
}  // namespace nebulameos::nebula
