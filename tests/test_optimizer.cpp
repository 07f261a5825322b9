// Tier-2 tests of the plan optimizer: each rewrite pass in isolation
// (asserted on before/after Explain output), dependency soundness with
// unknown read sets, pass toggles, and end-to-end result equivalence of
// optimized vs. verbatim execution.

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

SourcePtr MakeSource(int n = 8) {
  return std::make_unique<MemorySource>(EventSchema(), MakeRows(n), 1, "ts");
}

// Applies one pass once and reports whether it changed the plan.
bool ApplyOnce(const RewritePassPtr& pass, LogicalPlan* plan) {
  bool changed = false;
  EXPECT_TRUE(pass->Apply(plan, &changed).ok());
  return changed;
}

// An expression that hides its reads (simulates an extension node that
// does not override ReferencedFields): passes must not move it.
class OpaquePredicate : public Expression {
 public:
  Status Bind(const Schema& schema) override {
    return inner_->Bind(schema);
  }
  Value Eval(const RecordView& rec) const override {
    return inner_->Eval(rec);
  }
  DataType output_type() const override { return DataType::kBool; }
  std::string ToString() const override { return "opaque()"; }

 private:
  ExprPtr inner_ = Gt(Attribute("value"), Lit(1.0));
};

TEST(PredicatePushdown, FilterMovesBelowIndependentMap) {
  auto plan = Query::From(MakeSource())
                  .Map("scaled", Mul(Attribute("value"), Lit(2.0)))
                  .Filter(Gt(Attribute("value"), Lit(3.0)))
                  .Build();
  ASSERT_TRUE(plan.ok());
  const std::string before = plan->Explain();
  EXPECT_LT(before.find("Map("), before.find("Filter(")) << before;

  auto pass = MakePredicatePushdownPass();
  EXPECT_TRUE(ApplyOnce(pass, &*plan));
  const std::string after = plan->Explain();
  EXPECT_LT(after.find("Filter("), after.find("Map(")) << after;
  // Second application is a no-op (fixpoint).
  EXPECT_FALSE(ApplyOnce(pass, &*plan));
}

TEST(PredicatePushdown, FilterStaysAboveMapThatFeedsIt) {
  auto plan = Query::From(MakeSource())
                  .Map("scaled", Mul(Attribute("value"), Lit(2.0)))
                  .Filter(Gt(Attribute("scaled"), Lit(3.0)))
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto pass = MakePredicatePushdownPass();
  EXPECT_FALSE(ApplyOnce(pass, &*plan));
  const std::string after = plan->Explain();
  EXPECT_LT(after.find("Map("), after.find("Filter(")) << after;
}

TEST(PredicatePushdown, FilterMovesBelowProjection) {
  auto plan = Query::From(MakeSource())
                  .Project({"key", "value"})
                  .Filter(Gt(Attribute("value"), Lit(3.0)))
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto pass = MakePredicatePushdownPass();
  EXPECT_TRUE(ApplyOnce(pass, &*plan));
  const std::string after = plan->Explain();
  EXPECT_LT(after.find("Filter("), after.find("Project(")) << after;
}

TEST(PredicatePushdown, OpaquePredicateIsNeverMoved) {
  auto plan = Query::From(MakeSource())
                  .Map("scaled", Mul(Attribute("value"), Lit(2.0)))
                  .Filter(std::make_shared<OpaquePredicate>())
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto pass = MakePredicatePushdownPass();
  EXPECT_FALSE(ApplyOnce(pass, &*plan));
  const std::string after = plan->Explain();
  EXPECT_LT(after.find("Map("), after.find("Filter(")) << after;
}

// Right side of a lookup join: key/ts match the left stream, plus one
// payload field. `payload_name` lets tests provoke a collision with a
// left field.
SourcePtr MakeLookupSide(const std::string& payload_name = "weather") {
  Schema schema = Schema::Build()
                      .AddInt64("key")
                      .AddTimestamp("ts")
                      .AddDouble(payload_name)
                      .Finish();
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 3; ++i) {
    rows.push_back({Value(int64_t{i}), Value(Seconds(i)), Value(0.5 * i)});
  }
  return std::make_unique<MemorySource>(schema, std::move(rows), 1, "ts");
}

TemporalLookupJoinOptions LookupOptions(
    const std::string& payload_name = "weather") {
  TemporalLookupJoinOptions options;
  options.lookup = std::shared_ptr<Source>(MakeLookupSide(payload_name));
  options.left_key = "key";
  options.right_key = "key";
  options.left_time = "ts";
  options.right_time = "ts";
  options.max_age = Minutes(30);
  return options;
}

TEST(PredicatePushdown, ProbeOnlyFilterMovesBelowLookupJoin) {
  auto plan = Query::From(MakeSource())
                  .JoinLookup(LookupOptions())
                  .Filter(Gt(Attribute("value"), Lit(3.0)))
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const std::string before = plan->Explain();
  EXPECT_LT(before.find("TemporalLookupJoin("), before.find("Filter("))
      << before;

  auto pass = MakePredicatePushdownPass();
  EXPECT_TRUE(ApplyOnce(pass, &*plan));
  const std::string after = plan->Explain();
  EXPECT_LT(after.find("Filter("), after.find("TemporalLookupJoin(")) << after;
  EXPECT_FALSE(ApplyOnce(pass, &*plan));
}

TEST(PredicatePushdown, FilterOnJoinPayloadStaysAboveLookupJoin) {
  auto plan = Query::From(MakeSource())
                  .JoinLookup(LookupOptions())
                  .Filter(Gt(Attribute("weather"), Lit(0.0)))
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto pass = MakePredicatePushdownPass();
  EXPECT_FALSE(ApplyOnce(pass, &*plan));
  const std::string after = plan->Explain();
  EXPECT_LT(after.find("TemporalLookupJoin("), after.find("Filter(")) << after;
}

TEST(PredicatePushdown, FilterOnCollisionRenamedFieldStaysAboveLookupJoin) {
  // Right payload collides with the left's `value`, so the join emits it
  // as `r_value`; a filter reading it depends on the join.
  auto plan = Query::From(MakeSource())
                  .JoinLookup(LookupOptions("value"))
                  .Filter(Gt(Attribute("r_value"), Lit(0.0)))
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto pass = MakePredicatePushdownPass();
  EXPECT_FALSE(ApplyOnce(pass, &*plan));
  const std::string after = plan->Explain();
  EXPECT_LT(after.find("TemporalLookupJoin("), after.find("Filter(")) << after;
}

TEST(FilterFusion, AdjacentFiltersAndCombine) {
  auto plan = Query::From(MakeSource())
                  .Filter(Gt(Attribute("value"), Lit(1.0)))
                  .Filter(Lt(Attribute("value"), Lit(6.0)))
                  .Build();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->ops().size(), 2u);

  auto pass = MakeFilterFusionPass();
  EXPECT_TRUE(ApplyOnce(pass, &*plan));
  ASSERT_EQ(plan->ops().size(), 1u);
  const std::string after = plan->Explain();
  EXPECT_NE(after.find("Filter(((value > 1) AND (value < 6)))"),
            std::string::npos)
      << after;
}

TEST(FilterFusion, TripleFilterCollapsesToOne) {
  auto plan = Query::From(MakeSource())
                  .Filter(Gt(Attribute("value"), Lit(1.0)))
                  .Filter(Lt(Attribute("value"), Lit(6.0)))
                  .Filter(Gt(Attribute("key"), Lit(0)))
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto pass = MakeFilterFusionPass();
  EXPECT_TRUE(ApplyOnce(pass, &*plan));
  EXPECT_EQ(plan->ops().size(), 1u);
}

TEST(MapFusion, IndependentMapsMerge) {
  auto plan = Query::From(MakeSource())
                  .Map("a", Mul(Attribute("value"), Lit(2.0)))
                  .Map("b", Add(Attribute("value"), Lit(1.0)))
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto pass = MakeMapFusionPass();
  EXPECT_TRUE(ApplyOnce(pass, &*plan));
  ASSERT_EQ(plan->ops().size(), 1u);
  const std::string after = plan->Explain();
  EXPECT_NE(after.find("Map(a := (value * 2), b := (value + 1))"),
            std::string::npos)
      << after;
}

TEST(MapFusion, DependentMapsStaySeparate) {
  // The Q4 shape: the second map reads the first map's output.
  auto plan = Query::From(MakeSource())
                  .Map("a", Mul(Attribute("value"), Lit(2.0)))
                  .Map("b", Add(Attribute("a"), Lit(1.0)))
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto pass = MakeMapFusionPass();
  EXPECT_FALSE(ApplyOnce(pass, &*plan));
  EXPECT_EQ(plan->ops().size(), 2u);
}

TEST(MapFusion, RewritingMapsStaySeparate) {
  // The second map overwrites a field the first one wrote.
  auto plan = Query::From(MakeSource())
                  .Map("a", Mul(Attribute("value"), Lit(2.0)))
                  .Map("a", Add(Attribute("value"), Lit(1.0)))
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto pass = MakeMapFusionPass();
  EXPECT_FALSE(ApplyOnce(pass, &*plan));
  EXPECT_EQ(plan->ops().size(), 2u);
}

TEST(ProjectionPushdown, DeadMapFieldsAreEliminated) {
  auto plan = Query::From(MakeSource())
                  .MapAll({{"kept", Mul(Attribute("value"), Lit(2.0))},
                           {"dead", Add(Attribute("value"), Lit(1.0))}})
                  .Project({"key", "kept"})
                  .Build();
  ASSERT_TRUE(plan.ok());
  const std::string before = plan->Explain();
  EXPECT_NE(before.find("dead :="), std::string::npos) << before;

  auto pass = MakeProjectionPushdownPass();
  EXPECT_TRUE(ApplyOnce(pass, &*plan));
  const std::string after = plan->Explain();
  EXPECT_EQ(after.find("dead :="), std::string::npos) << after;
  EXPECT_NE(after.find("kept :="), std::string::npos) << after;
}

TEST(ProjectionPushdown, FullyDeadMapIsRemoved) {
  auto plan = Query::From(MakeSource())
                  .Map("dead", Mul(Attribute("value"), Lit(2.0)))
                  .Project({"key", "value"})
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto pass = MakeProjectionPushdownPass();
  EXPECT_TRUE(ApplyOnce(pass, &*plan));
  const std::string after = plan->Explain();
  EXPECT_EQ(after.find("Map("), std::string::npos) << after;
  ASSERT_EQ(plan->ops().size(), 1u);
  EXPECT_EQ(plan->ops()[0]->kind(), LogicalOperator::Kind::kProject);
}

TEST(ProjectionPushdown, StackedDeadMapsVanishInOneApplication) {
  // After removing a fully-dead map the projection must be re-examined
  // against its new neighbour, so a chain of dead maps drains in a single
  // Apply instead of leaning on the rewriter's outer fixpoint loop.
  auto plan = Query::From(MakeSource())
                  .Map("dead1", Mul(Attribute("value"), Lit(2.0)))
                  .Map("dead2", Add(Attribute("value"), Lit(1.0)))
                  .Project({"key", "value"})
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto pass = MakeProjectionPushdownPass();
  EXPECT_TRUE(ApplyOnce(pass, &*plan));
  ASSERT_EQ(plan->ops().size(), 1u);
  EXPECT_EQ(plan->ops()[0]->kind(), LogicalOperator::Kind::kProject);
  EXPECT_FALSE(ApplyOnce(pass, &*plan));
}

TEST(ProjectionPushdown, AdjacentProjectionsCollapse) {
  auto plan = Query::From(MakeSource())
                  .Project({"key", "ts", "value"})
                  .Project({"value"})
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto pass = MakeProjectionPushdownPass();
  EXPECT_TRUE(ApplyOnce(pass, &*plan));
  ASSERT_EQ(plan->ops().size(), 1u);
  EXPECT_NE(plan->Explain().find("Project(value)"), std::string::npos)
      << plan->Explain();
}

TEST(ConstantFolding, PreEvaluatesConstantSubtrees) {
  // The ROADMAP example: Mul(Lit(3.6), Lit(2)) folds to one literal before
  // lowering, so no per-record arithmetic is spent on it.
  auto plan = Query::From(MakeSource())
                  .Map("scaled", Mul(Attribute("value"),
                                     Mul(Lit(3.6), Lit(2))))
                  .Filter(Gt(Add(Lit(1.0), Lit(2.0)), Lit(0.0)))
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto pass = MakeConstantFoldingPass();
  EXPECT_TRUE(ApplyOnce(pass, &*plan));
  const std::string after = plan->Explain();
  // The map's constant factor is a single literal now.
  EXPECT_EQ(after.find("3.6"), std::string::npos) << after;
  EXPECT_NE(after.find("scaled := (value * 7.2)"), std::string::npos) << after;
  // The always-true filter disappeared entirely.
  EXPECT_EQ(after.find("Filter"), std::string::npos) << after;
  // Fixpoint: a second application is a no-op.
  EXPECT_FALSE(ApplyOnce(pass, &*plan));
}

TEST(ConstantFolding, ShortCircuitsConstantConjunctSides) {
  auto plan = Query::From(MakeSource())
                  .Filter(And(Gt(Attribute("value"), Lit(1.0)),
                              Lt(Lit(1.0), Lit(2.0))))
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto pass = MakeConstantFoldingPass();
  EXPECT_TRUE(ApplyOnce(pass, &*plan));
  // The always-true conjunct dropped out; the data-dependent side stays.
  EXPECT_NE(plan->Explain().find("Filter((value > 1))"), std::string::npos)
      << plan->Explain();
}

TEST(ConstantFolding, IntegerSemanticsArePreserved) {
  // 7 / 2 evaluates as a double at runtime (kDiv never stays integral);
  // folding must produce the same 3.5, not 3.
  auto plan = Query::From(MakeSource())
                  .Map("q", Div(Lit(7), Lit(2)))
                  .Map("m", Mul(Lit(3), Lit(4)))
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto pass = MakeConstantFoldingPass();
  EXPECT_TRUE(ApplyOnce(pass, &*plan));
  const std::string after = plan->Explain();
  EXPECT_NE(after.find("q := 3.5"), std::string::npos) << after;
  EXPECT_NE(after.find("m := 12"), std::string::npos) << after;
}

TEST(ConstantFolding, LeavesFunctionExpressionsAlone) {
  // Extension/function calls may read global state (geofence catalogs);
  // they never fold, even over constant arguments.
  RegisterBuiltinFunctions();
  auto plan = Query::From(MakeSource())
                  .Map("a", Fn("abs", {Lit(-3.0)}))
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto pass = MakeConstantFoldingPass();
  EXPECT_FALSE(ApplyOnce(pass, &*plan));
  EXPECT_NE(plan->Explain().find("abs("), std::string::npos)
      << plan->Explain();
}

TEST(PlanRewriter, DefaultPipelineReachesFixpoint) {
  // Map feeds nothing downstream that survives the projection; filters
  // split across the maps fuse once pushdown brings them together.
  auto plan = Query::From(MakeSource())
                  .Filter(Gt(Attribute("value"), Lit(0.0)))
                  .Map("scaled", Mul(Attribute("value"), Lit(2.0)))
                  .Filter(Lt(Attribute("value"), Lit(6.0)))
                  .Project({"key", "value"})
                  .Build();
  ASSERT_TRUE(plan.ok());
  const PlanRewriter rewriter = PlanRewriter::Default();
  ASSERT_TRUE(rewriter.Rewrite(&*plan).ok());
  const std::string after = plan->Explain();
  // Both filters fused into one AND-filter; the dead map is gone.
  EXPECT_NE(after.find("Filter(((value > 0) AND (value < 6)))"),
            std::string::npos)
      << after;
  EXPECT_EQ(after.find("Map("), std::string::npos) << after;
}

TEST(PlanRewriter, TogglesDisableIndividualPasses) {
  // A rewriter without filter fusion (or pushdown) leaves two filters be.
  PlanRewriter rewriter;
  rewriter.AddPass(MakeMapFusionPass()).AddPass(MakeProjectionPushdownPass());
  EXPECT_EQ(rewriter.NumPasses(), 2u);

  auto plan = Query::From(MakeSource())
                  .Filter(Gt(Attribute("value"), Lit(1.0)))
                  .Filter(Lt(Attribute("value"), Lit(6.0)))
                  .Build();
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(rewriter.Rewrite(&*plan).ok());
  EXPECT_EQ(plan->ops().size(), 2u);  // filters untouched
}

TEST(PlanRewriter, DisabledRewriterIsEmpty) {
  OptimizerOptions options;
  options.enable = false;
  EXPECT_EQ(PlanRewriter::Default(options).NumPasses(), 0u);
}

TEST(PlanRewriter, OptimizedAndVerbatimRunsAgree) {
  // The same query, submitted through an optimizing and a verbatim engine,
  // must produce identical rows.
  auto build = [] {
    return Query::From(MakeSource(30))
        .Map("scaled", Mul(Attribute("value"), Lit(2.0)))
        .Map("shifted", Add(Attribute("value"), Lit(10.0)))
        .Filter(Gt(Attribute("value"), Lit(4.0)))
        .Filter(Lt(Attribute("value"), Lit(20.0)))
        .Project({"key", "scaled"})
        .Build();
  };
  auto run = [&](bool optimize) {
    EngineOptions options;
    options.optimizer.enable = optimize;
    NodeEngine engine(options);
    auto plan = build();
    EXPECT_TRUE(plan.ok());
    auto out = plan->OutputSchema();
    EXPECT_TRUE(out.ok());
    auto sink = std::make_shared<CollectSink>(*out);
    plan->SetSink(sink);
    auto id = engine.Submit(std::move(*plan));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_TRUE(engine.RunToCompletion(*id).ok());
    return sink->Rows();
  };
  const auto optimized = run(true);
  const auto verbatim = run(false);
  ASSERT_EQ(optimized.size(), verbatim.size());
  ASSERT_EQ(optimized.size(), 15u);  // values 5..19
  for (size_t i = 0; i < optimized.size(); ++i) {
    ASSERT_EQ(optimized[i].size(), verbatim[i].size());
    for (size_t j = 0; j < optimized[i].size(); ++j) {
      EXPECT_EQ(ValueAsDouble(optimized[i][j]), ValueAsDouble(verbatim[i][j]));
    }
  }
}

}  // namespace
}  // namespace nebulameos::nebula
