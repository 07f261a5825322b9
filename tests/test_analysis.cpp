// Tier-2 tests of the static-analysis layer (src/nebula/analysis/): each
// plan-verifier rule rejecting a malformed plan with an actionable
// diagnostic, verify-each catching a synthetic invariant-breaking rewrite
// pass at its own boundary, the Submit-time wiring, and the pipeline /
// batch / strand-ownership verifiers over compiled output.

#include <gtest/gtest.h>

#include <functional>

#include "nebula/analysis/pipeline_verifier.hpp"
#include "nebula/analysis/plan_verifier.hpp"
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

std::shared_ptr<CountingSink> EventSink() {
  return std::make_shared<CountingSink>(EventSchema());
}

// --- Plan verifier rules ----------------------------------------------------

TEST(PlanVerifier, AcceptsWellFormedPlan) {
  auto plan = Query::From(MakeSource())
                  .Filter(Gt(Attribute("value"), Lit(1.0)))
                  .Map("scaled", Mul(Attribute("value"), Lit(2.0)))
                  .To(std::make_shared<CountingSink>(
                      Schema::Build()
                          .AddInt64("key")
                          .AddTimestamp("ts")
                          .AddDouble("value")
                          .AddDouble("scaled")
                          .Finish()))
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(analysis::VerifyPlan(*plan).ok());
}

// ISSUE case 1: a dangling field reference — the filter reads a field no
// upstream operator produces.
TEST(PlanVerifier, RejectsDanglingFieldReference) {
  auto plan = Query::From(MakeSource())
                  .Filter(Gt(Attribute("nope"), Lit(1.0)))
                  .To(EventSink())
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const Status st = analysis::VerifyPlan(*plan);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("field-provenance"), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("nope"), std::string::npos) << st.message();
  // Actionable: the diagnostic names the culprit operator and its chain
  // position in Explain vocabulary.
  EXPECT_NE(st.message().find("Filter"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find("op #"), std::string::npos) << st.message();
}

// The structure rule runs the walk `Validate` runs, termination required
// for finished plans, but tolerates a sink-less chain when the caller says
// the plan is mid-rewrite.
TEST(PlanVerifier, StructureRequiresTerminationUnlessMidRewrite) {
  auto plan = Query::From(MakeSource())
                  .Filter(Gt(Attribute("value"), Lit(1.0)))
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const Status st = analysis::VerifyPlan(*plan);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("structure"), std::string::npos) << st.message();

  analysis::VerifyContext ctx;
  ctx.allow_unterminated = true;
  EXPECT_TRUE(analysis::VerifyPlan(*plan, ctx).ok());
}

// The window rule checks what `WindowAggOperator::Make` deliberately does
// not: the event-time column must carry time-typed values (TIMESTAMP or
// INT64) — windowing over a DOUBLE column is a unit bug, not a plan.
TEST(PlanVerifier, RejectsNonTimeWindowTimeField) {
  auto plan = Query::From(MakeSource())
                  .KeyBy("key")
                  .TumblingWindow(Seconds(10), "value")
                  .Aggregate({AggregateSpec::Count("n")})
                  .To(std::make_shared<CountingSink>(Schema::Build()
                                                         .AddInt64("key")
                                                         .AddTimestamp("window_start")
                                                         .AddTimestamp("window_end")
                                                         .AddInt64("n")
                                                         .Finish()))
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const Status st = analysis::VerifyPlan(*plan);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("window-wellformed"), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("value"), std::string::npos) << st.message();
}

// ISSUE case 2: non-monotone placement — a cloud-placed operator feeding
// an edge-placed one would ship the stream back down the uplink.
TEST(PlanVerifier, RejectsNonMonotonePlacement) {
  constexpr int kEdge = 2;   // train-0 in the SNCB reference topology
  constexpr int kCloud = 1;  // cloud worker
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(50));
  auto plan = Query::From(MakeSource())
                  .Filter(Gt(Attribute("value"), Lit(1.0)))
                  .Map("scaled", Mul(Attribute("value"), Lit(2.0)))
                  .To(std::make_shared<CountingSink>(
                      Schema::Build()
                          .AddInt64("key")
                          .AddTimestamp("ts")
                          .AddDouble("value")
                          .AddDouble("scaled")
                          .Finish()))
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  AnnotateEdgePushdownPlacement(&*plan, kEdge, kCloud);
  ASSERT_TRUE(plan->IsPlaced());

  analysis::VerifyContext ctx;
  ctx.topology = &topo;
  ASSERT_TRUE(analysis::VerifyPlan(*plan, ctx).ok());

  // Corrupt: Filter on the cloud, Map back on the edge — a backhop.
  plan->mutable_ops()[0]->set_placement(kCloud);
  const Status st = analysis::VerifyPlan(*plan, ctx);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("placement-soundness"), std::string::npos)
      << st.message();
  // The diagnostic carries the placement annotation in Explain vocabulary.
  EXPECT_NE(st.message().find("@node"), std::string::npos) << st.message();
}

TEST(PlanVerifier, RejectsSinkPlacedOnTheEdge) {
  constexpr int kEdge = 2;
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(50));
  auto plan = Query::From(MakeSource())
                  .Filter(Gt(Attribute("value"), Lit(1.0)))
                  .To(EventSink())
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Everything — including the sink — pinned to the train.
  AnnotateEdgePushdownPlacement(&*plan, kEdge, kEdge);
  analysis::VerifyContext ctx;
  ctx.topology = &topo;
  const Status st = analysis::VerifyPlan(*plan, ctx);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("placement-soundness"), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("ink"), std::string::npos) << st.message();
}

// ISSUE case 3: an unsafe expression offered as shared-prefix material —
// ad-hoc lambdas have unknowable cross-query semantics and never merge.
TEST(PlanVerifier, RejectsUnsafeExpressionInSharedPrefix) {
  ExprPtr lambda = MakeLambdaExpr(
      "adhoc", {Attribute("value")}, DataType::kBool,
      [](const std::vector<Value>& args) { return args[0]; });
  auto plan =
      Query::From(MakeSource()).Filter(std::move(lambda)).Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  analysis::VerifyContext ctx;
  ctx.shared_prefix = true;
  ctx.allow_unterminated = true;  // a prefix has no sink by definition
  const Status st = analysis::VerifyPlan(*plan, ctx);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("merge-safety"), std::string::npos)
      << st.message();

  // The same plan is fine as a dedicated (non-shared) query.
  analysis::VerifyContext dedicated;
  dedicated.allow_unterminated = true;
  EXPECT_TRUE(analysis::VerifyPlan(*plan, dedicated).ok());
}

TEST(PlanVerifier, OperatorMergeSafeNamesTheOffendingPayload) {
  ExprPtr lambda = MakeLambdaExpr(
      "adhoc", {Attribute("value")}, DataType::kBool,
      [](const std::vector<Value>& args) { return args[0]; });
  const FilterNode unsafe(std::move(lambda));
  std::string why;
  EXPECT_FALSE(analysis::OperatorMergeSafe(unsafe, &why));
  EXPECT_FALSE(why.empty());

  const FilterNode safe(Gt(Attribute("value"), Lit(1.0)));
  EXPECT_TRUE(analysis::OperatorMergeSafe(safe));

  const SinkNode sink(EventSink());
  why.clear();
  EXPECT_FALSE(analysis::OperatorMergeSafe(sink, &why));
  EXPECT_NE(why.find("merge"), std::string::npos) << why;
}

// ISSUE case 4: a fan-out branch whose sink declares a schema its chain
// does not deliver.
TEST(PlanVerifier, RejectsBrokenFanOutSinkSchema) {
  SplitQuery split = Query::From(MakeSource())
                         .Filter(Gt(Attribute("value"), Lit(1.0)))
                         .Split(2);
  // Branch 0 narrows to {key, value} but its sink claims the full event
  // schema — the coherence bug the verifier exists to catch.
  std::move(split[0]).Project({"key", "value"}).To(EventSink());
  std::move(split[1])
      .Project({"key"})
      .To(std::make_shared<CountingSink>(
          Schema::Build().AddInt64("key").Finish()));
  auto plan = std::move(split).Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const Status st = analysis::VerifyPlan(*plan);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("branch-schema-coherence"), std::string::npos)
      << st.message();
  // The diagnostic is branch-addressed: it names the failing branch path.
  EXPECT_NE(st.message().find("branch"), std::string::npos) << st.message();
}

// --- KeyBy rules: Validate, CompilePlan and VerifyPlan agree ---------------

using Chain = std::vector<LogicalOperatorPtr>;

LogicalOperatorPtr KeyBy(const std::string& field) {
  return std::make_unique<KeyByNode>(field);
}

LogicalOperatorPtr CountWindow(const std::string& own_key = "") {
  WindowAggOptions options;
  options.window = TumblingWindowSpec{Seconds(10)};
  options.key_field = own_key;
  options.time_field = "ts";
  options.aggregates = {AggregateSpec::Count("n")};
  return std::make_unique<WindowAggNode>(std::move(options));
}

LogicalOperatorPtr Detect(const std::string& own_key) {
  Pattern pattern;
  pattern.steps.push_back({"high", Gt(Attribute("value"), Lit(5.0))});
  pattern.key_field = own_key;
  pattern.time_field = "ts";
  return std::make_unique<CepNode>(
      std::move(pattern), std::vector<Measure>{Measure::Count("high", "n")});
}

LogicalOperatorPtr Above(double limit) {
  return std::make_unique<FilterNode>(Gt(Attribute("value"), Lit(limit)));
}

template <typename... Ops>
Chain MakeChain(Ops... ops) {
  Chain chain;
  (chain.push_back(std::move(ops)), ...);
  return chain;
}

// A plan whose chain at DAG path `at` ("", "1" or "1.0") is `chain`; every
// other leaf is an empty chain awaiting its sink.
LogicalPlan PlanWithChainAt(Chain chain, const std::string& at) {
  if (at == "1.0") {
    std::vector<FanOutNode::Branch> inner(2);
    inner[0] = std::move(chain);
    chain = MakeChain(LogicalOperatorPtr(
        std::make_unique<FanOutNode>(std::move(inner))));
  }
  if (at != "") {
    std::vector<FanOutNode::Branch> outer(2);
    outer[1] = std::move(chain);
    chain = MakeChain(LogicalOperatorPtr(
        std::make_unique<FanOutNode>(std::move(outer))));
  }
  LogicalPlan plan;
  plan.SetSource(MakeSource());
  for (LogicalOperatorPtr& op : chain) plan.Append(std::move(op));
  return plan;
}

// One row per KeyBy rule. The compiler folds a KeyBy into the window or
// CEP node right after it and refuses it anywhere else; Validate and the
// verifier, in both of the contexts `Submit` and a rewrite boundary use,
// must accept and refuse exactly the same plans. Accepted rows declare
// each sink from `OutputSchemas()`, so `branch-schema-coherence` checks
// that the verifier derives what the compiler builds.
TEST(PlanVerifier, KeyByRulesAgreeWithTheCompiler) {
  struct Row {
    std::string name;
    std::function<Chain()> chain;
    bool lowers = false;        // Validate, CompilePlan and VerifyPlan accept
    std::string key = "";       // accepted: the key column the leaf leads with
    std::string stops_at = "";  // refused: the node derivation stops at
    bool sinkless = false;      // left unterminated: only mid-rewrite accepts
  };
  const std::vector<Row> rows = {
      {.name = "KeyBy -> window",
       .chain = [] { return MakeChain(KeyBy("key"), CountWindow()); },
       .lowers = true,
       .key = "key"},
      {.name = "KeyBy wins over the window's key",
       .chain = [] { return MakeChain(KeyBy("key"), CountWindow("value")); },
       .lowers = true,
       .key = "key"},
      {.name = "the pattern's key wins over KeyBy",
       .chain = [] { return MakeChain(KeyBy("key"), Detect("value")); },
       .lowers = true,
       .key = "value"},
      {.name = "KeyBy -> Filter -> window",
       .chain =
           [] { return MakeChain(KeyBy("key"), Above(1.0), CountWindow()); },
       .stops_at = "op #1 -> Filter"},
      {.name = "KeyBy -> KeyBy -> window",
       .chain =
           [] {
             return MakeChain(KeyBy("key"), KeyBy("value"), CountWindow());
           },
       .stops_at = "op #1 -> KeyBy(value)"},
      {.name = "trailing KeyBy",
       .chain = [] { return MakeChain(Above(1.0), KeyBy("key")); },
       .sinkless = true},
  };
  for (const std::string at : {"", "1", "1.0"}) {
    for (size_t r = 0; r < rows.size(); ++r) {
      const Row& row = rows[r];
      if (at != "" && r >= 4) continue;  // branches take the first four
      SCOPED_TRACE(row.name + " at path '" + at + "'");
      LogicalPlan plan = PlanWithChainAt(row.chain(), at);
      if (!row.sinkless) {
        auto leaves = plan.OutputSchemas();
        ASSERT_EQ(leaves.ok(), row.lowers) << leaves.status().ToString();
        std::vector<std::shared_ptr<SinkOperator>> sinks;
        for (size_t leaf = 0; leaf < plan.NumLeaves(); ++leaf) {
          sinks.push_back(std::make_shared<CountingSink>(
              leaves.ok() ? (*leaves)[leaf].second : EventSchema()));
        }
        ASSERT_TRUE(plan.SetLeafSinks(std::move(sinks)).ok());
        for (size_t leaf = 0; leaves.ok() && leaf < leaves->size(); ++leaf) {
          const auto& [path, schema] = (*leaves)[leaf];
          if (path == at) {
            EXPECT_EQ(schema.field(0).name, row.key);
          }
        }
      }
      EXPECT_EQ(plan.Validate().ok(), row.lowers);
      EXPECT_EQ(CompilePlan(EventSchema(), plan).ok(), row.lowers);
      const Status verified = analysis::VerifyPlan(plan);
      EXPECT_EQ(verified.ok(), row.lowers) << verified.ToString();
      analysis::VerifyContext mid_rewrite;
      mid_rewrite.allow_unterminated = true;
      const Status relaxed = analysis::VerifyPlan(plan, mid_rewrite);
      EXPECT_EQ(relaxed.ok(), row.lowers || row.sinkless)
          << relaxed.ToString();
      if (!row.stops_at.empty()) {
        // Derivation stops where lowering stops, not at a keyed window
        // the compiler never builds.
        const std::string chain =
            at.empty() ? "root chain" : "branch '" + at + "'";
        EXPECT_NE(verified.message().find("[schema-derivation] " + chain +
                                          " " + row.stops_at),
                  std::string::npos)
            << verified.message();
      }
    }
  }
}

// --- verify-each ------------------------------------------------------------

// A rewrite pass that violates plan invariants: it appends an operator
// *after* the terminal sink, referencing a field nobody produces.
class EvilPass : public RewritePass {
 public:
  std::string name() const override { return "evil-project"; }
  Status Apply(LogicalPlan* plan, bool* changed) override {
    if (fired_) return Status::OK();
    fired_ = true;
    plan->Append(
        std::make_unique<ProjectNode>(std::vector<std::string>{"ghost"}));
    *changed = true;
    return Status::OK();
  }

 private:
  bool fired_ = false;
};

TEST(VerifyEach, CatchesBadPassAtItsOwnBoundary) {
  auto plan = Query::From(MakeSource())
                  .Filter(Gt(Attribute("value"), Lit(1.0)))
                  .To(EventSink())
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  PlanRewriter rewriter;
  rewriter.AddPass(std::make_unique<EvilPass>()).SetVerifyEach(true);
  const Status st = rewriter.Rewrite(&*plan);
  ASSERT_FALSE(st.ok());
  // LLVM -verify-each style: the failure names the pass that broke it.
  EXPECT_NE(st.message().find("verify-each"), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("evil-project"), std::string::npos)
      << st.message();
}

TEST(VerifyEach, SilentWithVerifyEachOff) {
  auto plan = Query::From(MakeSource())
                  .Filter(Gt(Attribute("value"), Lit(1.0)))
                  .To(EventSink())
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  PlanRewriter rewriter;
  rewriter.AddPass(std::make_unique<EvilPass>()).SetVerifyEach(false);
  EXPECT_TRUE(rewriter.Rewrite(&*plan).ok());
}

TEST(VerifyEach, DefaultPipelineStaysVerifierGreen) {
  auto plan = Query::From(MakeSource())
                  .Map("scaled", Mul(Attribute("value"), Lit(2.0)))
                  .Filter(Gt(Attribute("scaled"), Lit(3.0)))
                  .Project({"key", "scaled"})
                  .To(std::make_shared<CountingSink>(
                      Schema::Build().AddInt64("key").AddDouble("scaled").Finish()))
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  OptimizerOptions options;
  options.verify_each = true;
  PlanRewriter rewriter = PlanRewriter::Default(options);
  EXPECT_TRUE(rewriter.Rewrite(&*plan).ok());
  EXPECT_TRUE(analysis::VerifyPlan(*plan).ok());
}

// Submit-time wiring: the engine refuses a malformed plan when
// verify-each is on, quoting the rule.
TEST(VerifyEach, EngineSubmitRejectsMalformedPlan) {
  SplitQuery split = Query::From(MakeSource()).Split(2);
  std::move(split[0]).Project({"key", "value"}).To(EventSink());
  std::move(split[1]).Filter(Gt(Attribute("value"), Lit(1.0))).To(EventSink());
  auto plan = std::move(split).Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  EngineOptions options;
  options.optimizer.verify_each = true;
  NodeEngine engine(options);
  auto id = engine.Submit(std::move(*plan));
  ASSERT_FALSE(id.ok());
  EXPECT_NE(id.status().message().find("branch-schema-coherence"),
            std::string::npos)
      << id.status().message();
}

// --- Pipeline / batch / strand verifiers ------------------------------------

TEST(PipelineVerifier, AcceptsCompiledPlanAndCatchesCorruption) {
  auto plan = Query::From(MakeSource())
                  .Filter(Gt(Attribute("value"), Lit(1.0)))
                  .To(EventSink())
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto pipeline = CompilePlan(EventSchema(), *plan);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  EXPECT_TRUE(analysis::VerifyPipeline(*pipeline).ok());

  // Corrupt the declared output schema: must no longer match the last
  // operator's.
  CompiledPipeline broken = std::move(*pipeline);
  broken.output_schema = Schema::Build().AddInt64("x").Finish();
  const Status st = analysis::VerifyPipeline(broken);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("schema"), std::string::npos) << st.message();
}

TEST(PipelineVerifier, RejectsDeadEndSegmentUnlessDynamicTail) {
  auto plan = Query::From(MakeSource())
                  .Filter(Gt(Attribute("value"), Lit(1.0)))
                  .To(EventSink())
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto pipeline = CompilePlan(EventSchema(), *plan);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  // A sink-less, branch-less segment is a dead end for a normal query —
  // but exactly the shape of a shared host awaiting AttachBranch.
  pipeline->sink = nullptr;
  const Status st = analysis::VerifyPipeline(*pipeline);
  ASSERT_FALSE(st.ok());

  analysis::PipelineVerifyContext ctx;
  ctx.expect_dynamic_tail = true;
  EXPECT_TRUE(analysis::VerifyPipeline(*pipeline, ctx).ok());
}

TEST(BatchVerifier, EnforcesSealedBufferAndAscendingSelection) {
  auto buf = std::make_shared<TupleBuffer>(EventSchema(), 4);
  for (int i = 0; i < 4; ++i) {
    RecordWriter w = buf->Append();
    w.SetInt64(0, i);
    w.SetInt64(1, Seconds(i));
    w.SetDouble(2, i * 1.0);
  }

  // Unsealed: the dispatch contract requires sealed buffers.
  EXPECT_FALSE(analysis::VerifyBatch(exec::Batch(buf)).ok());
  buf->Seal();
  EXPECT_TRUE(analysis::VerifyBatch(exec::Batch(buf)).ok());

  auto sel = [](std::initializer_list<uint32_t> v) {
    return std::make_shared<const exec::SelectionVector>(v);
  };
  EXPECT_TRUE(analysis::VerifyBatch(exec::Batch(buf, sel({0, 2, 3}))).ok());
  // Not strictly ascending.
  EXPECT_FALSE(analysis::VerifyBatch(exec::Batch(buf, sel({2, 1}))).ok());
  // Out of bounds.
  EXPECT_FALSE(analysis::VerifyBatch(exec::Batch(buf, sel({0, 99}))).ok());
  // Null data.
  EXPECT_FALSE(analysis::VerifyBatch(exec::Batch(nullptr)).ok());
}

TEST(StrandVerifier, RejectsSharedAndNullStrands) {
  int a = 0;
  int b = 0;
  using Owners = std::vector<std::pair<std::string, const void*>>;
  EXPECT_TRUE(analysis::VerifyStrandOwnership(Owners{{"b1", &a}, {"b2", &b}})
                  .ok());
  const Status shared =
      analysis::VerifyStrandOwnership(Owners{{"b1", &a}, {"b2", &a}});
  ASSERT_FALSE(shared.ok());
  EXPECT_NE(shared.message().find("b2"), std::string::npos)
      << shared.message();
  EXPECT_FALSE(
      analysis::VerifyStrandOwnership(Owners{{"b1", nullptr}}).ok());
}

}  // namespace
}  // namespace nebulameos::nebula
