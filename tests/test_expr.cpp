// Tests for the expression framework (src/nebula/expr) — the engine's
// plugin mechanism.

#include <gtest/gtest.h>

#include "nebula/expr.hpp"

namespace nebulameos::nebula {
namespace {

Schema TestSchema() {
  return Schema::Build()
      .AddInt64("id")
      .AddDouble("speed")
      .AddBool("alert")
      .AddText16("name")
      .AddTimestamp("ts")
      .Finish();
}

// One-record buffer for evaluation.
class ExprTest : public ::testing::Test {
 protected:
  ExprTest() : buffer_(TestSchema(), 1) {
    RecordWriter w = buffer_.Append();
    w.SetInt64(0, 7);
    w.SetDouble(1, 27.5);
    w.SetBool(2, true);
    w.SetText(3, "ic-3");
    w.SetInt64(4, 1'000'000);
  }

  Value Eval(const ExprPtr& e) {
    Status s = e->Bind(buffer_.schema());
    EXPECT_TRUE(s.ok()) << s.ToString();
    return e->Eval(buffer_.At(0));
  }

  TupleBuffer buffer_;
};

TEST_F(ExprTest, AttributeReadsTypedFields) {
  EXPECT_EQ(ValueAsInt64(Eval(Attribute("id"))), 7);
  EXPECT_DOUBLE_EQ(ValueAsDouble(Eval(Attribute("speed"))), 27.5);
  EXPECT_TRUE(ValueAsBool(Eval(Attribute("alert"))));
  EXPECT_EQ(ValueToString(Eval(Attribute("name"))), "ic-3");
  EXPECT_EQ(ValueAsInt64(Eval(Attribute("ts"))), 1'000'000);
}

TEST_F(ExprTest, AttributeBindFailsOnUnknownField) {
  ExprPtr e = Attribute("missing");
  EXPECT_FALSE(e->Bind(buffer_.schema()).ok());
}

TEST_F(ExprTest, Literals) {
  EXPECT_EQ(ValueAsInt64(Eval(Lit(5))), 5);
  EXPECT_DOUBLE_EQ(ValueAsDouble(Eval(Lit(2.5))), 2.5);
  EXPECT_TRUE(ValueAsBool(Eval(Lit(true))));
  EXPECT_EQ(ValueToString(Eval(Lit(std::string("zone")))), "zone");
  EXPECT_TRUE(Lit(1.5)->ConstantValue().has_value());
  EXPECT_FALSE(Attribute("id")->ConstantValue().has_value());
}

TEST_F(ExprTest, ArithmeticIntAndDouble) {
  EXPECT_EQ(ValueAsInt64(Eval(Add(Lit(2), Lit(3)))), 5);
  EXPECT_EQ(Eval(Add(Lit(2), Lit(3))).index(), 1u);  // stays int64
  EXPECT_DOUBLE_EQ(ValueAsDouble(Eval(Add(Lit(2), Lit(0.5)))), 2.5);
  EXPECT_DOUBLE_EQ(ValueAsDouble(Eval(Sub(Attribute("speed"), Lit(7.5)))),
                   20.0);
  EXPECT_DOUBLE_EQ(ValueAsDouble(Eval(Mul(Attribute("speed"), Lit(2.0)))),
                   55.0);
  // Division always yields double.
  EXPECT_DOUBLE_EQ(ValueAsDouble(Eval(Div(Lit(5), Lit(2)))), 2.5);
}

TEST_F(ExprTest, DivisionByZeroYieldsZero) {
  EXPECT_DOUBLE_EQ(ValueAsDouble(Eval(Div(Lit(5.0), Lit(0.0)))), 0.0);
  EXPECT_EQ(ValueAsInt64(Eval(Arith(ArithOp::kMod, Lit(5), Lit(0)))), 0);
}

TEST_F(ExprTest, Modulo) {
  EXPECT_EQ(ValueAsInt64(Eval(Arith(ArithOp::kMod, Lit(7), Lit(3)))), 1);
}

TEST_F(ExprTest, NumericComparisons) {
  EXPECT_TRUE(ValueAsBool(Eval(Gt(Attribute("speed"), Lit(20.0)))));
  EXPECT_FALSE(ValueAsBool(Eval(Lt(Attribute("speed"), Lit(20.0)))));
  EXPECT_TRUE(ValueAsBool(Eval(Ge(Attribute("speed"), Lit(27.5)))));
  EXPECT_TRUE(ValueAsBool(Eval(Le(Attribute("id"), Lit(7)))));
  EXPECT_TRUE(ValueAsBool(Eval(Eq(Attribute("id"), Lit(7)))));
  EXPECT_TRUE(ValueAsBool(Eval(Ne(Attribute("id"), Lit(8)))));
  // Mixed int/double comparison widens.
  EXPECT_TRUE(ValueAsBool(Eval(Eq(Attribute("id"), Lit(7.0)))));
}

TEST_F(ExprTest, TextComparison) {
  EXPECT_TRUE(
      ValueAsBool(Eval(Eq(Attribute("name"), Lit(std::string("ic-3"))))));
  EXPECT_TRUE(
      ValueAsBool(Eval(Ne(Attribute("name"), Lit(std::string("ic-4"))))));
  EXPECT_TRUE(
      ValueAsBool(Eval(Lt(Attribute("name"), Lit(std::string("zz"))))));
}

TEST_F(ExprTest, LogicalOps) {
  EXPECT_TRUE(ValueAsBool(Eval(And(Attribute("alert"), Lit(true)))));
  EXPECT_FALSE(ValueAsBool(Eval(And(Attribute("alert"), Lit(false)))));
  EXPECT_TRUE(ValueAsBool(Eval(Or(Lit(false), Attribute("alert")))));
  EXPECT_FALSE(ValueAsBool(Eval(Not(Attribute("alert")))));
}

TEST_F(ExprTest, ToStringShapes) {
  EXPECT_EQ(Gt(Attribute("speed"), Lit(20.0))->ToString(), "(speed > 20)");
  EXPECT_EQ(Not(Attribute("alert"))->ToString(), "NOT alert");
  EXPECT_EQ(And(Lit(true), Lit(false))->ToString(), "(true AND false)");
}

TEST_F(ExprTest, OutputTypes) {
  EXPECT_EQ(Gt(Attribute("speed"), Lit(1.0))->output_type(), DataType::kBool);
  auto add = Add(Lit(1), Lit(2));
  ASSERT_TRUE(add->Bind(buffer_.schema()).ok());
  EXPECT_EQ(add->output_type(), DataType::kInt64);
  auto div = Div(Lit(1), Lit(2));
  ASSERT_TRUE(div->Bind(buffer_.schema()).ok());
  EXPECT_EQ(div->output_type(), DataType::kDouble);
}

TEST_F(ExprTest, BuiltinFunctions) {
  RegisterBuiltinFunctions();
  EXPECT_DOUBLE_EQ(ValueAsDouble(Eval(Fn("abs", {Lit(-3.5)}))), 3.5);
  EXPECT_DOUBLE_EQ(ValueAsDouble(Eval(Fn("sqrt", {Lit(16.0)}))), 4.0);
  EXPECT_DOUBLE_EQ(ValueAsDouble(Eval(Fn("least", {Lit(3.0), Lit(5.0)}))),
                   3.0);
  EXPECT_DOUBLE_EQ(ValueAsDouble(Eval(Fn("greatest", {Lit(3.0), Lit(5.0)}))),
                   5.0);
  EXPECT_DOUBLE_EQ(
      ValueAsDouble(Eval(Fn("clamp", {Lit(9.0), Lit(0.0), Lit(5.0)}))), 5.0);
}

TEST_F(ExprTest, RegistryLifecycle) {
  RegisterBuiltinFunctions();
  auto& reg = ExpressionRegistry::Global();
  EXPECT_TRUE(reg.Contains("abs"));
  EXPECT_FALSE(reg.Contains("no_such_fn"));
  EXPECT_FALSE(reg.Create("no_such_fn", {}).ok());
  // Duplicate registration is rejected.
  EXPECT_EQ(reg.Register("abs", [](std::vector<ExprPtr>) -> Result<ExprPtr> {
                 return Status::Internal("never");
               })
                .code(),
            StatusCode::kAlreadyExists);
  // Wrong arity surfaces from the factory.
  EXPECT_FALSE(reg.Create("abs", {Lit(1.0), Lit(2.0)}).ok());
  const auto names = reg.RegisteredNames();
  EXPECT_FALSE(names.empty());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST_F(ExprTest, LambdaFunctions) {
  Status st = RegisterLambdaFunction(
      "double_it_test", 1, DataType::kDouble,
      [](const std::vector<Value>& args) -> Value {
        return ValueAsDouble(args[0]) * 2.0;
      });
  // May already exist when tests re-run in-process; both fine.
  EXPECT_TRUE(st.ok() || st.code() == StatusCode::kAlreadyExists);
  EXPECT_DOUBLE_EQ(
      ValueAsDouble(Eval(Fn("double_it_test", {Attribute("speed")}))), 55.0);
}

TEST_F(ExprTest, FunctionComposesWithNativeNodes) {
  RegisterBuiltinFunctions();
  // abs(speed - 30) < 3  -> |27.5 - 30| = 2.5 < 3.
  ExprPtr e =
      Lt(Fn("abs", {Sub(Attribute("speed"), Lit(30.0))}), Lit(3.0));
  EXPECT_TRUE(ValueAsBool(Eval(e)));
}

// --- Common-subexpression elimination ---------------------------------------
// `PlanKernelCse`'s planning rules; test_exec_kernels runs its kernels.

TEST_F(ExprTest, PlanKernelCseLeavesUnsharedTreesAlone) {
  ExprPtr a = Gt(Attribute("speed"), Lit(10.0));
  ExprPtr b = Add(Attribute("id"), Lit(1));
  KernelCsePlan plan = PlanKernelCse({a, b});
  EXPECT_EQ(plan.num_shared, 0u);
  EXPECT_EQ(plan.cache, nullptr);
  ASSERT_EQ(plan.roots.size(), 2u);
  // Nothing shared: the exact input trees come back.
  EXPECT_EQ(plan.roots[0], a);
  EXPECT_EQ(plan.roots[1], b);
}

TEST_F(ExprTest, PlanKernelCseNeverCachesBareFieldsOrLiterals) {
  // `speed` and `1.0` each occur twice, but caching a field read or a
  // literal costs more than re-reading it.
  KernelCsePlan plan = PlanKernelCse({Add(Attribute("speed"), Lit(1.0)),
                                      Sub(Attribute("speed"), Lit(1.0))});
  EXPECT_EQ(plan.num_shared, 0u);
  EXPECT_EQ(plan.cache, nullptr);
}

TEST_F(ExprTest, PlanKernelCseNeverDescendsIntoFunctionArguments) {
  RegisterBuiltinFunctions();
  // `speed + 1.0` repeats, but only *inside* abs() calls — rebuilding the
  // enclosing function node is impossible, so nothing may be cached
  // there. The abs() subtree itself repeats at rebuildable positions and
  // is fair game.
  ExprPtr inner_only = And(Gt(Fn("abs", {Add(Attribute("speed"), Lit(1.0))}),
                              Lit(0.0)),
                           Lt(Fn("abs", {Add(Attribute("speed"), Lit(1.0))}),
                              Lit(100.0)));
  KernelCsePlan plan = PlanKernelCse({inner_only});
  EXPECT_EQ(plan.num_shared, 1u);  // the whole abs(...) subtree, nothing inside
  ASSERT_TRUE(plan.roots[0]->Bind(buffer_.schema()).ok());
  EXPECT_TRUE(ValueAsBool(plan.roots[0]->Eval(buffer_.At(0))));
  // Under two different functions the repeat is only inside arguments.
  KernelCsePlan split = PlanKernelCse(
      {Gt(Fn("abs", {Add(Attribute("speed"), Lit(1.0))}), Lit(0.0)),
       Lt(Fn("sqrt", {Add(Attribute("speed"), Lit(1.0))}), Lit(100.0))});
  EXPECT_EQ(split.num_shared, 0u);
}

TEST_F(ExprTest, ValueConversions) {
  EXPECT_DOUBLE_EQ(ValueAsDouble(Value(true)), 1.0);
  EXPECT_DOUBLE_EQ(ValueAsDouble(Value(int64_t{3})), 3.0);
  EXPECT_DOUBLE_EQ(ValueAsDouble(Value(std::string("x"))), 0.0);
  EXPECT_TRUE(ValueAsBool(Value(int64_t{1})));
  EXPECT_FALSE(ValueAsBool(Value(0.0)));
  EXPECT_TRUE(ValueAsBool(Value(std::string("x"))));
  EXPECT_FALSE(ValueAsBool(Value(std::string(""))));
  EXPECT_EQ(ValueAsInt64(Value(2.9)), 2);
  EXPECT_EQ(ValueToString(Value(true)), "true");
  EXPECT_EQ(ValueToString(Value(int64_t{5})), "5");
}

}  // namespace
}  // namespace nebulameos::nebula
