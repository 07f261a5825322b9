// Tier-2 tests of the compiled-kernel execution layer: expression kernels
// matching the interpreter bit-for-bit, CompilePlan fusing Filter→Map→
// Project runs into one BatchKernelOperator, zero-copy selection-vector
// flow (fully-selective passthrough, shared-buffer fan-out, pool
// accounting), interpreter fallback for non-compilable expressions,
// the placed/unplaced × compiled/interpreted equivalence regression on
// the shared-ingest fan-out, the one operator contract (every operator
// class reads a partial selection exactly like a buffer holding only the
// selected rows), and a generated differential test of fused runs
// against the interpreted operators, short-circuit call counts included.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <functional>
#include <random>
#include <set>
#include <utility>

#include "nebula/cep.hpp"
#include "nebula/engine.hpp"
#include "nebula/exec/kernels.hpp"
#include "nebula/join.hpp"
#include "nebulameos/topk_nearest.hpp"
#include "queries/queries.hpp"

namespace nebulameos::nebula {
namespace {

Schema EventSchema() {
  return Schema::Build()
      .AddInt64("key")
      .AddTimestamp("ts")
      .AddDouble("value")
      .AddBool("flag")
      .AddText16("label")
      .Finish();
}

std::shared_ptr<TupleBuffer> MakeBuffer(int n) {
  auto buf = std::make_shared<TupleBuffer>(EventSchema(), n);
  for (int i = 0; i < n; ++i) {
    RecordWriter w = buf->Append();
    w.SetInt64(0, i - n / 2);  // negatives included
    w.SetInt64(1, Seconds(i));
    w.SetDouble(2, (i % 7) * 1.5 - 3.0);
    w.SetBool(3, i % 3 == 0);
    w.SetText(4, i % 2 == 0 ? "even" : "odd");
  }
  return buf;
}

std::vector<std::vector<Value>> MakeRows(int n) {
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back({Value(int64_t{i % 5}), Value(Seconds(i)),
                    Value(static_cast<double>(i)), Value(i % 2 == 0),
                    Value(std::string(i % 2 == 0 ? "even" : "odd"))});
  }
  return rows;
}

SourcePtr MakeSource(int n) {
  return std::make_unique<MemorySource>(EventSchema(), MakeRows(n), 1, "ts");
}

// --- Kernel vs interpreter equivalence --------------------------------------

TEST(CompiledExpr, KernelsMatchInterpreterExactly) {
  RegisterBuiltinFunctions();
  const Schema schema = EventSchema();
  auto buf = MakeBuffer(64);
  const std::vector<ExprPtr> exprs = {
      Add(Attribute("key"), Lit(3)),                          // int64 + int64
      Arith(ArithOp::kMod, Attribute("key"), Lit(3)),         // int mod
      Arith(ArithOp::kMod, Attribute("key"), Lit(0)),         // mod by zero
      Div(Attribute("key"), Lit(2)),                          // int div → double
      Div(Attribute("value"), Lit(0.0)),                      // div by zero
      Mul(Sub(Attribute("value"), Lit(1.5)), Attribute("value")),
      Add(Attribute("key"), Attribute("value")),              // int widens
      Lt(Attribute("value"), Lit(2.0)),
      Ge(Attribute("key"), Lit(0)),
      Eq(Attribute("flag"), Lit(true)),                       // bool compare
      And(Gt(Attribute("value"), Lit(-1.0)), Not(Attribute("flag"))),
      Or(Attribute("flag"), Ne(Attribute("key"), Lit(0))),
      Fn("clamp", {Attribute("value"), Lit(-1.0), Lit(2.5)}),
      Fn("abs", {Attribute("key")}),
  };
  for (const ExprPtr& expr : exprs) {
    ASSERT_TRUE(expr->Bind(schema).ok()) << expr->ToString();
    exec::KernelPtr kernel = expr->CompileKernel(exec::RunLayout(schema));
    ASSERT_NE(kernel, nullptr) << expr->ToString();
    const exec::RowSpan span = exec::SpanOf(*buf, nullptr);
    std::vector<double> out(buf->size());
    kernel->EvalAsDouble(span, out.data());
    for (size_t i = 0; i < buf->size(); ++i) {
      const double interpreted = ValueAsDouble(expr->Eval(buf->At(i)));
      EXPECT_EQ(out[i], interpreted)
          << expr->ToString() << " at row " << i;
    }
  }
}

TEST(CompiledExpr, KernelsHonorSelectionVectors) {
  const Schema schema = EventSchema();
  auto buf = MakeBuffer(32);
  ExprPtr expr = Mul(Attribute("value"), Lit(2.0));
  ASSERT_TRUE(expr->Bind(schema).ok());
  exec::KernelPtr kernel = expr->CompileKernel(exec::RunLayout(schema));
  ASSERT_NE(kernel, nullptr);
  const exec::SelectionVector sel = {1, 5, 9, 30};
  const exec::RowSpan span = exec::SpanOf(*buf, &sel);
  std::vector<double> out(sel.size());
  kernel->EvalAsDouble(span, out.data());
  for (size_t i = 0; i < sel.size(); ++i) {
    EXPECT_EQ(out[i], ValueAsDouble(expr->Eval(buf->At(sel[i]))));
  }
}

// Runtime-registered lambdas the kernel tests compile. Each reads its
// arguments with std::get, so a kernel that boxes an argument in the wrong
// Value alternative throws instead of passing.
void RegisterTestLambdas() {
  static const bool registered = [] {
    auto reg = [](const char* name, size_t arity, DataType out,
                  std::function<Value(const std::vector<Value>&)> fn) {
      return RegisterLambdaFunction(name, arity, out, std::move(fn)).ok();
    };
    bool ok = reg("test.int_identity", 1, DataType::kInt64,
                  [](const std::vector<Value>& v) {
                    return Value(std::get<int64_t>(v[0]));
                  });
    ok &= reg("test.typed_args", 4, DataType::kDouble,
              [](const std::vector<Value>& v) {
                const double sign = std::get<bool>(v[0]) ? 1.0 : -1.0;
                return Value(
                    sign * static_cast<double>(std::get<int64_t>(v[1]) % 1000) +
                    static_cast<double>(std::get<int64_t>(v[2]) / 1000000) +
                    std::get<double>(v[3]));
              });
    ok &= reg("test.longer_than", 2, DataType::kBool,
              [](const std::vector<Value>& v) {
                return Value(std::get<double>(v[0]) >
                             static_cast<double>(
                                 std::get<std::string>(v[1]).size()));
              });
    // Returns a double although declared int64: the kernel converts the
    // result with ValueAsInt64, as the interpreted Map does.
    ok &= reg("test.halve", 1, DataType::kInt64,
              [](const std::vector<Value>& v) {
                return Value(ValueAsDouble(v[0]) / 2.0);
              });
    ok &= reg("test.text_length", 1, DataType::kInt64,
              [](const std::vector<Value>& v) {
                return Value(static_cast<int64_t>(
                    std::get<std::string>(v[0]).size()));
              });
    ok &= reg("test.key_label", 1, DataType::kText16,
              [](const std::vector<Value>& v) {
                return Value("k" + std::to_string(std::get<int64_t>(v[0])));
              });
    return ok;
  }();
  ASSERT_TRUE(registered);
}

// Binds and compiles \p expr, then checks its kernel against `Eval` on
// every row of \p buf, over the full span and over a reversed selection of
// every other row. The kernel runs in its native type, so int64 results
// compare exactly.
void ExpectKernelMatchesEval(const ExprPtr& expr, const Schema& schema,
                             const TupleBuffer& buf) {
  ASSERT_TRUE(expr->Bind(schema).ok()) << expr->ToString();
  exec::KernelPtr kernel = expr->CompileKernel(exec::RunLayout(schema));
  ASSERT_NE(kernel, nullptr) << expr->ToString();
  exec::SelectionVector sel;
  for (size_t i = 0; i < buf.size(); i += 2) {
    sel.push_back(static_cast<uint32_t>(buf.size() - 1 - i));
  }
  const exec::SelectionVector* no_sel = nullptr;
  for (const exec::SelectionVector* s : {no_sel, &std::as_const(sel)}) {
    const exec::RowSpan span = exec::SpanOf(buf, s);
    std::vector<uint8_t> flags(span.count);
    std::vector<int64_t> ints(span.count);
    std::vector<double> doubles(span.count);
    switch (kernel->type()) {
      case exec::KernelType::kBool:
        kernel->EvalBool(span, flags.data());
        break;
      case exec::KernelType::kInt64:
        kernel->EvalInt64(span, ints.data());
        break;
      case exec::KernelType::kDouble:
        kernel->EvalDouble(span, doubles.data());
        break;
    }
    for (size_t i = 0; i < span.count; ++i) {
      const Value v = expr->Eval(buf.At(s != nullptr ? (*s)[i] : i));
      const std::string where = expr->ToString() + " at span row " +
                                std::to_string(i) +
                                (s != nullptr ? " (selection)" : "");
      switch (kernel->type()) {
        case exec::KernelType::kBool:
          EXPECT_EQ(flags[i] != 0, ValueAsBool(v)) << where;
          break;
        case exec::KernelType::kInt64:
          EXPECT_EQ(ints[i], ValueAsInt64(v)) << where;
          break;
        case exec::KernelType::kDouble:
          EXPECT_EQ(doubles[i], ValueAsDouble(v)) << where;
          break;
      }
    }
  }
}

TEST(CompiledExpr, TextComparisonKernelsMatchInterpreter) {
  const Schema schema =
      Schema::Build().AddText16("a").AddText32("b").AddInt64("n").Finish();
  // Field contents as raw bytes (zero-filled to the width): values that
  // are equal, prefixes, full-width with no NUL, bytes >= 0x80, and
  // non-zero bytes after the first NUL.
  const std::string nul(1, '\0');
  const std::vector<std::string> a_values = {
      "even", "", "odd", "eve", "evening", "even" + nul + "garbage",
      "abcdefghijklmnop", "\xe9t\xe9"};
  const std::vector<std::string> b_values = {
      "even", "", "evening", "abcdefghijklmnop",
      "abcdefghijklmnopabcdefghijklmnop", "z" + nul + "zzzz", "\xe9t"};
  auto buf = std::make_shared<TupleBuffer>(schema,
                                           a_values.size() * b_values.size());
  for (const std::string& a : a_values) {
    for (const std::string& b : b_values) {
      RecordWriter w = buf->Append();
      std::memcpy(w.data() + schema.offset(0), a.data(), a.size());
      std::memcpy(w.data() + schema.offset(1), b.data(), b.size());
      w.SetInt64(2, 0);
    }
  }
  const std::vector<std::string> literals = {
      "even",
      "",
      "abcdefghijklmnop",        // exactly Text16's width
      "abcdefghijklmnopq",       // longer than Text16, within Text32
      std::string(40, 'x'),      // longer than both widths
      "ev" + nul + "en",         // embedded NUL: equals no field value
      "\xe9t\xe9",
  };
  for (const CompareOp op :
       {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt, CompareOp::kGe,
        CompareOp::kEq, CompareOp::kNe}) {
    ExpectKernelMatchesEval(Compare(op, Attribute("a"), Attribute("b")),
                            schema, *buf);
    ExpectKernelMatchesEval(Compare(op, Attribute("b"), Attribute("a")),
                            schema, *buf);
    for (const std::string& lit : literals) {
      for (const char* field : {"a", "b"}) {
        ExpectKernelMatchesEval(Compare(op, Attribute(field), Lit(lit)),
                                schema, *buf);
        ExpectKernelMatchesEval(Compare(op, Lit(lit), Attribute(field)),
                                schema, *buf);
      }
    }
  }
}

TEST(CompiledExpr, LambdaKernelsMatchInterpreter) {
  RegisterTestLambdas();
  const Schema schema = Schema::Build()
                            .AddInt64("big")
                            .AddTimestamp("ts")
                            .AddDouble("value")
                            .AddBool("flag")
                            .Finish();
  const int64_t two53 = int64_t{1} << 53;
  auto buf = std::make_shared<TupleBuffer>(schema, 32);
  for (int i = 0; i < 32; ++i) {
    RecordWriter w = buf->Append();
    w.SetInt64(0, two53 + 1 + i);  // odd values are not doubles
    w.SetInt64(1, Seconds(1'700'000'000) + Millis(i * 250));
    w.SetDouble(2, (i % 9) * 0.75 - 2.0);
    w.SetBool(3, i % 3 == 0);
  }
  const std::vector<ExprPtr> exprs = {
      Fn("test.int_identity", {Attribute("big")}),
      Add(Fn("test.int_identity", {Attribute("big")}), Lit(1)),
      Fn("test.typed_args", {Attribute("flag"), Attribute("big"),
                             Attribute("ts"), Attribute("value")}),
      Fn("test.longer_than", {Attribute("value"), Lit(std::string("ab"))}),
      And(Fn("test.longer_than", {Attribute("value"), Lit(std::string(""))}),
          Attribute("flag")),
      Fn("test.halve", {Attribute("value")}),
      Lt(Lit(1.1), Fn("test.halve", {Attribute("value")})),
      Fn("test.int_identity", {Lit(int64_t{7})}),  // every argument constant
  };
  for (const ExprPtr& expr : exprs) ExpectKernelMatchesEval(expr, schema, *buf);

  // The identity is exact past 2^53: a kernel that widened its int64
  // argument through double would return 2^53 for 2^53 + 1.
  ExprPtr identity = Fn("test.int_identity", {Attribute("big")});
  ASSERT_TRUE(identity->Bind(schema).ok());
  exec::KernelPtr kernel = identity->CompileKernel(exec::RunLayout(schema));
  ASSERT_NE(kernel, nullptr);
  ASSERT_EQ(kernel->type(), exec::KernelType::kInt64);
  std::vector<int64_t> out(buf->size());
  kernel->EvalInt64(exec::SpanOf(*buf, nullptr), out.data());
  EXPECT_EQ(out[0], two53 + 1);
}

TEST(CompiledExpr, TextExpressionsRefuseToCompile) {
  RegisterTestLambdas();
  const Schema schema = EventSchema();
  auto buf = MakeBuffer(4);
  // A numeric comparison over a text field widens through the interpreter
  // only: the field leaf refuses.
  ExprPtr mixed = Gt(Attribute("label"), Lit(1.0));
  // A lambda over a runtime text argument, and a text-valued lambda.
  ExprPtr text_arg = Fn("test.text_length", {Attribute("label")});
  ExprPtr text_out = Fn("test.key_label", {Attribute("key")});
  for (const ExprPtr& expr : {mixed, text_arg, text_out}) {
    ASSERT_TRUE(expr->Bind(schema).ok()) << expr->ToString();
    EXPECT_EQ(expr->CompileKernel(exec::RunLayout(schema)), nullptr)
        << expr->ToString();
  }
  // They still evaluate through the interpreter.
  const RecordView row0 = buf->At(0);  // key -2, label "even"
  EXPECT_EQ(mixed->Eval(row0), Value(false));
  EXPECT_EQ(text_arg->Eval(row0), Value(int64_t{4}));
  EXPECT_EQ(text_out->Eval(row0), Value(std::string("k-2")));
}

// --- Fusion shape -----------------------------------------------------------

Result<LogicalPlan> MakeChainPlan(int n,
                                  std::shared_ptr<CollectSink>* sink) {
  *sink = std::make_shared<CollectSink>(Schema::Build()
                                            .AddInt64("key")
                                            .AddDouble("scaled")
                                            .Finish());
  return Query::From(MakeSource(n))
      .Filter(Ge(Attribute("value"), Lit(2.0)))
      .Map("scaled", Mul(Attribute("value"), Lit(2.0)))
      .Project({"key", "scaled"})
      .To(*sink)
      .Build();
}

TEST(CompilePlanFusion, FilterMapProjectFuseIntoOneBatchPass) {
  std::shared_ptr<CollectSink> sink;
  auto plan = MakeChainPlan(10, &sink);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  CompileOptions compiled;
  auto fused = CompilePlan(plan->source()->schema(), *plan, nullptr, compiled);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  ASSERT_EQ(fused->operators.size(), 1u);
  EXPECT_EQ(fused->operators[0]->name(), "BatchKernels(Filter+Map+Project)");
  // Flow entries expand per fused stage under the original operator
  // names, in chain order — the contract the placement pass depends on.
  metrics::MetricsRegistry registry;
  InstrumentNamer names("0/");
  std::vector<FlowEntry> entries;
  fused->operators[0]->BindMetrics(&registry, &names, &entries);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].key, "0/Filter");
  EXPECT_EQ(entries[1].key, "0/Map");
  EXPECT_EQ(entries[2].key, "0/Project");

  CompileOptions interpreted;
  interpreted.compiled_kernels = false;
  auto unfused =
      CompilePlan(plan->source()->schema(), *plan, nullptr, interpreted);
  ASSERT_TRUE(unfused.ok());
  ASSERT_EQ(unfused->operators.size(), 3u);
  // Both lowerings agree on the leaf schema.
  EXPECT_TRUE(fused->output_schema == unfused->output_schema);
}

TEST(CompilePlanFusion, NonCompilableNodeBreaksTheRunAndFallsBack) {
  RegisterTestLambdas();
  auto sink = std::make_shared<CountingSink>(EventSchema());
  auto plan = Query::From(MakeSource(10))
                  .Filter(Ge(Attribute("value"), Lit(1.0)))
                  .Filter(Gt(Fn("test.text_length", {Attribute("label")}),
                             Lit(3)))
                  .Filter(Ge(Attribute("value"), Lit(2.0)))
                  .To(sink)
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto pipe = CompilePlan(plan->source()->schema(), *plan);
  ASSERT_TRUE(pipe.ok()) << pipe.status().ToString();
  // compiled run | interpreted text-argument filter | compiled run.
  ASSERT_EQ(pipe->operators.size(), 3u);
  EXPECT_EQ(pipe->operators[0]->name(), "BatchKernels(Filter)");
  EXPECT_EQ(pipe->operators[1]->name(), "Filter");
  EXPECT_EQ(pipe->operators[2]->name(), "BatchKernels(Filter)");
}

// --- Zero-copy batch flow ---------------------------------------------------

TEST(BatchKernels, FullySelectiveFilterPassesTheInputBufferThrough) {
  auto sink = std::make_shared<CountingSink>(EventSchema());
  auto plan = Query::From(MakeSource(16))
                  .Filter(Ge(Attribute("value"), Lit(-100.0)))  // all pass
                  .To(sink)
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto pipe = CompilePlan(plan->source()->schema(), *plan);
  ASSERT_TRUE(pipe.ok());
  ASSERT_EQ(pipe->operators.size(), 1u);
  ExecutionContext ctx;
  ASSERT_TRUE(pipe->operators[0]->Open(&ctx).ok());
  auto input = MakeBuffer(16);
  input->Seal();
  exec::Batch captured;
  auto capture = [&captured](const exec::Batch& out) { captured = out; };
  ASSERT_TRUE(
      pipe->operators[0]->ProcessBatch(exec::Batch(input), capture).ok());
  // Same buffer object, full selection — zero copies, zero pool draws.
  EXPECT_EQ(captured.data.get(), input.get());
  EXPECT_TRUE(captured.IsFull());
  EXPECT_EQ(ctx.TotalBuffersAcquired(), 0u);
}

TEST(BatchKernels, PartialFilterSharesTheBufferWithASelection) {
  auto sink = std::make_shared<CountingSink>(EventSchema());
  auto plan = Query::From(MakeSource(16))
                  .Filter(Ge(Attribute("value"), Lit(1.5)))
                  .To(sink)
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto pipe = CompilePlan(plan->source()->schema(), *plan);
  ASSERT_TRUE(pipe.ok());
  ExecutionContext ctx;
  ASSERT_TRUE(pipe->operators[0]->Open(&ctx).ok());
  auto input = MakeBuffer(16);
  input->Seal();
  exec::Batch captured;
  auto capture = [&captured](const exec::Batch& out) { captured = out; };
  ASSERT_TRUE(
      pipe->operators[0]->ProcessBatch(exec::Batch(input), capture).ok());
  ASSERT_NE(captured.data, nullptr);
  EXPECT_EQ(captured.data.get(), input.get());  // shared, not copied
  ASSERT_FALSE(captured.IsFull());
  // The selection names exactly the surviving rows.
  for (size_t i = 0; i < captured.NumRows(); ++i) {
    EXPECT_GE(captured.data->At(captured.RowAt(i)).GetDouble(2), 1.5);
  }
  size_t expected = 0;
  for (size_t i = 0; i < input->size(); ++i) {
    if (input->At(i).GetDouble(2) >= 1.5) ++expected;
  }
  EXPECT_EQ(captured.NumRows(), expected);
  EXPECT_EQ(ctx.TotalBuffersAcquired(), 0u);
}

TEST(EngineZeroCopy, FanOutBranchCountDoesNotMultiplyBufferDraws) {
  auto run = [](size_t branches) {
    SplitQuery split = Query::From(MakeSource(5000)).Split(branches);
    std::vector<std::shared_ptr<CountingSink>> sinks;
    for (size_t b = 0; b < branches; ++b) {
      sinks.push_back(std::make_shared<CountingSink>(EventSchema()));
      std::move(split[b])
          .Filter(Ge(Attribute("value"), Lit(10.0)))
          .To(sinks.back());
    }
    auto plan = std::move(split).Build();
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    NodeEngine engine;
    auto id = engine.Submit(std::move(*plan));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_TRUE(engine.RunToCompletion(*id).ok());
    auto stats = engine.Stats(*id);
    EXPECT_TRUE(stats.ok());
    EXPECT_EQ(stats->events_ingested, 5000u);
    return stats->buffers_acquired;
  };
  const uint64_t two = run(2);
  const uint64_t four = run(4);
  // Branch hand-offs share the sealed batch; only the source draws
  // buffers, so doubling the branches must not change the draw count.
  EXPECT_EQ(two, four);
  EXPECT_GT(two, 0u);
  // And the total is the source's own buffers, not branches × buffers.
  EXPECT_LE(two, 5000u / 1024 + 2);
}

// --- Result equivalence through the engine ----------------------------------

using RowMatrix = std::vector<std::vector<Value>>;

void ExpectRowsEqual(const RowMatrix& a, const RowMatrix& b,
                     const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << what << " row " << i;
    for (size_t j = 0; j < a[i].size(); ++j) {
      EXPECT_TRUE(a[i][j] == b[i][j]) << what << " row " << i << " col " << j;
    }
  }
}

TEST(EngineCompiled, CompiledAndInterpretedRowsAgree) {
  auto run = [](bool compiled) {
    EngineOptions options;
    options.compiled_kernels = compiled;
    NodeEngine engine(options);
    std::shared_ptr<CollectSink> sink;
    auto plan = MakeChainPlan(200, &sink);
    EXPECT_TRUE(plan.ok());
    auto id = engine.Submit(std::move(*plan));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_TRUE(engine.RunToCompletion(*id).ok());
    return sink->Rows();
  };
  ExpectRowsEqual(run(true), run(false), "chain");
}

TEST(EngineCompiled, FallbackExpressionsKeepResultsIdentical) {
  // An interpreted filter over a text-argument lambda sandwiched between
  // compiled stages, one of them a text comparison.
  RegisterTestLambdas();
  auto run = [](bool compiled) {
    EngineOptions options;
    options.compiled_kernels = compiled;
    NodeEngine engine(options);
    auto sink = std::make_shared<CollectSink>(EventSchema());
    auto plan = Query::From(MakeSource(100))
                    .Filter(Ge(Attribute("value"), Lit(5.0)))
                    .Filter(Eq(Attribute("label"), Lit(std::string("even"))))
                    .Filter(Ge(Fn("test.text_length", {Attribute("label")}),
                               Lit(4)))
                    .Filter(Arith(ArithOp::kMod, Attribute("key"), Lit(2)))
                    .To(sink)
                    .Build();
    EXPECT_TRUE(plan.ok());
    auto id = engine.Submit(std::move(*plan));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_TRUE(engine.RunToCompletion(*id).ok());
    return sink->Rows();
  };
  const RowMatrix compiled = run(true);
  ExpectRowsEqual(compiled, run(false), "fallback");
  ASSERT_FALSE(compiled.empty());
}

TEST(EngineCompiled, EmptyFilterOutputStillFlushesWindows) {
  // A filter that drops everything feeds a window: no survivors, no
  // watermark-only buffers, and the run still terminates cleanly with
  // zero panes.
  auto run = [](bool compiled) {
    EngineOptions options;
    options.compiled_kernels = compiled;
    NodeEngine engine(options);
    auto sink = std::make_shared<CollectSink>(Schema::Build()
                                                  .AddInt64("key")
                                                  .AddTimestamp("window_start")
                                                  .AddTimestamp("window_end")
                                                  .AddInt64("n")
                                                  .Finish());
    auto plan = Query::From(MakeSource(100))
                    .Filter(Lt(Attribute("value"), Lit(-1.0)))  // drops all
                    .KeyBy("key")
                    .TumblingWindow(Seconds(10), "ts")
                    .Aggregate({AggregateSpec::Count("n")})
                    .To(sink)
                    .Build();
    EXPECT_TRUE(plan.ok());
    auto id = engine.Submit(std::move(*plan));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_TRUE(engine.RunToCompletion(*id).ok());
    return sink->RowCount();
  };
  EXPECT_EQ(run(true), 0u);
  EXPECT_EQ(run(false), 0u);
}

// --- Shared-ingest regression: placed/unplaced × compiled/interpreted -------

struct SinkTotals {
  std::vector<uint64_t> events;
  std::vector<uint64_t> bytes;
};

Result<SinkTotals> RunSharedIngest(const queries::DemoEnvironment& env,
                                   bool compiled, bool placed,
                                   const Topology* topo) {
  queries::QueryOptions qopts;
  qopts.max_events = 4000;
  qopts.sink = queries::SinkMode::kCounting;
  NM_ASSIGN_OR_RETURN(queries::BuiltFanOutQuery built,
                      queries::BuildSharedIngestFanOut(env, qopts));
  if (placed) {
    AnnotateEdgePushdownPlacement(&built.plan, /*edge_node=*/2,
                                  /*cloud_node=*/1);
  }
  EngineOptions options;
  options.optimizer.enable = false;  // identical plan shape in all configs
  options.compiled_kernels = compiled;
  options.topology = placed ? topo : nullptr;
  NodeEngine engine(options);
  NM_ASSIGN_OR_RETURN(const int id, engine.Submit(std::move(built.plan)));
  NM_RETURN_NOT_OK(engine.RunToCompletion(id));
  NM_ASSIGN_OR_RETURN(QueryStats stats, engine.Stats(id));
  SinkTotals totals;
  for (const SinkStats& sink : stats.sink_stats) {
    totals.events.push_back(sink.events_emitted);
    totals.bytes.push_back(sink.bytes_emitted);
  }
  return totals;
}

TEST(SharedIngestRegression, PlacedAndCompiledVariantsEmitIdentically) {
  auto env = queries::DemoEnvironment::Create();
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(50));
  auto baseline = RunSharedIngest(**env, /*compiled=*/false,
                                  /*placed=*/false, &topo);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_EQ(baseline->events.size(), 2u);  // alerts + archive
  for (const bool compiled : {false, true}) {
    for (const bool placed : {false, true}) {
      if (!compiled && !placed) continue;
      auto run = RunSharedIngest(**env, compiled, placed, &topo);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(run->events, baseline->events)
          << "compiled=" << compiled << " placed=" << placed;
      EXPECT_EQ(run->bytes, baseline->bytes)
          << "compiled=" << compiled << " placed=" << placed;
    }
  }
}

// --- Kernel-level common-subexpression elimination ---------------------

TEST(KernelCse, PlanKernelCseSharesRepeatedSubtreesWithoutChangingEval) {
  std::vector<ExprPtr> roots;
  roots.push_back(Ge(Mul(Attribute("value"), Lit(2.0)), Lit(4.0)));
  roots.push_back(Mul(Attribute("value"), Lit(2.0)));
  KernelCsePlan cse = PlanKernelCse(std::move(roots));
  EXPECT_EQ(cse.num_shared, 1u);
  ASSERT_NE(cse.cache, nullptr);
  ASSERT_EQ(cse.roots.size(), 2u);
  // Interpreted Eval of the wrapped trees delegates — bit-identical to
  // the original expressions on every record.
  const Schema schema = EventSchema();
  ExprPtr pred = Ge(Mul(Attribute("value"), Lit(2.0)), Lit(4.0));
  ExprPtr scale = Mul(Attribute("value"), Lit(2.0));
  for (const ExprPtr& e : {cse.roots[0], cse.roots[1], pred, scale}) {
    ASSERT_TRUE(e->Bind(schema).ok());
  }
  auto buf = MakeBuffer(16);
  for (size_t i = 0; i < buf->size(); ++i) {
    const RecordView rec = buf->At(i);
    EXPECT_EQ(cse.roots[0]->Eval(rec), pred->Eval(rec));
    EXPECT_EQ(cse.roots[1]->Eval(rec), scale->Eval(rec));
  }
}

TEST(KernelCse, TrivialOrUnsharedSubtreesAreNotCached) {
  // Bare field references repeat but never cache (a wrapper would cost
  // more than the read); distinct subtrees share nothing.
  std::vector<ExprPtr> roots;
  roots.push_back(Ge(Attribute("value"), Lit(1.0)));
  roots.push_back(Mul(Attribute("value"), Lit(3.0)));
  KernelCsePlan cse = PlanKernelCse(std::move(roots));
  EXPECT_EQ(cse.num_shared, 0u);
  EXPECT_EQ(cse.cache, nullptr);
}

TEST(KernelCse, FusedRunCarriesTheSharedCache) {
  const Schema out_schema = Schema::Build()
                                .AddInt64("key")
                                .AddTimestamp("ts")
                                .AddDouble("value")
                                .AddBool("flag")
                                .AddText16("label")
                                .AddDouble("scaled")
                                .Finish();
  auto sink = std::make_shared<CollectSink>(out_schema);
  auto plan = Query::From(MakeSource(10))
                  .Filter(Ge(Mul(Attribute("value"), Lit(2.0)), Lit(4.0)))
                  .Map("scaled", Mul(Attribute("value"), Lit(2.0)))
                  .To(sink)
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto pipe = CompilePlan(plan->source()->schema(), *plan);
  ASSERT_TRUE(pipe.ok()) << pipe.status().ToString();
  ASSERT_EQ(pipe->operators.size(), 1u);
  auto* fused = dynamic_cast<exec::BatchKernelOperator*>(
      pipe->operators[0].get());
  ASSERT_NE(fused, nullptr);
  EXPECT_NE(fused->cse_cache(), nullptr);

  // A run with nothing repeated attaches no cache.
  auto sink2 = std::make_shared<CountingSink>(EventSchema());
  auto plan2 = Query::From(MakeSource(10))
                   .Filter(Ge(Attribute("value"), Lit(1.0)))
                   .To(sink2)
                   .Build();
  ASSERT_TRUE(plan2.ok());
  auto pipe2 = CompilePlan(plan2->source()->schema(), *plan2);
  ASSERT_TRUE(pipe2.ok());
  ASSERT_EQ(pipe2->operators.size(), 1u);
  auto* unshared = dynamic_cast<exec::BatchKernelOperator*>(
      pipe2->operators[0].get());
  ASSERT_NE(unshared, nullptr);
  EXPECT_EQ(unshared->cse_cache(), nullptr);
}

// A registered scalar function that counts its evaluations — the probe
// proving the shared subtree runs once per row, not once per stage.
std::atomic<uint64_t>& ProbeCalls() {
  static std::atomic<uint64_t> calls{0};
  return calls;
}

class CseProbeFn final : public FunctionExpression {
 public:
  explicit CseProbeFn(std::vector<ExprPtr> args)
      : FunctionExpression("test.cse_probe", std::move(args),
                           DataType::kDouble) {}

 protected:
  Value EvalFn(const std::vector<Value>& args) const override {
    ProbeCalls().fetch_add(1);
    return Value(std::get<double>(args[0]) * 3.0);
  }
  bool ScalarEvaluable() const override { return true; }
  void EvalColumn(const double* const* args, size_t n,
                  double* out) const override {
    ProbeCalls().fetch_add(n);
    for (size_t r = 0; r < n; ++r) out[r] = args[0][r] * 3.0;
  }
};

TEST(KernelCse, SharedFunctionEvaluatesOncePerRowInCompiledRun) {
  static const bool registered = [] {
    return ExpressionRegistry::Global()
        .Register("test.cse_probe",
                  [](std::vector<ExprPtr> args) -> Result<ExprPtr> {
                    return ExprPtr(
                        std::make_shared<CseProbeFn>(std::move(args)));
                  })
        .ok();
  }();
  ASSERT_TRUE(registered);

  const int n = 64;
  const Schema out_schema = Schema::Build()
                                .AddInt64("key")
                                .AddTimestamp("ts")
                                .AddDouble("value")
                                .AddBool("flag")
                                .AddText16("label")
                                .AddDouble("tripled")
                                .Finish();
  auto run = [&](bool compiled) {
    auto sink = std::make_shared<CollectSink>(out_schema);
    auto plan =
        Query::From(MakeSource(n))
            .Filter(Ge(Fn("test.cse_probe", {Attribute("value")}), Lit(6.0)))
            .Map("tripled", Fn("test.cse_probe", {Attribute("value")}))
            .To(sink)
            .Build();
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    EngineOptions options;
    options.worker_threads = 1;
    options.compiled_kernels = compiled;
    NodeEngine engine(options);
    auto id = engine.Submit(std::move(*plan));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_TRUE(engine.Start(*id).ok());
    EXPECT_TRUE(engine.Wait(*id).ok());
    auto rows = sink->Rows();
    std::sort(rows.begin(), rows.end());
    return rows;
  };

  ProbeCalls().store(0);
  const auto compiled_rows = run(/*compiled=*/true);
  // The filter predicate and the map spec share one probe subtree: the
  // compiled run computes it once per ingested row, never once per stage.
  EXPECT_EQ(ProbeCalls().load(), static_cast<uint64_t>(n));

  // And sharing does not change results: the interpreted run agrees.
  const auto interpreted_rows = run(/*compiled=*/false);
  EXPECT_EQ(compiled_rows, interpreted_rows);
  for (const auto& row : compiled_rows) {
    EXPECT_EQ(std::get<double>(row[5]), std::get<double>(row[2]) * 3.0);
    EXPECT_GE(std::get<double>(row[5]), 6.0);
  }
}

// --- One operator contract ---------------------------------------------------

using Rows = std::vector<std::vector<Value>>;

// Appends the selected rows of `batch` as values.
void AppendRows(const exec::Batch& batch, Rows* rows) {
  const Schema& schema = batch.data->schema();
  for (size_t i = 0; i < batch.NumRows(); ++i) {
    const RecordView rec = batch.data->At(batch.RowAt(i));
    std::vector<Value> row;
    for (size_t f = 0; f < schema.num_fields(); ++f) {
      switch (schema.field(f).type) {
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
        case DataType::kText16:
        case DataType::kText32:
          row.emplace_back(rec.GetText(f));
          break;
      }
    }
    rows->push_back(std::move(row));
  }
}

// Drives `chain` as the engine does: `batch` into operator `from`, every
// emitted batch into the next one, and what leaves the last into `rows`,
// recording each operator's flow where the engine records it (once
// `BindChain` bound its instruments). A null `batch` runs the
// end-of-stream cascade from `from` instead.
Status DriveChain(const std::vector<OperatorPtr>& chain, size_t from,
                  const exec::Batch* batch, Rows* rows) {
  if (from == chain.size()) {
    if (batch != nullptr) AppendRows(*batch, rows);
    return Status::OK();
  }
  Status inner = Status::OK();
  auto forward = [&](const exec::Batch& out) {
    chain[from]->RecordOut(out);
    const Status st = DriveChain(chain, from + 1, &out, rows);
    if (!st.ok() && inner.ok()) inner = st;
  };
  const Status s = batch != nullptr ? chain[from]->ProcessBatch(*batch, forward)
                                    : chain[from]->Finish(forward);
  if (batch != nullptr) chain[from]->RecordProcess(0, *batch);
  NM_RETURN_NOT_OK(s);
  NM_RETURN_NOT_OK(inner);
  if (batch == nullptr) return DriveChain(chain, from + 1, nullptr, rows);
  return Status::OK();
}

// Selected row `j` of the contract input: keys 0..2, one row per second,
// values cycling through -3 .. 6 in steps of 1.5.
void WriteContractRow(RecordWriter* w, int j) {
  w->SetInt64(0, j % 3);
  w->SetInt64(1, Seconds(j));
  w->SetDouble(2, (j % 7) * 1.5 - 3.0);
  w->SetBool(3, j % 2 == 0);
  w->SetText(4, j % 2 == 0 ? "even" : "odd");
}

// The same `n` rows two ways: a sealed buffer holding only them, and a
// partial selection (the odd rows) over a sealed buffer twice as large
// whose unselected rows would change every operator's output.
std::pair<exec::Batch, exec::Batch> ContractInputs(int n) {
  auto full = std::make_shared<TupleBuffer>(EventSchema(), n);
  auto wide = std::make_shared<TupleBuffer>(EventSchema(), 2 * n);
  auto selection = std::make_shared<exec::SelectionVector>();
  for (int j = 0; j < n; ++j) {
    RecordWriter junk = wide->Append();
    junk.SetInt64(0, 99);
    junk.SetInt64(1, Seconds(1000 + j));
    junk.SetDouble(2, 100.0);
    junk.SetBool(3, true);
    junk.SetText(4, "junk");
    RecordWriter kept = wide->Append();
    WriteContractRow(&kept, j);
    selection->push_back(static_cast<uint32_t>(2 * j + 1));
    RecordWriter row = full->Append();
    WriteContractRow(&row, j);
  }
  for (const auto& buf : {full, wide}) {
    buf->set_sequence_number(7);
    buf->set_watermark(Seconds(n));
    buf->Seal();
  }
  return {exec::Batch(full), exec::Batch(wide, std::move(selection))};
}

// One operator class under test: `make` builds a fresh chain over
// `EventSchema()` (the channel pair is two operators; a sink ends the
// chain and is read back through `CollectSink::Rows`).
struct ContractCase {
  std::string name;
  std::function<std::vector<OperatorPtr>()> make;
};

OperatorPtr Built(Result<OperatorPtr> op) {
  EXPECT_TRUE(op.ok()) << op.status().ToString();
  return op.ok() ? std::move(*op) : nullptr;
}

std::vector<ContractCase> ContractCases(const Topology* topo) {
  const Schema in = EventSchema();
  auto one = [](OperatorPtr op) {
    std::vector<OperatorPtr> chain;
    chain.push_back(std::move(op));
    return chain;
  };
  std::vector<ContractCase> cases;
  cases.push_back({"Filter", [=] {
                     return one(Built(FilterOperator::Make(
                         in, Ge(Attribute("value"), Lit(0.0)))));
                   }});
  cases.push_back({"Map", [=] {
                     return one(Built(MapOperator::Make(
                         in, {{"doubled", Mul(Attribute("value"), Lit(2.0))},
                              {"tag", Attribute("label")}})));
                   }});
  cases.push_back({"Project", [=] {
                     return one(Built(ProjectOperator::Make(
                         in, {"label", "key", "value"})));
                   }});
  cases.push_back({"BatchKernels", [=] {
                     exec::BatchKernelCompiler compiler(in);
                     EXPECT_TRUE(
                         compiler.AddFilter(Ge(Attribute("value"), Lit(0.0))));
                     EXPECT_TRUE(compiler.AddMap(
                         {{"doubled", Mul(Attribute("value"), Lit(2.0))}}));
                     EXPECT_TRUE(compiler.AddProject({"key", "doubled"}));
                     return one(std::move(compiler).Finish());
                   }});
  cases.push_back({"WindowAgg", [=] {
                     WindowAggOptions opts;
                     opts.key_field = "key";
                     opts.time_field = "ts";
                     opts.window = TumblingWindowSpec{Seconds(4)};
                     opts.aggregates = {AggregateSpec::Sum("value", "total"),
                                        AggregateSpec::Count("n")};
                     return one(Built(WindowAggOperator::Make(in, opts)));
                   }});
  cases.push_back({"ThresholdWindow", [=] {
                     ThresholdWindowOptions opts;
                     opts.predicate = Gt(Attribute("value"), Lit(0.0));
                     opts.key_field = "key";
                     opts.time_field = "ts";
                     opts.aggregates = {AggregateSpec::Max("value", "peak")};
                     return one(Built(ThresholdWindowOperator::Make(in, opts)));
                   }});
  cases.push_back({"CEP", [=] {
                     Pattern p;
                     p.steps = {
                         PatternStep{"a", Gt(Attribute("value"), Lit(3.5)),
                                     false, false},
                         PatternStep{"b", Lt(Attribute("value"), Lit(0.0)),
                                     false, false}};
                     p.key_field = "key";
                     p.time_field = "ts";
                     return one(Built(CepOperator::Make(
                         in, p, {Measure::First("a", "value", "a_value")})));
                   }});
  cases.push_back({"TemporalLookupJoin", [=] {
                     const Schema right = Schema::Build()
                                              .AddInt64("key")
                                              .AddTimestamp("ts")
                                              .AddDouble("level")
                                              .Finish();
                     std::vector<std::vector<Value>> rows;
                     for (int64_t key = 0; key < 2; ++key) {
                       rows.push_back({Value(key), Value(Seconds(6)),
                                       Value(key * 10.0)});
                     }
                     TemporalLookupJoinOptions opts;
                     opts.lookup = std::make_shared<MemorySource>(
                         right, std::move(rows), 1, "ts");
                     opts.left_key = "key";
                     opts.right_key = "key";
                     opts.left_time = "ts";
                     opts.right_time = "ts";
                     opts.max_age = Seconds(5);
                     return one(
                         Built(TemporalLookupJoinOperator::Make(in, opts)));
                   }});
  cases.push_back({"TopKNearest", [=] {
                     integration::TopKNearestOptions opts;
                     opts.k = 1;
                     opts.window = Seconds(8);
                     opts.key_field = "key";
                     opts.time_field = "ts";
                     opts.lon_field = "value";
                     opts.lat_field = "value";
                     opts.metric = meos::Metric::kCartesian;
                     return one(Built(
                         integration::TopKNearestOperator::Make(in, opts)));
                   }});
  cases.push_back({"NetworkChannelSink+Source", [=] {
                     auto channel = NetworkChannel::Connect(*topo, 2, 1);
                     EXPECT_TRUE(channel.ok());
                     std::vector<OperatorPtr> chain;
                     chain.push_back(
                         Built(NetworkChannelSink::Make(in, *channel)));
                     chain.push_back(
                         Built(NetworkChannelSource::Make(in, *channel)));
                     return chain;
                   }});
  cases.push_back({"CollectSink", [=] {
                     return one(std::make_unique<CollectSink>(in));
                   }});
  return cases;
}

// Every operator class reads a partial selection exactly like a buffer
// holding only the selected rows: same output rows, same pool draws — no
// operator gathers its input first.
TEST(OperatorContract, PartialSelectionMatchesFullBufferForEveryOperator) {
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(1));
  const auto [full, partial] = ContractInputs(24);
  for (const ContractCase& c : ContractCases(&topo)) {
    auto run = [&c](const exec::Batch& input, uint64_t* draws) {
      ExecutionContext ctx;
      std::vector<OperatorPtr> chain = c.make();
      for (const OperatorPtr& op : chain) {
        EXPECT_NE(op, nullptr) << c.name;
        if (op == nullptr) return Rows{};
        EXPECT_TRUE(op->Open(&ctx).ok()) << c.name;
      }
      Rows rows;
      EXPECT_TRUE(DriveChain(chain, 0, &input, &rows).ok()) << c.name;
      EXPECT_TRUE(DriveChain(chain, 0, nullptr, &rows).ok()) << c.name;
      if (auto* sink = dynamic_cast<CollectSink*>(chain.back().get())) {
        rows = sink->Rows();
      }
      *draws = ctx.TotalBuffersAcquired();
      return rows;
    };
    uint64_t full_draws = 0;
    uint64_t partial_draws = 0;
    const Rows from_full = run(full, &full_draws);
    const Rows from_partial = run(partial, &partial_draws);
    EXPECT_FALSE(from_full.empty()) << c.name;
    EXPECT_EQ(from_full, from_partial) << c.name;
    EXPECT_EQ(full_draws, partial_draws) << c.name;
  }
}

// --- Generated differential test for fused runs ------------------------------

// Input of the generated chains: every field type a fused run handles.
Schema DiffSchema() {
  return Schema::Build()
      .AddBool("b")
      .AddInt64("i")
      .AddInt64("j")
      .AddTimestamp("t")
      .AddDouble("d")
      .AddDouble("e")
      .AddText16("s")
      .AddText16("u")
      .Finish();
}

const std::vector<std::string>& DiffTexts() {
  static const std::vector<std::string> texts = {
      "", "even", "odd", "evening", "zz", "abcdefghijklmnop"};
  return texts;
}

// A sealed buffer of `n` random rows of `DiffSchema()`. Values stay small
// (see `ExprGen`), and doubles sit on a 0.5 grid so comparisons tie.
TupleBufferPtr DiffBuffer(std::mt19937_64* rng, size_t n) {
  auto buf = std::make_shared<TupleBuffer>(DiffSchema(), n);
  for (size_t r = 0; r < n; ++r) {
    RecordWriter w = buf->Append();
    w.SetBool(0, (*rng)() % 2 == 0);
    w.SetInt64(1, static_cast<int64_t>((*rng)() % 101) - 50);
    w.SetInt64(2, static_cast<int64_t>((*rng)() % 11) - 5);
    w.SetInt64(3, static_cast<int64_t>((*rng)() % 1001));
    w.SetDouble(4, static_cast<double>((*rng)() % 41) * 0.5 - 10.0);
    w.SetDouble(5, static_cast<double>((*rng)() % 21) * 0.5 - 5.0);
    w.SetText(6, DiffTexts()[(*rng)() % DiffTexts().size()]);
    w.SetText(7, DiffTexts()[(*rng)() % DiffTexts().size()]);
  }
  buf->Seal();
  return buf;
}

// Random typed expressions over a field list, deterministic in (seed,
// fields), so a subexpression can be rebuilt as a fresh, structurally
// equal tree. Magnitudes stay bounded so no integer arithmetic overflows
// and no double leaves int64's range: integer products take only a
// literal factor in [-3, 3], and `Halve` reads a clamped argument.
class ExprGen {
 public:
  ExprGen(uint64_t seed, std::vector<Field> fields,
          std::set<std::string> computed)
      : rng_(seed),
        fields_(std::move(fields)),
        computed_(std::move(computed)) {}

  bool reads_computed() const { return reads_computed_; }
  bool used_halve() const { return used_halve_; }
  bool nested_halve() const { return nested_halve_; }
  bool used_text_compare() const { return used_text_compare_; }

  // An integer-typed expression (bool fields read as 0/1).
  ExprPtr Int(int depth) {
    if (depth <= 0 || Chance(35)) {
      if (Chance(75)) {
        if (ExprPtr f = FieldOf({DataType::kInt64, DataType::kTimestamp,
                                 DataType::kBool})) {
          return f;
        }
      }
      return Lit(static_cast<int64_t>(Uniform(41)) - 20);
    }
    switch (Uniform(4)) {
      case 0:
        return Add(Int(depth - 1), Int(depth - 1));
      case 1:
        return Sub(Int(depth - 1), Int(depth - 1));
      case 2:
        return Mul(Int(depth - 1), Lit(static_cast<int64_t>(Uniform(7)) - 3));
      default:
        return Arith(ArithOp::kMod, Int(depth - 1),
                     Lit(static_cast<int64_t>(Uniform(8))));
    }
  }

  // `test.halve`: a lambda declared int64 that returns a double. Both
  // paths read its value converted to int64, as a whole map spec and
  // inside an expression alike.
  ExprPtr Halve(int depth) {
    used_halve_ = true;
    return Fn("test.halve",
              {Fn("clamp", {Num(depth), Lit(-1e9), Lit(1e9)})});
  }

  // A numeric expression: integer or double.
  ExprPtr Num(int depth) {
    if (Chance(40)) return Int(depth);
    if (depth <= 0 || Chance(35)) {
      if (Chance(75)) {
        if (ExprPtr f = FieldOf({DataType::kDouble})) return f;
      }
      return Lit(static_cast<double>(Uniform(21)) * 0.5 - 5.0);
    }
    switch (Uniform(7)) {
      case 0:
        return Add(Num(depth - 1), Num(depth - 1));
      case 1:
        return Sub(Num(depth - 1), Num(depth - 1));
      case 2:
        return Mul(Num(depth - 1),
                   Lit(static_cast<double>(Uniform(13)) * 0.5 - 3.0));
      case 3:
        return Div(Num(depth - 1), Num(depth - 1));
      case 4:
        return Fn("abs", {Num(depth - 1)});
      case 5:
        nested_halve_ = true;
        return Halve(depth - 1);
      default:
        return Fn("clamp", {Num(depth - 1), Lit(-2.0), Lit(2.5)});
    }
  }

  // A numeric subexpression kernel CSE may cache: never a bare field or
  // literal.
  ExprPtr Shared() {
    return Chance(50) ? Add(Num(1), Num(0)) : Fn("abs", {Sub(Num(1), Num(0))});
  }

  // `x` compared against a literal.
  ExprPtr Threshold(ExprPtr x) {
    const double lit = static_cast<double>(Uniform(9)) - 4.0;
    return Chance(50) ? Gt(std::move(x), Lit(lit))
                      : Le(std::move(x), Lit(lit));
  }

  // A predicate: AND/OR/NOT nests over comparisons, bool fields and text
  // comparisons.
  ExprPtr Bool(int depth) {
    if (depth <= 0 || Chance(30)) {
      const size_t leaf = Uniform(10);
      if (leaf < 2) {
        if (ExprPtr f = FieldOf({DataType::kBool})) return f;
      } else if (leaf < 4) {
        if (ExprPtr t = TextCompare()) return t;
      }
      static const CompareOp kOps[] = {CompareOp::kLt, CompareOp::kLe,
                                       CompareOp::kGt, CompareOp::kGe,
                                       CompareOp::kEq, CompareOp::kNe};
      return Compare(kOps[Uniform(6)], Num(depth - 1), Num(depth - 1));
    }
    switch (Uniform(4)) {
      case 0:
        return Not(Bool(depth - 1));
      case 1:
        return And(Bool(depth - 1), Bool(depth - 1));
      default:
        return Or(Bool(depth - 1), Bool(depth - 1));
    }
  }

 private:
  size_t Uniform(size_t n) { return static_cast<size_t>(rng_() % n); }
  bool Chance(size_t percent) { return Uniform(100) < percent; }

  // A text field compared with a literal or another text field; null
  // when no text field is left.
  ExprPtr TextCompare() {
    ExprPtr field = FieldOf({DataType::kText16});
    if (field == nullptr) return nullptr;
    used_text_compare_ = true;
    static const CompareOp kOps[] = {CompareOp::kLt, CompareOp::kGe,
                                     CompareOp::kEq, CompareOp::kNe};
    const CompareOp op = kOps[Uniform(4)];
    if (Chance(25)) {
      return Compare(op, std::move(field), FieldOf({DataType::kText16}));
    }
    ExprPtr lit = Lit(DiffTexts()[Uniform(DiffTexts().size())]);
    return Chance(50) ? Compare(op, std::move(field), std::move(lit))
                      : Compare(op, std::move(lit), std::move(field));
  }

  // A random field of one of `types`, or null when there is none.
  ExprPtr FieldOf(std::initializer_list<DataType> types) {
    std::vector<const Field*> candidates;
    for (const Field& f : fields_) {
      for (const DataType t : types) {
        if (f.type == t) candidates.push_back(&f);
      }
    }
    if (candidates.empty()) return nullptr;
    const Field* f = candidates[Uniform(candidates.size())];
    if (computed_.count(f->name) != 0) reads_computed_ = true;
    return Attribute(f->name);
  }

  std::mt19937_64 rng_;
  std::vector<Field> fields_;
  std::set<std::string> computed_;
  bool reads_computed_ = false;
  bool used_halve_ = false;
  bool nested_halve_ = false;
  bool used_text_compare_ = false;
};

// What generated chains must contain for the differential test to cover
// the fused run's layout, short-circuit and kernel-CSE rules.
enum ChainFeature : size_t {
  kMapReplacesInputField,
  kMapReadsEarlierMap,
  kProjectDropsThenMapReAdds,
  kTextCompareAfterMap,
  kSharedOnOrRightReadAgain,
  kInt64DeclaredDoubleLambda,
  kLambdaInsideExpression,
  kLookAlikeSubtrees,
  kNumChainFeatures,
};

struct ChainStage {
  enum class Kind { kFilter, kMap, kProject };
  Kind kind = Kind::kFilter;
  ExprPtr predicate;
  std::vector<MapSpec> specs;
  std::vector<std::string> fields;
};

// Seeded generator of 2–6 stage Filter/Map/Project chains over
// `DiffSchema()`; every chain compiles into one fused run. Each stage's
// expressions are fresh trees, so binding one stage never rebinds
// another's.
class ChainGenerator {
 public:
  explicit ChainGenerator(uint64_t seed) : rng_(seed) {}

  const std::array<size_t, kNumChainFeatures>& features() const {
    return features_;
  }

  std::vector<ChainStage> Next() {
    fields_ = DiffSchema().fields();
    computed_.clear();
    dropped_computed_.clear();
    map_seen_ = false;
    std::vector<ChainStage> chain;
    const size_t length = 2 + Uniform(5);
    const size_t lead = Uniform(100);
    if (lead < 30) {
      SharedOnOrRight(&chain);
    } else if (lead < 45) {
      LookAlikeTwins(&chain);
    }
    while (chain.size() < length) {
      const size_t pick = Uniform(100);
      if (pick < 15 && !computed_.empty() && fields_.size() > 1 &&
          chain.size() + 2 <= length) {
        DropThenReAdd(&chain);
      } else if (pick < 50) {
        ExprGen gen = Gen(rng_());
        ExprPtr predicate = gen.Bool(3);
        AddFilter(&chain, std::move(predicate), gen);
      } else if (pick < 85) {
        AddRandomMap(&chain);
      } else {
        std::vector<std::string> names = ShuffledNames();
        names.resize(1 + Uniform(names.size()));
        AddProject(&chain, std::move(names));
      }
    }
    return chain;
  }

 private:
  size_t Uniform(size_t n) { return static_cast<size_t>(rng_() % n); }

  ExprGen Gen(uint64_t seed) const { return ExprGen(seed, fields_, computed_); }

  std::string FreshName() { return "m" + std::to_string(next_name_++); }

  std::vector<std::string> ShuffledNames() {
    std::vector<std::string> names;
    for (const Field& f : fields_) names.push_back(f.name);
    std::shuffle(names.begin(), names.end(), rng_);
    return names;
  }

  void AddFilter(std::vector<ChainStage>* chain, ExprPtr predicate,
                 const ExprGen& gen) {
    if (gen.used_text_compare() && map_seen_) {
      ++features_[kTextCompareAfterMap];
    }
    if (gen.used_halve()) ++features_[kInt64DeclaredDoubleLambda];
    if (gen.nested_halve()) ++features_[kLambdaInsideExpression];
    ChainStage stage;
    stage.kind = ChainStage::Kind::kFilter;
    stage.predicate = std::move(predicate);
    chain->push_back(std::move(stage));
  }

  void AddMap(std::vector<ChainStage>* chain, std::vector<MapSpec> specs,
              const ExprGen& gen) {
    if (gen.reads_computed()) ++features_[kMapReadsEarlierMap];
    if (gen.used_halve()) ++features_[kInt64DeclaredDoubleLambda];
    if (gen.nested_halve()) ++features_[kLambdaInsideExpression];
    for (const MapSpec& spec : specs) {
      for (const Field& f : fields_) {
        if (f.name == spec.name && computed_.count(f.name) == 0) {
          ++features_[kMapReplacesInputField];
        }
      }
      if (dropped_computed_.erase(spec.name) != 0) {
        ++features_[kProjectDropsThenMapReAdds];
      }
    }
    // The map's output fields, as the fused run and MapOperator derive
    // them (this also binds the specs against the stage's input).
    auto input = Schema::Make(fields_);
    EXPECT_TRUE(input.ok()) << input.status().ToString();
    if (!input.ok()) return;
    auto layout = PlanMapLayout(*input, specs);
    EXPECT_TRUE(layout.ok()) << layout.status().ToString();
    if (!layout.ok()) return;
    fields_ = layout->output_schema.fields();
    for (const MapSpec& spec : specs) computed_.insert(spec.name);
    map_seen_ = true;
    ChainStage stage;
    stage.kind = ChainStage::Kind::kMap;
    stage.specs = std::move(specs);
    chain->push_back(std::move(stage));
  }

  void AddProject(std::vector<ChainStage>* chain,
                  std::vector<std::string> names) {
    std::vector<Field> kept;
    for (const std::string& name : names) {
      for (const Field& f : fields_) {
        if (f.name == name) kept.push_back(f);
      }
    }
    for (const Field& f : fields_) {
      if (std::find(names.begin(), names.end(), f.name) == names.end() &&
          computed_.erase(f.name) != 0) {
        dropped_computed_.insert(f.name);
      }
    }
    fields_ = std::move(kept);
    ChainStage stage;
    stage.kind = ChainStage::Kind::kProject;
    stage.fields = std::move(names);
    chain->push_back(std::move(stage));
  }

  // One to three computed fields: new names, replaced fields (input or
  // computed, text included) and names an earlier Project dropped.
  void AddRandomMap(std::vector<ChainStage>* chain) {
    ExprGen gen = Gen(rng_());
    std::vector<MapSpec> specs;
    const size_t count = 1 + Uniform(3);
    for (size_t k = 0; k < count; ++k) {
      std::string name;
      const size_t pick = Uniform(100);
      if (pick < 30 && !fields_.empty()) {
        name = fields_[Uniform(fields_.size())].name;
      } else if (pick < 45 && !dropped_computed_.empty()) {
        auto it = dropped_computed_.begin();
        std::advance(it, Uniform(dropped_computed_.size()));
        name = *it;
      } else {
        name = FreshName();
      }
      for (const MapSpec& spec : specs) {
        if (spec.name == name) name = FreshName();
      }
      const size_t kind = Uniform(10);
      ExprPtr expr =
          kind < 6 ? gen.Num(2) : (kind < 9 ? gen.Bool(2) : gen.Halve(1));
      specs.push_back({std::move(name), std::move(expr)});
    }
    AddMap(chain, std::move(specs), gen);
  }

  // A Project that drops a computed field and reorders the rest, then a
  // Map that re-adds the dropped name.
  void DropThenReAdd(std::vector<ChainStage>* chain) {
    std::vector<std::string> names = ShuffledNames();
    auto dropped = std::find_if(names.begin(), names.end(),
                                [this](const std::string& name) {
                                  return computed_.count(name) != 0;
                                });
    const std::string name = *dropped;
    names.erase(dropped);
    AddProject(chain, std::move(names));
    ExprGen gen = Gen(rng_());
    ExprPtr expr = gen.Num(2);
    AddMap(chain, {{name, std::move(expr)}}, gen);
  }

  // A Filter whose OR evaluates a shared subexpression only where its left
  // side is false, then a stage that reads the subexpression again over
  // every surviving row — inside the run's kernel-CSE scope.
  void SharedOnOrRight(std::vector<ChainStage>* chain) {
    const uint64_t seed = rng_();
    ExprGen first = Gen(seed);
    ExprPtr left = first.Bool(1);
    ExprPtr shared = first.Shared();
    ExprPtr predicate = Or(std::move(left), first.Threshold(shared));
    AddFilter(chain, std::move(predicate), first);
    ExprGen again = Gen(seed);  // same fields: the filter defined none
    again.Bool(1);
    ExprPtr repeated = again.Shared();  // a fresh tree equal to `shared`
    if (Uniform(2) == 0) {
      ExprPtr threshold = again.Threshold(std::move(repeated));
      AddFilter(chain, std::move(threshold), again);
    } else {
      AddMap(chain, {{FreshName(), std::move(repeated)}}, again);
    }
    ++features_[kSharedOnOrRightReadAgain];
  }

  // Two subtrees that print alike but differ, inside the run's kernel-CSE
  // scope (its leading Filters and first Map): a text comparison of two
  // fields and its twin with one field replaced by a literal spelling the
  // field's name (`s == u` and `s == 'u'`), or an integer-literal subtree
  // and its double twin (`i * 2`, INT64, and `i * 2.0`, DOUBLE). Merging
  // the twins would change which rows pass, a computed value or a
  // computed field's type. Each pair sits in one Filter, in one Map, or in
  // a leading Filter and the Map after it.
  void LookAlikeTwins(std::vector<ChainStage>* chain) {
    const size_t variant = Uniform(4);
    std::function<ExprPtr(bool)> twin;  // false: first twin, true: second
    if (variant % 2 == 0) {
      static const char* const kTextFields[] = {"s", "u"};
      static const CompareOp kOps[] = {CompareOp::kLt, CompareOp::kGe,
                                       CompareOp::kEq, CompareOp::kNe};
      const std::string x = kTextFields[Uniform(2)];
      const std::string y = kTextFields[Uniform(2)];
      const CompareOp op = kOps[Uniform(4)];
      const bool literal_left = Uniform(2) == 0;
      const bool literal_first = Uniform(2) == 0;
      twin = [=](bool second) -> ExprPtr {
        if (second == literal_first) {
          return Compare(op, Attribute(x), Attribute(y));
        }
        return literal_left ? Compare(op, Lit(x), Attribute(y))
                            : Compare(op, Attribute(x), Lit(y));
      };
    } else {
      static const ArithOp kOps[] = {ArithOp::kAdd, ArithOp::kSub,
                                     ArithOp::kMul};
      const uint64_t seed = rng_();
      const ArithOp op = kOps[Uniform(3)];
      const int64_t k = static_cast<int64_t>(Uniform(7)) - 3;
      const bool double_first = Uniform(2) == 0;
      twin = [this, seed, op, k, double_first](bool second) -> ExprPtr {
        ExprPtr x = Gen(seed).Int(1);  // equal trees for equal seeds
        return second == double_first
                   ? Arith(op, std::move(x), Lit(k))
                   : Arith(op, std::move(x), Lit(static_cast<double>(k)));
      };
    }
    const ExprGen none = Gen(0);  // no generated subtree to report
    switch (variant) {
      case 0:  // one Filter: first XOR second
        AddFilter(chain,
                  Or(And(twin(false), Not(twin(true))),
                     And(Not(twin(false)), twin(true))),
                  none);
        break;
      case 1:  // one Map
        AddMap(chain, {{FreshName(), twin(false)}, {FreshName(), twin(true)}},
               none);
        break;
      case 2:  // a Filter keeping rows either way, then the Map
        AddFilter(chain, Or(twin(false), Attribute("b")), none);
        AddMap(chain, {{FreshName(), twin(true)}}, none);
        break;
      default:
        AddFilter(chain, Or(Gt(twin(false), Lit(0.0)), Attribute("b")), none);
        AddMap(chain, {{FreshName(), twin(true)}}, none);
        break;
    }
    ++features_[kLookAlikeSubtrees];
  }

  std::mt19937_64 rng_;
  std::vector<Field> fields_;
  std::set<std::string> computed_;
  std::set<std::string> dropped_computed_;
  bool map_seen_ = false;
  size_t next_name_ = 0;
  std::array<size_t, kNumChainFeatures> features_{};
};

std::string DescribeChain(const std::vector<ChainStage>& chain) {
  std::string out;
  for (const ChainStage& stage : chain) {
    if (!out.empty()) out += " | ";
    switch (stage.kind) {
      case ChainStage::Kind::kFilter:
        out += "Filter" + stage.predicate->ToString();
        break;
      case ChainStage::Kind::kMap:
        out += "Map(";
        for (const MapSpec& spec : stage.specs) {
          out += spec.name + "=" + spec.expr->ToString() + ";";
        }
        out += ")";
        break;
      case ChainStage::Kind::kProject:
        out += "Project(";
        for (const std::string& name : stage.fields) out += name + ",";
        out += ")";
        break;
    }
  }
  return out;
}

Result<LogicalPlan> ChainPlan(const std::vector<ChainStage>& chain) {
  Query q = Query::From(std::make_unique<MemorySource>(
      DiffSchema(), std::vector<std::vector<Value>>{}));
  for (const ChainStage& stage : chain) {
    switch (stage.kind) {
      case ChainStage::Kind::kFilter:
        std::move(q).Filter(stage.predicate);
        break;
      case ChainStage::Kind::kMap:
        std::move(q).MapAll(stage.specs);
        break;
      case ChainStage::Kind::kProject:
        std::move(q).Project(stage.fields);
        break;
    }
  }
  std::move(q).To(std::make_shared<CountingSink>(DiffSchema()));
  return std::move(q).Build();
}

// Binds `ops`' instruments in `registry` as the engine binds a linear
// plan's, and returns their flow entries.
std::vector<FlowEntry> BindChain(const std::vector<OperatorPtr>& ops,
                                 metrics::MetricsRegistry* registry) {
  InstrumentNamer names("");
  std::vector<FlowEntry> entries;
  for (const OperatorPtr& op : ops) op->BindMetrics(registry, &names, &entries);
  return entries;
}

void ExpectSameFlow(const std::vector<FlowEntry>& compiled,
                    const std::vector<FlowEntry>& interpreted,
                    const std::string& what) {
  ASSERT_EQ(compiled.size(), interpreted.size()) << what;
  for (size_t s = 0; s < compiled.size(); ++s) {
    const OperatorStats got = compiled[s].flow.Read();
    const OperatorStats want = interpreted[s].flow.Read();
    EXPECT_EQ(compiled[s].key, interpreted[s].key) << what;
    EXPECT_EQ(got.events_in, want.events_in) << what << " stage " << s;
    EXPECT_EQ(got.events_out, want.events_out) << what << " stage " << s;
    EXPECT_EQ(got.bytes_in, want.bytes_in) << what << " stage " << s;
    EXPECT_EQ(got.bytes_out, want.bytes_out) << what << " stage " << s;
  }
}

// Generated Filter/Map/Project chains give the same rows and the same
// per-stage flow compiled into one fused run as interpreted operator by
// operator, fed as a full buffer, as a partial selection, and as a
// selection of rows the chain drops (so the run's selection ends empty).
TEST(FusedRunDifferential, GeneratedChainsMatchTheInterpreter) {
  RegisterBuiltinFunctions();
  RegisterTestLambdas();
  const Schema schema = DiffSchema();
  ChainGenerator generator(20261019);
  std::mt19937_64 data_rng(8472);
  constexpr size_t kChains = 1200;
  constexpr size_t kRows = 48;
  CompileOptions compiled;
  CompileOptions interpreted;
  interpreted.compiled_kernels = false;
  for (size_t c = 0; c < kChains; ++c) {
    const std::vector<ChainStage> chain = generator.Next();
    const std::string what =
        "chain " + std::to_string(c) + ": " + DescribeChain(chain);
    auto plan = ChainPlan(chain);
    ASSERT_TRUE(plan.ok()) << what << ": " << plan.status().ToString();
    auto fused = CompilePlan(schema, *plan, nullptr, compiled);
    auto reference = CompilePlan(schema, *plan, nullptr, interpreted);
    auto probe = CompilePlan(schema, *plan, nullptr, interpreted);
    ASSERT_TRUE(fused.ok()) << what << ": " << fused.status().ToString();
    ASSERT_TRUE(reference.ok()) << what;
    ASSERT_TRUE(probe.ok()) << what;
    ASSERT_EQ(fused->operators.size(), 1u) << what;
    ExecutionContext ctx;
    for (const auto* ops :
         {&fused->operators, &reference->operators, &probe->operators}) {
      for (const OperatorPtr& op : *ops) ASSERT_TRUE(op->Open(&ctx).ok());
    }
    metrics::MetricsRegistry fused_metrics;
    metrics::MetricsRegistry reference_metrics;
    const std::vector<FlowEntry> fused_flow =
        BindChain(fused->operators, &fused_metrics);
    const std::vector<FlowEntry> reference_flow =
        BindChain(reference->operators, &reference_metrics);

    const TupleBufferPtr buf = DiffBuffer(&data_rng, kRows);
    auto partial = std::make_shared<exec::SelectionVector>();
    for (uint32_t r = 0; r < kRows; ++r) {
      if (data_rng() % 2 == 0) partial->push_back(r);
    }
    // The rows the chain drops, each found by running it alone.
    auto dropped = std::make_shared<exec::SelectionVector>();
    for (uint32_t r = 0; r < kRows; ++r) {
      Rows out;
      const exec::Batch one(buf, std::make_shared<exec::SelectionVector>(
                                     exec::SelectionVector{r}));
      ASSERT_TRUE(DriveChain(probe->operators, 0, &one, &out).ok()) << what;
      if (out.empty()) dropped->push_back(r);
    }
    const exec::Batch feeds[] = {exec::Batch(buf), exec::Batch(buf, partial),
                                 exec::Batch(buf, dropped)};
    for (size_t f = 0; f < 3; ++f) {
      const std::string feed = what + " (feed " + std::to_string(f) + ")";
      Rows want;
      Rows got;
      ASSERT_TRUE(DriveChain(reference->operators, 0, &feeds[f], &want).ok())
          << feed;
      ASSERT_TRUE(DriveChain(fused->operators, 0, &feeds[f], &got).ok())
          << feed;
      EXPECT_EQ(got, want) << feed;
      if (f == 2) {
        EXPECT_TRUE(got.empty()) << feed;
      }
      ExpectSameFlow(fused_flow, reference_flow, feed);
    }
    if (::testing::Test::HasFailure()) break;  // one chain's report is enough
  }
  const char* kFeatureNames[] = {
      "map replaces an input field",  "map reads an earlier map",
      "project drops, map re-adds",   "text comparison after a map",
      "shared on OR's right, re-read", "int64-declared double lambda",
      "lambda inside an expression",  "look-alike subtrees in one scope"};
  for (size_t f = 0; f < kNumChainFeatures; ++f) {
    EXPECT_GT(generator.features()[f], 0u) << kFeatureNames[f];
  }
}

// `1.1 < test.halve(value)` keeps the same rows compiled and interpreted:
// both paths read the lambda's double as its declared int64, so no row
// whose half lies in (1.1, 2) passes.
TEST(FusedRunDifferential, Int64LambdaReturningDoubleFiltersAlike) {
  RegisterTestLambdas();
  auto plan = Query::From(MakeSource(1))
                  .Filter(Lt(Lit(1.1), Fn("test.halve", {Attribute("value")})))
                  .To(std::make_shared<CountingSink>(EventSchema()))
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const exec::Batch batch(MakeBuffer(14));  // values -3 .. 6 in steps of 1.5
  Rows rows[2];
  for (const bool compiled : {false, true}) {
    CompileOptions options;
    options.compiled_kernels = compiled;
    auto pipe = CompilePlan(EventSchema(), *plan, nullptr, options);
    ASSERT_TRUE(pipe.ok()) << pipe.status().ToString();
    EXPECT_EQ(pipe->operators[0]->name(),
              compiled ? "BatchKernels(Filter)" : "Filter");
    ASSERT_TRUE(DriveChain(pipe->operators, 0, &batch, &rows[compiled]).ok());
  }
  EXPECT_EQ(rows[1], rows[0]);
  // halve(3) = 1.5 reads as 1; only 4.5 and 6 (halves 2.25, 3) pass.
  ASSERT_EQ(rows[0].size(), 4u);
  for (const auto& row : rows[0]) EXPECT_GE(std::get<double>(row[2]), 4.5);
}

// Calls of `test.counted`, a bool lambda true for a positive argument.
std::atomic<uint64_t>& CountedCalls() {
  static std::atomic<uint64_t> calls{0};
  return calls;
}

bool RegisterCountedLambda() {
  static const bool registered =
      RegisterLambdaFunction("test.counted", 1, DataType::kBool,
                             [](const std::vector<Value>& v) {
                               CountedCalls().fetch_add(1);
                               return Value(ValueAsDouble(v[0]) > 0.0);
                             })
          .ok();
  return registered;
}

// A lambda on an AND's (and an OR's) right side runs on exactly the rows
// the interpreter runs it on: those the left side leaves undecided.
TEST(FusedRunDifferential, RightSideLambdaRunsOnTheInterpretersRows) {
  ASSERT_TRUE(RegisterCountedLambda());
  const Schema schema = DiffSchema();
  auto plan =
      Query::From(std::make_unique<MemorySource>(
                      schema, std::vector<std::vector<Value>>{}))
          .Filter(And(Gt(Attribute("d"), Lit(2.0)),
                      Fn("test.counted", {Attribute("e")})))
          .Map("m", Add(Attribute("i"), Lit(int64_t{1})))
          .Filter(Or(Gt(Attribute("m"), Lit(int64_t{0})),
                     Fn("test.counted", {Attribute("d")})))
          .To(std::make_shared<CountingSink>(schema))
          .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::mt19937_64 data_rng(31);
  const TupleBufferPtr buf = DiffBuffer(&data_rng, 512);
  auto partial = std::make_shared<exec::SelectionVector>();
  for (uint32_t r = 0; r < buf->size(); r += 3) partial->push_back(r);
  auto run = [&](bool compiled, uint64_t* calls) {
    CompileOptions options;
    options.compiled_kernels = compiled;
    auto pipe = CompilePlan(schema, *plan, nullptr, options);
    EXPECT_TRUE(pipe.ok()) << pipe.status().ToString();
    ExecutionContext ctx;
    for (const OperatorPtr& op : pipe->operators) {
      EXPECT_TRUE(op->Open(&ctx).ok());
    }
    CountedCalls().store(0);
    Rows rows;
    for (const exec::Batch& batch :
         {exec::Batch(buf), exec::Batch(buf, partial)}) {
      EXPECT_TRUE(DriveChain(pipe->operators, 0, &batch, &rows).ok());
    }
    *calls = CountedCalls().load();
    return rows;
  };
  uint64_t compiled_calls = 0;
  uint64_t interpreted_calls = 0;
  const Rows compiled_rows = run(true, &compiled_calls);
  const Rows interpreted_rows = run(false, &interpreted_calls);
  EXPECT_EQ(compiled_rows, interpreted_rows);
  EXPECT_FALSE(compiled_rows.empty());
  EXPECT_EQ(compiled_calls, interpreted_calls);
  // Both sides short-circuit most rows: d > 2 holds for under half.
  EXPECT_GT(compiled_calls, 0u);
  EXPECT_LT(compiled_calls, buf->size() + partial->size());
}

// Kernel CSE keeps short circuits lazy: a cached lambda on two AND arms
// whose guards fail on every row is never called.
TEST(KernelCse, SharedLambdaBehindAFailingGuardNeverRuns) {
  ASSERT_TRUE(RegisterCountedLambda());
  const Schema schema = DiffSchema();
  auto guarded = [](const char* guard_field) {
    return And(Gt(Attribute(guard_field), Lit(1000.0)),
               Fn("test.counted", {Attribute("e")}));
  };
  auto plan = Query::From(std::make_unique<MemorySource>(
                              schema, std::vector<std::vector<Value>>{}))
                  .Filter(Or(guarded("d"), guarded("i")))
                  .To(std::make_shared<CountingSink>(schema))
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto pipe = CompilePlan(schema, *plan);
  ASSERT_TRUE(pipe.ok()) << pipe.status().ToString();
  ASSERT_EQ(pipe->operators.size(), 1u);
  const auto* fused =
      dynamic_cast<const exec::BatchKernelOperator*>(pipe->operators[0].get());
  ASSERT_NE(fused, nullptr);
  ASSERT_NE(fused->cse_cache(), nullptr);
  EXPECT_EQ(fused->cse_cache()->num_slots(), 1u);  // the lambda call
  ExecutionContext ctx;
  ASSERT_TRUE(pipe->operators[0]->Open(&ctx).ok());
  std::mt19937_64 data_rng(5);
  const exec::Batch batch(DiffBuffer(&data_rng, 64));
  CountedCalls().store(0);
  Rows rows;
  ASSERT_TRUE(DriveChain(pipe->operators, 0, &batch, &rows).ok());
  EXPECT_TRUE(rows.empty());
  EXPECT_EQ(CountedCalls().load(), 0u);
}

}  // namespace
}  // namespace nebulameos::nebula
