/// \file bench_a2_windows.cpp
/// \brief Ablation A2 — cost of the window extensions (tumbling, sliding,
/// threshold) over spatiotemporal streams, by window type and key count.

#include <benchmark/benchmark.h>

#include "nebula/operators.hpp"

namespace {

using namespace nebulameos;          // NOLINT
using namespace nebulameos::nebula;  // NOLINT

Schema EventSchema() {
  return Schema::Build()
      .AddInt64("key")
      .AddTimestamp("ts")
      .AddDouble("value")
      .Finish();
}

// Builds one input buffer of `n` events across `keys` keys, 100 ms apart.
TupleBufferPtr MakeInput(size_t n, int64_t keys, Timestamp start) {
  auto buf = std::make_shared<TupleBuffer>(EventSchema(), n);
  for (size_t i = 0; i < n; ++i) {
    RecordWriter w = buf->Append();
    w.SetInt64(0, static_cast<int64_t>(i) % keys);
    w.SetInt64(1, start + static_cast<Timestamp>(i) * Millis(100));
    w.SetDouble(2, static_cast<double>(i % 100));
  }
  return buf;
}

void RunWindowBench(benchmark::State& state, const WindowSpec& spec) {
  const int64_t keys = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    WindowAggOptions opts;
    opts.key_field = "key";
    opts.time_field = "ts";
    opts.window = spec;
    opts.aggregates = {AggregateSpec::Avg("value", "avg"),
                       AggregateSpec::Max("value", "peak"),
                       AggregateSpec::Count("n")};
    auto op = WindowAggOperator::Make(EventSchema(), opts);
    ExecutionContext ctx;
    (void)(*op)->Open(&ctx);
    auto input = MakeInput(8192, keys, 0);
    state.ResumeTiming();
    (void)(*op)->ProcessBatch(exec::Batch(input), [](const exec::Batch&) {});
    (void)(*op)->Finish([](const exec::Batch&) {});
  }
  state.SetItemsProcessed(state.iterations() * 8192);
}

void BM_TumblingWindow(benchmark::State& state) {
  RunWindowBench(state, TumblingWindowSpec{Seconds(10)});
}
BENCHMARK(BM_TumblingWindow)->Arg(1)->Arg(6)->Arg(64)->Arg(512);

void BM_SlidingWindow4x(benchmark::State& state) {
  // Slide = size/4: every event lands in 4 windows.
  RunWindowBench(state, SlidingWindowSpec{Seconds(10), Millis(2500)});
}
BENCHMARK(BM_SlidingWindow4x)->Arg(1)->Arg(6)->Arg(64)->Arg(512);

void BM_ThresholdWindow(benchmark::State& state) {
  const int64_t keys = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    ThresholdWindowOptions opts;
    // ~half the events hold the predicate, giving frequent open/close.
    opts.predicate = Gt(Attribute("value"), Lit(50.0));
    opts.key_field = "key";
    opts.time_field = "ts";
    opts.aggregates = {AggregateSpec::Avg("value", "avg"),
                       AggregateSpec::Count("n")};
    auto op = ThresholdWindowOperator::Make(EventSchema(), opts);
    ExecutionContext ctx;
    (void)(*op)->Open(&ctx);
    auto input = MakeInput(8192, keys, 0);
    state.ResumeTiming();
    (void)(*op)->ProcessBatch(exec::Batch(input), [](const exec::Batch&) {});
    (void)(*op)->Finish([](const exec::Batch&) {});
  }
  state.SetItemsProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_ThresholdWindow)->Arg(1)->Arg(6)->Arg(64)->Arg(512);

void BM_WindowAssigner(benchmark::State& state) {
  auto assigner =
      WindowAssigner::Make(SlidingWindowSpec{Seconds(10), Seconds(1)});
  std::vector<Timestamp> starts;
  Timestamp t = 0;
  for (auto _ : state) {
    assigner->AssignWindows(t, &starts);
    benchmark::DoNotOptimize(starts.data());
    t += Millis(100);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WindowAssigner);

}  // namespace

BENCHMARK_MAIN();
