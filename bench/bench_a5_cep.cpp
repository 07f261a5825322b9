/// \file bench_a5_cep.cpp
/// \brief Ablation A5 — CEP kernel throughput vs pattern length and key
/// count (the GCEP substrate of Q5-Q8).

#include <benchmark/benchmark.h>

#include "nebula/cep.hpp"

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

Pattern MakePattern(int steps) {
  Pattern p;
  for (int s = 0; s < steps; ++s) {
    // Each step matches a distinct value band so runs progress through the
    // sequence as the (cyclic) input sweeps bands.
    const double lo = 10.0 * s;
    p.steps.push_back(PatternStep{
        "s" + std::to_string(s),
        And(Ge(Attribute("value"), Lit(lo)),
            Lt(Attribute("value"), Lit(lo + 10.0))),
        false, false});
  }
  p.within = Minutes(30);
  p.key_field = "key";
  p.time_field = "ts";
  return p;
}

TupleBufferPtr MakeInput(size_t n, int64_t keys, int bands) {
  auto buf = std::make_shared<TupleBuffer>(EventSchema(), n);
  for (size_t i = 0; i < n; ++i) {
    RecordWriter w = buf->Append();
    w.SetInt64(0, static_cast<int64_t>(i) % keys);
    w.SetInt64(1, static_cast<Timestamp>(i) * Millis(100));
    // Cycle through the value bands so patterns complete regularly.
    w.SetDouble(2, 10.0 * static_cast<double>((i / keys) % bands) + 5.0);
  }
  return buf;
}

void BM_CepPatternLength(benchmark::State& state) {
  const int steps = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto op = CepOperator::Make(EventSchema(), MakePattern(steps),
                                {Measure::Count("s0", "n")});
    ExecutionContext ctx;
    (void)(*op)->Open(&ctx);
    auto input = MakeInput(8192, 6, steps);
    state.ResumeTiming();
    (void)(*op)->ProcessBatch(exec::Batch(input), [](const exec::Batch&) {});
  }
  state.SetItemsProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_CepPatternLength)->Arg(2)->Arg(3)->Arg(5)->Arg(8);

void BM_CepKeyCount(benchmark::State& state) {
  const int64_t keys = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    auto op = CepOperator::Make(EventSchema(), MakePattern(3),
                                {Measure::Count("s0", "n")});
    ExecutionContext ctx;
    (void)(*op)->Open(&ctx);
    auto input = MakeInput(8192, keys, 3);
    state.ResumeTiming();
    (void)(*op)->ProcessBatch(exec::Batch(input), [](const exec::Batch&) {});
  }
  state.SetItemsProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_CepKeyCount)->Arg(1)->Arg(6)->Arg(64)->Arg(512);

void BM_CepKleene(benchmark::State& state) {
  Pattern p;
  p.steps = {
      PatternStep{"start", Lt(Attribute("value"), Lit(10.0)), false, false},
      PatternStep{"burst", Ge(Attribute("value"), Lit(10.0)), false, true},
      PatternStep{"end", Lt(Attribute("value"), Lit(10.0)), false, false}};
  p.within = Minutes(30);
  p.key_field = "key";
  p.time_field = "ts";
  for (auto _ : state) {
    state.PauseTiming();
    auto op = CepOperator::Make(EventSchema(), p,
                                {Measure::Count("burst", "n"),
                                 Measure::Max("burst", "value", "peak")});
    ExecutionContext ctx;
    (void)(*op)->Open(&ctx);
    auto input = MakeInput(8192, 6, 2);
    state.ResumeTiming();
    (void)(*op)->ProcessBatch(exec::Batch(input), [](const exec::Batch&) {});
  }
  state.SetItemsProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_CepKleene);

}  // namespace

BENCHMARK_MAIN();
