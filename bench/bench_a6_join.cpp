/// \file bench_a6_join.cpp
/// \brief Ablation A6 — cost of the temporal lookup join (the Q4 weather
/// integration) by lookup-table size and hit rate.

#include <benchmark/benchmark.h>

#include "nebula/join.hpp"
#include "nebula/source.hpp"

namespace {

using namespace nebulameos;          // NOLINT
using namespace nebulameos::nebula;  // NOLINT

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

// Right side: `cells` keys x `per_key` observations, 15 minutes apart.
std::shared_ptr<Source> MakeRight(int64_t cells, int per_key) {
  std::vector<std::vector<Value>> rows;
  for (int64_t c = 0; c < cells; ++c) {
    for (int i = 0; i < per_key; ++i) {
      rows.push_back({Value(c), Value(Minutes(15) * i),
                      Value(int64_t{i % 5}), Value(0.5)});
    }
  }
  return std::make_shared<MemorySource>(RightSchema(), std::move(rows), 1,
                                        "ts");
}

void BM_LookupJoin(benchmark::State& state) {
  const int64_t cells = state.range(0);
  const int per_key = static_cast<int>(state.range(1));
  TemporalLookupJoinOptions options;
  options.lookup = MakeRight(cells, per_key);
  options.left_key = "cell";
  options.right_key = "cell";
  options.left_time = "ts";
  options.right_time = "ts";
  options.max_age = Hours(1);
  auto op = TemporalLookupJoinOperator::Make(LeftSchema(), options);
  ExecutionContext ctx;
  (void)(*op)->Open(&ctx);

  auto input = std::make_shared<TupleBuffer>(LeftSchema(), 8192);
  for (int i = 0; i < 8192; ++i) {
    RecordWriter w = input->Append();
    w.SetInt64(0, i % cells);
    w.SetInt64(1, Minutes(15) * ((i / 64) % per_key) + Seconds(30));
    w.SetDouble(2, static_cast<double>(i));
  }
  for (auto _ : state) {
    (void)(*op)->ProcessBatch(exec::Batch(input), [](const exec::Batch&) {});
  }
  state.SetItemsProcessed(state.iterations() * 8192);
  state.SetLabel(std::to_string(cells) + " keys x " +
                 std::to_string(per_key) + " observations");
}
BENCHMARK(BM_LookupJoin)
    ->Args({6, 96})      // the Q4 weather table: 6 cells x 24h/15min
    ->Args({64, 96})
    ->Args({6, 4096})
    ->Args({1024, 96});

void BM_LookupJoinMissHeavy(benchmark::State& state) {
  TemporalLookupJoinOptions options;
  options.lookup = MakeRight(6, 96);
  options.left_key = "cell";
  options.right_key = "cell";
  options.left_time = "ts";
  options.right_time = "ts";
  options.max_age = Hours(1);
  auto op = TemporalLookupJoinOperator::Make(LeftSchema(), options);
  ExecutionContext ctx;
  (void)(*op)->Open(&ctx);
  // Every probe uses an unknown key: pure miss path.
  auto input = std::make_shared<TupleBuffer>(LeftSchema(), 8192);
  for (int i = 0; i < 8192; ++i) {
    RecordWriter w = input->Append();
    w.SetInt64(0, 1000 + i % 7);
    w.SetInt64(1, Minutes(i % 90));
    w.SetDouble(2, 0.0);
  }
  for (auto _ : state) {
    (void)(*op)->ProcessBatch(exec::Batch(input), [](const exec::Batch&) {});
  }
  state.SetItemsProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_LookupJoinMissHeavy);

}  // namespace

BENCHMARK_MAIN();
