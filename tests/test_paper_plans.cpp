// The paper's plans return the same row sets compiled and interpreted, at
// 1 and at 4 workers: Q1-Q8, the Q4 join variant and the shared-ingest
// fan-out, one test (and one ctest entry) per plan. Every Filter and Map
// in them compiles to a batch kernel, and every run builds only the pool
// buffers it keeps in flight.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "queries/queries.hpp"

namespace nebulameos::queries {
namespace {

using nebula::NodeEngine;
using nebula::Value;
using Rows = std::vector<std::vector<Value>>;

constexpr int kJoinVariant = 9;
constexpr int kFanOut = 10;

struct Built {
  nebula::LogicalPlan plan;
  std::vector<std::shared_ptr<nebula::CollectSink>> sinks;
};

class PaperPlansTest : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    auto env = DemoEnvironment::Create();
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    env_ = *env;
  }

  static QueryOptions Options() {
    QueryOptions options;
    options.max_events = 200'000;
    options.sink = SinkMode::kCollect;
    options.fleet.unscheduled_stop_prob = 4e-4;  // Q7 sees stops
    return options;
  }

  static Built Build(int q) {
    Built out;
    if (q == kFanOut) {
      auto built = BuildSharedIngestFanOut(*env_, Options());
      EXPECT_TRUE(built.ok()) << built.status().ToString();
      out.plan = std::move(built->plan);
      out.sinks = built->collects;
      return out;
    }
    auto built = q == kJoinVariant ? BuildQ4WeatherJoin(*env_, Options())
                                   : BuildQuery(q, *env_, Options());
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    out.plan = std::move(built->plan);
    out.sinks = {built->collect};
    return out;
  }

  // Runs plan `q` and returns each sink's rows, sorted.
  static std::vector<Rows> Run(int q, bool compiled, size_t workers) {
    Built built = Build(q);
    nebula::EngineOptions engine_options;
    engine_options.compiled_kernels = compiled;
    engine_options.worker_threads = workers;
    NodeEngine engine(engine_options);
    auto id = engine.Submit(std::move(built.plan));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_TRUE(engine.RunToCompletion(*id).ok());
    // Pools build buffers on demand, so a query holds the buffers it keeps
    // in flight: hundreds drawn, a handful built at 1 worker, and far
    // below one full 128-buffer pool at 4. The engine guarantees only the
    // 128-per-pool cap (hand-offs from workers never block); 8 and 64 are
    // margins over the peaks seen, 6 at 1 worker and 15 at 4.
    auto stats = engine.Stats(*id);
    if (!stats.ok()) {
      ADD_FAILURE() << "plan " << q << ": " << stats.status().ToString();
      return {};
    }
    EXPECT_GT(stats->buffers_created, 0u) << "plan " << q;
    EXPECT_LE(stats->buffers_created, workers == 1 ? 8u : 64u)
        << "plan " << q << " compiled=" << compiled << " workers=" << workers;
    EXPECT_LT(stats->buffers_created, stats->buffers_acquired)
        << "plan " << q << " compiled=" << compiled << " workers=" << workers;
    std::vector<Rows> per_sink;
    for (const auto& sink : built.sinks) {
      Rows rows = sink->Rows();
      std::sort(rows.begin(), rows.end());
      per_sink.push_back(std::move(rows));
    }
    return per_sink;
  }

  static std::shared_ptr<DemoEnvironment> env_;
};

std::shared_ptr<DemoEnvironment> PaperPlansTest::env_;

TEST_P(PaperPlansTest, CompileAndMatchInterpretedRowSets) {
  const int q = GetParam();
  const std::vector<Rows> reference = Run(q, /*compiled=*/false, 1);
  for (const Rows& rows : reference) EXPECT_FALSE(rows.empty()) << q;
  for (const size_t workers : {size_t{1}, size_t{4}}) {
    for (const bool compiled : {false, true}) {
      if (!compiled && workers == 1) continue;  // the reference
      EXPECT_TRUE(Run(q, compiled, workers) == reference)
          << "plan " << q << " compiled=" << compiled
          << " workers=" << workers;
    }
  }

  // No interpreted Filter or Map is left in the plan's pipelines.
  Built built = Build(q);
  auto pipe = nebula::CompilePlan(built.plan.source()->schema(), built.plan);
  ASSERT_TRUE(pipe.ok()) << pipe.status().ToString();
  std::vector<const nebula::CompiledPipeline*> segments = {&*pipe};
  while (!segments.empty()) {
    const nebula::CompiledPipeline* segment = segments.back();
    segments.pop_back();
    for (const auto& branch : segment->branches) segments.push_back(&branch);
    for (const auto& op : segment->operators) {
      EXPECT_NE(op->name(), "Filter") << "plan " << q;
      EXPECT_NE(op->name(), "Map") << "plan " << q;
    }
  }
}

std::string PlanName(const ::testing::TestParamInfo<int>& info) {
  if (info.param == kJoinVariant) return "Q4Join";
  if (info.param == kFanOut) return "FanOut";
  return "Q" + std::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(Paper, PaperPlansTest,
                         ::testing::Range(1, kFanOut + 1), PlanName);

}  // namespace
}  // namespace nebulameos::queries
