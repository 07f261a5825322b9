/// \file metrics_observability.cpp
/// \brief Observability walkthrough: run a query with the rate sampler
/// enabled, then read the per-operator / per-strand / engine instruments
/// out of a `MetricsSnapshot` and dump both export formats.
///
/// Also doubles as the CI smoke check (`scripts/check.sh` runs it and
/// greps the JSON): exits non-zero unless the snapshot carries a
/// populated ingest counter, at least one operator latency histogram and
/// a queue-depth gauge, and unless the filter's flow instruments in the
/// snapshot read the numbers of its `Stats()` entry — `QueryStats` is a
/// view over the same registry.

#include <cstdio>

#include "nebula/engine.hpp"

using namespace nebulameos;          // NOLINT
using namespace nebulameos::nebula;  // NOLINT

int main() {
  // A generator stream of noisy sensor readings, filtered and rescaled —
  // enough operators that the per-operator histograms have shape.
  Schema schema = Schema::Build()
                      .AddInt64("id")
                      .AddTimestamp("ts")
                      .AddDouble("reading")
                      .Finish();
  auto tick = std::make_shared<int64_t>(0);
  auto source = std::make_unique<GeneratorSource>(
      schema,
      [tick](RecordWriter* w) {
        const int64_t i = (*tick)++;
        w->SetInt64(0, i % 16);
        w->SetInt64(1, i * kMicrosPerSecond);
        w->SetDouble(2, static_cast<double>(i % 100));
        return true;
      },
      /*max_events=*/50'000, "ts");

  auto sink = std::make_shared<CollectSink>(Schema::Build()
                                                .AddInt64("id")
                                                .AddTimestamp("ts")
                                                .AddDouble("reading")
                                                .AddDouble("scaled")
                                                .Finish());
  auto plan = Query::From(std::move(source))
                  .Filter(Gt(Attribute("reading"), Lit(25.0)))
                  .Map("scaled", Mul(Attribute("reading"), Lit(1.5)))
                  .To(sink)
                  .Build();
  if (!plan.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }

  // metrics_interval turns on the per-query sampler thread that publishes
  // windowed engine.{ingest,emit}_events_per_sec gauges. Collection of
  // counters/histograms is on by default regardless.
  EngineOptions options;
  options.metrics_interval = Millis(20);
  NodeEngine engine(options);
  auto id = engine.Submit(std::move(*plan));
  if (!id.ok()) {
    std::fprintf(stderr, "submit failed: %s\n",
                 id.status().ToString().c_str());
    return 1;
  }
  if (Status st = engine.RunToCompletion(*id); !st.ok()) {
    std::fprintf(stderr, "run failed: %s\n", st.ToString().c_str());
    return 1;
  }

  auto snap = engine.Metrics(*id);
  if (!snap.ok()) {
    std::fprintf(stderr, "metrics failed: %s\n",
                 snap.status().ToString().c_str());
    return 1;
  }

  // Smoke assertions: a completed query must have ingested events, timed
  // at least one operator, and registered its strand gauge. check.sh
  // relies on a non-zero exit here.
  const auto ingested = snap->counters.find("engine.events_ingested");
  if (ingested == snap->counters.end() || ingested->second == 0) {
    std::fprintf(stderr, "SMOKE FAIL: engine.events_ingested missing/zero\n");
    return 1;
  }
  bool timed_op = false;
  for (const auto& [name, hist] : snap->histograms) {
    if (name.rfind("op.", 0) == 0 && hist.count > 0) timed_op = true;
  }
  if (!timed_op) {
    std::fprintf(stderr, "SMOKE FAIL: no populated op.* histogram\n");
    return 1;
  }
  bool has_strand_gauge = false;
  for (const auto& [name, value] : snap->gauges) {
    (void)value;
    if (name.rfind("worker.strand.", 0) == 0) has_strand_gauge = true;
  }
  if (!has_strand_gauge) {
    std::fprintf(stderr, "SMOKE FAIL: no worker.strand.* gauge\n");
    return 1;
  }
  if (snap->counters.at("engine.metric_samples") == 0) {
    std::fprintf(stderr, "SMOKE FAIL: sampler never ticked\n");
    return 1;
  }
  auto stats = engine.Stats(*id);
  const OperatorStats filter = stats->operator_stats.at(0).second;
  if (stats->operator_stats[0].first != "Filter" || filter.events_out == 0 ||
      snap->histograms["op.Filter.batch_rows"].sum !=
          static_cast<int64_t>(filter.events_in) ||
      snap->counters["op.Filter.bytes_in"] != filter.bytes_in ||
      snap->counters["op.Filter.events_out"] != filter.events_out ||
      snap->counters["op.Filter.bytes_out"] != filter.bytes_out) {
    std::fprintf(stderr, "SMOKE FAIL: op.Filter.* disagrees with Stats()\n");
    return 1;
  }

  std::printf("rows surviving the filter: %zu\n\n", sink->Rows().size());
  std::printf("--- snapshot as JSON ---\n%s\n", snap->ToJson().c_str());
  std::printf("--- snapshot as Prometheus text ---\n%s",
              snap->ToPrometheusText().c_str());
  return 0;
}
