/// \file topk_nearest_trains.cpp
/// \brief The paper's future-work feature, implemented: "aggregation
/// functions that can work with elements within the stream to answer
/// queries such as identifying the top-k nearest trains" (§4).
///
/// Streams fleet positions through the `TopKNearestOperator`: per 2-minute
/// window it assembles each train's trajectory and ranks the other trains
/// by exact nearest-approach distance (minimum of the relative motion, not
/// a snapshot distance).
///
/// Run: `example_topk_nearest_trains [events]` (default 200000).

#include <cstdio>
#include <map>

#include "nebulameos/topk_nearest.hpp"
#include "sncb/records.hpp"

using namespace nebulameos;               // NOLINT
using namespace nebulameos::integration;  // NOLINT
using namespace nebulameos::nebula;       // NOLINT

int main(int argc, char** argv) {
  uint64_t events = 200'000;
  if (argc > 1) events = std::strtoull(argv[1], nullptr, 10);

  const sncb::RailNetwork network = sncb::BuildBelgianNetwork();
  sncb::SncbSources sources(&network);

  TopKNearestOptions options;
  options.k = 2;
  options.window = Minutes(2);
  options.key_field = "train_id";
  options.time_field = "ts";

  auto op = TopKNearestOperator::Make(sncb::PositionSchema(), options);
  if (!op.ok()) {
    std::fprintf(stderr, "operator: %s\n", op.status().ToString().c_str());
    return 1;
  }
  ExecutionContext ctx;
  (void)(*op)->Open(&ctx);

  // Drive the operator directly from the fleet position stream and print
  // the last fired window per train.
  std::map<int64_t, std::vector<std::string>> latest;
  Timestamp last_window = 0;
  auto collect = [&](const exec::Batch& out) {
    for (size_t i = 0; i < out.NumRows(); ++i) {
      const RecordView rec = out.data->At(out.RowAt(i));
      if (rec.GetInt64(1) != last_window) {
        last_window = rec.GetInt64(1);
        latest.clear();
      }
      char line[128];
      std::snprintf(line, sizeof(line), "#%lld train %lld at %.1f km",
                    static_cast<long long>(rec.GetInt64(3)),
                    static_cast<long long>(rec.GetInt64(4)),
                    rec.GetDouble(5) / 1000.0);
      latest[rec.GetInt64(0)].push_back(line);
    }
  };

  auto source = sources.Position(events);
  uint64_t windows_seen = 0;
  while (true) {
    auto buf = std::make_shared<TupleBuffer>(sncb::PositionSchema(), 4096);
    auto more = source->Fill(buf.get());
    if (!more.ok()) {
      std::fprintf(stderr, "source: %s\n", more.status().ToString().c_str());
      return 1;
    }
    if (!buf->empty()) {
      const Timestamp before = last_window;
      (void)(*op)->ProcessBatch(exec::SealedBatch(buf), collect);
      if (last_window != before) ++windows_seen;
    }
    if (!*more) break;
  }
  (void)(*op)->Finish(collect);

  std::printf("top-%zu nearest trains, final %s window (of %llu events):\n\n",
              options.k, "2-minute",
              static_cast<unsigned long long>(events));
  for (const auto& [train, neighbors] : latest) {
    std::printf("  train %lld:", static_cast<long long>(train));
    for (const auto& line : neighbors) std::printf("  %s", line.c_str());
    std::printf("\n");
  }
  std::printf("\n(distances are exact nearest-approach distances between "
              "the moving trains within the window)\n");
  return 0;
}
