/// \file bench_hotpath_kernels.cpp
/// \brief Hot-path microbench: interpreted `Expression::Eval` vs compiled
/// batch kernels, records/sec per workload, written to `BENCH_hotpath.json`.
///
/// Drives pre-filled buffers straight through compiled pipelines (no
/// source simulation, no engine threads), so the numbers isolate the
/// expression-evaluation and per-emit-hop hot path this PR rewrites:
///
///   - geofence_filter:   Filter(in_zone_kind(lon, lat, 'maintenance')) —
///                        the paper's Q1 shape; interpreted evaluation
///                        boxes three Values (one a heap string) per row.
///   - stbox_filter:      Filter(tpoint_at_stbox(...)) — the
///                        MeosAtStbox_Expression geofence primitive.
///   - arith_filter:      pure comparison/logic kernels.
///   - fused_filter_map:  Filter → Map → Project fused into one batch pass.
///   - passthrough:       two always-true filters — measures the per-emit
///                        hop (FunctionRef) and zero-copy passthrough.
///
/// The acceptance bar for this PR: compiled ≥ 2x interpreted on
/// geofence_filter and fused_filter_map.

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/time.hpp"
#include "nebula/engine.hpp"
#include "nebula/worker_pool.hpp"
#include "nebulameos/plugin.hpp"

using namespace nebulameos;          // NOLINT
using namespace nebulameos::nebula;  // NOLINT

namespace {

Schema GeoSchema() {
  return Schema::Build()
      .AddInt64("train_id")
      .AddTimestamp("ts")
      .AddDouble("lon")
      .AddDouble("lat")
      .AddDouble("speed_kmh")
      .AddDouble("noise_db")
      .Finish();
}

// Deterministic LCG so both modes see identical data.
struct Lcg {
  uint64_t state = 0x9e3779b97f4a7c15ull;
  double Next() {  // uniform [0, 1)
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 11) / 9007199254740992.0;
  }
};

std::vector<TupleBufferPtr> MakeInputs(size_t buffers, size_t rows) {
  std::vector<TupleBufferPtr> out;
  Lcg rng;
  int64_t ts = 0;
  for (size_t b = 0; b < buffers; ++b) {
    auto buf = std::make_shared<TupleBuffer>(GeoSchema(), rows);
    for (size_t i = 0; i < rows; ++i) {
      RecordWriter w = buf->Append();
      w.SetInt64(0, static_cast<int64_t>(i % 40));
      w.SetInt64(1, ts += 1000);
      w.SetDouble(2, 4.3 + (rng.Next() - 0.5) * 0.3);   // lon
      w.SetDouble(3, 50.8 + (rng.Next() - 0.5) * 0.3);  // lat
      w.SetDouble(4, rng.Next() * 160.0);               // speed_kmh
      w.SetDouble(5, 40.0 + rng.Next() * 60.0);         // noise_db
    }
    buf->set_sequence_number(b);
    buf->set_watermark(ts);
    buf->Seal();
    out.push_back(std::move(buf));
  }
  return out;
}

std::shared_ptr<integration::GeofenceRegistry> MakeGeofences() {
  auto registry = std::make_shared<integration::GeofenceRegistry>();
  // A handful of maintenance circles scattered over the point cloud, so
  // the filter is selective but not degenerate.
  Lcg rng;
  for (int z = 0; z < 8; ++z) {
    meos::Circle circle;
    circle.center = {4.3 + (rng.Next() - 0.5) * 0.25,
                     50.8 + (rng.Next() - 0.5) * 0.25};
    circle.radius = 2500.0;  // meters
    registry->AddCircleZone("zone_" + std::to_string(z),
                            integration::ZoneKind::kMaintenance, circle);
  }
  return registry;
}

// Pushes `batch` through `pipe` from operator `from` on and, when
// `sink_rows` is set, adds the rows that reach the sink to it (flow
// counters are the engine's, so a pipeline driven here counts nothing).
Status PushBatch(CompiledPipeline* pipe, size_t from, const exec::Batch& batch,
                 uint64_t* sink_rows = nullptr) {
  if (from >= pipe->operators.size()) {
    if (pipe->sink) {
      if (sink_rows != nullptr) *sink_rows += batch.NumRows();
      return pipe->sink->ProcessBatch(batch, [](const exec::Batch&) {});
    }
    return Status::OK();
  }
  Status inner = Status::OK();
  auto forward = [&](const exec::Batch& out) {
    Status st = PushBatch(pipe, from + 1, out, sink_rows);
    if (!st.ok() && inner.ok()) inner = st;
  };
  Status s = pipe->operators[from]->ProcessBatch(batch, forward);
  return s.ok() ? inner : s;
}

struct Workload {
  std::string name;
  // Builds the plan fresh per mode (operators hold per-run stats/state).
  std::function<Result<LogicalPlan>()> build;
};

struct ModeResult {
  double mrecs_per_s = 0.0;
  uint64_t emitted = 0;
  uint64_t buffers_acquired = 0;
};

Result<ModeResult> RunMode(const Workload& workload, bool compiled,
                           const std::vector<TupleBufferPtr>& inputs,
                           int repeats) {
  NM_ASSIGN_OR_RETURN(LogicalPlan plan, workload.build());
  CompileOptions copts;
  copts.compiled_kernels = compiled;
  NM_ASSIGN_OR_RETURN(CompiledPipeline pipe,
                      CompilePlan(GeoSchema(), plan, nullptr, copts));
  ExecutionContext ctx(inputs.empty() ? 1024 : inputs[0]->capacity(), 256);
  for (OperatorPtr& op : pipe.operators) {
    NM_RETURN_NOT_OK(op->Open(&ctx));
  }
  if (pipe.sink) NM_RETURN_NOT_OK(pipe.sink->Open(&ctx));
  // Warmup (scratch columns size themselves, caches load).
  ModeResult result;
  for (const TupleBufferPtr& buf : inputs) {
    NM_RETURN_NOT_OK(PushBatch(&pipe, 0, exec::Batch(buf), &result.emitted));
  }
  const int64_t start = MonotonicNowMicros();
  uint64_t rows = 0;
  for (int r = 0; r < repeats; ++r) {
    for (const TupleBufferPtr& buf : inputs) {
      rows += buf->size();
      NM_RETURN_NOT_OK(
          PushBatch(&pipe, 0, exec::Batch(buf), &result.emitted));
    }
  }
  const double seconds =
      static_cast<double>(MonotonicNowMicros() - start) / 1e6;
  result.mrecs_per_s =
      seconds > 0.0 ? static_cast<double>(rows) / 1e6 / seconds : 0.0;
  result.buffers_acquired = ctx.TotalBuffersAcquired();
  return result;
}

// Morsel-driven thread sweep: N fresh compiled pipelines (disjoint
// operator state), one strand each on a WorkerPool(N), sealed input
// buffers dispatched round-robin. Measures how the compiled hot path
// scales when the scheduler — not the kernels — is the variable.
struct SweepResult {
  static constexpr size_t kThreads[3] = {1, 2, 4};
  double mrecs_per_s[3] = {0.0, 0.0, 0.0};
  double speedup_t4 = 0.0;
  double efficiency = 0.0;  // speedup_t4 / 4
};

Result<SweepResult> RunThreadSweep(const Workload& workload,
                                   const std::vector<TupleBufferPtr>& inputs,
                                   int repeats) {
  SweepResult sweep;
  for (int ti = 0; ti < 3; ++ti) {
    const size_t n = SweepResult::kThreads[ti];
    // One pipeline + context per worker: workers never share operator
    // state, only the immutable sealed input buffers.
    std::vector<CompiledPipeline> pipes;
    std::vector<std::unique_ptr<ExecutionContext>> ctxs;
    pipes.reserve(n);
    for (size_t w = 0; w < n; ++w) {
      NM_ASSIGN_OR_RETURN(LogicalPlan plan, workload.build());
      CompileOptions copts;
      copts.compiled_kernels = true;
      NM_ASSIGN_OR_RETURN(CompiledPipeline pipe,
                          CompilePlan(GeoSchema(), plan, nullptr, copts));
      ctxs.push_back(std::make_unique<ExecutionContext>(
          inputs.empty() ? 1024 : inputs[0]->capacity(), 256));
      for (OperatorPtr& op : pipe.operators) {
        NM_RETURN_NOT_OK(op->Open(ctxs.back().get()));
      }
      if (pipe.sink) NM_RETURN_NOT_OK(pipe.sink->Open(ctxs.back().get()));
      pipes.push_back(std::move(pipe));
    }
    // Warmup every pipeline (scratch columns size themselves).
    for (size_t w = 0; w < n; ++w) {
      for (const TupleBufferPtr& buf : inputs) {
        NM_RETURN_NOT_OK(PushBatch(&pipes[w], 0, exec::Batch(buf)));
      }
    }
    std::atomic<uint64_t> errors{0};
    uint64_t rows = 0;
    const int64_t start = MonotonicNowMicros();
    {
      WorkerPool pool(n);
      std::vector<std::unique_ptr<WorkerPool::Strand>> strands;
      for (size_t w = 0; w < n; ++w) strands.push_back(pool.MakeStrand());
      size_t next = 0;
      for (int r = 0; r < repeats; ++r) {
        for (const TupleBufferPtr& buf : inputs) {
          rows += buf->size();
          const size_t w = next++ % n;
          CompiledPipeline* pipe = &pipes[w];
          strands[w]->Post([pipe, buf, &errors] {
            if (!PushBatch(pipe, 0, exec::Batch(buf)).ok()) {
              errors.fetch_add(1, std::memory_order_relaxed);
            }
          });
        }
      }
      pool.Drain();
    }
    const double seconds =
        static_cast<double>(MonotonicNowMicros() - start) / 1e6;
    if (errors.load() != 0) {
      return Status::Internal(workload.name +
                              ": pipeline error during thread sweep");
    }
    sweep.mrecs_per_s[ti] =
        seconds > 0.0 ? static_cast<double>(rows) / 1e6 / seconds : 0.0;
  }
  sweep.speedup_t4 = sweep.mrecs_per_s[0] > 0.0
                         ? sweep.mrecs_per_s[2] / sweep.mrecs_per_s[0]
                         : 0.0;
  sweep.efficiency = sweep.speedup_t4 / 4.0;
  return sweep;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_hotpath.json";
  int repeats = 60;
  if (argc > 2) repeats = std::atoi(argv[2]);

  auto geofences = MakeGeofences();
  if (Status st = integration::RegisterMeosPlugin(geofences); !st.ok()) {
    std::fprintf(stderr, "plugin: %s\n", st.ToString().c_str());
    return 1;
  }
  const std::vector<TupleBufferPtr> inputs = MakeInputs(32, 1024);
  auto counting = [] {
    return std::make_shared<CountingSink>(GeoSchema());
  };

  std::vector<Workload> workloads;
  workloads.push_back(
      {"geofence_filter", [&]() -> Result<LogicalPlan> {
         // The paper's geofence primitive (the MeosAtStbox_Expression):
         // restrict the stream's temporal point to a spatiotemporal box.
         return Query::From(std::make_unique<MemorySource>(GeoSchema(),
                                                           std::vector<std::vector<Value>>{}))
             .Filter(Fn("tpoint_at_stbox",
                        {Attribute("lon"), Attribute("lat"), Attribute("ts"),
                         Lit(4.25), Lit(50.75), Lit(4.4), Lit(50.9),
                         Lit(int64_t{0}),
                         Lit(int64_t{1} << 60)}))
             .To(counting())
             .Build();
       }});
  workloads.push_back(
      {"edwithin_filter", [&]() -> Result<LogicalPlan> {
         // §3.1 named-geofence alert shape: edwithin against one zone
         // (resolved at bind time). The per-row haversine dominates both
         // modes, so the compiled win is bounded by the distance math.
         return Query::From(std::make_unique<MemorySource>(GeoSchema(),
                                                           std::vector<std::vector<Value>>{}))
             .Filter(Fn("edwithin", {Attribute("lon"), Attribute("lat"),
                                     Lit(std::string("zone_3")),
                                     Lit(2500.0)}))
             .To(counting())
             .Build();
       }});
  workloads.push_back(
      {"zone_kind_filter", [&]() -> Result<LogicalPlan> {
         // Containment in *any* zone of a kind: the grid-index probe
         // dominates both modes — the honest lower bound on what kernel
         // compilation buys registry-bound predicates.
         return Query::From(std::make_unique<MemorySource>(GeoSchema(),
                                                           std::vector<std::vector<Value>>{}))
             .Filter(Fn("in_zone_kind", {Attribute("lon"), Attribute("lat"),
                                         Lit(std::string("maintenance"))}))
             .To(counting())
             .Build();
       }});
  workloads.push_back(
      {"arith_filter", [&]() -> Result<LogicalPlan> {
         return Query::From(std::make_unique<MemorySource>(GeoSchema(),
                                                           std::vector<std::vector<Value>>{}))
             .Filter(And(Gt(Mul(Attribute("speed_kmh"), Lit(1.0 / 3.6)),
                            Lit(25.0)),
                         Lt(Attribute("noise_db"), Lit(92.0))))
             .To(counting())
             .Build();
       }});
  workloads.push_back(
      {"fused_filter_map", [&]() -> Result<LogicalPlan> {
         return Query::From(std::make_unique<MemorySource>(GeoSchema(),
                                                           std::vector<std::vector<Value>>{}))
             .Filter(Gt(Attribute("speed_kmh"), Lit(60.0)))
             .Map("speed_ms", Mul(Attribute("speed_kmh"), Lit(1.0 / 3.6)))
             .Map("over_limit", Sub(Attribute("speed_kmh"), Lit(80.0)))
             .Project({"train_id", "ts", "speed_ms", "over_limit"})
             .To(std::make_shared<CountingSink>(Schema::Build()
                                                    .AddInt64("train_id")
                                                    .AddTimestamp("ts")
                                                    .AddDouble("speed_ms")
                                                    .AddDouble("over_limit")
                                                    .Finish()))
             .Build();
       }});
  workloads.push_back(
      {"passthrough", [&]() -> Result<LogicalPlan> {
         return Query::From(std::make_unique<MemorySource>(GeoSchema(),
                                                           std::vector<std::vector<Value>>{}))
             .Filter(Ge(Attribute("speed_kmh"), Lit(0.0)))
             .Filter(Ge(Attribute("noise_db"), Lit(0.0)))
             .To(counting())
             .Build();
       }});

  std::printf("Hot-path kernels: interpreted Expression::Eval vs compiled "
              "batch kernels\n");
  std::printf("%zu buffers x %zu records, %d timed passes per mode\n\n",
              inputs.size(), inputs.empty() ? 0 : inputs[0]->size(), repeats);
  std::printf("%-18s %12s %12s %9s %10s %10s\n", "workload", "interp",
              "compiled", "speedup", "emitted", "pool-draws");
  std::printf("%-18s %12s %12s %9s %10s %10s\n", "", "Mrec/s", "Mrec/s", "x",
              "rows/pass", "compiled");
  std::printf("--------------------------------------------------------------"
              "-----------\n");

  struct Row {
    std::string name;
    ModeResult interp;
    ModeResult compiled;
    SweepResult sweep;
  };
  std::vector<Row> rows;
  bool ok = true;
  for (const Workload& workload : workloads) {
    auto interp = RunMode(workload, /*compiled=*/false, inputs, repeats);
    auto compiled = RunMode(workload, /*compiled=*/true, inputs, repeats);
    auto sweep = RunThreadSweep(workload, inputs, repeats);
    if (!interp.ok() || !compiled.ok() || !sweep.ok()) {
      const Status& failure = !interp.ok()     ? interp.status()
                              : !compiled.ok() ? compiled.status()
                                               : sweep.status();
      std::fprintf(stderr, "%s failed: %s\n", workload.name.c_str(),
                   failure.ToString().c_str());
      ok = false;
      continue;
    }
    if (interp->emitted != compiled->emitted) {
      std::fprintf(stderr,
                   "%s: interpreted and compiled emitted different rows "
                   "(%llu vs %llu)\n",
                   workload.name.c_str(),
                   static_cast<unsigned long long>(interp->emitted),
                   static_cast<unsigned long long>(compiled->emitted));
      ok = false;
    }
    const double speedup = interp->mrecs_per_s > 0.0
                               ? compiled->mrecs_per_s / interp->mrecs_per_s
                               : 0.0;
    std::printf("%-18s %12.2f %12.2f %8.2fx %10llu %10llu\n",
                workload.name.c_str(), interp->mrecs_per_s,
                compiled->mrecs_per_s, speedup,
                static_cast<unsigned long long>(compiled->emitted /
                                                (repeats + 1)),
                static_cast<unsigned long long>(compiled->buffers_acquired));
    rows.push_back({workload.name, *interp, *compiled, *sweep});
  }

  // Morsel-driven scaling: compiled pipelines per worker on a
  // WorkerPool, sealed buffers round-robin across strands.
  std::printf("\nmorsel-driven thread sweep (compiled kernels)\n");
  std::printf("%-18s %10s %10s %10s %9s %11s\n", "workload", "t1 Mrec/s",
              "t2 Mrec/s", "t4 Mrec/s", "t4/t1", "efficiency");
  std::printf("--------------------------------------------------------------"
              "-----------\n");
  for (const Row& row : rows) {
    std::printf("%-18s %10.2f %10.2f %10.2f %8.2fx %10.0f%%\n",
                row.name.c_str(), row.sweep.mrecs_per_s[0],
                row.sweep.mrecs_per_s[1], row.sweep.mrecs_per_s[2],
                row.sweep.speedup_t4, row.sweep.efficiency * 100.0);
  }

  // Acceptance self-check: >= 2x on the geofence filter and the fused
  // filter+map chain. A shortfall is reported loudly (the JSON carries the
  // measured numbers either way) but does not fail the build — CI runners
  // are noisy.
  for (const Row& row : rows) {
    if (row.name != "geofence_filter" && row.name != "fused_filter_map") {
      continue;
    }
    const double speedup = row.interp.mrecs_per_s > 0.0
                               ? row.compiled.mrecs_per_s /
                                     row.interp.mrecs_per_s
                               : 0.0;
    if (speedup < 2.0) {
      std::fprintf(stderr, "ACCEPTANCE WARNING: %s speedup %.2fx < 2x\n",
                   row.name.c_str(), speedup);
    }
  }

  if (FILE* json = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(json,
                 "{\n  \"bench\": \"hotpath_kernels\",\n"
                 "  \"records_per_pass\": %llu,\n  \"passes\": %d,\n"
                 "  \"workloads\": [\n",
                 static_cast<unsigned long long>(
                     inputs.size() * (inputs.empty() ? 0 : inputs[0]->size())),
                 repeats);
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      const double speedup = row.interp.mrecs_per_s > 0.0
                                 ? row.compiled.mrecs_per_s /
                                       row.interp.mrecs_per_s
                                 : 0.0;
      std::fprintf(json,
                   "    {\"name\": \"%s\", \"interpreted_mrecs_per_s\": %.3f,"
                   " \"compiled_mrecs_per_s\": %.3f,\n"
                   "     \"speedup\": %.3f, \"compiled_pool_draws\": %llu,\n"
                   "     \"ke_per_s_t1\": %.1f, \"ke_per_s_t2\": %.1f,"
                   " \"ke_per_s_t4\": %.1f,\n"
                   "     \"scaling_speedup_t4\": %.3f,"
                   " \"scaling_efficiency\": %.3f}%s\n",
                   row.name.c_str(), row.interp.mrecs_per_s,
                   row.compiled.mrecs_per_s, speedup,
                   static_cast<unsigned long long>(
                       row.compiled.buffers_acquired),
                   row.sweep.mrecs_per_s[0] * 1e3,
                   row.sweep.mrecs_per_s[1] * 1e3,
                   row.sweep.mrecs_per_s[2] * 1e3, row.sweep.speedup_t4,
                   row.sweep.efficiency, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("\nwrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", json_path.c_str());
    ok = false;
  }

  std::printf("\npassthrough isolates the per-buffer emit hop: both modes "
              "share the zero-copy\nselection path; the compiled column "
              "additionally skips the per-row interpreter.\n");
  return ok ? 0 : 1;
}
