#!/usr/bin/env bash
# Tier-1 verify: configure + build + test in one command (ROADMAP.md).
#   scripts/check.sh [build-dir]
#
# Opt-in concurrency gate (mirrors the CI `sanitize-thread` job):
#   CHECK_TSAN=1 scripts/check.sh
# builds Debug + ThreadSanitizer into build-tsan/ and runs the full
# suite with NM_WORKER_THREADS=4, forcing every engine test through the
# morsel-driven multi-core path under the race detector, then repeats
# test_buffer_manager 20 times to race the pools' on-demand buffer
# creation, and the suites that drive fan-out, key-partition and
# shared-host branches 20 times at 4 workers to race their hand-offs.
#
# Opt-in fault-injection gate (mirrors the CI `fault-injection` job):
#   CHECK_FAULTS=1 scripts/check.sh
# runs the full suite with NM_FAULT_PROFILE armed (default: 1% drop,
# 0.5% reorder, seeded), so every lowered network channel injects
# deterministic faults the retransmit/reorder-repair machinery must
# recover from, then runs bench_fault_tolerance and leaves
# BENCH_faults.json in the repo root (CI artifact). Override the profile
# via NM_FAULT_PROFILE.
#
# Opt-in static-analysis gate (mirrors the CI `static-analysis` job):
#   CHECK_STATIC=1 scripts/check.sh
# builds Debug with clang and -Wthread-safety -Werror (enforcing the
# NM_GUARDED_BY/NM_REQUIRES annotations), runs clang-tidy over src/ per
# .clang-tidy, and runs the full suite with NM_VERIFY_EACH=1 so the
# plan/pipeline verifiers check every rewrite pass and compiled plan.
# Without clang installed it degrades to the verify-each Debug ctest run
# (the annotations and tidy checks then only run in CI).
#
# Opt-in benchmark smoke (mirrors the CI `perfbench-smoke` job):
#   CHECK_BENCH=1 scripts/check.sh
# builds perfbench/ (the replay benchmark BENCHMARK.json declares, into
# $CARGO_TARGET_DIR or .bench_build/) and runs the geofence, fanout and
# fleet workloads for 2 s each untraced, then once more for 1 s each
# traced (`--trace 1`: plan verification and the time-accounting gate).
# The benchmark exits non-zero on a failed query, on any row that differs
# from its reference run, or on a failed traced-path check, so engine API
# drift or a wrong result fails the gate. The engine-forcing variables
# the benchmark refuses to run under are cleared for it.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ "${CHECK_BENCH:-0}" == "1" ]]; then
  for workload in geofence fanout fleet; do
    env -u NM_WORKER_THREADS -u NM_FAULT_PROFILE -u NM_VERIFY_EACH \
      python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2 \
      --trace 0
  done
  # The traced path: plan verification of the placed paper plans and the
  # fleet plans, per-layer spans, and the 1-worker time-accounting gate.
  for workload in geofence fanout fleet; do
    env -u NM_WORKER_THREADS -u NM_FAULT_PROFILE -u NM_VERIFY_EACH \
      python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 \
      --trace 1
  done
  echo "perfbench smoke: OK"
  exit 0
fi

if [[ "${CHECK_STATIC:-0}" == "1" ]]; then
  BUILD_DIR="${1:-build-static}"
  if command -v clang++ >/dev/null 2>&1; then
    cmake -B "$BUILD_DIR" -S . \
      -DCMAKE_BUILD_TYPE=Debug \
      -DCMAKE_CXX_COMPILER=clang++
  else
    echo "check.sh: clang++ not found — thread-safety analysis skipped," \
         "running the Debug verify-each suite with the default compiler" >&2
    cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Debug
  fi
  cmake --build "$BUILD_DIR" -j
  if command -v clang-tidy >/dev/null 2>&1; then
    mapfile -t TIDY_FILES < <(git ls-files 'src/*.cpp')
    if command -v run-clang-tidy >/dev/null 2>&1; then
      run-clang-tidy -p "$BUILD_DIR" -quiet "${TIDY_FILES[@]}"
    else
      clang-tidy -p "$BUILD_DIR" --quiet "${TIDY_FILES[@]}"
    fi
  else
    echo "check.sh: clang-tidy not found — tidy checks skipped" >&2
  fi
  cd "$BUILD_DIR" && NM_VERIFY_EACH=1 ctest --output-on-failure -j
  exit 0
fi

if [[ "${CHECK_FAULTS:-0}" == "1" ]]; then
  BUILD_DIR="${1:-build}"
  PROFILE="${NM_FAULT_PROFILE:-drop=0.01,reorder=0.005,seed=20250808}"
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j
  (cd "$BUILD_DIR" && NM_FAULT_PROFILE="$PROFILE" ctest --output-on-failure -j)
  # Loss-rate sweep: asserts lossy row sets match the fault-free
  # reference exactly; leaves BENCH_faults.json in the repo root.
  env -u NM_FAULT_PROFILE "$BUILD_DIR"/bench/bench_fault_tolerance 200000 \
    BENCH_faults.json
  echo "fault injection gate: OK (profile: $PROFILE)"
  exit 0
fi

if [[ "${CHECK_TSAN:-0}" == "1" ]]; then
  BUILD_DIR="${1:-build-tsan}"
  cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all"
  cmake --build "$BUILD_DIR" -j
  cd "$BUILD_DIR" && NM_WORKER_THREADS=4 ctest --output-on-failure -j
  ctest -R test_buffer_manager --repeat until-fail:20 --output-on-failure
  NM_WORKER_THREADS=4 ctest \
    -R '^(test_engine|test_engine_failures|test_fanout|test_serving)$' \
    --repeat until-fail:20 --output-on-failure
  exit 0
fi

BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j
cd "$BUILD_DIR" && ctest --output-on-failure -j

# Observability smoke: run one query with the rate sampler enabled and
# require a populated metrics snapshot (the example exits non-zero when
# the ingest counter, operator histograms or strand gauges are missing,
# or when the filter's flow counters disagree with its Stats() entry; the
# greps pin the JSON export format end-to-end).
metrics_json="$(./examples/example_metrics_observability)"
grep -q '"engine.events_ingested"' <<<"$metrics_json"
grep -q '"op.Filter.events_out"' <<<"$metrics_json"
echo "metrics smoke: OK"

# Fleet serving smoke: the shared-query manager must collapse K queries
# per train onto one host (queries-per-node ~3) and ship the uplink
# stream once instead of K times — both are asserted by the bench itself,
# which also leaves BENCH_fleet.json in the repo root (CI artifact).
./bench/bench_fleet_serving 400 ../BENCH_fleet.json
./examples/example_fleet_serving | grep -q 'fleet serving: OK'
echo "fleet serving smoke: OK"

# Example smoke: every other example runs once, each from a fresh
# directory because some write artifacts to their working directory
# (export_visualization writes sncb_fleet.geojson); a non-zero exit fails
# the gate and prints the example's output.
for example in "$PWD"/examples/example_*; do
  [[ -f "$example" && -x "$example" ]] || continue
  case "$(basename "$example")" in
    example_metrics_observability | example_fleet_serving) continue ;;
  esac
  run_dir="$(mktemp -d)"
  if ! (cd "$run_dir" && "$example" >output.log 2>&1); then
    cat "$run_dir/output.log" >&2
    echo "check.sh: $(basename "$example") failed" >&2
    exit 1
  fi
  rm -rf "$run_dir"
done
echo "examples smoke: OK"
