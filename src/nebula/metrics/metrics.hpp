/// \file metrics.hpp
/// \brief The observability subsystem: named counters, gauges and
/// fixed-bucket latency histograms behind a thread-safe registry.
///
/// This is the measurement layer the ROADMAP's QoS direction reads from
/// (Nephele-style enforcement starts with cheap, always-on latency and
/// throughput measurement at the operator and channel level). Design
/// rules, in order:
///
/// 1. **The record path is lock-free.** `Counter::Add`, `Gauge::Set` and
///    `Histogram::Record` are relaxed atomic operations — safe to call
///    from any worker strand while another thread snapshots, and cheap
///    enough to stay enabled in production runs (the bench gate holds the
///    measured overhead under 5%).
/// 2. **Instruments are registered once, recorded many times.** The
///    registry hands out stable pointers (`GetCounter` & friends); callers
///    resolve their instruments at bind time (engine `Start`) and record
///    through the raw pointer afterwards. Instruments live as long as the
///    registry.
/// 3. **Snapshots are value copies.** `MetricsRegistry::Snapshot` reads
///    every instrument into plain structs — a `MetricsSnapshot` owns its
///    numbers, never references live atomics, and can be exported (JSON,
///    Prometheus text) or diffed long after the query died.
///
/// Histograms are HdrHistogram-flavoured power-of-two buckets: value `v`
/// lands in bucket `bit_width(v)` (bucket 0 holds `v <= 0`), so 64 buckets
/// cover the full non-negative int64 range with bounded relative error and
/// a branch-free record path. Percentiles interpolate linearly inside the
/// selected bucket — deterministic, and exact at bucket boundaries.

#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.hpp"

namespace nebulameos::nebula::metrics {

/// Number of histogram buckets: bucket 0 for `v <= 0`, buckets 1..62 for
/// the power-of-two ranges [2^(b-1), 2^b - 1], bucket 63 for the rest
/// ([2^62, int64 max] — `bit_width` of any positive int64 is at most 63,
/// so the top bucket doubles as its own power-of-two range and the
/// catch-all).
inline constexpr size_t kHistogramBuckets = 64;

/// Bucket index of \p value: 0 for non-positive values, otherwise
/// `bit_width(value)` (1 → bucket 1, 2..3 → bucket 2, 4..7 → bucket 3...).
inline size_t HistogramBucketOf(int64_t value) {
  if (value <= 0) return 0;
  size_t width = 0;
  uint64_t v = static_cast<uint64_t>(value);
  while (v != 0) {
    v >>= 1;
    ++width;
  }
  return width < kHistogramBuckets ? width : kHistogramBuckets - 1;
}

/// Smallest value landing in \p bucket (inclusive).
inline int64_t HistogramBucketLow(size_t bucket) {
  return bucket == 0 ? 0 : static_cast<int64_t>(1ull << (bucket - 1));
}

/// Largest value landing in \p bucket (inclusive; bucket 0 is just {<=0}).
inline int64_t HistogramBucketHigh(size_t bucket) {
  if (bucket == 0) return 0;
  if (bucket >= kHistogramBuckets - 1) {
    return std::numeric_limits<int64_t>::max();
  }
  return static_cast<int64_t>((1ull << bucket) - 1);
}

/// \brief Monotonic counter. Relaxed-atomic `Add`; any thread may record.
class Counter {
 public:
  void Add(uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Last-write-wins instantaneous value (queue depth, rate). Stored
/// as double so derived rates fit without a second instrument kind.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

struct HistogramSnapshot;

/// \brief Fixed-bucket power-of-two histogram with a lock-free record
/// path: one relaxed `fetch_add` per bucket hit plus running count/sum and
/// CAS-maintained min/max. Concurrent `Record` calls from any number of
/// threads are safe; `Snapshot` may run concurrently and sees a
/// near-current, internally *approximately* consistent view (counts may
/// lead sums by in-flight records — the usual monitoring contract).
class Histogram {
 public:
  void Record(int64_t value) {
    buckets_[HistogramBucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    UpdateMin(value);
    UpdateMax(value);
  }

  HistogramSnapshot Snapshot() const;

  /// Running sum of the recorded values, without copying the buckets.
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  void UpdateMin(int64_t value) {
    int64_t cur = min_.load(std::memory_order_relaxed);
    while (value < cur &&
           !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
  }
  void UpdateMax(int64_t value) {
    int64_t cur = max_.load(std::memory_order_relaxed);
    while (value > cur &&
           !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
  }

  std::atomic<uint64_t> buckets_[kHistogramBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> min_{std::numeric_limits<int64_t>::max()};
  std::atomic<int64_t> max_{std::numeric_limits<int64_t>::min()};
};

/// \brief Value copy of one histogram: plain numbers, no atomics, no
/// reference back to the live instrument.
struct HistogramSnapshot {
  uint64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;  ///< 0 when empty
  int64_t max = 0;  ///< 0 when empty
  std::vector<uint64_t> buckets;  ///< kHistogramBuckets entries

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// The \p p-quantile (p in [0, 1]) by cumulative bucket count, linearly
  /// interpolated inside the selected bucket and clamped to the observed
  /// [min, max]. Deterministic; 0 when the histogram is empty.
  double Percentile(double p) const;

  double P50() const { return Percentile(0.50); }
  double P95() const { return Percentile(0.95); }
  double P99() const { return Percentile(0.99); }
};

/// \brief Value copy of a whole registry at one instant: three name-keyed
/// maps of plain values. Copyable, comparable, exportable.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  bool Empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// One JSON object: `{"counters": {...}, "gauges": {...}, "histograms":
  /// {"name": {"count": n, "mean": m, "p50": ..., "p95": ..., "p99": ...,
  /// "max": ...}}}`. Stable key order (maps are sorted).
  std::string ToJson() const;

  /// Prometheus text exposition (one `# TYPE` line plus samples per
  /// metric; histogram quantiles as `<name>{quantile="0.5"}` samples).
  /// Metric names are sanitized to `[a-zA-Z0-9_:]`.
  std::string ToPrometheusText() const;
};

/// \brief Thread-safe owner of named instruments. `Get*` registers on
/// first use and returns a stable pointer — resolve once, record through
/// the pointer (lock-free) ever after. Looking a name up as two different
/// instrument kinds is a programming error and returns the existing
/// instrument's slot as nullptr-kind mismatch (callers assert).
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name) NM_EXCLUDES(mutex_);
  Gauge* GetGauge(const std::string& name) NM_EXCLUDES(mutex_);
  Histogram* GetHistogram(const std::string& name) NM_EXCLUDES(mutex_);

  /// Point-in-time value copy of every registered instrument.
  MetricsSnapshot Snapshot() const NM_EXCLUDES(mutex_);

 private:
  mutable nebulameos::Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      NM_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ NM_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      NM_GUARDED_BY(mutex_);
};

}  // namespace nebulameos::nebula::metrics
