/// \file buffer_manager.hpp
/// \brief Pooled tuple-buffer allocation.
///
/// A `BufferManager` owns a bounded pool of same-shaped `TupleBuffer`s.
/// The pool starts empty and builds a buffer only when none is free and
/// fewer than the cap exist, so its memory follows the buffers a query
/// keeps in flight rather than the cap. Built buffers are never freed
/// before the pool dies: once a query reaches its in-flight high-water
/// mark, steady state allocates nothing. `Acquire` blocks when all
/// buffers up to the cap are handed out (natural backpressure for sources
/// on memory-constrained edge nodes); `TryAcquire` does not. Returned
/// handles recycle the buffer into the pool on destruction.

#pragma once

#include <atomic>

#include "common/mutex.hpp"
#include "nebula/tuple_buffer.hpp"

namespace nebulameos::nebula {

/// \brief Bounded, on-demand pool of tuple buffers for one schema.
///
/// A free buffer is reused last-in first-out. With none free and fewer
/// than `pool_size()` built, the acquirer builds one under the pool mutex
/// and counts it only once built, so a build that throws leaves the pool
/// as it was. A query builds a handful of buffers this way, all during
/// warm-up.
class BufferManager : public std::enable_shared_from_this<BufferManager> {
 public:
  /// Creates an empty pool that builds up to \p pool_size buffers, each
  /// holding \p tuples_per_buffer records of \p schema.
  static std::shared_ptr<BufferManager> Create(Schema schema,
                                               size_t tuples_per_buffer,
                                               size_t pool_size);

  /// Blocks until a buffer is free or may be built, then returns it
  /// (empty, reset). Propagates what building a new buffer throws.
  TupleBufferPtr Acquire() NM_EXCLUDES(mutex_);

  /// Returns a buffer if one is free or may be built, else nullptr.
  /// Propagates what building a new buffer throws, as `Acquire` does.
  TupleBufferPtr TryAcquire() NM_EXCLUDES(mutex_);

  /// Buffers an acquirer can take without waiting: free ones plus those
  /// not yet built.
  size_t available() const NM_EXCLUDES(mutex_);

  /// Buffers built so far; never above `pool_size()`.
  size_t created() const NM_EXCLUDES(mutex_);

  /// Total `Acquire`/`TryAcquire` hand-outs over the pool's lifetime —
  /// the pool-accounting counter behind the zero-copy fan-out tests: a
  /// branch hand-off must not draw new buffers, so this must not scale
  /// with branch count. Atomic: workers acquire concurrently while the
  /// engine snapshots `QueryStats::buffers_acquired` mid-run.
  uint64_t total_acquired() const {
    return total_acquired_.load(std::memory_order_relaxed);
  }

  /// The cap on buffers the pool builds.
  size_t pool_size() const { return pool_size_; }

  /// The schema buffers are shaped for.
  const Schema& schema() const { return schema_; }

 private:
  BufferManager(Schema schema, size_t tuples_per_buffer, size_t pool_size);

  /// Pops a free buffer, or builds one when none is free. The caller has
  /// checked that one of the two is possible.
  std::unique_ptr<TupleBuffer> TakeLocked() NM_REQUIRES(mutex_);
  TupleBufferPtr Wrap(std::unique_ptr<TupleBuffer> buf);
  void Recycle(std::unique_ptr<TupleBuffer> buf) NM_EXCLUDES(mutex_);

  Schema schema_;
  size_t tuples_per_buffer_;
  size_t pool_size_;
  mutable Mutex mutex_;
  CondVar cv_;
  /// Reserved to the cap, so a recycle never reallocates.
  std::vector<std::unique_ptr<TupleBuffer>> free_ NM_GUARDED_BY(mutex_);
  size_t created_ NM_GUARDED_BY(mutex_) = 0;
  std::atomic<uint64_t> total_acquired_{0};
};

}  // namespace nebulameos::nebula
