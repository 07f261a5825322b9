// Tier-2 tests of BufferManager under exhaustion: Acquire blocking until a
// handle recycles, TryAcquire returning nullptr, handle-drop recycling with
// state reset (including the immutability seal), and the pool-accounting
// counter behind the zero-copy fan-out acceptance. Pools build buffers on
// demand: a new pool holds none, reuse builds nothing, the cap bounds
// creation and a throwing build leaves the pool unchanged. The multi-threaded
// torture tests at the bottom gate the pool's concurrency contract for
// morsel-driven execution (run them under TSan via scripts/check.sh tsan
// mode): no buffer is ever handed to two owners at once, `total_acquired`
// is exact under contention, creation never passes the cap, and Acquire
// never deadlocks while recyclers make progress.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "nebula/buffer_manager.hpp"

namespace nebulameos::nebula {
namespace {

Schema EventSchema() {
  return Schema::Build().AddInt64("key").AddDouble("value").Finish();
}

TEST(BufferManager, TryAcquireReturnsNullWhenExhausted) {
  auto pool = BufferManager::Create(EventSchema(), 4, 2);
  EXPECT_EQ(pool->available(), 2u);
  TupleBufferPtr a = pool->TryAcquire();
  TupleBufferPtr b = pool->TryAcquire();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(pool->available(), 0u);
  EXPECT_EQ(pool->TryAcquire(), nullptr);
  // Releasing one handle makes TryAcquire succeed again.
  b.reset();
  EXPECT_EQ(pool->available(), 1u);
  EXPECT_NE(pool->TryAcquire(), nullptr);
}

TEST(BufferManager, AcquireBlocksUntilRecycle) {
  auto pool = BufferManager::Create(EventSchema(), 4, 1);
  TupleBufferPtr held = pool->Acquire();
  ASSERT_NE(held, nullptr);
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    TupleBufferPtr b = pool->Acquire();  // blocks: pool exhausted
    acquired.store(true);
  });
  // The waiter cannot make progress while the only buffer is held.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(acquired.load());
  held.reset();  // recycle unblocks the waiter
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

TEST(BufferManager, HandleDropRecyclesAndResetsState) {
  auto pool = BufferManager::Create(EventSchema(), 4, 1);
  {
    TupleBufferPtr buf = pool->Acquire();
    buf->Append().SetInt64(0, 7);
    buf->set_sequence_number(42);
    buf->set_watermark(1234);
    buf->Seal();
    EXPECT_EQ(pool->available(), 0u);
  }
  EXPECT_EQ(pool->available(), 1u);
  // Reacquired buffer is empty, metadata-free, and writable again (the
  // seal lifted on recycle).
  TupleBufferPtr again = pool->Acquire();
  EXPECT_EQ(again->size(), 0u);
  EXPECT_EQ(again->sequence_number(), 0u);
  EXPECT_EQ(again->watermark(), 0);
  EXPECT_FALSE(again->sealed());
  again->Append().SetInt64(0, 1);  // must not assert
}

TEST(BufferManager, NewPoolBuildsNothing) {
  auto pool = BufferManager::Create(EventSchema(), 4, 3);
  EXPECT_EQ(pool->created(), 0u);
  EXPECT_EQ(pool->available(), pool->pool_size());
  EXPECT_EQ(pool->pool_size(), 3u);
}

TEST(BufferManager, ReuseBuildsNoSecondBuffer) {
  auto pool = BufferManager::Create(EventSchema(), 4, 3);
  { TupleBufferPtr a = pool->Acquire(); }
  EXPECT_EQ(pool->created(), 1u);
  EXPECT_EQ(pool->available(), 3u);
  TupleBufferPtr again = pool->Acquire();
  EXPECT_EQ(pool->created(), 1u);
  EXPECT_EQ(pool->available(), 2u);
  EXPECT_EQ(pool->total_acquired(), 2u);
  // Only a second buffer in flight needs a second build.
  TupleBufferPtr second = pool->TryAcquire();
  ASSERT_NE(second, nullptr);
  EXPECT_NE(second.get(), again.get());
  EXPECT_EQ(pool->created(), 2u);
}

TEST(BufferManager, TryAcquireAtCapBuildsNothing) {
  auto pool = BufferManager::Create(EventSchema(), 4, 2);
  TupleBufferPtr a = pool->Acquire();
  TupleBufferPtr b = pool->Acquire();
  EXPECT_EQ(pool->created(), 2u);
  EXPECT_EQ(pool->TryAcquire(), nullptr);
  EXPECT_EQ(pool->created(), 2u);
  EXPECT_EQ(pool->available(), 0u);
  EXPECT_EQ(pool->total_acquired(), 2u);
}

// 16-byte records at SIZE_MAX / 16 per buffer: the byte size fits in a
// size_t but exceeds std::vector's max_size(), so building the buffer
// throws length_error before allocating. The failed build must leave the
// pool as it was: nothing counted as built or handed out, and the whole
// cap still available.
TEST(BufferManager, ThrowingBuildLeavesThePoolUnchanged) {
  const size_t capacity = SIZE_MAX / 16;
  auto pool = BufferManager::Create(EventSchema(), capacity, 2);
  ASSERT_EQ(EventSchema().record_size(), 16u);
  EXPECT_THROW(pool->Acquire(), std::length_error);
  EXPECT_THROW(pool->TryAcquire(), std::length_error);
  EXPECT_EQ(pool->created(), 0u);
  EXPECT_EQ(pool->available(), 2u);
  EXPECT_EQ(pool->total_acquired(), 0u);
}

// A 16-byte schema at SIZE_MAX / 16 + 2 records would need 2^64 + 16
// bytes: the product wraps to 16, and a buffer that size behind a
// capacity of 2^60 + 1 would let its second Append write past the heap
// block. The constructor refuses instead, allocating nothing.
TEST(TupleBuffer, ByteSizeOverflowThrows) {
  ASSERT_EQ(EventSchema().record_size(), 16u);
  EXPECT_THROW(TupleBuffer(EventSchema(), SIZE_MAX / 16 + 2),
               std::length_error);
}

TEST(BufferManager, TotalAcquiredCountsEveryHandOut) {
  auto pool = BufferManager::Create(EventSchema(), 4, 2);
  EXPECT_EQ(pool->total_acquired(), 0u);
  { TupleBufferPtr a = pool->Acquire(); }
  { TupleBufferPtr b = pool->TryAcquire(); }
  EXPECT_EQ(pool->total_acquired(), 2u);
  // A failed TryAcquire does not count.
  TupleBufferPtr a = pool->Acquire();
  TupleBufferPtr b = pool->Acquire();
  EXPECT_EQ(pool->TryAcquire(), nullptr);
  EXPECT_EQ(pool->total_acquired(), 4u);
}

// 8 threads hammer a 3-buffer pool with blocking Acquire. Each holder
// stamps the buffer with its thread id, dwells, and checks the stamp is
// still its own — a second concurrent owner of the same buffer would
// overwrite it. Total hand-outs must be exact, and the run completing at
// all proves Acquire never deadlocks while other threads recycle.
TEST(BufferManagerTorture, ConcurrentAcquireNeverDoubleHandsOut) {
  constexpr size_t kThreads = 8;
  constexpr size_t kPoolSize = 3;
  constexpr int kRounds = 400;
  auto pool = BufferManager::Create(EventSchema(), 4, kPoolSize);
  std::atomic<uint64_t> overlaps{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        TupleBufferPtr buf = pool->Acquire();
        ASSERT_NE(buf, nullptr);
        // Recycling resets the buffer, so a fresh hand-out is empty; a
        // row already present means another thread still owns it.
        if (buf->size() != 0) overlaps.fetch_add(1);
        buf->Append().SetInt64(0, static_cast<int64_t>(t));
        std::this_thread::yield();
        if (buf->size() != 1 ||
            buf->At(0).GetInt64(0) != static_cast<int64_t>(t)) {
          overlaps.fetch_add(1);
        }
        // Handle drop recycles (often from a different thread than the
        // one that will reacquire it next).
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(overlaps.load(), 0u);
  EXPECT_EQ(pool->total_acquired(), kThreads * kRounds);
  EXPECT_EQ(pool->available(), kPoolSize);
  EXPECT_LE(pool->created(), pool->pool_size());
}

// Mixed Acquire/TryAcquire contention: TryAcquire may fail (exhaustion)
// but every success is a real hand-out — the counter must equal the
// number of successes exactly, with no lost or double increments.
TEST(BufferManagerTorture, TotalAcquiredExactUnderMixedContention) {
  constexpr size_t kThreads = 8;
  constexpr int kRounds = 500;
  auto pool = BufferManager::Create(EventSchema(), 4, 2);
  std::atomic<uint64_t> successes{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        if ((t + r) % 2 == 0) {
          TupleBufferPtr buf = pool->Acquire();  // blocking: always succeeds
          ASSERT_NE(buf, nullptr);
          successes.fetch_add(1);
        } else if (TupleBufferPtr buf = pool->TryAcquire()) {
          successes.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(pool->total_acquired(), successes.load());
  EXPECT_GE(successes.load(), kThreads * kRounds / 2);  // Acquire half
  EXPECT_EQ(pool->available(), 2u);
  EXPECT_LE(pool->created(), pool->pool_size());
}

// Handles recycled from a dedicated dropper thread while acquirers block:
// exercises the cross-thread recycle → condition-variable wake-up path
// that morsel workers rely on when the ingest thread waits on the pool.
TEST(BufferManagerTorture, CrossThreadDropUnblocksAcquirers) {
  constexpr size_t kAcquirers = 8;
  constexpr int kPerThread = 200;
  auto pool = BufferManager::Create(EventSchema(), 4, 1);  // single buffer
  std::mutex handoff_mutex;
  std::vector<TupleBufferPtr> handoff;
  std::atomic<uint64_t> dropped{0};
  std::atomic<bool> done{false};
  std::thread dropper([&] {
    while (!done.load()) {
      std::vector<TupleBufferPtr> batch;
      {
        std::lock_guard<std::mutex> lock(handoff_mutex);
        batch.swap(handoff);
      }
      dropped.fetch_add(batch.size());
      batch.clear();  // recycles: wakes a blocked Acquire
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> acquirers;
  for (size_t t = 0; t < kAcquirers; ++t) {
    acquirers.emplace_back([&] {
      for (int r = 0; r < kPerThread; ++r) {
        TupleBufferPtr buf = pool->Acquire();
        ASSERT_NE(buf, nullptr);
        std::lock_guard<std::mutex> lock(handoff_mutex);
        handoff.push_back(std::move(buf));
      }
    });
  }
  for (std::thread& th : acquirers) th.join();
  done.store(true);
  dropper.join();
  handoff.clear();  // any stragglers the dropper missed
  EXPECT_EQ(pool->total_acquired(), kAcquirers * kPerThread);
  EXPECT_EQ(pool->available(), 1u);
  EXPECT_LE(pool->created(), pool->pool_size());
}

}  // namespace
}  // namespace nebulameos::nebula
