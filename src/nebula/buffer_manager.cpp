#include "nebula/buffer_manager.hpp"

namespace nebulameos::nebula {

std::shared_ptr<BufferManager> BufferManager::Create(Schema schema,
                                                     size_t tuples_per_buffer,
                                                     size_t pool_size) {
  return std::shared_ptr<BufferManager>(
      new BufferManager(std::move(schema), tuples_per_buffer, pool_size));
}

BufferManager::BufferManager(Schema schema, size_t tuples_per_buffer,
                             size_t pool_size)
    : schema_(std::move(schema)),
      tuples_per_buffer_(tuples_per_buffer),
      pool_size_(pool_size) {
  free_.reserve(pool_size_);
}

TupleBufferPtr BufferManager::Acquire() {
  MutexLock lock(mutex_);
  while (free_.empty() && created_ == pool_size_) cv_.Wait(mutex_);
  auto buf = TakeLocked();
  total_acquired_.fetch_add(1, std::memory_order_relaxed);
  lock.Unlock();
  return Wrap(std::move(buf));
}

TupleBufferPtr BufferManager::TryAcquire() {
  MutexLock lock(mutex_);
  if (free_.empty() && created_ == pool_size_) return nullptr;
  auto buf = TakeLocked();
  total_acquired_.fetch_add(1, std::memory_order_relaxed);
  lock.Unlock();
  return Wrap(std::move(buf));
}

size_t BufferManager::available() const {
  MutexLock lock(mutex_);
  return free_.size() + (pool_size_ - created_);
}

size_t BufferManager::created() const {
  MutexLock lock(mutex_);
  return created_;
}

std::unique_ptr<TupleBuffer> BufferManager::TakeLocked() {
  if (free_.empty()) {
    auto buf = std::make_unique<TupleBuffer>(schema_, tuples_per_buffer_);
    ++created_;
    return buf;
  }
  auto buf = std::move(free_.back());
  free_.pop_back();
  return buf;
}

TupleBufferPtr BufferManager::Wrap(std::unique_ptr<TupleBuffer> buf) {
  buf->Reset();
  TupleBuffer* raw = buf.release();
  auto self = shared_from_this();
  return TupleBufferPtr(raw, [self](TupleBuffer* b) {
    self->Recycle(std::unique_ptr<TupleBuffer>(b));
  });
}

void BufferManager::Recycle(std::unique_ptr<TupleBuffer> buf) {
  {
    MutexLock lock(mutex_);
    free_.push_back(std::move(buf));
  }
  cv_.NotifyOne();
}

}  // namespace nebulameos::nebula
