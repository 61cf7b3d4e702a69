#include "src/common/memory_pool.h"

#include <algorithm>
#include <cassert>

namespace psp {
namespace {

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

}  // namespace

MemoryPool::MemoryPool(size_t buffer_size, size_t num_buffers)
    : buffer_size_((buffer_size + 63) & ~size_t{63}),
      num_buffers_(RoundUpPow2(num_buffers)) {
  // Buffers must start on cache-line boundaries (DMA-friendly, no false
  // sharing between adjacent buffers).
  storage_.reset(static_cast<std::byte*>(
      ::operator new[](buffer_size_ * num_buffers_, std::align_val_t{64})));
  // The ring holds the whole population, so every issued buffer always fits
  // back. It starts empty: buffers enter it only when first released.
  free_ring_ = std::make_unique<MpscRing<uint32_t>>(num_buffers_);
}

uint32_t MemoryPool::ClaimFresh(uint32_t n, uint32_t* first) {
  const uint32_t total = static_cast<uint32_t>(num_buffers_);
  uint32_t next = fresh_.load(std::memory_order_relaxed);
  uint32_t count = 0;
  do {
    count = std::min(n, total - next);
    if (count == 0) {
      return 0;
    }
  } while (!fresh_.compare_exchange_weak(next, next + count,
                                         std::memory_order_relaxed));
  *first = next;
  return count;
}

std::byte* MemoryPool::AllocGlobal() {
  uint32_t idx = 0;
  if (!free_ring_->TryPop(&idx) && ClaimFresh(1, &idx) == 0) {
    return nullptr;
  }
  return BufferAt(idx);
}

void MemoryPool::FreeGlobal(std::byte* ptr) {
  const bool ok = free_ring_->TryPush(IndexOf(ptr));
  assert(ok && "pool free ring can never overflow by construction");
  (void)ok;
}

bool MemoryPool::Owns(const std::byte* ptr) const {
  if (ptr < storage_.get() ||
      ptr >= storage_.get() + buffer_size_ * num_buffers_) {
    return false;
  }
  return (static_cast<size_t>(ptr - storage_.get()) % buffer_size_) == 0;
}

uint32_t MemoryPool::IndexOf(const std::byte* ptr) const {
  assert(Owns(ptr));
  return static_cast<uint32_t>(
      static_cast<size_t>(ptr - storage_.get()) / buffer_size_);
}

void BufferCache::FlushAll() {
  for (const uint32_t idx : local_) {
    const bool ok = pool_->free_ring_->TryPush(idx);
    assert(ok);
    (void)ok;
  }
  local_.clear();
}

bool BufferCache::Refill() {
  for (size_t i = 0; i < batch_; ++i) {
    uint32_t idx;
    if (!pool_->free_ring_->TryPop(&idx)) {
      // The ring ran dry: top the batch up with never-issued buffers.
      uint32_t first = 0;
      const uint32_t count =
          pool_->ClaimFresh(static_cast<uint32_t>(batch_ - i), &first);
      for (uint32_t j = 0; j < count; ++j) {
        local_.push_back(first + j);
      }
      break;
    }
    local_.push_back(idx);
  }
  return !local_.empty();
}

void BufferCache::FlushHalf() {
  const size_t keep = local_.size() / 2;
  while (local_.size() > keep) {
    const bool ok = pool_->free_ring_->TryPush(local_.back());
    assert(ok);
    (void)ok;
    local_.pop_back();
  }
}

}  // namespace psp
