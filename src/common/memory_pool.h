// Fixed-size network buffer pool, modelled after DPDK mempools as the paper
// uses them (§4.3.1): a statically allocated region registered once, backed by
// a multi-producer ring so any worker can release buffers after transmission,
// with per-thread buffer caches to keep the hot path off the shared ring.
//
// Buffers are issued on demand. The free ring starts empty; an allocation
// that finds it empty takes the next never-issued buffer from a monotone
// `fresh_` index instead. Released buffers circulate through the ring, so the
// set of buffers ever written is the peak number out at once (plus what the
// per-thread caches hold), not the whole region: its untouched pages never
// become resident. The pool is exhausted only when the ring is empty and
// every buffer has been issued.
#ifndef PSP_SRC_COMMON_MEMORY_POOL_H_
#define PSP_SRC_COMMON_MEMORY_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/mpsc_ring.h"

namespace psp {

class BufferCache;

// The shared pool. Thread-safe alloc/free through BufferCache handles or the
// direct (ring-hitting) AllocGlobal/FreeGlobal calls.
class MemoryPool {
 public:
  // num_buffers is rounded up to a power of two; buffer_size is rounded up to
  // a multiple of 64 so buffers never share cache lines.
  MemoryPool(size_t buffer_size, size_t num_buffers);

  MemoryPool(const MemoryPool&) = delete;
  MemoryPool& operator=(const MemoryPool&) = delete;

  // Allocates straight from the shared ring. Returns nullptr when exhausted.
  std::byte* AllocGlobal();
  // Returns a buffer to the shared ring. `ptr` must come from this pool.
  void FreeGlobal(std::byte* ptr);

  size_t buffer_size() const { return buffer_size_; }
  size_t num_buffers() const { return num_buffers_; }
  // Buffers available to an allocation: those in the shared ring plus those
  // never issued (excludes cached ones).
  size_t AvailableApprox() const {
    return free_ring_->SizeApprox() +
           (num_buffers_ - fresh_.load(std::memory_order_relaxed));
  }

  // True if ptr points at the start of a buffer owned by this pool.
  bool Owns(const std::byte* ptr) const;
  uint32_t IndexOf(const std::byte* ptr) const;
  std::byte* BufferAt(uint32_t index) {
    return storage_.get() + static_cast<size_t>(index) * buffer_size_;
  }

 private:
  friend class BufferCache;

  // Claims up to `n` never-issued buffer indices with one CAS; writes the
  // first to *first and returns how many were claimed (0 once all are out).
  uint32_t ClaimFresh(uint32_t n, uint32_t* first);

  struct AlignedDelete {
    void operator()(std::byte* p) const {
      ::operator delete[](p, std::align_val_t{64});
    }
  };

  size_t buffer_size_;
  size_t num_buffers_;
  std::unique_ptr<std::byte[], AlignedDelete> storage_;
  std::unique_ptr<MpscRing<uint32_t>> free_ring_;
  // Buffers [0, fresh_) have been issued at least once; the rest have never
  // been handed out (nor written, so their pages need not be resident).
  std::atomic<uint32_t> fresh_{0};
};

// A thread-local allocation cache bound to a MemoryPool. Not thread-safe:
// each worker owns exactly one cache (paper: "thread-local buffer cache to
// decrease interactions with the main memory pool").
class BufferCache {
 public:
  // batch: how many buffers to move per refill/flush (power of locality).
  explicit BufferCache(MemoryPool* pool, size_t batch = 32)
      : pool_(pool), batch_(batch) {
    local_.reserve(2 * batch);
  }

  ~BufferCache() { FlushAll(); }

  BufferCache(const BufferCache&) = delete;
  BufferCache& operator=(const BufferCache&) = delete;

  // Returns nullptr when the pool is exhausted.
  std::byte* Alloc() {
    if (local_.empty() && !Refill()) {
      return nullptr;
    }
    const uint32_t idx = local_.back();
    local_.pop_back();
    return pool_->BufferAt(idx);
  }

  void Free(std::byte* ptr) {
    local_.push_back(pool_->IndexOf(ptr));
    if (local_.size() >= 2 * batch_) {
      FlushHalf();
    }
  }

  // Returns every cached buffer to the shared pool.
  void FlushAll();

  size_t CachedCount() const { return local_.size(); }

 private:
  bool Refill();
  void FlushHalf();

  MemoryPool* pool_;
  size_t batch_;
  std::vector<uint32_t> local_;
};

}  // namespace psp

#endif  // PSP_SRC_COMMON_MEMORY_POOL_H_
