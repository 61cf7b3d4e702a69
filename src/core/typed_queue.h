// Bounded FIFO request queue specialised for a single request type
// (paper §4.3: "typed queues, i.e., buffers specialized for a single request
// type"). Bounded capacity implements the flow-control rule of §4.3.3: "the
// dispatcher drops requests from typed queues that are full", shedding load
// only for overloaded types.
#ifndef PSP_SRC_CORE_TYPED_QUEUE_H_
#define PSP_SRC_CORE_TYPED_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "src/common/single_writer.h"
#include "src/core/request.h"

namespace psp {

// All mutation happens on the single scheduling thread; size_/drops_ are
// single-writer counters (src/common/single_writer.h) only so cross-thread
// introspection (telemetry snapshots, the time-series gauge sampler) reads
// them race-free at plain-store cost on the hot path.
//
// The ring starts at min(capacity, 64) slots and doubles when full, up to
// `capacity`, so a queue that never backs up never touches (or zero-fills)
// the storage its flow-control bound would allow. Only the scheduling thread
// touches the slots, so growth needs no synchronisation.
class TypedQueue {
 public:
  explicit TypedQueue(size_t capacity = 4096)
      : capacity_(capacity),
        ring_size_(std::min(capacity, kInitialSlots)),
        slots_(ring_size_) {}

  TypedQueue(TypedQueue&& other) noexcept
      : capacity_(other.capacity_),
        ring_size_(other.ring_size_),
        slots_(std::move(other.slots_)),
        head_(other.head_),
        tail_(other.tail_) {
    size_.Store(other.size_.Load());
    drops_.Store(other.drops_.Load());
  }

  // Returns false (and counts a drop) when the queue is full.
  bool Push(const Request& request) {
    const size_t size = size_.Load();
    if (size == ring_size_ && !GrowOrDrop()) {
      return false;
    }
    slots_[tail_] = request;
    tail_ = Next(tail_);
    size_.Store(size + 1);
    return true;
  }

  // Re-inserts a request at the head (used by preemptive policies that
  // enqueue preempted work "at the head of their respective queue", §5.1).
  bool PushFront(const Request& request) {
    const size_t size = size_.Load();
    if (size == ring_size_ && !GrowOrDrop()) {
      return false;
    }
    head_ = Prev(head_);
    slots_[head_] = request;
    size_.Store(size + 1);
    return true;
  }

  bool Pop(Request* out) {
    const size_t size = size_.Load();
    if (size == 0) {
      return false;
    }
    *out = slots_[head_];
    head_ = Next(head_);
    size_.Store(size - 1);
    return true;
  }

  const Request& Front() const { return slots_[head_]; }

  bool Empty() const { return Size() == 0; }
  size_t Size() const { return size_.Load(); }
  size_t capacity() const { return capacity_; }
  uint64_t drops() const { return drops_.Load(); }

 private:
  static constexpr size_t kInitialSlots = 64;

  size_t Next(size_t i) const { return i + 1 == ring_size_ ? 0 : i + 1; }
  size_t Prev(size_t i) const { return i == 0 ? ring_size_ - 1 : i - 1; }

  // Called with the ring full. At `capacity` this is the §4.3.3 drop
  // (returns false); below it the ring doubles, re-linearised head->tail so
  // the existing requests keep their FIFO order.
  bool GrowOrDrop() {
    if (ring_size_ == capacity_) {
      drops_.Add(1);
      return false;
    }
    std::rotate(slots_.begin(), slots_.begin() + head_, slots_.end());
    head_ = 0;
    tail_ = ring_size_;
    ring_size_ = std::min(capacity_, 2 * ring_size_);
    slots_.resize(ring_size_);
    return true;
  }

  size_t capacity_;
  size_t ring_size_;  // allocated slots, <= capacity_
  std::vector<Request> slots_;
  size_t head_ = 0;
  size_t tail_ = 0;
  SingleWriterCounter<size_t> size_;
  SingleWriterCounter<uint64_t> drops_;
};

}  // namespace psp

#endif  // PSP_SRC_CORE_TYPED_QUEUE_H_
