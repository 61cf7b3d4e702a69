// Bucketed earliest-deadline-first queue in the Eiffel find-first-set style
// shared with the simulator's timer wheel (src/sim/event_queue.h): a ring of
// deadline buckets over one two-level occupancy bitmap
// (src/common/ffs_bitmap.h), so push and pop-earliest are O(1) — one bucket
// append and at most two constant-bound bitmap scans — instead of the
// O(log n) of a comparison heap.
//
// Layout: bucket b holds requests whose absolute deadline falls in tick
// b = deadline >> bucket_shift. The queue keeps a monotone cursor (the tick
// of the earliest live bucket); all live entries sit in the ring window
// [cursor, cursor + kBuckets), so a circular find-first-set scan starting at
// the cursor's ring slot finds the globally earliest deadline exactly.
// Clamping handles both edges deterministically:
//   * already-late deadlines (tick < cursor) clamp to the cursor bucket —
//     late work is the most urgent and drains first, in FIFO order;
//   * far-future deadlines (tick >= cursor + kBuckets) clamp to the last
//     ring bucket — ordering beyond the horizon is approximate by design
//     (the horizon is kBuckets × bucket width ≈ 4.2 s at the 1 µs default,
//     far beyond any sane deadline), and requests without a deadline (0)
//     park there explicitly so deadlined work always goes first.
// Within a bucket, order is FIFO push order — the deterministic tie-break
// the replay goldens rely on.
//
// Single-writer discipline mirrors TypedQueue: all mutation happens on the
// scheduling thread; size/drops are relaxed atomics only so cross-thread
// telemetry snapshots read them race-free.
#ifndef PSP_SRC_SCHED_EDF_QUEUE_H_
#define PSP_SRC_SCHED_EDF_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/ffs_bitmap.h"
#include "src/core/request.h"

namespace psp {

class EdfQueue {
 public:
  // 4096 buckets: the largest ring one FfsBitmap summary word covers.
  static constexpr uint32_t kBuckets = 4096;

  // `bucket_shift` sets the bucket width to 2^shift nanos (default 2^10 ≈
  // 1 µs — finer than any service time the paper's workloads schedule, so
  // same-bucket ties are genuinely simultaneous deadlines).
  explicit EdfQueue(size_t capacity = 4096, uint32_t bucket_shift = 10)
      : capacity_(capacity), bucket_shift_(bucket_shift), buckets_(kBuckets) {}

  // Enqueues by absolute deadline; false (and a counted drop) when the queue
  // is at capacity. Requests with deadline 0 park in the horizon bucket.
  bool Push(const Request& request) {
    const size_t size = size_.load(std::memory_order_relaxed);
    if (size == capacity_) {
      drops_.store(drops_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
      return false;
    }
    // Re-anchor an empty ring at the incoming *arrival* so the window tracks
    // the engine clock: a long idle gap can leave the cursor behind (precise
    // deadlines would clamp to the horizon bucket), and a pop can leave it
    // parked at a future deadline tick (earlier deadlines pushed next would
    // clamp to it as "late"). Deadlines are stamped arrival + budget, so
    // anchoring at the arrival keeps every upcoming deadline inside the
    // precise window. Safe in both directions: no live entries constrain an
    // empty ring's cursor. Falls back to the deadline when the caller did
    // not stamp an arrival.
    if (size == 0) {
      const Nanos anchor =
          request.arrival > 0 ? request.arrival : request.deadline;
      if (anchor > 0) {
        cursor_ = static_cast<uint64_t>(anchor) >> bucket_shift_;
      }
    }
    const uint64_t tick = TickFor(request);
    const uint32_t slot = static_cast<uint32_t>(tick) & (kBuckets - 1);
    buckets_[slot].push_back(request);
    occupied_.Set(slot);
    size_.store(size + 1, std::memory_order_relaxed);
    return true;
  }

  // Pops the earliest-deadline request (FIFO within a bucket). False when
  // empty. Advances the cursor to the popped bucket's tick, so the window
  // invariant holds for subsequent pushes.
  bool PopEarliest(Request* out) {
    const size_t size = size_.load(std::memory_order_relaxed);
    if (size == 0) {
      return false;
    }
    const uint32_t slot = FindFirstOccupied();
    auto& bucket = buckets_[slot];
    *out = bucket.front();
    bucket.erase(bucket.begin());
    if (bucket.empty()) {
      occupied_.Clear(slot);
    }
    // Commit the cursor to the popped bucket so the ring window stays
    // anchored at the earliest live deadline.
    cursor_ = AbsoluteTickOf(slot);
    size_.store(size - 1, std::memory_order_relaxed);
    return true;
  }

  // Deadline of the earliest request without popping; false when empty.
  bool PeekEarliest(Request* out) const {
    if (Empty()) {
      return false;
    }
    *out = buckets_[FindFirstOccupied()].front();
    return true;
  }

  bool Empty() const { return Size() == 0; }
  size_t Size() const { return size_.load(std::memory_order_relaxed); }
  uint64_t drops() const { return drops_.load(std::memory_order_relaxed); }
  Nanos bucket_width() const { return Nanos{1} << bucket_shift_; }

 private:
  // Ring tick for a request: deadline bucket clamped into the live window.
  uint64_t TickFor(const Request& request) const {
    if (request.deadline <= 0) {
      return cursor_ + kBuckets - 1;  // no deadline: drain last
    }
    const uint64_t tick =
        static_cast<uint64_t>(request.deadline) >> bucket_shift_;
    if (tick < cursor_) {
      return cursor_;  // already late: most urgent
    }
    if (tick >= cursor_ + kBuckets - 1) {
      return cursor_ + kBuckets - 1;  // beyond the horizon: approximate
    }
    return tick;
  }

  // Absolute tick of a ring slot within the window [cursor, cursor+kBuckets).
  uint64_t AbsoluteTickOf(uint32_t slot) const {
    const uint32_t cursor_slot = static_cast<uint32_t>(cursor_) &
                                 (kBuckets - 1);
    const uint32_t delta = (slot - cursor_slot) & (kBuckets - 1);
    return cursor_ + delta;
  }

  // Circular find-first-set starting at the cursor's ring slot. Because all
  // live entries fall in [cursor, cursor + kBuckets), the first hit going
  // clockwise from the cursor is the earliest absolute tick: search the
  // slots at or after the cursor's, then wrap to the start of the ring.
  uint32_t FindFirstOccupied() const {
    const uint32_t start = static_cast<uint32_t>(cursor_) & (kBuckets - 1);
    int slot = occupied_.FindFrom(start);
    if (slot < 0) {
      slot = occupied_.FindFrom(0);
    }
    return static_cast<uint32_t>(slot);
  }

  size_t capacity_;
  uint32_t bucket_shift_;
  std::vector<std::vector<Request>> buckets_;
  FfsBitmap<kBuckets> occupied_;
  uint64_t cursor_ = 0;   // absolute tick of the earliest live bucket
  std::atomic<size_t> size_{0};
  std::atomic<uint64_t> drops_{0};
};

}  // namespace psp

#endif  // PSP_SRC_SCHED_EDF_QUEUE_H_
