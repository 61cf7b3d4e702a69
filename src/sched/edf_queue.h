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
//     (the horizon is kBuckets × bucket width ≈ 4.2 ms at the 1 µs default,
//     far beyond any sane deadline), and requests without a deadline (0)
//     park there explicitly so deadlined work always goes first.
// Within a bucket, order is FIFO push order — the deterministic tie-break
// the replay goldens rely on.
//
// Storage holds what is queued, not what ever was: each bucket is a
// {head, tail} pair of an index-linked FIFO list over one node slab, the
// layout the timer wheel uses (WheelBucket/WheelNode). The slab grows by
// doubling up to the peak number queued (at most `capacity`) and recycles
// popped nodes through a free list; a push links one node at its bucket's
// tail and a pop unlinks one at the head, never moving the rest.
//
// Single-writer discipline mirrors TypedQueue: all mutation happens on the
// scheduling thread; size/drops are single-writer counters only so
// cross-thread telemetry snapshots read them race-free.
#ifndef PSP_SRC_SCHED_EDF_QUEUE_H_
#define PSP_SRC_SCHED_EDF_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/ffs_bitmap.h"
#include "src/common/single_writer.h"
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
      : capacity_(capacity),
        bucket_shift_(bucket_shift),
        buckets_(kBuckets, Bucket{kNoNode, kNoNode}) {}

  // Enqueues by absolute deadline; false (and a counted drop) when the queue
  // is at capacity. Requests with deadline 0 park in the horizon bucket.
  bool Push(const Request& request) {
    const size_t size = size_.Load();
    if (size == capacity_) {
      drops_.Add(1);
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
    const uint32_t node = AllocNode(request);
    Bucket& bucket = buckets_[slot];
    if (bucket.head == kNoNode) {
      bucket.head = node;
      occupied_.Set(slot);
    } else {
      nodes_[bucket.tail].next = node;
    }
    bucket.tail = node;
    size_.Store(size + 1);
    return true;
  }

  // Pops the earliest-deadline request (FIFO within a bucket). False when
  // empty. Advances the cursor to the popped bucket's tick, so the window
  // invariant holds for subsequent pushes.
  bool PopEarliest(Request* out) {
    const size_t size = size_.Load();
    if (size == 0) {
      return false;
    }
    const uint32_t slot = FindFirstOccupied();
    Bucket& bucket = buckets_[slot];
    const uint32_t node = bucket.head;
    *out = nodes_[node].request;
    if (node == bucket.tail) {
      bucket.head = kNoNode;
      bucket.tail = kNoNode;
      occupied_.Clear(slot);
    } else {
      bucket.head = nodes_[node].next;
    }
    nodes_[node].next = free_head_;
    free_head_ = node;
    // Commit the cursor to the popped bucket so the ring window stays
    // anchored at the earliest live deadline.
    cursor_ = AbsoluteTickOf(slot);
    size_.Store(size - 1);
    return true;
  }

  // Deadline of the earliest request without popping; false when empty.
  bool PeekEarliest(Request* out) const {
    if (Empty()) {
      return false;
    }
    *out = nodes_[buckets_[FindFirstOccupied()].head].request;
    return true;
  }

  bool Empty() const { return Size() == 0; }
  size_t Size() const { return size_.Load(); }
  uint64_t drops() const { return drops_.Load(); }
  Nanos bucket_width() const { return Nanos{1} << bucket_shift_; }

 private:
  static constexpr uint32_t kNoNode = UINT32_MAX;

  // A queued request and the index of the next node in its bucket's list (or
  // in the free list once popped). A bucket's tail carries a stale `next`:
  // lists end at Bucket::tail, not at a sentinel.
  struct Node {
    Request request;
    uint32_t next;
  };

  // An empty bucket has head == tail == kNoNode.
  struct Bucket {
    uint32_t head;
    uint32_t tail;
  };

  uint32_t AllocNode(const Request& request) {
    if (free_head_ != kNoNode) {
      const uint32_t node = free_head_;
      free_head_ = nodes_[node].next;
      nodes_[node].request = request;
      return node;
    }
    nodes_.push_back(Node{request, kNoNode});
    return static_cast<uint32_t>(nodes_.size() - 1);
  }

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
  std::vector<Bucket> buckets_;
  std::vector<Node> nodes_;
  uint32_t free_head_ = kNoNode;  // first recycled node; kNoNode when none
  FfsBitmap<kBuckets> occupied_;
  uint64_t cursor_ = 0;   // absolute tick of the earliest live bucket
  SingleWriterCounter<size_t> size_;
  SingleWriterCounter<uint64_t> drops_;
};

}  // namespace psp

#endif  // PSP_SRC_SCHED_EDF_QUEUE_H_
