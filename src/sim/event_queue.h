// Discrete-event simulation core: a time-ordered event queue with stable FIFO
// ordering for simultaneous events, driving all paper-figure experiments.
//
// The engine is allocation-free in steady state (the substrate discipline the
// paper applies to its data path — preallocated pools, no per-item malloc):
//
//   * Events are fixed-size slots: one type-erased trampoline pointer plus an
//     inline POD payload (the handler's captures), the whole slot
//     static-asserted to fit one cache line. There is no std::function and no
//     per-event heap allocation; the only allocations ever made are geometric
//     growths of the slot arena, which stop once the run reaches its peak
//     pending-event count (see arena_allocations()).
//   * Slots are recycled through an intrusive free list threaded through the
//     arena (the link reuses the payload bytes of free slots).
//   * The ready queue is a hierarchical timer wheel (Eiffel-style calendar
//     queue): 8 levels of 256 single-byte-indexed buckets with a
//     find-first-set bitmap (src/common/ffs_bitmap.h) per level, covering the
//     full 64-bit time range, with cascade-on-rollover pouring higher-level
//     buckets into lower ones — O(1) amortised enqueue/dequeue whatever the
//     pending population (see docs/PERF.md §1).
//
// Ordering contract (unchanged from the seed engine, and what the
// determinism goldens rely on): events execute in ascending (time, seq)
// order, where seq is the global schedule-call sequence number — FIFO among
// simultaneous events. The wheel needs no explicit seq: every bucket list
// holds its same-tick events in schedule order, because appends happen in
// schedule order and cascades preserve relative order.
#ifndef PSP_SRC_SIM_EVENT_QUEUE_H_
#define PSP_SRC_SIM_EVENT_QUEUE_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <vector>

#include "src/common/ffs_bitmap.h"
#include "src/common/time.h"

namespace psp {

// One cache line on every mainstream x86/ARM server part (mirrors
// kCacheLineSize in src/common/spsc_ring.h; redefined here so the simulator
// core does not depend on the concurrency headers).
inline constexpr size_t kEventCacheLine = 64;

class Simulation {
 public:
  // Inline payload budget for a scheduled handler's captures. Big enough for
  // every engine/policy handler (this + a pointer + a few scalars; the
  // largest today is trace replay's [this, TraceEntry, index] at 40 bytes).
  static constexpr size_t kEventPayloadSize =
      kEventCacheLine - sizeof(void (*)(void*));

  Simulation() {
    for (WheelLevel& level : wheel_) {
      // 0xFF bytes make every head/tail kNoSlot in one pass.
      std::memset(level.buckets, 0xFF, sizeof(level.buckets));
    }
  }

  // Pending handlers capture pointers into their owners; a copied engine
  // would run them against the original's state.
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  Nanos Now() const { return now_; }

  // Pre-sizes the arena for `events` concurrently-pending events so even the
  // first iterations allocate nothing.
  void Reserve(size_t events) {
    if (events > slots_.capacity()) {
      slots_.reserve(events);
      nodes_.reserve(events);
      ++arena_allocations_;
    }
  }

  // Schedules `fn` to run at absolute simulated time `t` (>= Now()).
  //
  // `fn` must be a trivially-copyable callable (lambdas capturing pointers
  // and scalars qualify) whose state fits the inline payload. It is stored
  // by value inside the event slot: no allocation, no destructor.
  template <typename Fn>
  void ScheduleAt(Nanos t, Fn fn) {
    static_assert(std::is_trivially_copyable_v<Fn>,
                  "event handlers are stored inline: captures must be "
                  "trivially copyable (capture pointers, not owning objects)");
    static_assert(sizeof(Fn) <= kEventPayloadSize,
                  "event handler captures exceed the inline payload budget; "
                  "capture a pointer to the state instead");
    static_assert(alignof(Fn) <= alignof(void*),
                  "over-aligned captures are not supported");
    assert(t >= 0 && "simulated time is non-negative");
    assert(t >= now_ && "events must not be scheduled in the past");
    const uint32_t slot = AllocSlot();
    EventSlot& s = slots_[slot];
    // The trampoline copies the captures to its own stack before running the
    // handler: the handler may schedule events, growing the arena and moving
    // every slot. The copy is sizeof(Fn) bytes, not the full payload budget.
    s.invoke = [](void* payload) {
      Fn handler(*static_cast<Fn*>(payload));
      handler();
    };
    ::new (static_cast<void*>(s.payload)) Fn(fn);
    const auto time = static_cast<uint64_t>(t);
    assert(time >= wheel_time_ && "wheel time lower-bounds pending events");
    nodes_[slot] = WheelNode{time, kNoSlot};
    Enqueue(time, slot);
    ++pending_;
  }

  template <typename Fn>
  void ScheduleAfter(Nanos delay, Fn fn) {
    ScheduleAt(now_ + delay, fn);
  }

  // Runs events until the queue drains or simulated time exceeds `until`.
  // Events scheduled at exactly `until` do run; Now() lands on `until` even
  // when the queue drains early.
  void RunUntil(Nanos until) {
    // The peek is bounded by `until`: an unbounded one would commit
    // wheel_time_ to the next pending tick even when that tick is beyond the
    // horizon, and events scheduled afterwards in the gap [until, tick)
    // would land behind the wheel. Bounding keeps wheel_time_ <= until =
    // Now() on exit, preserving the lower-bound invariant for any follow-up
    // ScheduleAt.
    uint64_t t;
    while (PrepareMin(static_cast<uint64_t>(until), &t)) {
      RunFront(t);
    }
    if (now_ < until) {
      now_ = until;
    }
  }

  // Runs until the event queue is completely drained. The unbounded peek is
  // safe here: RunFront immediately brings now_ up to wheel_time_, so no
  // schedule can land behind the wheel.
  void RunToCompletion() {
    uint64_t t;
    while (PrepareMin(~uint64_t{0}, &t)) {
      RunFront(t);
    }
  }

  uint64_t executed_events() const { return executed_; }
  size_t pending_events() const { return pending_; }

  // Number of heap allocations the engine has performed (arena growths).
  // Flat across iterations once warmed up — the property
  // bench/micro_sim_engine gates on.
  uint64_t arena_allocations() const { return arena_allocations_; }

  // Entries poured one level down during a bucket rollover (per-event moves).
  uint64_t wheel_cascades() const { return cascades_; }
  // Higher-level buckets cascaded (per-bucket rollover operations).
  uint64_t wheel_rollovers() const { return rollovers_; }
  // The wheel is the only ready queue. bench/e2e/sim.cc still reads these
  // two as the sim-figures workload's sim.backend_switches/sim.wheel_active.
  uint64_t backend_switches() const { return 0; }
  bool wheel_active() const { return true; }

 private:
  using InvokeFn = void (*)(void* payload);

  // --- Wheel layout ----------------------------------------------------------
  // 8 levels of 256 buckets, one byte of the event time per level: level l
  // bucket index is byte l of the time, and 8 levels cover the full 64-bit
  // range — there is no overflow list; arbitrarily far-future events simply
  // start at a high level and cascade down as the wheel reaches them. Each
  // level carries a 256-bit occupancy bitmap for find-first-set scans.
  //
  // wheel_time_ is the tick the wheel has advanced to (every pending event's
  // time is >= it). An event inserts at the HIGHEST byte in which its time
  // differs from wheel_time_ (level 0 for same-tick). Consequences that make
  // the O(1) pop work:
  //   * a level-0 bucket inside the current 256-tick window holds exactly one
  //     tick's events, in schedule order (appends happen in global schedule
  //     order and cascades preserve relative order);
  //   * at any level, bucket indices below wheel_time_'s byte are empty (they
  //     were drained or cascaded when the wheel passed them), so a bitmap
  //     find-first-set from that byte finds the next pending work.
  static constexpr uint32_t kWheelLevelBits = 8;
  static constexpr uint32_t kWheelBuckets = 1u << kWheelLevelBits;  // 256
  static constexpr uint32_t kWheelLevels = 8;  // 8 bytes = full uint64 range
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  // A pending event's storage: trampoline + inline captures. Free slots
  // thread the arena free list through their payload bytes.
  struct alignas(kEventCacheLine) EventSlot {
    InvokeFn invoke;
    alignas(alignof(void*)) unsigned char payload[kEventPayloadSize];

    uint32_t free_link() const {
      uint32_t link;
      std::memcpy(&link, payload, sizeof(link));
      return link;
    }
    void set_free_link(uint32_t link) {
      std::memcpy(payload, &link, sizeof(link));
    }
  };
  static_assert(sizeof(EventSlot) == kEventCacheLine,
                "an event (trampoline + payload) must fit one cache line");

  // Wheel node for a pending event, indexed by its arena slot (each pending
  // event owns exactly one slot, so the parallel array needs no free list of
  // its own).
  struct WheelNode {
    uint64_t time;
    uint32_t next;  // next slot in the bucket's list; kNoSlot at the tail
  };

  struct WheelBucket {
    uint32_t head;
    uint32_t tail;
  };

  struct WheelLevel {
    WheelBucket buckets[kWheelBuckets];
    FfsBitmap<kWheelBuckets> occupied;
  };

  uint32_t AllocSlot() {
    if (free_head_ != kNoSlot) {
      const uint32_t slot = free_head_;
      free_head_ = slots_[slot].free_link();
      return slot;
    }
    // The node array grows in lockstep, so it reallocates exactly when the
    // arena does.
    const size_t old_cap = slots_.capacity();
    slots_.emplace_back();
    nodes_.emplace_back();
    if (slots_.capacity() != old_cap) {
      ++arena_allocations_;
    }
    assert(slots_.size() < kNoSlot);
    return static_cast<uint32_t>(slots_.size() - 1);
  }

  void FreeSlot(uint32_t slot) {
    slots_[slot].set_free_link(free_head_);
    free_head_ = slot;
  }

  // Appends `slot` (whose node carries `time`) to the bucket for the highest
  // byte in which `time` differs from wheel_time_. Appending at the tail is
  // what preserves per-tick schedule order.
  void Enqueue(uint64_t time, uint32_t slot) {
    const uint64_t diff = time ^ wheel_time_;
    const uint32_t level =
        diff == 0
            ? 0
            : (63u - static_cast<uint32_t>(__builtin_clzll(diff))) >>
                  3;  // byte index of the highest differing bit
    const uint32_t index =
        static_cast<uint32_t>(time >> (level * kWheelLevelBits)) &
        (kWheelBuckets - 1);
    WheelLevel& L = wheel_[level];
    WheelBucket& bucket = L.buckets[index];
    if (bucket.head == kNoSlot) {
      bucket.head = slot;
      bucket.tail = slot;
      L.occupied.Set(index);
    } else {
      nodes_[bucket.tail].next = slot;
      bucket.tail = slot;
    }
  }

  // Advances the wheel so the earliest pending event sits at the head of its
  // exact-tick level-0 bucket, cascading higher-level buckets down as needed;
  // returns true and writes that tick when it is <= `bound`. wheel_time_
  // NEVER advances past `bound`: a bounded peek (RunUntil's horizon check)
  // must not move the wheel beyond times the caller may still schedule into,
  // or a later ScheduleAt in the gap would land behind the wheel and become
  // undiscoverable.
  bool PrepareMin(uint64_t bound, uint64_t* time_out) {
    if (pending_ == 0) {
      return false;
    }
    for (;;) {
      const uint32_t idx0 =
          static_cast<uint32_t>(wheel_time_) & (kWheelBuckets - 1);
      const int hit = wheel_[0].occupied.FindFrom(idx0);
      if (hit >= 0) {
        const uint64_t tick = (wheel_time_ & ~uint64_t{kWheelBuckets - 1}) |
                              static_cast<uint32_t>(hit);
        if (tick > bound) {
          return false;
        }
        wheel_time_ = tick;
        *time_out = tick;
        return true;
      }
      // Level 0 is drained: roll the first pending bucket of the lowest
      // non-empty level over, pouring its entries one level down (they
      // re-enqueue relative to the advanced wheel_time_).
      uint32_t level = 1;
      int bucket = -1;
      for (; level < kWheelLevels; ++level) {
        const uint32_t from = static_cast<uint32_t>(
                                  wheel_time_ >> (level * kWheelLevelBits)) &
                              (kWheelBuckets - 1);
        bucket = wheel_[level].occupied.FindFrom(from);
        if (bucket >= 0) {
          break;
        }
      }
      assert(bucket >= 0 && "pending_ > 0 but every bitmap is empty");
      const uint32_t shift = level * kWheelLevelBits;
      // Jump to the start of the bucket's span: keep the bytes above the
      // level, set the level's byte, zero everything below. When the bucket
      // is the current byte's own, this moves wheel_time_ *down* within its
      // span — safe, since it lowers every byte and scans only start earlier.
      const uint64_t keep_mask =
          level + 1 >= kWheelLevels
              ? uint64_t{0}
              : ~uint64_t{0} << ((level + 1) * kWheelLevelBits);
      const uint64_t jump = (wheel_time_ & keep_mask) |
                            (static_cast<uint64_t>(bucket) << shift);
      if (jump > bound) {
        // Every pending event's time >= the start of this bucket's span.
        return false;
      }
      wheel_time_ = jump;
      WheelLevel& L = wheel_[level];
      WheelBucket& b = L.buckets[bucket];
      uint32_t cur = b.head;
      b.head = kNoSlot;
      b.tail = kNoSlot;
      L.occupied.Clear(static_cast<uint32_t>(bucket));
      ++rollovers_;
      while (cur != kNoSlot) {
        const uint32_t next = nodes_[cur].next;
        nodes_[cur].next = kNoSlot;
        Enqueue(nodes_[cur].time, cur);
        ++cascades_;
        cur = next;
      }
    }
  }

  // Unlinks the head of the current tick's bucket and runs it. Only valid
  // directly after PrepareMin returned true and wrote `t`.
  void RunFront(uint64_t t) {
    const uint32_t index = static_cast<uint32_t>(t) & (kWheelBuckets - 1);
    WheelBucket& bucket = wheel_[0].buckets[index];
    const uint32_t slot = bucket.head;
    assert(slot != kNoSlot && nodes_[slot].time == t);
    bucket.head = nodes_[slot].next;
    if (bucket.head == kNoSlot) {
      bucket.tail = kNoSlot;
      wheel_[0].occupied.Clear(index);
    }
    --pending_;
    now_ = static_cast<Nanos>(t);
    EventSlot& s = slots_[slot];
    // The trampoline copies the captures out of the arena on entry (see
    // ScheduleAt), so scheduling from inside the handler is safe even when
    // it grows the arena. The slot is released only afterwards — by index,
    // since `s` may dangle once the arena has grown.
    s.invoke(s.payload);
    FreeSlot(slot);
    ++executed_;
  }

  std::vector<EventSlot> slots_;  // slot arena; free list through payloads
  std::vector<WheelNode> nodes_;  // parallel to slots_, indexed by slot
  uint32_t free_head_ = kNoSlot;
  Nanos now_ = 0;
  uint64_t executed_ = 0;
  uint64_t arena_allocations_ = 0;

  WheelLevel wheel_[kWheelLevels];
  uint64_t wheel_time_ = 0;  // tick the wheel has advanced to
  size_t pending_ = 0;
  uint64_t cascades_ = 0;
  uint64_t rollovers_ = 0;
};

}  // namespace psp

#endif  // PSP_SRC_SIM_EVENT_QUEUE_H_
