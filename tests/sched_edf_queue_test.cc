// Invariants of the bucketed EDF queue (src/sched/edf_queue.h): pops come
// out in ascending deadline order, same-bucket ties break FIFO (the replay
// goldens rely on that determinism), edge deadlines (late / far-future /
// none) clamp deterministically, capacity drops are counted, and the cursor
// re-anchors across idle gaps. A seeded differential run checks all of that
// at once against a reference keyed by absolute tick.
#include "src/sched/edf_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <random>
#include <vector>

namespace psp {
namespace {

// Engines stamp deadline = arrival + budget, so arrival <= deadline always
// holds in real use; the empty-ring cursor re-anchor keys off the arrival.
Request Req(uint64_t id, Nanos deadline, Nanos arrival = 1) {
  Request r;
  r.id = id;
  r.arrival = arrival;
  r.deadline = deadline;
  return r;
}

TEST(EdfQueue, PopsInAscendingDeadlineOrder) {
  EdfQueue q;
  // Deliberately shuffled pushes, deadlines one bucket (~1 µs) apart so each
  // lands in its own bucket.
  const std::vector<Nanos> deadlines = {50'000, 10'000, 90'000, 30'000,
                                        70'000, 20'000, 80'000, 40'000};
  for (size_t i = 0; i < deadlines.size(); ++i) {
    ASSERT_TRUE(q.Push(Req(i, deadlines[i])));
  }
  EXPECT_EQ(q.Size(), deadlines.size());

  std::vector<Nanos> sorted = deadlines;
  std::sort(sorted.begin(), sorted.end());
  for (const Nanos expected : sorted) {
    Request out;
    ASSERT_TRUE(q.PopEarliest(&out));
    EXPECT_EQ(out.deadline, expected);
  }
  EXPECT_TRUE(q.Empty());
  Request out;
  EXPECT_FALSE(q.PopEarliest(&out));
}

TEST(EdfQueue, SameBucketTiesBreakFifo) {
  EdfQueue q;
  // Identical deadlines land in one bucket; pop order must be push order.
  const Nanos deadline = 64'000;
  for (uint64_t id = 0; id < 5; ++id) {
    ASSERT_TRUE(q.Push(Req(id, deadline)));
  }
  for (uint64_t id = 0; id < 5; ++id) {
    Request out;
    ASSERT_TRUE(q.PopEarliest(&out));
    EXPECT_EQ(out.id, id);
  }
}

TEST(EdfQueue, PeekMatchesPopWithoutConsuming) {
  EdfQueue q;
  ASSERT_TRUE(q.Push(Req(1, 40'000)));
  ASSERT_TRUE(q.Push(Req(2, 20'000)));
  Request peeked;
  ASSERT_TRUE(q.PeekEarliest(&peeked));
  EXPECT_EQ(peeked.id, 2u);
  EXPECT_EQ(q.Size(), 2u);
  Request popped;
  ASSERT_TRUE(q.PopEarliest(&popped));
  EXPECT_EQ(popped.id, peeked.id);
  EXPECT_EQ(q.Size(), 1u);
}

TEST(EdfQueue, LateDeadlinesClampToCursorAndDrainFirst) {
  EdfQueue q;
  // Anchor the window well past 5 µs: the empty-ring push re-anchors the
  // cursor at its arrival (120 µs).
  ASSERT_TRUE(q.Push(Req(2, 150'000, /*arrival=*/120'000)));
  // This deadline sits behind the cursor (already late) — it clamps to the
  // cursor bucket and therefore pops before the 150 µs entry.
  ASSERT_TRUE(q.Push(Req(3, 5'000, /*arrival=*/125'000)));
  Request out;
  ASSERT_TRUE(q.PopEarliest(&out));
  EXPECT_EQ(out.id, 3u);
  ASSERT_TRUE(q.PopEarliest(&out));
  EXPECT_EQ(out.id, 2u);
}

TEST(EdfQueue, ZeroDeadlineParksAtHorizonBehindAllDeadlinedWork) {
  EdfQueue q;
  ASSERT_TRUE(q.Push(Req(1, 0)));  // no deadline
  ASSERT_TRUE(q.Push(Req(2, 500'000)));
  ASSERT_TRUE(q.Push(Req(3, 30'000)));
  Request out;
  ASSERT_TRUE(q.PopEarliest(&out));
  EXPECT_EQ(out.id, 3u);
  ASSERT_TRUE(q.PopEarliest(&out));
  EXPECT_EQ(out.id, 2u);
  ASSERT_TRUE(q.PopEarliest(&out));
  EXPECT_EQ(out.id, 1u);
}

TEST(EdfQueue, FarFutureDeadlinesClampToHorizonBucket) {
  EdfQueue q;
  const Nanos horizon = q.bucket_width() * EdfQueue::kBuckets;
  ASSERT_TRUE(q.Push(Req(1, 10 * horizon)));  // far beyond the ring window
  ASSERT_TRUE(q.Push(Req(2, 20 * horizon)));  // even further: same bucket
  ASSERT_TRUE(q.Push(Req(3, 10'000)));        // precise, near
  Request out;
  ASSERT_TRUE(q.PopEarliest(&out));
  EXPECT_EQ(out.id, 3u);
  // Beyond the horizon the order is approximate by design: FIFO within the
  // shared horizon bucket.
  ASSERT_TRUE(q.PopEarliest(&out));
  EXPECT_EQ(out.id, 1u);
  ASSERT_TRUE(q.PopEarliest(&out));
  EXPECT_EQ(out.id, 2u);
}

TEST(EdfQueue, CapacityDropsAreCountedAndRefused) {
  EdfQueue q(/*capacity=*/2);
  ASSERT_TRUE(q.Push(Req(1, 10'000)));
  ASSERT_TRUE(q.Push(Req(2, 20'000)));
  EXPECT_FALSE(q.Push(Req(3, 30'000)));
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.Size(), 2u);
  // Draining frees capacity again.
  Request out;
  ASSERT_TRUE(q.PopEarliest(&out));
  EXPECT_TRUE(q.Push(Req(4, 40'000)));
  EXPECT_EQ(q.drops(), 1u);
}

TEST(EdfQueue, CursorReanchorsAcrossIdleGaps) {
  EdfQueue q;
  const Nanos horizon = q.bucket_width() * EdfQueue::kBuckets;
  // Drain an early era completely, then push deadlines far past the old ring
  // window. Without re-anchoring they'd all clamp to the horizon bucket and
  // lose their relative order.
  ASSERT_TRUE(q.Push(Req(1, 10'000)));
  Request out;
  ASSERT_TRUE(q.PopEarliest(&out));
  ASSERT_TRUE(q.Empty());
  const Nanos era = 5 * horizon;
  ASSERT_TRUE(q.Push(Req(2, era + 200'000, /*arrival=*/era)));
  ASSERT_TRUE(q.Push(Req(3, era + 100'000, /*arrival=*/era + 1'000)));
  ASSERT_TRUE(q.PopEarliest(&out));
  EXPECT_EQ(out.id, 3u);
  ASSERT_TRUE(q.PopEarliest(&out));
  EXPECT_EQ(out.id, 2u);
}

TEST(EdfQueue, InterleavedPushPopKeepsGlobalOrder) {
  EdfQueue q;
  ASSERT_TRUE(q.Push(Req(1, 40'000)));
  ASSERT_TRUE(q.Push(Req(2, 80'000)));
  Request out;
  ASSERT_TRUE(q.PopEarliest(&out));
  EXPECT_EQ(out.id, 1u);
  // A new earlier-than-head deadline (but still >= cursor) goes first.
  ASSERT_TRUE(q.Push(Req(3, 60'000)));
  ASSERT_TRUE(q.PopEarliest(&out));
  EXPECT_EQ(out.id, 3u);
  ASSERT_TRUE(q.PopEarliest(&out));
  EXPECT_EQ(out.id, 2u);
}

// The queue's contract without its ring: one FIFO per absolute deadline tick,
// with the same clamping (late -> cursor tick, beyond the horizon or no
// deadline -> cursor + kBuckets - 1), the same empty-queue re-anchor and the
// same capacity drops. It never maps a tick to a ring slot, so any slot
// arithmetic, bucket-list or node-recycling fault in EdfQueue diverges.
class ReferenceEdf {
 public:
  ReferenceEdf(size_t capacity, uint32_t bucket_shift)
      : capacity_(capacity), shift_(bucket_shift) {}

  bool Push(const Request& r) {
    if (size_ == capacity_) {
      ++drops_;
      return false;
    }
    if (size_ == 0) {
      const Nanos anchor = r.arrival > 0 ? r.arrival : r.deadline;
      if (anchor > 0) {
        cursor_ = static_cast<uint64_t>(anchor) >> shift_;
      }
    }
    const uint64_t horizon = cursor_ + EdfQueue::kBuckets - 1;
    uint64_t tick = horizon;
    if (r.deadline > 0) {
      tick = std::clamp(static_cast<uint64_t>(r.deadline) >> shift_, cursor_,
                        horizon);
    }
    ticks_[tick].push_back(r);
    ++size_;
    return true;
  }

  bool Pop(Request* out) {
    if (size_ == 0) {
      return false;
    }
    auto earliest = ticks_.begin();
    *out = earliest->second.front();
    earliest->second.pop_front();
    cursor_ = earliest->first;
    if (earliest->second.empty()) {
      ticks_.erase(earliest);
    }
    --size_;
    return true;
  }

  const Request& Earliest() const { return ticks_.begin()->second.front(); }
  size_t size() const { return size_; }
  uint64_t drops() const { return drops_; }
  uint64_t cursor() const { return cursor_; }

 private:
  size_t capacity_;
  uint32_t shift_;
  std::map<uint64_t, std::deque<Request>> ticks_;
  uint64_t cursor_ = 0;
  size_t size_ = 0;
  uint64_t drops_ = 0;
};

TEST(EdfQueue, MatchesReferenceOverSeededOperationMix) {
  // 200k operations on a clock that crosses the 4096-bucket ring dozens of
  // times while entries stay queued, with late, near, beyond-horizon and
  // zero deadlines, bursts that hit capacity, full drains that re-anchor an
  // empty ring, and idle gaps of several horizons. Every pop, peek, size and
  // drop count must match the reference.
  constexpr size_t kCapacity = 512;
  EdfQueue q(kCapacity);
  ReferenceEdf ref(kCapacity, /*bucket_shift=*/10);
  const Nanos width = q.bucket_width();
  const Nanos horizon = width * EdfQueue::kBuckets;
  std::mt19937_64 rng(20211026);
  std::uniform_int_distribution<int> pct(0, 99);

  Nanos now = horizon;  // late deadlines stay positive
  uint64_t next_id = 1;
  uint64_t pops = 0;
  uint64_t reanchors = 0;
  uint64_t first_live_tick = 0;  // cursor when the queue last became non-empty
  uint64_t max_live_span_ticks = 0;  // furthest the cursor moved since then
  int push_bias = 50;  // percent of operations that push; drifts in phases
  for (int op = 0; op < 200'000; ++op) {
    now += static_cast<Nanos>(rng() % (2 * width));
    if (op % 4'000 == 0) {
      push_bias = 30 + pct(rng) * 45 / 100;  // 30..74: drain or fill phases
    }
    if (pct(rng) == 0 && op % 7 == 0) {
      now += static_cast<Nanos>(1 + rng() % 5) * horizon;  // idle gap
    }
    if (pct(rng) < push_bias) {
      Request r;
      r.id = next_id++;
      r.arrival = pct(rng) < 3 ? 0 : now;
      const int kind = pct(rng);
      if (kind < 10) {
        r.deadline = 0;  // no deadline: parks at the horizon
      } else if (kind < 25) {
        r.deadline = now - static_cast<Nanos>(rng() % horizon);  // late
      } else if (kind < 35) {
        r.deadline = now + horizon + static_cast<Nanos>(rng() % horizon);
      } else if (kind < 60) {
        r.deadline = now + static_cast<Nanos>(rng() % (8 * width));  // ties
      } else {
        r.deadline = now + static_cast<Nanos>(rng() % horizon);
      }
      const bool was_empty = ref.size() == 0;
      ASSERT_EQ(q.Push(r), ref.Push(r)) << "op " << op;
      if (was_empty) {
        ++reanchors;
        first_live_tick = ref.cursor();
      }
    } else {
      Request got;
      Request want;
      const bool ok = q.PopEarliest(&got);
      ASSERT_EQ(ok, ref.Pop(&want)) << "op " << op;
      if (ok) {
        ASSERT_EQ(got.id, want.id) << "op " << op;
        ASSERT_EQ(got.deadline, want.deadline);
        ++pops;
      }
    }
    ASSERT_EQ(q.Size(), ref.size()) << "op " << op;
    ASSERT_EQ(q.drops(), ref.drops()) << "op " << op;
    if (ref.size() > 0) {
      max_live_span_ticks =
          std::max(max_live_span_ticks, ref.cursor() - first_live_tick);
      Request peek;
      ASSERT_TRUE(q.PeekEarliest(&peek));
      ASSERT_EQ(peek.id, ref.Earliest().id) << "op " << op;
    }
  }
  // The run must actually have exercised what it claims to.
  EXPECT_GT(q.drops(), 1'000u);
  EXPECT_GT(reanchors, 100u);
  EXPECT_GT(pops, 50'000u);
  EXPECT_GT(max_live_span_ticks, 10u * EdfQueue::kBuckets);
}

}  // namespace
}  // namespace psp
