// Typed-queue tests: FIFO order, wraparound, bounded drops, growth of the
// ring up to its capacity.
#include "src/core/typed_queue.h"

#include <gtest/gtest.h>

namespace psp {
namespace {

Request Req(uint64_t id) {
  Request r;
  r.id = id;
  r.type = 1;
  return r;
}

TEST(TypedQueue, FifoOrder) {
  TypedQueue q(8);
  q.Push(Req(1));
  q.Push(Req(2));
  q.Push(Req(3));
  Request out;
  ASSERT_TRUE(q.Pop(&out));
  EXPECT_EQ(out.id, 1u);
  ASSERT_TRUE(q.Pop(&out));
  EXPECT_EQ(out.id, 2u);
  ASSERT_TRUE(q.Pop(&out));
  EXPECT_EQ(out.id, 3u);
  EXPECT_FALSE(q.Pop(&out));
}

TEST(TypedQueue, DropsWhenFull) {
  // Capacities below, at and above the initial ring size: the drop happens
  // at exactly `capacity` however far the ring had to grow to get there.
  for (const size_t capacity : {1u, 2u, 5u, 64u, 100u, 4096u}) {
    TypedQueue q(capacity);
    for (size_t i = 0; i < capacity; ++i) {
      ASSERT_TRUE(q.Push(Req(i))) << "capacity " << capacity;
    }
    EXPECT_FALSE(q.Push(Req(capacity))) << "capacity " << capacity;
    EXPECT_FALSE(q.PushFront(Req(capacity))) << "capacity " << capacity;
    EXPECT_EQ(q.drops(), 2u) << "capacity " << capacity;
    EXPECT_EQ(q.Size(), capacity);
    Request out;
    ASSERT_TRUE(q.Pop(&out));
    EXPECT_EQ(out.id, 0u);
    EXPECT_TRUE(q.PushFront(Req(7)));  // room again after one pop
    EXPECT_FALSE(q.Push(Req(8)));
    EXPECT_EQ(q.drops(), 3u) << "capacity " << capacity;
  }
}

TEST(TypedQueue, WrapsAroundRepeatedly) {
  TypedQueue q(4);
  Request out;
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(q.Push(Req(i)));
    ASSERT_TRUE(q.Pop(&out));
    ASSERT_EQ(out.id, i);
  }
  EXPECT_TRUE(q.Empty());
}

TEST(TypedQueue, PushFrontBeatsFifo) {
  TypedQueue q(8);
  q.Push(Req(1));
  q.Push(Req(2));
  q.PushFront(Req(99));  // preempted request re-enters at the head
  Request out;
  ASSERT_TRUE(q.Pop(&out));
  EXPECT_EQ(out.id, 99u);
  ASSERT_TRUE(q.Pop(&out));
  EXPECT_EQ(out.id, 1u);
}

TEST(TypedQueue, PushFrontOnFullDrops) {
  TypedQueue q(1);
  q.Push(Req(1));
  EXPECT_FALSE(q.PushFront(Req(2)));
  EXPECT_EQ(q.drops(), 1u);
}

TEST(TypedQueue, FrontPeeksWithoutRemoving) {
  TypedQueue q(4);
  q.Push(Req(7));
  EXPECT_EQ(q.Front().id, 7u);
  EXPECT_EQ(q.Size(), 1u);
}

TEST(TypedQueue, MixedFrontBackWrapAround) {
  TypedQueue q(4);
  q.Push(Req(1));
  q.Push(Req(2));
  Request out;
  q.Pop(&out);  // head advanced
  q.PushFront(Req(3));
  q.Push(Req(4));
  // Order: 3, 2, 4.
  q.Pop(&out);
  EXPECT_EQ(out.id, 3u);
  q.Pop(&out);
  EXPECT_EQ(out.id, 2u);
  q.Pop(&out);
  EXPECT_EQ(out.id, 4u);
}

TEST(TypedQueue, GrowthKeepsFifoOrderAcrossWrappedRing) {
  // Interleaved Push/Pop walks the head mid-ring and wraps the tail before
  // each doubling, so growth must re-linearise head->tail.
  TypedQueue q(4096);
  uint64_t next_push = 0;
  uint64_t next_pop = 0;
  Request out;
  for (int round = 0; round < 400; ++round) {
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(q.Push(Req(next_push++)));
    }
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(q.Pop(&out));
      ASSERT_EQ(out.id, next_pop++);
    }
  }
  EXPECT_EQ(q.Size(), 1200u);
  while (q.Pop(&out)) {
    ASSERT_EQ(out.id, next_pop++);
  }
  EXPECT_EQ(next_pop, next_push);
  EXPECT_EQ(q.drops(), 0u);
}

TEST(TypedQueue, PushFrontAtGrowthBoundary) {
  // 64 slots fill the initial ring; the head sits mid-ring after two pops.
  TypedQueue q(256);
  Request out;
  for (uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(q.Push(Req(i)));
  }
  ASSERT_TRUE(q.Pop(&out));
  ASSERT_TRUE(q.Pop(&out));
  ASSERT_TRUE(q.Push(Req(64)));
  ASSERT_TRUE(q.Push(Req(65)));
  ASSERT_EQ(q.Size(), 64u);  // full ring, head at slot 2
  // Re-inserting at the head of a full ring grows it first.
  ASSERT_TRUE(q.PushFront(Req(1000)));
  ASSERT_TRUE(q.Push(Req(66)));
  EXPECT_EQ(q.Size(), 66u);
  ASSERT_TRUE(q.Pop(&out));
  EXPECT_EQ(out.id, 1000u);
  for (uint64_t i = 2; i <= 66; ++i) {
    ASSERT_TRUE(q.Pop(&out));
    ASSERT_EQ(out.id, i);
  }
  EXPECT_TRUE(q.Empty());
}

}  // namespace
}  // namespace psp
