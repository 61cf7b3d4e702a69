// Tests for the DarcScheduler: Algorithm 1 dispatch, policy modes, flow
// control, the c-FCFS bootstrap, and adaptive reservation updates.
#include "src/core/scheduler.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"

namespace psp {
namespace {

SchedulerConfig BaseConfig(PolicyMode mode, uint32_t workers = 14) {
  SchedulerConfig config;
  config.mode = mode;
  config.num_workers = workers;
  config.profiler.min_window_samples = 100;  // small windows for tests
  return config;
}

Request Req(uint64_t id, TypeIndex type, Nanos arrival, Nanos service = 1000) {
  Request r;
  r.id = id;
  r.type = type;
  r.arrival = arrival;
  r.service_demand = service;
  return r;
}

class HighBimodalScheduler : public ::testing::Test {
 protected:
  HighBimodalScheduler() : scheduler_(BaseConfig(PolicyMode::kDarc)) {
    short_ = scheduler_.RegisterType(1, "SHORT", FromMicros(1.0), 0.5);
    long_ = scheduler_.RegisterType(2, "LONG", FromMicros(100.0), 0.5);
    scheduler_.ActivateSeededReservation();
  }

  DarcScheduler scheduler_;
  TypeIndex short_ = 0;
  TypeIndex long_ = 0;
};

TEST_F(HighBimodalScheduler, SeededReservationMatchesPaper) {
  ASSERT_TRUE(scheduler_.darc_active());
  EXPECT_EQ(scheduler_.reserved_workers_of(short_), 1u);
  EXPECT_EQ(scheduler_.reserved_workers_of(long_), 13u);
}

TEST_F(HighBimodalScheduler, ShortsGoToTheirReservedWorkerFirst) {
  scheduler_.Enqueue(Req(1, short_, 0), 0);
  const auto a = scheduler_.NextAssignment(0);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->worker, 0u);  // worker 0 is the short-reserved core
  EXPECT_FALSE(a->stolen);
}

TEST_F(HighBimodalScheduler, LongsNeverTakeTheShortCore) {
  // Fill the system with long requests: they may occupy at most cores 1..13.
  for (uint64_t i = 0; i < 20; ++i) {
    scheduler_.Enqueue(Req(i, long_, 0), 0);
  }
  std::vector<WorkerId> used;
  while (auto a = scheduler_.NextAssignment(0)) {
    used.push_back(a->worker);
  }
  EXPECT_EQ(used.size(), 13u);  // 13 long cores; worker 0 untouched
  for (const WorkerId w : used) {
    EXPECT_NE(w, 0u);
  }
  // The scheduler deliberately idles worker 0: non-work-conserving for longs.
  EXPECT_EQ(scheduler_.idle_workers(), 1u);
  EXPECT_EQ(scheduler_.queue_depth(long_), 7u);
}

TEST_F(HighBimodalScheduler, ShortsStealLongCoresWhenTheirCoreIsBusy) {
  scheduler_.Enqueue(Req(1, short_, 0), 0);
  scheduler_.Enqueue(Req(2, short_, 0), 0);
  const auto a1 = scheduler_.NextAssignment(0);
  const auto a2 = scheduler_.NextAssignment(0);
  ASSERT_TRUE(a1 && a2);
  EXPECT_EQ(a1->worker, 0u);
  EXPECT_NE(a2->worker, 0u);  // stolen from the long partition
  EXPECT_TRUE(a2->stolen);
  EXPECT_EQ(scheduler_.stolen_dispatches(), 1u);
}

TEST_F(HighBimodalScheduler, ShortsDispatchBeforeEarlierLongs) {
  // Occupy all 13 long-group cores so priority is observable on the rest.
  for (uint64_t i = 0; i < 13; ++i) {
    scheduler_.Enqueue(Req(i, long_, 0), 0);
  }
  while (scheduler_.NextAssignment(0)) {
  }
  // Long waiting since t=100, short arriving later at t=200.
  scheduler_.Enqueue(Req(100, long_, 100), 100);
  scheduler_.Enqueue(Req(200, short_, 200), 200);
  const auto a = scheduler_.NextAssignment(200);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->request.type, short_);  // shorts first despite arriving later
  EXPECT_EQ(a->worker, 0u);
}

TEST_F(HighBimodalScheduler, CompletionFreesWorker) {
  scheduler_.Enqueue(Req(1, short_, 0), 0);
  const auto a = scheduler_.NextAssignment(0);
  ASSERT_TRUE(a.has_value());
  EXPECT_FALSE(scheduler_.NextAssignment(0).has_value());
  scheduler_.OnCompletion(a->worker, short_, 1000, 1000);
  EXPECT_EQ(scheduler_.idle_workers(), 14u);
  scheduler_.Enqueue(Req(2, short_, 1000), 1000);
  EXPECT_TRUE(scheduler_.NextAssignment(1000).has_value());
}

TEST_F(HighBimodalScheduler, UnknownRequestsServedOnSpillwayOnly) {
  scheduler_.Enqueue(Req(1, scheduler_.unknown_type(), 0), 0);
  const auto a = scheduler_.NextAssignment(0);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->worker, 13u);  // last core is the spillway
}

TEST_F(HighBimodalScheduler, UnknownHasLowestPriority) {
  scheduler_.Enqueue(Req(1, scheduler_.unknown_type(), 0), 0);
  scheduler_.Enqueue(Req(2, long_, 10), 10);
  const auto a = scheduler_.NextAssignment(10);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->request.type, long_);
}

TEST_F(HighBimodalScheduler, ResolveTypeMapsWireIds) {
  EXPECT_EQ(scheduler_.ResolveType(1), short_);
  EXPECT_EQ(scheduler_.ResolveType(2), long_);
  EXPECT_EQ(scheduler_.ResolveType(999), scheduler_.unknown_type());
}

TEST_F(HighBimodalScheduler, NoAssignmentWhenAllQueuesEmpty) {
  EXPECT_FALSE(scheduler_.NextAssignment(0).has_value());
}

// --- Flow control ------------------------------------------------------------

TEST(SchedulerFlowControl, DropsOnlyOverloadedType) {
  SchedulerConfig config = BaseConfig(PolicyMode::kDarc, 2);
  config.typed_queue_capacity = 4;
  DarcScheduler scheduler(config);
  const TypeIndex a = scheduler.RegisterType(1, "A", 1000, 0.5);
  const TypeIndex b = scheduler.RegisterType(2, "B", 100000, 0.5);
  scheduler.ActivateSeededReservation();

  // Overflow type A's queue; type B is unaffected.
  uint64_t accepted = 0;
  for (uint64_t i = 0; i < 10; ++i) {
    accepted += scheduler.Enqueue(Req(i, a, 0), 0) ? 1 : 0;
  }
  EXPECT_EQ(accepted, 4u);
  EXPECT_EQ(scheduler.queue_drops(a), 6u);
  EXPECT_TRUE(scheduler.Enqueue(Req(100, b, 0), 0));
  EXPECT_EQ(scheduler.queue_drops(b), 0u);
  EXPECT_EQ(scheduler.dropped(), 6u);
}

// --- c-FCFS mode ---------------------------------------------------------------

TEST(SchedulerCFcfs, DispatchesInGlobalArrivalOrder) {
  DarcScheduler scheduler(BaseConfig(PolicyMode::kCFcfs, 1));
  const TypeIndex a = scheduler.RegisterType(1, "A", 1000, 0.5);
  const TypeIndex b = scheduler.RegisterType(2, "B", 100000, 0.5);

  scheduler.Enqueue(Req(1, b, 10), 10);
  scheduler.Enqueue(Req(2, a, 20), 20);
  scheduler.Enqueue(Req(3, b, 30), 30);

  const auto a1 = scheduler.NextAssignment(30);
  ASSERT_TRUE(a1.has_value());
  EXPECT_EQ(a1->request.id, 1u);  // strictly FIFO, type-blind
  scheduler.OnCompletion(a1->worker, a1->request.type, 100, 100);
  const auto a2 = scheduler.NextAssignment(100);
  EXPECT_EQ(a2->request.id, 2u);
  scheduler.OnCompletion(a2->worker, a2->request.type, 100, 200);
  const auto a3 = scheduler.NextAssignment(200);
  EXPECT_EQ(a3->request.id, 3u);
}

TEST(SchedulerCFcfs, IsWorkConserving) {
  DarcScheduler scheduler(BaseConfig(PolicyMode::kCFcfs, 4));
  const TypeIndex a = scheduler.RegisterType(1, "A", 1000, 1.0);
  for (uint64_t i = 0; i < 4; ++i) {
    scheduler.Enqueue(Req(i, a, 0), 0);
  }
  uint32_t assigned = 0;
  while (scheduler.NextAssignment(0)) {
    ++assigned;
  }
  EXPECT_EQ(assigned, 4u);  // every worker busy whenever work exists
  EXPECT_EQ(scheduler.idle_workers(), 0u);
}

// --- Fixed Priority -------------------------------------------------------------

TEST(SchedulerFixedPriority, ShortTypeAlwaysFirstNoReservation) {
  DarcScheduler scheduler(BaseConfig(PolicyMode::kFixedPriority, 2));
  const TypeIndex a = scheduler.RegisterType(1, "SHORT", 1000, 0.5);
  const TypeIndex b = scheduler.RegisterType(2, "LONG", 100000, 0.5);

  scheduler.Enqueue(Req(1, b, 0), 0);
  scheduler.Enqueue(Req(2, a, 5), 5);
  const auto first = scheduler.NextAssignment(5);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->request.type, a);
  // But longs can run on any core — no reservation protects shorts.
  const auto second = scheduler.NextAssignment(5);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->request.type, b);
  EXPECT_EQ(scheduler.idle_workers(), 0u);
}

// --- DARC-static -----------------------------------------------------------------

TEST(SchedulerDarcStatic, ManualReservationApplies) {
  SchedulerConfig config = BaseConfig(PolicyMode::kDarcStatic, 14);
  config.static_reserved = 3;
  DarcScheduler scheduler(config);
  const TypeIndex s = scheduler.RegisterType(1, "SHORT", 1000, 0.5);
  const TypeIndex l = scheduler.RegisterType(2, "LONG", 100000, 0.5);
  scheduler.ActivateSeededReservation();

  EXPECT_EQ(scheduler.reserved_workers_of(s), 3u);
  EXPECT_EQ(scheduler.reserved_workers_of(l), 11u);

  // Longs saturate only cores 3..13.
  for (uint64_t i = 0; i < 14; ++i) {
    scheduler.Enqueue(Req(i, l, 0), 0);
  }
  uint32_t dispatched = 0;
  while (auto a = scheduler.NextAssignment(0)) {
    EXPECT_GE(a->worker, 3u);
    ++dispatched;
  }
  EXPECT_EQ(dispatched, 11u);
}

// --- Bootstrap and adaptation ------------------------------------------------------

TEST(SchedulerBootstrap, StartsInCFcfsThenTransitionsToDarc) {
  SchedulerConfig config = BaseConfig(PolicyMode::kDarc, 4);
  config.profiler.min_window_samples = 50;
  DarcScheduler scheduler(config);
  const TypeIndex s = scheduler.RegisterType(1, "SHORT");
  const TypeIndex l = scheduler.RegisterType(2, "LONG");

  EXPECT_FALSE(scheduler.darc_active());

  // Feed completions through the bootstrap window: 90% shorts (1 µs), 10%
  // longs (100 µs).
  Nanos now = 0;
  for (uint64_t i = 0; i < 60; ++i) {
    const bool is_long = i % 10 == 0;
    const TypeIndex t = is_long ? l : s;
    const Nanos service = is_long ? FromMicros(100) : FromMicros(1);
    scheduler.Enqueue(Req(i, t, now), now);
    const auto a = scheduler.NextAssignment(now);
    ASSERT_TRUE(a.has_value());
    now += service;
    scheduler.OnCompletion(a->worker, t, service, now);
  }
  EXPECT_TRUE(scheduler.darc_active());
  EXPECT_GE(scheduler.reservation_updates(), 1u);
  // Longs dominate demand (10% × 100 µs vs 90% × 1 µs) → shorts got the
  // minimum 1 core, longs the rest.
  EXPECT_EQ(scheduler.reserved_workers_of(s), 1u);
  EXPECT_EQ(scheduler.reserved_workers_of(l), 3u);
}

TEST(SchedulerAdaptation, ReservationFollowsWorkloadChange) {
  SchedulerConfig config = BaseConfig(PolicyMode::kDarc, 8);
  config.profiler.min_window_samples = 100;
  config.profiler.slo_slowdown = 5.0;
  DarcScheduler scheduler(config);
  const TypeIndex a = scheduler.RegisterType(1, "A", FromMicros(1), 0.5);
  const TypeIndex b = scheduler.RegisterType(2, "B", FromMicros(100), 0.5);
  scheduler.ActivateSeededReservation();
  const uint32_t a_before = scheduler.reserved_workers_of(a);
  EXPECT_EQ(a_before, 1u);

  // Phase flip: A now runs for 100 µs, B for 1 µs. Drive enough completions
  // with queueing delay to trip the update signal.
  Nanos now = 1000000;
  for (uint64_t i = 0; i < 300; ++i) {
    const bool a_turn = i % 2 == 0;
    const TypeIndex t = a_turn ? a : b;
    const Nanos service = a_turn ? FromMicros(100) : FromMicros(1);
    // Arrival long before dispatch => large queueing delay observed.
    scheduler.Enqueue(Req(i, t, now - FromMicros(500)), now);
    const auto assignment = scheduler.NextAssignment(now);
    ASSERT_TRUE(assignment.has_value());
    now += 100;
    scheduler.OnCompletion(assignment->worker, t, service, now);
  }
  // After the window: A (now long) holds most cores; B (now short) got few.
  EXPECT_GT(scheduler.reserved_workers_of(a), 4u);
  EXPECT_LE(scheduler.reserved_workers_of(b), 2u);
  EXPECT_GE(scheduler.reservation_updates(), 2u);
}

// --- Invariants under randomized load -----------------------------------------------

class SchedulerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SchedulerPropertyTest, ConservationAndSanity) {
  Rng rng(GetParam());
  SchedulerConfig config = BaseConfig(PolicyMode::kDarc, 4);
  config.typed_queue_capacity = 64;
  DarcScheduler scheduler(config);
  const TypeIndex s = scheduler.RegisterType(1, "S", 1000, 0.9);
  const TypeIndex l = scheduler.RegisterType(2, "L", 50000, 0.1);
  scheduler.ActivateSeededReservation();

  struct Running {
    TypeIndex type;
    Nanos service;
  };
  std::vector<std::optional<Running>> running(4);
  uint64_t enqueued = 0;
  uint64_t dropped = 0;
  uint64_t completed = 0;
  size_t outstanding_assignments = 0;

  Nanos now = 0;
  for (int step = 0; step < 2000; ++step) {
    now += static_cast<Nanos>(rng.NextBounded(2000));
    const int action = static_cast<int>(rng.NextBounded(3));
    if (action == 0) {
      const bool is_long = rng.NextBounded(10) == 0;
      Request r = Req(static_cast<uint64_t>(step), is_long ? l : s, now,
                      is_long ? 50000 : 1000);
      if (scheduler.Enqueue(r, now)) {
        ++enqueued;
      } else {
        ++dropped;
      }
    } else if (action == 1) {
      while (auto a = scheduler.NextAssignment(now)) {
        ASSERT_LT(a->worker, 4u);
        ASSERT_FALSE(running[a->worker].has_value()) << "double dispatch";
        running[a->worker] = Running{a->request.type, a->request.service_demand};
        ++outstanding_assignments;
      }
    } else {
      for (WorkerId w = 0; w < 4; ++w) {
        if (running[w] && rng.NextBounded(2) == 0) {
          scheduler.OnCompletion(w, running[w]->type, running[w]->service, now);
          running[w].reset();
          ++completed;
          --outstanding_assignments;
        }
      }
    }
  }
  // Conservation: everything enqueued is either completed, still queued, or
  // still running.
  size_t queued = 0;
  for (TypeIndex t = 0; t < scheduler.num_types(); ++t) {
    queued += scheduler.queue_depth(t);
  }
  EXPECT_EQ(enqueued, completed + queued + outstanding_assignments);
  EXPECT_EQ(scheduler.dropped(), dropped);
  EXPECT_EQ(scheduler.completed(), completed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerPropertyTest,
                         ::testing::Range<uint64_t>(1, 21));


// --- Dynamic core allocation (§6) -----------------------------------------------

TEST(SchedulerResize, GrowRecomputesReservation) {
  SchedulerConfig config = BaseConfig(PolicyMode::kDarc, 7);
  DarcScheduler scheduler(config);
  const TypeIndex s = scheduler.RegisterType(1, "SHORT", FromMicros(0.5), 0.995);
  const TypeIndex l = scheduler.RegisterType(2, "LONG", FromMicros(500), 0.005);
  scheduler.ActivateSeededReservation();
  EXPECT_EQ(scheduler.reserved_workers_of(s), 1u);  // round(0.166*7)=1

  scheduler.ResizeWorkers(14);
  EXPECT_EQ(scheduler.reserved_workers_of(s), 2u);  // round(0.166*14)=2
  EXPECT_EQ(scheduler.reserved_workers_of(l), 12u);
  EXPECT_EQ(scheduler.idle_workers(), 14u);
}

TEST(SchedulerResize, ShrinkRetiresHighWorkers) {
  SchedulerConfig config = BaseConfig(PolicyMode::kDarc, 8);
  DarcScheduler scheduler(config);
  const TypeIndex s = scheduler.RegisterType(1, "S", FromMicros(1), 0.5);
  const TypeIndex l = scheduler.RegisterType(2, "L", FromMicros(100), 0.5);
  scheduler.ActivateSeededReservation();

  // Occupy every worker with longs, then shrink to 4.
  for (uint64_t i = 0; i < 8; ++i) {
    scheduler.Enqueue(Req(i, l, 0), 0);
    scheduler.Enqueue(Req(100 + i, s, 0), 0);
  }
  std::vector<WorkerId> busy;
  while (auto a = scheduler.NextAssignment(0)) {
    busy.push_back(a->worker);
  }
  ASSERT_EQ(scheduler.idle_workers(), 0u);

  scheduler.ResizeWorkers(4);
  // Retired workers complete but never come back to the free list.
  for (const WorkerId w : busy) {
    scheduler.OnCompletion(w, l, FromMicros(100), 1000);
  }
  EXPECT_EQ(scheduler.idle_workers(), 4u);
  // New assignments land only on surviving workers 0..3.
  scheduler.Enqueue(Req(999, s, 2000), 2000);
  const auto a = scheduler.NextAssignment(2000);
  ASSERT_TRUE(a.has_value());
  EXPECT_LT(a->worker, 4u);
}

TEST(SchedulerResize, WorksBeforeActivation) {
  SchedulerConfig config = BaseConfig(PolicyMode::kDarc, 4);
  DarcScheduler scheduler(config);
  scheduler.RegisterType(1, "T");
  scheduler.ResizeWorkers(8);  // still bootstrapping: just resizes the pool
  EXPECT_FALSE(scheduler.darc_active());
  EXPECT_EQ(scheduler.idle_workers(), 8u);
}

// --- Stealing ablation -----------------------------------------------------------

TEST(SchedulerNoStealing, ShortsConfinedToReservedCores) {
  SchedulerConfig config = BaseConfig(PolicyMode::kDarc, 14);
  config.enable_stealing = false;
  DarcScheduler scheduler(config);
  const TypeIndex s = scheduler.RegisterType(1, "SHORT", FromMicros(1), 0.5);
  scheduler.RegisterType(2, "LONG", FromMicros(100), 0.5);
  scheduler.ActivateSeededReservation();

  // Two shorts: only one reserved core, and stealing is off, so the second
  // stays queued even though 13 long cores sit idle.
  scheduler.Enqueue(Req(1, s, 0), 0);
  scheduler.Enqueue(Req(2, s, 0), 0);
  const auto a1 = scheduler.NextAssignment(0);
  ASSERT_TRUE(a1.has_value());
  EXPECT_EQ(a1->worker, 0u);
  EXPECT_FALSE(scheduler.NextAssignment(0).has_value());
  EXPECT_EQ(scheduler.queue_depth(s), 1u);
  EXPECT_EQ(scheduler.stolen_dispatches(), 0u);
}


// --- Group-FCFS dispatch (§3 single-queue abstraction) ---------------------------

TEST(SchedulerGroupFcfs, OldestHeadWinsWithinAGroup) {
  // Two similar types grouped together (δ=2): the group is one queue, so the
  // older request dispatches first regardless of which member type it
  // belongs to.
  SchedulerConfig config = BaseConfig(PolicyMode::kDarc, 4);
  DarcScheduler scheduler(config);
  const TypeIndex a = scheduler.RegisterType(1, "A", FromMicros(5), 0.5);
  const TypeIndex b = scheduler.RegisterType(2, "B", FromMicros(6), 0.5);
  scheduler.ActivateSeededReservation();
  ASSERT_EQ(scheduler.reservation().groups[0].members.size(), 2u);

  scheduler.Enqueue(Req(1, b, 100), 100);  // B arrived first
  scheduler.Enqueue(Req(2, a, 200), 200);
  const auto first = scheduler.NextAssignment(200);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->request.id, 1u);  // oldest head, even though A sorts first
}

TEST(SchedulerGroupFcfs, EarlierGroupStillBeatsLaterGroup) {
  SchedulerConfig config = BaseConfig(PolicyMode::kDarc, 4);
  DarcScheduler scheduler(config);
  const TypeIndex s = scheduler.RegisterType(1, "SHORT", FromMicros(1), 0.5);
  const TypeIndex l = scheduler.RegisterType(2, "LONG", FromMicros(100), 0.5);
  scheduler.ActivateSeededReservation();

  scheduler.Enqueue(Req(1, l, 100), 100);   // long arrived earlier
  scheduler.Enqueue(Req(2, s, 200), 200);
  const auto first = scheduler.NextAssignment(200);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->request.type, s);  // group priority unaffected by FCFS
}


// --- Spillway configuration and degenerate setups --------------------------------

TEST(SchedulerSpillway, MultipleSpillwayCoresServeUnknown) {
  SchedulerConfig config = BaseConfig(PolicyMode::kDarc, 8);
  config.num_spillway = 2;
  DarcScheduler scheduler(config);
  scheduler.RegisterType(1, "T", FromMicros(1), 1.0);
  scheduler.ActivateSeededReservation();

  // Two unknown requests may run concurrently on the two spillway cores.
  scheduler.Enqueue(Req(1, scheduler.unknown_type(), 0), 0);
  scheduler.Enqueue(Req(2, scheduler.unknown_type(), 0), 0);
  const auto a1 = scheduler.NextAssignment(0);
  const auto a2 = scheduler.NextAssignment(0);
  ASSERT_TRUE(a1 && a2);
  EXPECT_GE(a1->worker, 6u);
  EXPECT_GE(a2->worker, 6u);
  EXPECT_NE(a1->worker, a2->worker);
  EXPECT_FALSE(scheduler.NextAssignment(0).has_value());  // only 2 spillways
}

TEST(SchedulerDegenerate, OnlyUnknownTrafficStillFlows) {
  // No registered types at all: everything lands on UNKNOWN + spillway.
  DarcScheduler scheduler(BaseConfig(PolicyMode::kDarc, 4));
  Nanos now = 0;
  uint64_t completed = 0;
  for (uint64_t i = 0; i < 50; ++i) {
    scheduler.Enqueue(Req(i, scheduler.unknown_type(), now), now);
    while (auto a = scheduler.NextAssignment(now)) {
      now += 1000;
      scheduler.OnCompletion(a->worker, a->request.type, 1000, now);
      ++completed;
    }
  }
  EXPECT_EQ(completed, 50u);
}

TEST(SchedulerDegenerate, UnknownQueueHasFlowControlToo) {
  SchedulerConfig config = BaseConfig(PolicyMode::kDarc, 2);
  config.typed_queue_capacity = 4;
  DarcScheduler scheduler(config);
  scheduler.RegisterType(1, "T", FromMicros(1), 1.0);
  scheduler.ActivateSeededReservation();
  uint64_t accepted = 0;
  for (uint64_t i = 0; i < 10; ++i) {
    accepted += scheduler.Enqueue(Req(i, scheduler.unknown_type(), 0), 0);
  }
  EXPECT_EQ(accepted, 4u);
  EXPECT_EQ(scheduler.queue_drops(scheduler.unknown_type()), 6u);
}

TEST(SchedulerSpillway, UnknownNeverTouchesNonSpillwayCores) {
  DarcScheduler scheduler(BaseConfig(PolicyMode::kDarc, 14));
  const TypeIndex t = scheduler.RegisterType(1, "T", FromMicros(1), 1.0);
  scheduler.ActivateSeededReservation();
  (void)t;
  // Saturate unknowns; they may only ever occupy the single spillway core.
  for (uint64_t i = 0; i < 5; ++i) {
    scheduler.Enqueue(Req(i, scheduler.unknown_type(), 0), 0);
  }
  uint32_t dispatched = 0;
  while (auto a = scheduler.NextAssignment(0)) {
    EXPECT_EQ(a->worker, 13u);
    ++dispatched;
  }
  EXPECT_EQ(dispatched, 1u);
  EXPECT_EQ(scheduler.idle_workers(), 13u);
}

}  // namespace
}  // namespace psp
