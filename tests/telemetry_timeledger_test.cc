// Worker time-provenance ledger: exhaustive state decomposition must account
// for every nanosecond of wall time — exactly in the simulator's virtual
// clock, within measured bounds on the threaded runtime — and stay
// bit-deterministic per seed so ledger output is replayable evidence.
#include "src/telemetry/timeledger.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/scheduler.h"

#include "src/apps/synthetic.h"
#include "src/runtime/loadgen.h"
#include "src/runtime/persephone.h"
#include "src/sim/cluster.h"
#include "src/sim/policies/persephone.h"

namespace psp {
namespace {

TEST(TimeLedger, PackUnpackRoundTrip) {
  const WorkerTimeState states[] = {
      WorkerTimeState::kBusy,       WorkerTimeState::kSteal,
      WorkerTimeState::kReservedIdle, WorkerTimeState::kFreeIdle,
      WorkerTimeState::kPollSpin,   WorkerTimeState::kDispatchOverhead};
  const uint32_t types[] = {WorkerTimeLedger::kUntyped, 0u, 5u,
                            WorkerTimeLedger::kMaxLedgerTypes - 1};
  for (const WorkerTimeState s : states) {
    for (const uint32_t t : types) {
      const uint32_t packed = WorkerTimeLedger::Pack(s, t);
      EXPECT_EQ(WorkerTimeLedger::UnpackState(packed), s);
      EXPECT_EQ(WorkerTimeLedger::UnpackType(packed), t);
    }
    // Types past the dense cap collapse to untyped (still busy).
    const uint32_t overflow =
        WorkerTimeLedger::Pack(s, WorkerTimeLedger::kMaxLedgerTypes);
    EXPECT_EQ(WorkerTimeLedger::UnpackState(overflow), s);
    EXPECT_EQ(WorkerTimeLedger::UnpackType(overflow),
              WorkerTimeLedger::kUntyped);
  }
}

TEST(TimeLedger, TransitionsDecomposeWallTimeExactly) {
  WorkerTimeLedger ledger(2);
  ledger.Open(/*now=*/1000);
  // Worker 0: free_idle 1000..1500, busy(type 3) 1500..2600, reserved_idle
  // 2600..2900, then in-progress steal 2900..snapshot(3000).
  ledger.Transition(0, WorkerTimeState::kBusy, 3, 1500);
  ledger.Transition(0, WorkerTimeState::kReservedIdle,
                    WorkerTimeLedger::kUntyped, 2600);
  ledger.Transition(0, WorkerTimeState::kSteal, 3, 2900);
  const std::vector<WorkerTimeRecord> records =
      ledger.SnapshotTotals(3000, nullptr);
  // Two workers plus the dispatcher pseudo-slot.
  ASSERT_EQ(records.size(), 3u);

  const WorkerTimeRecord& w0 = records[0];
  EXPECT_EQ(w0.role, "worker");
  EXPECT_EQ(w0.state_ns[static_cast<size_t>(WorkerTimeState::kFreeIdle)],
            500u);
  EXPECT_EQ(w0.state_ns[static_cast<size_t>(WorkerTimeState::kBusy)], 1100u);
  EXPECT_EQ(
      w0.state_ns[static_cast<size_t>(WorkerTimeState::kReservedIdle)], 300u);
  EXPECT_EQ(w0.state_ns[static_cast<size_t>(WorkerTimeState::kSteal)], 100u);
  EXPECT_EQ(w0.WallNs(), 2000u);  // 3000 - open at 1000: exhaustive
  EXPECT_EQ(w0.BusyNs(), 1200u);
  // Typed split covers busy + steal: type 3 carries all 1200 ns.
  ASSERT_EQ(w0.busy_type_ns.size(), 1u);
  EXPECT_EQ(w0.busy_type_ns[0].first, "type-3");
  EXPECT_EQ(w0.busy_type_ns[0].second, 1200u);

  // Worker 1 never transitioned: all wall time is the in-progress free_idle.
  const WorkerTimeRecord& w1 = records[1];
  EXPECT_EQ(w1.state_ns[static_cast<size_t>(WorkerTimeState::kFreeIdle)],
            2000u);
  EXPECT_EQ(w1.WallNs(), 2000u);

  // Snapshots are idempotent (nothing in the ledger moved).
  EXPECT_EQ(ledger.SnapshotTotals(3000, nullptr), records);
}

TEST(TimeLedger, RemainderStateAbsorbsUnaccountedWall) {
  WorkerTimeLedger ledger(1);
  ledger.Open(/*now=*/0);
  const uint32_t d = WorkerTimeLedger::kDispatcherSlot;
  ledger.SetRemainderState(d, WorkerTimeState::kPollSpin);
  // Only 400 ns of explicit charges on a 1000 ns wall: the remainder (600)
  // lands on poll_spin, so the slot still sums to wall exactly.
  ledger.Add(d, WorkerTimeState::kDispatchOverhead, 400);
  const std::vector<WorkerTimeRecord> records =
      ledger.SnapshotTotals(1000, nullptr);
  const WorkerTimeRecord& disp = records.back();
  EXPECT_EQ(disp.role, "dispatcher");
  EXPECT_EQ(
      disp.state_ns[static_cast<size_t>(WorkerTimeState::kDispatchOverhead)],
      400u);
  EXPECT_EQ(disp.state_ns[static_cast<size_t>(WorkerTimeState::kPollSpin)],
            600u);
  EXPECT_EQ(disp.WallNs(), 1000u);
}

// One seeded script of transitions, charges and resizes, as the scheduler
// and the dispatcher drive them, replayed into `ledger` with `workers`
// worker slots active from time 0. Slot ids cover every worker, ids past
// the worker count (which a ledger sized to `workers` has no storage for,
// and which no exporter shows) and the dispatcher. Returns a snapshot after
// every step.
std::vector<std::vector<WorkerTimeRecord>> ReplayScript(
    WorkerTimeLedger* ledger, uint32_t workers, uint64_t seed) {
  Rng rng(seed);
  const uint32_t d = WorkerTimeLedger::kDispatcherSlot;
  if (seed % 2 == 0) {
    ledger->SetRemainderState(d, WorkerTimeState::kPollSpin);
  }
  const auto namer = [](uint32_t t) { return std::to_string(t); };
  const uint32_t stray[] = {workers, 255, 257, 1000};
  std::vector<std::vector<WorkerTimeRecord>> snapshots;
  Nanos now = 0;
  for (int step = 0; step < 400; ++step) {
    now += static_cast<Nanos>(1 + rng.Next() % 1000);
    const auto state =
        static_cast<WorkerTimeState>(rng.Next() % kNumWorkerTimeStates);
    const uint64_t pick = rng.Next() % 8;
    const uint32_t type =
        pick == 0 ? WorkerTimeLedger::kUntyped
                  : static_cast<uint32_t>(
                        rng.Next() % (WorkerTimeLedger::kMaxLedgerTypes + 2));
    switch (rng.Next() % 6) {
      case 0:
      case 1:
        ledger->Transition(static_cast<uint32_t>(rng.Next() % workers), state,
                           type, now);
        break;
      case 2:
        ledger->Transition(stray[rng.Next() % 4], state, type, now);
        break;
      case 3:
        ledger->Add(d, state, static_cast<Nanos>(rng.Next() % 500));
        break;
      case 4:
        ledger->AccountSpan(d, state, now);
        break;
      case 5:
        ledger->SetNumWorkers(
            1 + static_cast<uint32_t>(rng.Next() % workers), now);
        break;
    }
    snapshots.push_back(ledger->SnapshotTotals(now, namer));
  }
  return snapshots;
}

// A ledger sized to its workers exports exactly what the 257-slot ledger
// (256 workers plus the dispatcher) exported for the same worker count:
// the same states, typed busy splits and slot ids, dispatcher at 256.
TEST(TimeLedger, SizedLedgerExportsWhatTheFullLedgerDid) {
  for (const uint32_t workers : {1u, 2u, 8u, 14u, 256u}) {
    for (const uint64_t seed : {3u, 4u}) {
      WorkerTimeLedger sized(workers);
      sized.Open(0);
      WorkerTimeLedger full(256);
      full.Open(0);
      full.SetNumWorkers(workers, 0);
      const auto got = ReplayScript(&sized, workers, seed);
      const auto want = ReplayScript(&full, workers, seed);
      ASSERT_EQ(got.size(), want.size());
      for (size_t step = 0; step < got.size(); ++step) {
        ASSERT_EQ(got[step], want[step])
            << workers << " workers, seed " << seed << ", step " << step;
        ASSERT_FALSE(got[step].empty());
        EXPECT_EQ(got[step].back().slot, 256u);
        EXPECT_EQ(got[step].back().role, "dispatcher");
        EXPECT_LE(got[step].size(), workers + 1);
      }
    }
  }
}

TEST(TimeLedger, SizedLedgerHasNoStorageBeyondItsWorkers) {
  WorkerTimeLedger ledger(4);
  ledger.Open(0);
  EXPECT_NE(ledger.packed_state(3), nullptr);
  EXPECT_NE(ledger.packed_state(WorkerTimeLedger::kDispatcherSlot), nullptr);
  EXPECT_EQ(ledger.packed_state(4), nullptr);
  EXPECT_EQ(ledger.packed_state(255), nullptr);
  EXPECT_EQ(ledger.packed_state(257), nullptr);
  // Resizes stay within the constructed count.
  ledger.SetNumWorkers(2, 10);
  EXPECT_EQ(ledger.num_workers(), 2u);
  ledger.SetNumWorkers(9, 20);
  EXPECT_EQ(ledger.num_workers(), 4u);
  EXPECT_EQ(ledger.SnapshotTotals(30, nullptr).size(), 5u);
  // A ledger is never larger than 256 workers plus the dispatcher.
  WorkerTimeLedger capped(1000);
  capped.Open(0);
  EXPECT_EQ(capped.num_workers(), 256u);
  EXPECT_EQ(capped.SnapshotTotals(1, nullptr).back().slot, 256u);
}

// DarcScheduler::ResizeWorkers (the elastic allocator's hook) shrinks and
// regrows the active slots within the count the ledger was built for; a
// regrown slot keeps its history, so every slot still sums to wall time.
TEST(TimeLedger, ResizeWorkersWorksUpToTheLedgerSize) {
  constexpr uint32_t kWorkers = 8;
  SchedulerConfig config;
  config.num_workers = kWorkers;
  DarcScheduler scheduler(config);
  scheduler.RegisterType(1, "SHORT", FromMicros(5), 0.9);
  scheduler.RegisterType(2, "LONG", FromMicros(200), 0.1);
  WorkerTimeLedger ledger(kWorkers);
  ledger.Open(0);
  scheduler.AttachTimeLedger(&ledger);
  scheduler.ActivateSeededReservation(0);
  scheduler.ResizeWorkers(2, 1000);
  EXPECT_EQ(ledger.num_workers(), 2u);
  EXPECT_EQ(ledger.SnapshotTotals(1500, nullptr).size(), 3u);
  scheduler.ResizeWorkers(kWorkers, 2000);
  EXPECT_EQ(ledger.num_workers(), kWorkers);
  const std::vector<WorkerTimeRecord> records =
      ledger.SnapshotTotals(3000, nullptr);
  ASSERT_EQ(records.size(), kWorkers + 1);
  for (uint32_t w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(records[w].slot, w);
    EXPECT_EQ(records[w].WallNs(), 3000u) << "slot " << w;
  }
  EXPECT_EQ(records.back().slot, WorkerTimeLedger::kDispatcherSlot);
}

ClusterConfig SimConfig(uint64_t seed) {
  ClusterConfig c;
  c.num_workers = 8;
  c.rate_rps = 0.8 * HighBimodal().PeakLoadRps(8);
  c.duration = 100 * kMillisecond;
  c.dispatch_cost = 100;
  c.completion_cost = 40;
  c.seed = seed;
  return c;
}

std::vector<WorkerTimeRecord> RunSimLedger(uint64_t seed, PolicyMode mode,
                                           uint32_t static_reserved = 0) {
  PersephoneOptions options;
  options.scheduler.mode = mode;
  options.scheduler.static_reserved = static_reserved;
  ClusterEngine engine(HighBimodal(), SimConfig(seed),
                       std::make_unique<PersephonePolicy>(options));
  engine.Run();
  return engine.telemetry_snapshot().worker_time;
}

TEST(TimeLedger, SimulatorStatesSumToVirtualWallExactly) {
  const std::vector<WorkerTimeRecord> records =
      RunSimLedger(42, PolicyMode::kDarc);
  ASSERT_EQ(records.size(), 9u);  // 8 workers + dispatcher
  // Virtual time: every slot opened at 0 and snapshot at the same instant,
  // so all walls are identical and each decomposition is exact by
  // construction — no epsilon.
  const uint64_t wall = records[0].WallNs();
  EXPECT_GT(wall, 0u);
  uint64_t total_busy = 0;
  for (const WorkerTimeRecord& rec : records) {
    EXPECT_EQ(rec.WallNs(), wall) << "slot " << rec.slot;
    total_busy += rec.BusyNs();
    // Typed busy never exceeds the busy + steal total it decomposes.
    uint64_t typed = 0;
    for (const auto& [name, ns] : rec.busy_type_ns) {
      typed += ns;
    }
    EXPECT_LE(typed, rec.BusyNs()) << "slot " << rec.slot;
  }
  EXPECT_GT(total_busy, 0u);
  // The dispatcher pseudo-slot burns its wall on overhead + poll, not busy.
  const WorkerTimeRecord& disp = records.back();
  EXPECT_EQ(disp.role, "dispatcher");
  EXPECT_EQ(disp.BusyNs(), 0u);
  EXPECT_GT(
      disp.state_ns[static_cast<size_t>(WorkerTimeState::kDispatchOverhead)],
      0u);
}

TEST(TimeLedger, SimulatorReservedIdleAppearsUnderStaticReservation) {
  // Reserving 6 of 8 cores for shorts at 80% load forces deliberate idling:
  // the ledger must attribute it to reserved_idle, not free_idle.
  const std::vector<WorkerTimeRecord> records =
      RunSimLedger(42, PolicyMode::kDarcStatic, 6);
  uint64_t reserved_idle = 0;
  for (const WorkerTimeRecord& rec : records) {
    reserved_idle +=
        rec.state_ns[static_cast<size_t>(WorkerTimeState::kReservedIdle)];
  }
  EXPECT_GT(reserved_idle, 0u);
}

TEST(TimeLedger, SimulatorLedgerBitDeterministicPerSeed) {
  for (const uint64_t seed : {7u, 123u}) {
    const std::vector<WorkerTimeRecord> a =
        RunSimLedger(seed, PolicyMode::kDarc);
    const std::vector<WorkerTimeRecord> b =
        RunSimLedger(seed, PolicyMode::kDarc);
    // operator== compares every field including the typed splits: the whole
    // ledger is part of the deterministic replay surface.
    EXPECT_EQ(a, b) << "seed " << seed;
  }
  EXPECT_NE(RunSimLedger(7, PolicyMode::kDarc),
            RunSimLedger(123, PolicyMode::kDarc));
}

TEST(TimeLedger, RuntimeStatesSumToMeasuredWall) {
  const TscClock& clock = TscClock::Global();
  const Nanos before_ctor = clock.Now();
  RuntimeConfig config;
  config.num_workers = 2;
  config.pool_buffers = 1024;
  config.telemetry.timeseries.enabled = true;
  config.telemetry.timeseries.interval = 50 * kMillisecond;
  Persephone server(config);  // ledger opens here
  const Nanos after_ctor = clock.Now();
  server.RegisterType(1, "SHORT", MakeSpinHandler(), FromMicros(2), 0.9);
  server.RegisterType(2, "LONG", MakeSpinHandler(), FromMicros(50), 0.1);
  server.Start();

  LoadGenConfig lg;
  lg.rate_rps = 3000;
  lg.total_requests = 1200;
  LoadGenerator gen(&server,
                    {MakeSpinSpec(1, "SHORT", 0.9, FromMicros(2)),
                     MakeSpinSpec(2, "LONG", 0.1, FromMicros(50))},
                    lg);
  gen.Run();
  server.Stop();

  const Nanos before_snap = clock.Now();
  const TelemetrySnapshot snap = server.telemetry_snapshot();
  const Nanos after_snap = clock.Now();
  ASSERT_EQ(snap.worker_time.size(), 3u);  // 2 workers + dispatcher

  uint64_t total_busy = 0;
  for (const WorkerTimeRecord& rec : snap.worker_time) {
    // The decomposition is exhaustive, so each slot's wall must bracket the
    // measured interval: opened after before_ctor, snapped before after_snap
    // (lower bound), and covering at least ctor-to-snapshot (upper bound
    // side). Cross-thread skew cannot move wall outside these measurements.
    EXPECT_LE(rec.WallNs(), static_cast<uint64_t>(after_snap - before_ctor))
        << "slot " << rec.slot;
    EXPECT_GE(rec.WallNs(), static_cast<uint64_t>(before_snap - after_ctor))
        << "slot " << rec.slot;
    total_busy += rec.BusyNs();
  }
  // 1200 requests spun for at least ~2 µs each.
  EXPECT_GT(total_busy, 1200 * FromMicros(1));

  // Interval gauges: the aggregate state permilles are floor-rounded shares
  // of a common denominator, so each interval sums to 1000 less at most one
  // rounding unit per state.
  ASSERT_FALSE(snap.timeseries.empty());
  bool saw_interval = false;
  for (const IntervalRecord& rec : snap.timeseries) {
    int64_t sum = 0;
    for (const int64_t permille : rec.worker_state_permille) {
      EXPECT_GE(permille, 0);
      EXPECT_LE(permille, 1000);
      sum += permille;
    }
    if (sum == 0) {
      continue;  // degenerate close with no wall elapsed: gauges stay zero
    }
    saw_interval = true;
    EXPECT_GE(sum, 1000 - static_cast<int64_t>(kNumWorkerTimeStates));
    EXPECT_LE(sum, 1000);
  }
  EXPECT_TRUE(saw_interval);
}

}  // namespace
}  // namespace psp
