// Unit tests for the windowed time-series recorder (src/telemetry/
// timeseries.h), plus its determinism on a seeded simulator run:
//   * two runs with the same seed produce byte-identical snapshot JSON (the
//     recorder is driven purely by virtual time), and another seed diverges;
//   * the seeded adaptation run's series shows DARC's reservation shares
//     moving at profiler window boundaries (the Fig. 7 dynamic).
#include "src/telemetry/timeseries.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/sim/cluster.h"
#include "src/sim/policies/persephone.h"

namespace psp {
namespace {

TimeSeriesConfig SmallConfig() {
  TimeSeriesConfig config;
  config.enabled = true;
  config.interval = 1000;  // 1 µs intervals keep the test arithmetic obvious
  config.capacity = 4;
  config.slowdown_sample_every = 1;
  return config;
}

// --- SlotHistogram ----------------------------------------------------------

TEST(SlotHistogram, SmallValuesAreExact) {
  for (uint64_t v = 0; v < SlotHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(SlotHistogram::ValueFor(SlotHistogram::IndexFor(v)),
              static_cast<int64_t>(v));
  }
}

TEST(SlotHistogram, LargeValuesKeepRelativePrecision) {
  for (uint64_t v : {100ull, 5000ull, 123456ull, 1ull << 40}) {
    const size_t idx = SlotHistogram::IndexFor(v);
    ASSERT_LT(idx, SlotHistogram::kSlots);
    const int64_t rep = SlotHistogram::ValueFor(idx);
    // The representative is the slot's upper bound: >= v, within ~2/kSubBuckets.
    EXPECT_GE(rep, static_cast<int64_t>(v));
    EXPECT_LE(static_cast<double>(rep), static_cast<double>(v) * 1.07);
  }
}

TEST(SlotHistogram, IndexIsMonotonic) {
  size_t prev = 0;
  for (uint64_t v = 0; v < 100000; v += 37) {
    const size_t idx = SlotHistogram::IndexFor(v);
    EXPECT_GE(idx, prev);
    prev = idx;
  }
}

TEST(DeltaPercentile, PicksRankedValue) {
  uint64_t delta[SlotHistogram::kSlots] = {};
  // Ten samples of value 5, ten of value 20 (both exact slots).
  delta[SlotHistogram::IndexFor(5)] = 10;
  delta[SlotHistogram::IndexFor(20)] = 10;
  EXPECT_EQ(DeltaPercentile(delta, SlotHistogram::kSlots, 50), 5);
  EXPECT_EQ(DeltaPercentile(delta, SlotHistogram::kSlots, 99), 20);
  uint64_t empty[SlotHistogram::kSlots] = {};
  EXPECT_EQ(DeltaPercentile(empty, SlotHistogram::kSlots, 99), 0);
}

// --- TimeSeriesRecorder -----------------------------------------------------

TEST(TimeSeriesRecorder, IntervalsAreDeltasOnAGrid) {
  TimeSeriesRecorder rec(SmallConfig());
  const size_t a = rec.RegisterSeries(1, "A");
  const size_t b = rec.RegisterSeries(2, "B");

  // First record pins the grid to floor(now / interval) = 0.
  rec.RecordArrival(a, 100);
  rec.RecordArrival(a, 200);
  rec.RecordArrival(b, 300);
  rec.RecordCompletion(a, /*latency=*/500, /*service=*/100, /*now=*/600);

  // Crossing the boundary closes [0, 1000).
  rec.RecordArrival(a, 1100);
  auto history = rec.History();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history[0].seq, 0u);
  EXPECT_EQ(history[0].start, 0);
  EXPECT_EQ(history[0].end, 1000);
  ASSERT_EQ(history[0].types.size(), 2u);
  EXPECT_EQ(history[0].types[a].arrivals, 2u);
  EXPECT_EQ(history[0].types[a].completions, 1u);
  EXPECT_EQ(history[0].types[b].arrivals, 1u);
  EXPECT_EQ(history[0].types[b].completions, 0u);
  // slowdown = 500/100 = 5.0x → 5000 milli, exact-ish in the log-linear grid.
  EXPECT_GE(history[0].types[a].slowdown_p50_milli, 5000);
  EXPECT_LE(history[0].types[a].slowdown_p50_milli, 5200);

  // The second interval only saw the one arrival at t=1100 (deltas, not
  // cumulative values).
  rec.Roll(2000);
  history = rec.History();
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[1].seq, 1u);
  EXPECT_EQ(history[1].types[a].arrivals, 1u);
  EXPECT_EQ(history[1].types[a].completions, 0u);
}

TEST(TimeSeriesRecorder, FlushClosesPartialInterval) {
  TimeSeriesRecorder rec(SmallConfig());
  const size_t a = rec.RegisterSeries(1, "A");
  rec.RecordArrival(a, 100);
  const auto closed = rec.Roll(450, /*flush=*/true);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].start, 0);
  EXPECT_EQ(closed[0].end, 450);
  EXPECT_EQ(closed[0].types[a].arrivals, 1u);
  // The grid is unchanged: the next close still lands on the 1000 boundary.
  rec.RecordArrival(a, 500);
  rec.Roll(1000);
  const auto history = rec.History();
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[1].start, 450);
  EXPECT_EQ(history[1].end, 1000);
}

TEST(TimeSeriesRecorder, CapacityBoundsHistory) {
  TimeSeriesRecorder rec(SmallConfig());  // capacity 4
  rec.RegisterSeries(1, "A");
  rec.Roll(100);  // align
  for (Nanos t = 1000; t <= 7000; t += 1000) {
    rec.Roll(t);
  }
  const auto history = rec.History();
  ASSERT_EQ(history.size(), 4u);
  EXPECT_EQ(rec.intervals_closed(), 7u);
  // Oldest dropped first: the retained window is the last four.
  EXPECT_EQ(history.front().seq, 3u);
  EXPECT_EQ(history.back().seq, 6u);
  for (size_t i = 1; i < history.size(); ++i) {
    EXPECT_EQ(history[i].seq, history[i - 1].seq + 1);
    EXPECT_EQ(history[i].start, history[i - 1].end);
  }
}

TEST(TimeSeriesRecorder, LongIdleGapRealignsInsteadOfGrinding) {
  TimeSeriesRecorder rec(SmallConfig());
  const size_t a = rec.RegisterSeries(1, "A");
  rec.RecordArrival(a, 100);
  // A gap far beyond capacity*interval: one stale close + realign.
  rec.Roll(1000 * 1000);
  auto history = rec.History();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history[0].types[a].arrivals, 1u);
  // The grid resumed at the new position.
  rec.RecordArrival(a, 1000 * 1000 + 10);
  rec.Roll(1000 * 1000 + 1000);
  history = rec.History();
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[1].types[a].arrivals, 1u);
}

TEST(TimeSeriesRecorder, GaugeSamplerStampsIntervals) {
  TimeSeriesRecorder rec(SmallConfig());
  const size_t a = rec.RegisterSeries(1, "A");
  rec.set_gauge_sampler([](IntervalRecord* record) {
    for (auto& t : record->types) {
      t.queue_depth = 7;
      t.reserved_workers = 3;
    }
    record->worker_busy_permille = {250, 750};
  });
  rec.RecordArrival(a, 100);
  rec.Roll(1000);
  const auto history = rec.History();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history[0].types[a].queue_depth, 7);
  EXPECT_EQ(history[0].types[a].reserved_workers, 3);
  ASSERT_EQ(history[0].worker_busy_permille.size(), 2u);
  EXPECT_EQ(history[0].worker_busy_permille[1], 750);
  // Without a sampler the gauges stay at the -1 sentinel.
  TimeSeriesRecorder bare(SmallConfig());
  const size_t slot = bare.RegisterSeries(1, "A");
  bare.RecordArrival(slot, 100);
  bare.Roll(1000);
  EXPECT_EQ(bare.History()[0].types[slot].queue_depth, -1);
}

TEST(TimeSeriesRecorder, SamplingCadenceIsRespected) {
  TimeSeriesConfig config = SmallConfig();
  config.slowdown_sample_every = 4;
  TimeSeriesRecorder rec(config);
  const size_t a = rec.RegisterSeries(1, "A");
  for (int i = 0; i < 16; ++i) {
    rec.RecordCompletion(a, 200, 100, 100 + i);
  }
  rec.Roll(1000);
  const auto history = rec.History();
  EXPECT_EQ(history[0].types[a].completions, 16u);
  EXPECT_EQ(history[0].types[a].slowdown_samples, 4u);
}

// --- Seeded adaptation run --------------------------------------------------
// A compact version of the Fig. 7 experiment: two types whose roles flip
// mid-run, DARC profiling live (no seeds), recorder sampling every
// completion so the series is bit-deterministic for the seed.

struct RunArtifacts {
  std::string snapshot_json;
  std::vector<IntervalRecord> intervals;
  std::vector<ReservationUpdate> updates;
  uint64_t completed = 0;
};

RunArtifacts RunSeededAdaptation(uint64_t seed) {
  WorkloadSpec workload;
  workload.name = "flip";
  workload.phases.push_back(WorkloadPhase{
      400 * kMillisecond,
      {WorkloadType{1, "A", 100.0, 0.5}, WorkloadType{2, "B", 1.0, 0.5}},
      1.0});
  workload.phases.push_back(WorkloadPhase{
      0,
      {WorkloadType{1, "A", 1.0, 0.5}, WorkloadType{2, "B", 100.0, 0.5}},
      1.0});

  ClusterConfig config;
  config.num_workers = 8;
  config.rate_rps = 0.8 * workload.PeakLoadRps(config.num_workers);
  config.duration = 800 * kMillisecond;
  config.warmup_fraction = 0;
  config.seed = seed;
  config.telemetry.timeseries.enabled = true;
  config.telemetry.timeseries.interval = 50 * kMillisecond;
  config.telemetry.timeseries.slowdown_sample_every = 1;

  PersephoneOptions options;
  options.scheduler.mode = PolicyMode::kDarc;
  options.seed_profiles = false;  // learn from live profiling windows
  options.scheduler.profiler.min_window_samples = 5000;

  ClusterEngine engine(workload, config,
                       std::make_unique<PersephonePolicy>(options));
  engine.Run();

  RunArtifacts out;
  out.snapshot_json = engine.telemetry_snapshot().ToJson();
  out.intervals = engine.telemetry().timeseries()->History();
  out.updates = engine.telemetry().reservation_updates();
  out.completed = engine.metrics().TotalCount();
  return out;
}

// Shared across tests in this file (the sim run is the expensive part);
// NOLINTNEXTLINE: intentionally leaked test fixture.
const RunArtifacts& Artifacts() {
  static const RunArtifacts* artifacts =
      new RunArtifacts(RunSeededAdaptation(/*seed=*/7));
  return *artifacts;
}

// --- Determinism ------------------------------------------------------------

TEST(TimeSeriesDeterminism, SeededRunsAreByteIdentical) {
  const RunArtifacts& first = Artifacts();
  const RunArtifacts second = RunSeededAdaptation(/*seed=*/7);

  EXPECT_EQ(first.completed, second.completed);
  ASSERT_EQ(first.snapshot_json, second.snapshot_json)
      << "snapshot JSON must be bit-deterministic for a fixed seed";
  EXPECT_NE(first.snapshot_json.find("\"timeseries\":[{"), std::string::npos)
      << "the snapshot carries no time-series intervals";
}

TEST(TimeSeriesDeterminism, DifferentSeedsDiverge) {
  // Sanity for the identity check above: with a different seed, the arrival
  // process differs and so must the series.
  const RunArtifacts other = RunSeededAdaptation(/*seed=*/8);
  EXPECT_NE(Artifacts().snapshot_json, other.snapshot_json);
}

// --- The Fig. 7 dynamic in the series ---------------------------------------

TEST(TimeSeriesDynamics, SeriesShowsReservationSharesChanging) {
  const RunArtifacts& run = Artifacts();
  ASSERT_GE(run.intervals.size(), 8u);

  // The structured update series must show the bootstrap transition plus at
  // least one adaptive update after the phase flip, stamped with the profiler
  // window that triggered it.
  ASSERT_GE(run.updates.size(), 2u);
  for (size_t i = 1; i < run.updates.size(); ++i) {
    EXPECT_GT(run.updates[i].seq, run.updates[i - 1].seq);
    EXPECT_GE(run.updates[i].at, run.updates[i - 1].at);
  }
  for (const ReservationUpdate& update : run.updates) {
    EXPECT_FALSE(update.shares.empty());
  }

  // Updates land inside intervals: the per-interval reservation_updates
  // deltas must add up to the structured series' length.
  uint64_t interval_updates = 0;
  for (const IntervalRecord& interval : run.intervals) {
    interval_updates += interval.reservation_updates;
  }
  EXPECT_EQ(interval_updates, run.updates.size());

  // And the sampled reserved_workers gauge must take at least two distinct
  // values for some type across the run (A's share swaps with B's at the
  // phase flip).
  std::map<uint32_t, std::set<int64_t>> reserved_values;
  for (const IntervalRecord& interval : run.intervals) {
    for (const TypeIntervalStats& stats : interval.types) {
      if (stats.reserved_workers >= 0) {
        reserved_values[stats.type].insert(stats.reserved_workers);
      }
    }
  }
  bool some_type_changed = false;
  for (const auto& [type, values] : reserved_values) {
    if (values.size() >= 2) {
      some_type_changed = true;
    }
  }
  EXPECT_TRUE(some_type_changed)
      << "reserved shares never moved: the adaptation is not visible in the "
         "time-series";

  // Slowdown percentiles were sampled (sample_every = 1).
  uint64_t samples = 0;
  for (const IntervalRecord& interval : run.intervals) {
    for (const TypeIntervalStats& stats : interval.types) {
      samples += stats.slowdown_samples;
    }
  }
  EXPECT_GT(samples, 0u);
}

}  // namespace
}  // namespace psp
