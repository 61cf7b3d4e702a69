// Windowed time-series recorder: continuously folds per-type arrival /
// completion / drop counts and windowed slowdown percentiles into a bounded
// ring of fixed-width intervals, so DARC's *dynamics* (Fig. 7 convergence,
// reservation shifts at profiler window boundaries) are observable, not just
// its end state.
//
// Hot-path cost model (the dispatcher budget is ~100 ns/request, §4.3.3):
//   * Counters are CUMULATIVE and single-writer: an increment is one relaxed
//     load + one relaxed store (no RMW, no reset — interval values are
//     computed as deltas against the previous close, Prometheus-style), so a
//     RecordArrival/RecordCompletion pair costs a few nanoseconds.
//   * The windowed slowdown histogram is fed 1-in-K completions
//     (TimeSeriesConfig::slowdown_sample_every; sims use 1 for exactness).
//   * Interval close is amortised: the writer performs one predictable
//     `now >= interval_end` branch per record and only pays the close path
//     (delta extraction + percentile walk, microseconds) at a rollover.
// bench/micro_timeseries gates the enabled-vs-disabled dispatch-loop delta
// at < 5%.
//
// Clock discipline: intervals close on the *writer's* clock (inline at the
// first record past the boundary) and additionally whenever the engine calls
// Roll() — a sampler thread in the threaded runtime, pre-scheduled
// virtual-time events in the simulator. Everything the simulator feeds in is
// virtual time, so its series are bit-deterministic for a fixed seed.
#ifndef PSP_SRC_TELEMETRY_TIMESERIES_H_
#define PSP_SRC_TELEMETRY_TIMESERIES_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/telemetry/snapshot.h"

namespace psp {

struct TimeSeriesConfig {
  bool enabled = false;
  // Interval width. The first record/roll aligns the grid to
  // floor(now / interval) * interval, so runtime series line up on wall-clock
  // boundaries and sim series on virtual-time boundaries.
  Nanos interval = 10 * kMillisecond;
  // Closed intervals retained (oldest dropped first).
  size_t capacity = 512;
  // Feed the windowed slowdown histogram 1-in-N completions; 1 = every
  // completion (use in the simulator, where determinism beats cheapness),
  // 0 = never (counts only).
  uint32_t slowdown_sample_every = 16;

  // Empty string = valid; otherwise a description of the problem.
  std::string Validate() const;
};

// Fixed-size log-linear histogram with single-writer relaxed-atomic slots.
// Values up to 32 are exact; larger values have ~3% relative precision
// (coarser than common/histogram.h's 0.05% — interval percentiles are plot
// fodder, and the fixed 1 KiB footprint keeps the per-type cost flat).
// Cumulative by design: it is never reset; readers diff slot counts against
// a previous copy to get windowed distributions.
class SlotHistogram {
 public:
  static constexpr uint32_t kSubBucketBits = 5;
  static constexpr uint32_t kSubBuckets = 1u << kSubBucketBits;
  // Tiers cover the rest of the int64 range, kSubBuckets/2 slots each.
  static constexpr size_t kSlots =
      kSubBuckets + (64 - kSubBucketBits) * (kSubBuckets / 2);

  static size_t IndexFor(uint64_t value);
  // Highest value mapping to slot `idx` (representative for percentiles).
  static int64_t ValueFor(size_t idx);

  // Single writer.
  void Record(int64_t value) {
    const size_t idx = IndexFor(value < 0 ? 0 : static_cast<uint64_t>(value));
    slots_[idx].store(slots_[idx].load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
  }

  // Copies all cumulative slot counts into `out[kSlots]`; any thread.
  void CopyTo(uint64_t* out) const {
    for (size_t i = 0; i < kSlots; ++i) {
      out[i] = slots_[i].load(std::memory_order_relaxed);
    }
  }

 private:
  std::atomic<uint64_t> slots_[kSlots] = {};
};

// Percentile over a delta-count array produced by diffing two
// SlotHistogram::CopyTo snapshots. p in [0, 100]; 0 when the window is empty.
int64_t DeltaPercentile(const uint64_t* delta, size_t slots, double p);

class TimeSeriesRecorder {
 public:
  explicit TimeSeriesRecorder(TimeSeriesConfig config);
  ~TimeSeriesRecorder();

  TimeSeriesRecorder(const TimeSeriesRecorder&) = delete;
  TimeSeriesRecorder& operator=(const TimeSeriesRecorder&) = delete;

  // --- Registration (before traffic) ---------------------------------------

  // Adds a per-type series; returns its dense slot. `type_key` is the
  // engine's trace type key (TypeIndex / wire id) echoed back in
  // TypeIntervalStats::type.
  size_t RegisterSeries(uint32_t type_key, std::string name);
  // Called at every interval close (under the roll lock) so the engine can
  // stamp gauges: queue depths, reserved shares, worker busy fractions. Must
  // not call back into the recorder.
  void set_gauge_sampler(std::function<void(IntervalRecord*)> sampler);

  const TimeSeriesConfig& config() const { return config_; }

  // --- Hot path (single writer: the dispatching thread) --------------------

  void RecordArrival(size_t slot, Nanos now) {
    MaybeRoll(now);
    Bump(&series_[slot]->arrivals);
  }

  void RecordDrop(size_t slot, Nanos now) {
    MaybeRoll(now);
    Bump(&series_[slot]->drops);
  }

  // `latency` is the end-to-end sojourn, `service` the request's service
  // time; slowdown = latency / service feeds the windowed histogram (in
  // milli units). Inline: this sits on the dispatcher's completion-absorb
  // path (bench/micro_timeseries gates the full recorder delta at < 5% of
  // the dispatch loop).
  void RecordCompletion(size_t slot, Nanos latency, Nanos service, Nanos now) {
    MaybeRoll(now);
    Series& s = *series_[slot];
    Bump(&s.completions);
    if (latency < 0) {
      latency = 0;
    }
    if (config_.slowdown_sample_every != 0 && --s.sample_countdown == 0) {
      s.sample_countdown = config_.slowdown_sample_every;
      RecordSlowdownSample(&s, latency, service);
    }
  }

  // Deadline tier: a completion that landed past its deadline.
  void RecordDeadlineMiss(size_t slot, Nanos now) {
    MaybeRoll(now);
    Bump(&series_[slot]->deadline_misses);
  }

  // Deadline tier: an admission-control shed (predicted miss at enqueue).
  void RecordDeadlineShed(size_t slot, Nanos now) {
    MaybeRoll(now);
    Bump(&series_[slot]->deadline_sheds);
  }

  // Counts a reservation update into the current interval.
  void NoteReservationUpdate(Nanos now) {
    MaybeRoll(now);
    Bump(&reservation_updates_);
  }

  // --- Interval close / read side ------------------------------------------

  // Closes every whole interval with end <= now; with `flush` also closes
  // the in-progress partial interval (end = now). Returns the records closed
  // by this call (they are also retained in the history ring). Safe from any
  // thread; engines drive it from a sampler thread (runtime) or virtual-time
  // events (sim) as a watchdog for idle stretches.
  std::vector<IntervalRecord> Roll(Nanos now, bool flush = false);

  // Closed intervals, oldest first (up to config().capacity).
  std::vector<IntervalRecord> History() const;
  uint64_t intervals_closed() const {
    return intervals_closed_.load(std::memory_order_relaxed);
  }

 private:
  struct Series {
    uint32_t type_key = 0;
    uint32_t sample_countdown = 1;  // writer-private 1-in-K cadence
    // Cumulative, single-writer (see file header). Kept ahead of the
    // multi-KB histogram so the whole per-completion working set is a cache
    // line or two.
    std::atomic<uint64_t> arrivals{0};
    std::atomic<uint64_t> completions{0};
    std::atomic<uint64_t> drops{0};
    std::atomic<uint64_t> slowdown_samples{0};
    std::atomic<uint64_t> deadline_misses{0};
    std::atomic<uint64_t> deadline_sheds{0};
    std::string name;
    SlotHistogram slowdown;  // milli units (1000 = 1.0x)
    // Close-side state (guarded by mutex_): values at the previous close.
    uint64_t prev_arrivals = 0;
    uint64_t prev_completions = 0;
    uint64_t prev_drops = 0;
    uint64_t prev_samples = 0;
    uint64_t prev_deadline_misses = 0;
    uint64_t prev_deadline_sheds = 0;
    std::unique_ptr<uint64_t[]> prev_slots;  // [SlotHistogram::kSlots]
  };

  static void Bump(std::atomic<uint64_t>* v) {
    v->store(v->load(std::memory_order_relaxed) + 1,
             std::memory_order_relaxed);
  }

  // Cold path of RecordCompletion (1-in-K): the division + histogram store
  // stay out of line so the common case inlines to a handful of loads.
  void RecordSlowdownSample(Series* s, Nanos latency, Nanos service);

  // One predictable branch on the hot path; the close runs off it the first
  // time a record lands past the current interval's end.
  void MaybeRoll(Nanos now) {
    if (now >= interval_end_.load(std::memory_order_relaxed)) {
      Roll(now);
    }
  }

  void RollLocked(Nanos now, bool flush, std::vector<IntervalRecord>* closed);
  void CloseIntervalLocked(Nanos end);

  TimeSeriesConfig config_;
  std::vector<std::unique_ptr<Series>> series_;
  std::atomic<uint64_t> reservation_updates_{0};
  uint64_t prev_reservation_updates_ = 0;

  // The writer reads interval_end_ relaxed on every record; rolls publish a
  // new value under mutex_. Starts at 0 so the very first record (virtual
  // time included, which begins at 0) takes the roll path and pins the grid.
  std::atomic<Nanos> interval_end_{0};

  mutable std::mutex mutex_;
  bool aligned_ = false;
  Nanos interval_start_ = 0;
  std::deque<IntervalRecord> history_;
  std::atomic<uint64_t> intervals_closed_{0};
  std::function<void(IntervalRecord*)> gauge_sampler_;
};

}  // namespace psp

#endif  // PSP_SRC_TELEMETRY_TIMESERIES_H_
