#include "src/telemetry/timeseries.h"

#include <cmath>

namespace psp {

std::string TimeSeriesConfig::Validate() const {
  if (!enabled) {
    return "";
  }
  if (interval <= 0) {
    return "timeseries: interval must be > 0";
  }
  if (capacity == 0) {
    return "timeseries: capacity must be > 0";
  }
  return "";
}

size_t SlotHistogram::IndexFor(uint64_t value) {
  if (value < kSubBuckets) {
    return static_cast<size_t>(value);
  }
  // Tier t covers [2^(kSubBucketBits+t-1), 2^(kSubBucketBits+t)) with
  // kSubBuckets/2 slots of width 2^t (same tiering as common/histogram.h,
  // just coarser).
  const int msb = 63 - __builtin_clzll(value);
  const int tier = msb - static_cast<int>(kSubBucketBits) + 1;
  const uint64_t offset_in_tier =
      (value >> static_cast<uint64_t>(tier)) - (kSubBuckets >> 1);
  return static_cast<size_t>(kSubBuckets +
                             static_cast<uint64_t>(tier - 1) *
                                 (kSubBuckets >> 1) +
                             offset_in_tier);
}

int64_t SlotHistogram::ValueFor(size_t idx) {
  if (idx < kSubBuckets) {
    return static_cast<int64_t>(idx);
  }
  const size_t rel = idx - kSubBuckets;
  const uint64_t tier = rel / (kSubBuckets / 2) + 1;
  const uint64_t offset = rel % (kSubBuckets / 2);
  const uint64_t base = (kSubBuckets >> 1) + offset + 1;
  if (tier >= 64 || base > (UINT64_MAX >> tier)) {
    return INT64_MAX;
  }
  const uint64_t top = (base << tier) - 1;
  return top > static_cast<uint64_t>(INT64_MAX) ? INT64_MAX
                                                : static_cast<int64_t>(top);
}

int64_t DeltaPercentile(const uint64_t* delta, size_t slots, double p) {
  uint64_t total = 0;
  for (size_t i = 0; i < slots; ++i) {
    total += delta[i];
  }
  if (total == 0) {
    return 0;
  }
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(total)));
  if (rank == 0) {
    rank = 1;
  }
  if (rank > total) {
    rank = total;
  }
  uint64_t seen = 0;
  for (size_t i = 0; i < slots; ++i) {
    seen += delta[i];
    if (seen >= rank) {
      return SlotHistogram::ValueFor(i);
    }
  }
  return SlotHistogram::ValueFor(slots - 1);
}

TimeSeriesRecorder::TimeSeriesRecorder(TimeSeriesConfig config)
    : config_(config) {}

TimeSeriesRecorder::~TimeSeriesRecorder() = default;

size_t TimeSeriesRecorder::RegisterSeries(uint32_t type_key,
                                          std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto series = std::make_unique<Series>();
  series->type_key = type_key;
  series->name = std::move(name);
  series->prev_slots = std::make_unique<uint64_t[]>(SlotHistogram::kSlots);
  for (size_t i = 0; i < SlotHistogram::kSlots; ++i) {
    series->prev_slots[i] = 0;
  }
  series_.push_back(std::move(series));
  return series_.size() - 1;
}

void TimeSeriesRecorder::set_gauge_sampler(
    std::function<void(IntervalRecord*)> sampler) {
  std::lock_guard<std::mutex> lock(mutex_);
  gauge_sampler_ = std::move(sampler);
}

void TimeSeriesRecorder::RecordSlowdownSample(Series* s, Nanos latency,
                                              Nanos service) {
  // Slowdown in milli units; a request with no recorded service time (e.g.
  // a zero-cost stub) counts as slowdown 0 rather than poisoning the tail.
  const int64_t slowdown_milli = service > 0 ? (latency * 1000) / service : 0;
  s->slowdown.Record(slowdown_milli);
  Bump(&s->slowdown_samples);
}

std::vector<IntervalRecord> TimeSeriesRecorder::Roll(Nanos now, bool flush) {
  std::vector<IntervalRecord> closed;
  std::lock_guard<std::mutex> lock(mutex_);
  RollLocked(now, flush, &closed);
  return closed;
}

void TimeSeriesRecorder::RollLocked(Nanos now, bool flush,
                                    std::vector<IntervalRecord>* closed) {
  if (now < 0) {
    now = 0;
  }
  if (!aligned_) {
    // Pin the grid to floor(now / interval): the runtime's first roll lands
    // mid-epoch on the TSC clock, the sim's at virtual time 0.
    interval_start_ = now - (now % config_.interval);
    interval_end_.store(interval_start_ + config_.interval,
                        std::memory_order_relaxed);
    aligned_ = true;
    return;
  }
  Nanos end = interval_end_.load(std::memory_order_relaxed);
  if (now >= end + static_cast<Nanos>(config_.capacity) * config_.interval) {
    // Long idle gap: close the one stale interval (all pending counts belong
    // to it) and realign, instead of grinding through > capacity empties.
    CloseIntervalLocked(end);
    closed->push_back(history_.back());
    interval_start_ = now - (now % config_.interval);
    interval_end_.store(interval_start_ + config_.interval,
                        std::memory_order_relaxed);
    return;
  }
  while (now >= (end = interval_end_.load(std::memory_order_relaxed))) {
    CloseIntervalLocked(end);
    closed->push_back(history_.back());
    interval_start_ = end;
    interval_end_.store(end + config_.interval, std::memory_order_relaxed);
  }
  if (flush && now > interval_start_) {
    // Close the in-progress partial interval (end = now); the grid itself is
    // unchanged, so a later record resumes on the same boundaries.
    CloseIntervalLocked(now);
    closed->push_back(history_.back());
    interval_start_ = now;
  }
}

void TimeSeriesRecorder::CloseIntervalLocked(Nanos end) {
  IntervalRecord rec;
  rec.seq = intervals_closed_.load(std::memory_order_relaxed);
  rec.start = interval_start_;
  rec.end = end;

  uint64_t total_arrivals = 0;
  uint64_t total_completions = 0;
  uint64_t scratch[SlotHistogram::kSlots];
  rec.types.reserve(series_.size());
  for (const auto& sp : series_) {
    Series& s = *sp;
    TypeIntervalStats t;
    t.type = s.type_key;

    uint64_t cur = s.arrivals.load(std::memory_order_relaxed);
    t.arrivals = cur - s.prev_arrivals;
    s.prev_arrivals = cur;
    cur = s.completions.load(std::memory_order_relaxed);
    t.completions = cur - s.prev_completions;
    s.prev_completions = cur;
    cur = s.drops.load(std::memory_order_relaxed);
    t.drops = cur - s.prev_drops;
    s.prev_drops = cur;
    cur = s.slowdown_samples.load(std::memory_order_relaxed);
    t.slowdown_samples = cur - s.prev_samples;
    s.prev_samples = cur;
    cur = s.deadline_misses.load(std::memory_order_relaxed);
    t.deadline_misses = cur - s.prev_deadline_misses;
    s.prev_deadline_misses = cur;
    cur = s.deadline_sheds.load(std::memory_order_relaxed);
    t.deadline_sheds = cur - s.prev_deadline_sheds;
    s.prev_deadline_sheds = cur;
    total_arrivals += t.arrivals;
    total_completions += t.completions;

    if (t.slowdown_samples > 0) {
      s.slowdown.CopyTo(scratch);
      for (size_t i = 0; i < SlotHistogram::kSlots; ++i) {
        const uint64_t c = scratch[i];
        scratch[i] = c - s.prev_slots[i];
        s.prev_slots[i] = c;
      }
      t.slowdown_p50_milli =
          DeltaPercentile(scratch, SlotHistogram::kSlots, 50);
      t.slowdown_p99_milli =
          DeltaPercentile(scratch, SlotHistogram::kSlots, 99);
      t.slowdown_p999_milli =
          DeltaPercentile(scratch, SlotHistogram::kSlots, 99.9);
    }
    rec.types.push_back(std::move(t));
  }

  const uint64_t updates =
      reservation_updates_.load(std::memory_order_relaxed);
  rec.reservation_updates = updates - prev_reservation_updates_;
  prev_reservation_updates_ = updates;

  const double seconds =
      static_cast<double>(end - rec.start) / 1e9;
  if (seconds > 0) {
    rec.arrival_rate_rps = static_cast<double>(total_arrivals) / seconds;
    rec.completion_rate_rps =
        static_cast<double>(total_completions) / seconds;
  }

  if (gauge_sampler_) {
    gauge_sampler_(&rec);
  }

  history_.push_back(std::move(rec));
  while (history_.size() > config_.capacity) {
    history_.pop_front();
  }
  intervals_closed_.store(
      intervals_closed_.load(std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);
}

std::vector<IntervalRecord> TimeSeriesRecorder::History() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<IntervalRecord>(history_.begin(), history_.end());
}

}  // namespace psp
