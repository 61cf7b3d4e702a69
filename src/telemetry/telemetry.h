// The telemetry facade: a metrics registry (named counters, safe for
// concurrent writers) plus the per-thread lifecycle
// trace rings and the sampling knob, bundled so an engine owns exactly one
// observability object and snapshots it with one call.
//
// Hot-path cost model:
//   * Counter::Add is a relaxed atomic increment (a handful of cycles);
//   * an *unsampled* request costs one TraceSampler branch and nothing else;
//   * a sampled request costs a few clock reads plus one TraceRing push.
// bench/micro_telemetry measures the on/off delta; at the default 1-in-64
// sampling it must stay within 5% of tracing disabled.
#ifndef PSP_SRC_TELEMETRY_TELEMETRY_H_
#define PSP_SRC_TELEMETRY_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/telemetry/lifecycle.h"
#include "src/telemetry/snapshot.h"
#include "src/telemetry/timeseries.h"

namespace psp {

// Monotonic counter; writers use relaxed increments (counts, not ordering).
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Named counter registry. GetCounter registers on first use and returns a
// stable reference (counters are never deleted while the registry lives), so
// hot paths resolve a counter once and then touch only the instrument.
class MetricsRegistry {
 public:
  Counter& GetCounter(const std::string& name);

  // Adds every counter's current value to `out`.
  void Export(TelemetrySnapshot* out) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
};

struct TelemetryConfig {
  // Master switch for lifecycle tracing (counters are always on).
  bool enable_tracing = true;
  // Trace 1 in N requests; 0 disables tracing, 1 traces everything.
  uint32_t sample_every = 64;
  // Records retained per thread ring (rounded up to a power of two). Unused
  // when enable_tracing is false: untraced engines allocate no rings.
  size_t trace_ring_capacity = 4096;
  // Continuous windowed time-series (off by default; see timeseries.h).
  TimeSeriesConfig timeseries;

  // Empty string = valid; otherwise a description of the problem.
  std::string Validate() const;
};

class Telemetry {
 public:
  // `num_rings` = number of producer threads that will commit traces
  // (workers in the threaded runtime; 1 for the single-threaded simulator).
  // With enable_tracing false no ring is allocated (num_rings() == 0).
  explicit Telemetry(TelemetryConfig config = {}, size_t num_rings = 1);

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  const TelemetryConfig& config() const { return config_; }
  bool tracing_enabled() const { return sample_every() > 0; }
  // The sampling period engines trace at: config.sample_every, or 0 when
  // tracing is off.
  uint32_t sample_every() const {
    return config_.enable_tracing ? config_.sample_every : 0;
  }

  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }

  TraceRing& ring(size_t index) { return *rings_[index]; }
  size_t num_rings() const { return rings_.size(); }

  // Appends a timestamped annotation (bounded; oldest dropped first).
  void RecordEvent(Nanos at, std::string what);

  // --- Continuous observability (PR 2) --------------------------------------

  // nullptr when config.timeseries.enabled is false.
  TimeSeriesRecorder* timeseries() { return timeseries_.get(); }
  const TimeSeriesRecorder* timeseries() const { return timeseries_.get(); }

  // Registers a per-type series (no-op returning SIZE_MAX when the recorder
  // is off) and remembers its name for snapshots.
  size_t RegisterSeries(uint32_t type_key, const std::string& name);

  // Appends a structured reservation update (bounded like events) and counts
  // it into the current time-series interval.
  void RecordReservationUpdate(ReservationUpdate update);
  std::vector<ReservationUpdate> reservation_updates() const;

  // Closes due time-series intervals at `now` (flush = also the partial
  // one). Engines call this from their sampler thread (runtime) or
  // virtual-time rollover events (sim); the recorder also self-closes inline
  // on the writer side, so this is the watchdog for idle stretches.
  void AdvanceTimeSeries(Nanos now, bool flush = false);

  // Point-in-time view: registry instruments + all ring contents + events +
  // time-series history + reservation updates.
  TelemetrySnapshot Snapshot() const;

 private:
  static constexpr size_t kMaxEvents = 1024;
  static constexpr size_t kMaxReservationUpdates = 4096;

  TelemetryConfig config_;
  MetricsRegistry registry_;
  std::vector<std::unique_ptr<TraceRing>> rings_;
  std::unique_ptr<TimeSeriesRecorder> timeseries_;
  mutable std::mutex events_mutex_;
  std::deque<TelemetryEvent> events_;
  std::deque<ReservationUpdate> reservation_updates_;
  // Series names (type key -> name), built at RegisterSeries time; read-only
  // afterwards.
  std::map<uint32_t, std::string> series_names_;
};

}  // namespace psp

#endif  // PSP_SRC_TELEMETRY_TELEMETRY_H_
