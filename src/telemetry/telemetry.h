// The telemetry facade: a metrics registry (named counters / gauges /
// histograms, safe for concurrent writers) plus the per-thread lifecycle
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
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/time.h"
#include "src/telemetry/lifecycle.h"
#include "src/telemetry/slo.h"
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

// Point-in-time value (queue depth, utilization per-mille, ...).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Histogram with a spinlock guard: Record() is safe from any thread. Meant
// for off-hot-path distributions (the hot path uses lifecycle traces).
class TimingHistogram {
 public:
  void Record(int64_t value) {
    while (lock_.test_and_set(std::memory_order_acquire)) {
    }
    hist_.Add(value);
    lock_.clear(std::memory_order_release);
  }

  Histogram SnapshotHistogram() const {
    while (lock_.test_and_set(std::memory_order_acquire)) {
    }
    Histogram copy = hist_;
    lock_.clear(std::memory_order_release);
    return copy;
  }

 private:
  mutable std::atomic_flag lock_ = ATOMIC_FLAG_INIT;
  Histogram hist_;
};

// Named metric registry. Get* registers on first use and returns a stable
// reference (instruments are never deleted while the registry lives), so hot
// paths resolve a metric once and then touch only the instrument.
class MetricsRegistry {
 public:
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  TimingHistogram& GetHistogram(const std::string& name);

  // Adds every instrument's current value to `out`.
  void Export(TelemetrySnapshot* out) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<TimingHistogram>> histograms_;
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
  // SLO targets + flight recorder (inactive without targets; requires the
  // time-series recorder to be enabled — violation counts live there).
  SloConfig slo;

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
  bool tracing_enabled() const {
    return config_.enable_tracing && sample_every() > 0;
  }
  // The *live* sampling period: starts at config.sample_every, adjustable at
  // runtime through SetSampleEvery. Engines re-read this each dispatch-loop
  // iteration (one relaxed load) so an admin `sampling=N` takes effect
  // without a restart.
  uint32_t sample_every() const {
    return config_.enable_tracing
               ? live_sample_every_.load(std::memory_order_relaxed)
               : 0;
  }

  // Adjusts the live sampling period (0 pauses tracing, 1 traces all).
  // Returns "" on success; an error when tracing was compiled out of the
  // config entirely (enable_tracing false — there are no rings to fill).
  std::string SetSampleEvery(uint32_t every);

  // Re-arms the slowdown target for one type at runtime: updates the SLO
  // monitor's threshold and the recorder's violation counting. The type must
  // already have a target (adding one mid-run would need budget history).
  // Returns "" on success, else the error.
  std::string SetSloTarget(const std::string& type_name, double slowdown);

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
  // nullptr when no SLO targets are configured.
  SloMonitor* slo() { return slo_.get(); }
  const SloMonitor* slo() const { return slo_.get(); }

  // Registers a per-type series (no-op returning SIZE_MAX when the recorder
  // is off) and arms its violation threshold if an SLO target names it.
  size_t RegisterSeries(uint32_t type_key, const std::string& name);

  // Appends a structured reservation update (bounded like events) and counts
  // it into the current time-series interval.
  void RecordReservationUpdate(ReservationUpdate update);
  std::vector<ReservationUpdate> reservation_updates() const;

  // Closes due time-series intervals at `now` (flush = also the partial
  // one), then performs any pending flight-recorder dump. Engines call this
  // from their sampler thread (runtime) or virtual-time rollover events
  // (sim); the recorder also self-closes inline on the writer side, so this
  // is the watchdog for idle stretches plus the dump trigger.
  void AdvanceTimeSeries(Nanos now, bool flush = false);

  // Supplies the snapshot embedded in flight-recorder dumps (engines pass
  // their full telemetry_snapshot(), which includes scheduler/worker state;
  // default: this object's own Snapshot()). Called off the roll lock.
  void set_flight_snapshot_provider(
      std::function<TelemetrySnapshot()> provider) {
    flight_provider_ = std::move(provider);
  }

  // Point-in-time view: registry instruments + all ring contents + events +
  // time-series history + reservation updates.
  TelemetrySnapshot Snapshot() const;

 private:
  static constexpr size_t kMaxEvents = 1024;
  static constexpr size_t kMaxReservationUpdates = 4096;

  void MaybeDumpFlight();

  TelemetryConfig config_;
  std::atomic<uint32_t> live_sample_every_{0};
  MetricsRegistry registry_;
  std::vector<std::unique_ptr<TraceRing>> rings_;
  std::unique_ptr<TimeSeriesRecorder> timeseries_;
  std::unique_ptr<SloMonitor> slo_;
  std::function<TelemetrySnapshot()> flight_provider_;
  mutable std::mutex events_mutex_;
  std::deque<TelemetryEvent> events_;
  std::deque<ReservationUpdate> reservation_updates_;
  // Series-name resolution for the SLO monitor (type key -> name), built at
  // RegisterSeries time; read-only afterwards.
  std::map<uint32_t, std::string> series_names_;
};

}  // namespace psp

#endif  // PSP_SRC_TELEMETRY_TELEMETRY_H_
