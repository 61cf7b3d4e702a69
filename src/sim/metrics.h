// Experiment metrics: per-type and overall latency + slowdown distributions,
// exactly the two performance views of §5.1 — "the slowdown at the tail taken
// across all requests" and "the typed tail latency". Optional time-series
// buckets support the Fig 7 adaptation timeline.
#ifndef PSP_SRC_SIM_METRICS_H_
#define PSP_SRC_SIM_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/time.h"
#include "src/core/request.h"
#include "src/telemetry/snapshot.h"

namespace psp {

// Slowdown is stored in fixed-point milli-units (slowdown × 1000).
inline constexpr int64_t kSlowdownScale = 1000;

class Metrics {
 public:
  // Samples with send time before `warmup_end` are discarded (the paper
  // discards the first 10% of each run).
  explicit Metrics(Nanos warmup_end = 0) : warmup_end_(warmup_end) {}

  void RegisterType(TypeId wire_id, std::string name);

  // Enables per-bucket time series (exact percentiles within each bucket).
  void EnableTimeSeries(Nanos bucket_width) { bucket_width_ = bucket_width; }

  // `deadline` is the request's absolute deadline (0 = none) and
  // `completion_time` the server-side completion instant it is judged
  // against — matching the runtime, which counts misses when the dispatcher
  // absorbs the completion, not when the client sees the response.
  void RecordCompletion(TypeId wire_id, Nanos send_time, Nanos receive_time,
                        Nanos service_time, Nanos deadline = 0,
                        Nanos completion_time = 0);
  void RecordDrop(TypeId wire_id);
  // A deadlined request shed before service (admission control / queue full).
  void RecordDeadlineShed(TypeId wire_id, Nanos send_time);

  // --- Aggregate views ------------------------------------------------------
  // All percentile arguments in [0,100], e.g. 99.9.
  double OverallSlowdown(double pct) const;
  double TypeSlowdown(TypeId wire_id, double pct) const;
  Nanos TypeLatency(TypeId wire_id, double pct) const;
  Nanos OverallLatency(double pct) const;
  double TypeMeanLatency(TypeId wire_id) const;

  uint64_t TypeCount(TypeId wire_id) const;
  uint64_t TotalCount() const { return total_completions_; }
  uint64_t TotalDrops() const { return total_drops_; }
  uint64_t TypeDrops(TypeId wire_id) const;

  // --- Deadline views (deadline tier; all zero when no request carried a
  // deadline) -----------------------------------------------------------------
  uint64_t TotalDeadlined() const { return deadline_total_; }
  uint64_t TotalDeadlineMisses() const { return deadline_missed_; }
  uint64_t TotalDeadlineSheds() const { return deadline_shed_; }
  uint64_t TypeDeadlineMisses(TypeId wire_id) const;
  // Fraction of deadlined requests that failed their budget — sheds count as
  // misses (the request never completed in time by construction).
  double DeadlineMissRate() const {
    const uint64_t offered = deadline_total_ + deadline_shed_;
    return offered > 0 ? static_cast<double>(deadline_missed_ + deadline_shed_) /
                             static_cast<double>(offered)
                       : 0.0;
  }
  // Deadline-meeting completions per second: the throughput that "counts".
  double GoodputRps(Nanos measured_duration) const {
    const uint64_t good = total_completions_ - deadline_missed_;
    return measured_duration > 0 ? static_cast<double>(good) * 1e9 /
                                       static_cast<double>(measured_duration)
                                 : 0;
  }

  // Completed-requests throughput over the measured window.
  double ThroughputRps(Nanos measured_duration) const {
    return measured_duration > 0 ? static_cast<double>(total_completions_) *
                                       1e9 /
                                       static_cast<double>(measured_duration)
                                 : 0;
  }

  const std::vector<TypeId>& type_ids() const { return type_ids_; }
  const std::string& TypeName(TypeId wire_id) const;

  // Publishes the experiment's results into the unified snapshot: overall +
  // per-type completion/drop counters, latency and slowdown histograms, and
  // the wire-id → name map. This is how the simulator joins the single
  // TelemetrySnapshot API shared with the threaded runtime.
  void ExportTelemetry(TelemetrySnapshot* out) const;

  // --- Time series ----------------------------------------------------------
  struct BucketStats {
    Nanos start = 0;
    uint64_t count = 0;
    Nanos p999_latency = 0;
    Nanos p50_latency = 0;
    double mean_latency = 0;
  };
  // Exact per-bucket percentiles for one type (time keyed by *send* time,
  // matching the paper: "the X axis is the sending time").
  std::vector<BucketStats> TimeSeries(TypeId wire_id, double pct = 99.9) const;

 private:
  struct PerType {
    std::string name;
    Histogram latency;
    Histogram slowdown;
    uint64_t drops = 0;
    uint64_t deadline_total = 0;   // completions that carried a deadline
    uint64_t deadline_missed = 0;  // ... of which finished past it
    uint64_t deadline_shed = 0;    // deadlined requests shed before service
    // bucket index -> raw latency samples (time-series mode only).
    std::map<int64_t, std::vector<Nanos>> buckets;
  };

  PerType& SlotFor(TypeId wire_id);
  const PerType* FindSlot(TypeId wire_id) const;

  Nanos warmup_end_;
  Nanos bucket_width_ = 0;
  std::map<TypeId, size_t> index_;
  std::vector<TypeId> type_ids_;
  std::vector<PerType> types_;
  Histogram overall_slowdown_;
  Histogram overall_latency_;
  uint64_t total_completions_ = 0;
  uint64_t total_drops_ = 0;
  uint64_t deadline_total_ = 0;
  uint64_t deadline_missed_ = 0;
  uint64_t deadline_shed_ = 0;
};

}  // namespace psp

#endif  // PSP_SRC_SIM_METRICS_H_
