// TelemetrySnapshot: the single introspection surface for both execution
// engines. A snapshot is a point-in-time, self-contained value — named
// counters/gauges/histograms plus the sampled lifecycle traces — assembled
// by Persephone::telemetry_snapshot() (threaded runtime) and
// ClusterEngine::telemetry_snapshot() (simulator).
//
// Exporters: ToTable() (human-readable), ToJson() (machine-readable), and
// StageReport() — the per-type latency breakdown (queueing vs. service vs.
// channel time) that backs the paper's §5 per-type tail-latency analysis.
#ifndef PSP_SRC_TELEMETRY_SNAPSHOT_H_
#define PSP_SRC_TELEMETRY_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/time.h"
#include "src/telemetry/lifecycle.h"
#include "src/telemetry/timeledger.h"

namespace psp {

// A timestamped annotation emitted by a subsystem (e.g. the scheduler's
// reservation changes). Bounded; oldest entries are dropped first.
struct TelemetryEvent {
  Nanos at = 0;
  std::string what;
};

// One type's share in a reservation. `type` is the engine's trace type key
// (dense TypeIndex); `name` makes the record self-describing across engines.
struct ReservationShare {
  uint32_t type = 0;
  std::string name;
  uint32_t reserved_workers = 0;
};

// A structured DARC reservation update (Algorithm 2 output applied by the
// scheduler). Unlike the free-text TelemetryEvent the scheduler also emits,
// this carries machine-readable shares so figures can plot convergence.
struct ReservationUpdate {
  Nanos at = 0;
  uint64_t seq = 0;     // scheduler's reservation_updates ordinal (1-based)
  uint64_t window = 0;  // profiler windows completed when it was applied
  std::vector<ReservationShare> shares;
};

// Per-type stats over one time-series interval. Counts are interval deltas;
// gauges (queue_depth, reserved_workers) are sampled at interval close, -1
// when the engine provided no sampler. Slowdown percentiles are in milli
// units (1000 = 1.0x, matching sim/metrics.h's kSlowdownScale) and come from
// the windowed histogram; 0 when no completion was sampled in the interval.
struct TypeIntervalStats {
  uint32_t type = 0;  // engine type key, resolvable via type_names
  uint64_t arrivals = 0;
  uint64_t completions = 0;
  uint64_t drops = 0;
  uint64_t deadline_misses = 0;  // completions past their deadline
  uint64_t deadline_sheds = 0;   // admission-control drops
  int64_t queue_depth = -1;
  int64_t reserved_workers = -1;
  uint64_t slowdown_samples = 0;
  int64_t slowdown_p50_milli = 0;
  int64_t slowdown_p99_milli = 0;
  int64_t slowdown_p999_milli = 0;
};

// One TypeIntervalStats field, declared once for every exporter: `key` is
// its snapshot-JSON key, `metric` its /metrics gauge family.
// /metrics omits a type's -1 sentinel when `skip_negative` (the engine gave
// no sampler) and the whole family when `skip_if_all_zero` and every type
// reads 0 (deadline-free engines keep their scrape).
struct TypeIntervalField {
  const char* key;
  const char* metric;
  const char* help;
  int64_t (*value)(const TypeIntervalStats&);
  bool skip_negative = false;
  bool skip_if_all_zero = false;
};

// Every TypeIntervalStats field but `type`, in JSON order.
std::span<const TypeIntervalField> TypeIntervalFields();

// One closed interval of the time-series recorder.
struct IntervalRecord {
  uint64_t seq = 0;  // 0-based, monotonically increasing across the run
  Nanos start = 0;
  Nanos end = 0;
  uint64_t reservation_updates = 0;  // updates applied within the interval
  double arrival_rate_rps = 0;       // all types combined
  double completion_rate_rps = 0;
  std::vector<TypeIntervalStats> types;  // recorder slot order
  // Per-worker busy fraction over the interval, in permille; empty when the
  // engine provided no sampler (e.g. a bare recorder in unit tests). Derived
  // from the time-provenance ledger (busy + steal over wall) when the engine
  // carries one.
  std::vector<int64_t> worker_busy_permille;
  // Fleet-of-workers time decomposition over the interval, indexed by
  // WorkerTimeState and summed across all worker slots, in permille of
  // aggregate wall time; empty when the engine has no ledger.
  std::vector<int64_t> worker_state_permille;
};

// Per-type latency decomposition derived from the sampled lifecycle traces.
// Span definitions (consecutive, so they sum to `total` when every stage was
// stamped):
//   preprocess = rx → enqueued        (parse + classify + typed-queue entry)
//   queueing   = enqueued → dispatched (typed-queue wait; DARC's target)
//   handoff    = dispatched → handler_start (dispatcher→worker channel)
//   service    = handler_start → handler_end (application handler)
//   reply      = handler_end → tx      (response formatting + TX)
struct TypeStageBreakdown {
  std::string name;
  uint64_t traces = 0;
  Histogram preprocess;
  Histogram queueing;
  Histogram handoff;
  Histogram service;
  Histogram reply;
  Histogram total;  // rx → tx
};

// The TypeStageBreakdown spans in report order, for every exporter.
struct StageSpan {
  const char* label;
  TraceStage from;
  TraceStage to;
  Histogram TypeStageBreakdown::*hist;
};
inline constexpr StageSpan kStageSpans[] = {
    {"preprocess", TraceStage::kRx, TraceStage::kEnqueued,
     &TypeStageBreakdown::preprocess},
    {"queueing", TraceStage::kEnqueued, TraceStage::kDispatched,
     &TypeStageBreakdown::queueing},
    {"handoff", TraceStage::kDispatched, TraceStage::kHandlerStart,
     &TypeStageBreakdown::handoff},
    {"service", TraceStage::kHandlerStart, TraceStage::kHandlerEnd,
     &TypeStageBreakdown::service},
    {"reply", TraceStage::kHandlerEnd, TraceStage::kTx,
     &TypeStageBreakdown::reply},
    {"total", TraceStage::kRx, TraceStage::kTx, &TypeStageBreakdown::total},
};

// The registered name of trace type key `type`, or "type-N" when unnamed.
std::string TypeNameOf(const std::map<uint32_t, std::string>& type_names,
                       uint32_t type);

struct TelemetrySnapshot {
  // Monotonic counts, hierarchically named ("scheduler.dispatched").
  std::map<std::string, uint64_t> counters;
  // Point-in-time values ("worker.0.busy_permille").
  std::map<std::string, int64_t> gauges;
  // Value distributions recorded through the registry.
  std::map<std::string, Histogram> histograms;
  // Sampled per-request lifecycle records (merged across all rings).
  std::vector<RequestTrace> traces;
  // Subsystem event annotations (reservation changes, resizes, ...).
  std::vector<TelemetryEvent> events;
  // Closed time-series intervals (oldest first); empty when the recorder is
  // disabled. See src/telemetry/timeseries.h.
  std::vector<IntervalRecord> timeseries;
  // Structured DARC reservation updates in application order.
  std::vector<ReservationUpdate> reservation_updates;
  // Maps RequestTrace::type keys to human-readable names.
  std::map<uint32_t, std::string> type_names;
  // Cumulative worker time-provenance totals (one record per worker slot
  // plus the dispatcher pseudo-slot); empty when the engine has no ledger.
  // See src/telemetry/timeledger.h for the state taxonomy.
  std::vector<WorkerTimeRecord> worker_time;

  uint64_t counter(const std::string& name, uint64_t fallback = 0) const;

  // Folds `other` into this snapshot: counters add, gauges take the other's
  // value, histograms merge, traces/events/timeseries/reservation_updates/
  // type_names append.
  void Merge(const TelemetrySnapshot& other);

  // Aggregates the sampled traces into per-type stage histograms, keyed by
  // the trace type key. Spans with missing stamps are skipped.
  std::map<uint32_t, TypeStageBreakdown> StageBreakdown() const;

  // --- Exporters ------------------------------------------------------------
  std::string ToTable() const;
  std::string ToJson() const;
  std::string StageReport() const;
};

}  // namespace psp

#endif  // PSP_SRC_TELEMETRY_SNAPSHOT_H_
