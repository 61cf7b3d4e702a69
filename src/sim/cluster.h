// The simulated testbed: open-loop Poisson clients, a network with a fixed
// one-way delay, and a server pipeline (net worker + dispatcher as one serial
// resource feeding a pluggable scheduling policy over W worker cores) —
// mirroring the paper's CloudLab setup (§5.1) and its idealised §2 simulator
// (set net delay and pipeline costs to zero for the latter).
#ifndef PSP_SRC_SIM_CLUSTER_H_
#define PSP_SRC_SIM_CLUSTER_H_

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/introspect/outliers.h"
#include "src/sim/event_queue.h"
#include "src/sim/metrics.h"
#include "src/sim/workload.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/timeledger.h"

namespace psp {

struct SimRequest {
  uint64_t id = 0;
  TypeId wire_type = 0;    // request type id carried in the header
  uint32_t phase_slot = 0; // index into the generating phase's type list
  Nanos service = 0;       // total CPU demand
  Nanos remaining = 0;     // remaining demand (preemptive policies)
  Nanos send_time = 0;     // client send instant
  Nanos deadline = 0;      // absolute deadline (deadline tier; 0 = none)
  uint32_t flow_hash = 0;  // RSS steering input
  // Lifecycle stamps for telemetry (0 = not recorded). ready_time is set by
  // the engine when the dispatcher pipeline hands the request to the policy;
  // service_start/worker by WorkerBank::Run or NoteServiceStart.
  Nanos ready_time = 0;
  Nanos service_start = 0;
  uint32_t worker = 0;
};

struct ClusterConfig {
  uint32_t num_workers = 14;
  double rate_rps = 1e6;            // offered load (phase load_scale applies)
  Nanos duration = kSecond;         // client sending window
  double warmup_fraction = 0.1;     // discarded prefix (paper: first 10%)
  Nanos net_one_way = 5 * kMicrosecond;  // testbed RTT ≈ 10 µs
  Nanos dispatch_cost = 100;        // net worker + classifier + decision, per request
  Nanos completion_cost = 40;       // completion-signal handling on dispatcher
  uint64_t seed = 42;
  Nanos time_series_bucket = 0;     // 0 = no time series
  // Observability: lifecycle-trace sampling + ring sizing, the same knobs as
  // the threaded runtime (RuntimeConfig::telemetry).
  TelemetryConfig telemetry;
  // Tail-outlier capture over sampled traces (virtual-time windows, so the
  // retained set is bit-deterministic per seed).
  OutlierConfig outliers;
  // Offline introspection: when non-empty, Run() renders the same artifacts
  // the live admin plane serves — metrics.prom, snapshot.json,
  // timeseries.json, outliers.json — into this directory at end of run.
  std::string introspect_dir;
};

class ClusterEngine;

// A scheduling policy plugged into the server model. Policies own the worker
// cores: they decide what runs where and call CompleteRequest/DropRequest.
class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;

  virtual void Attach(ClusterEngine* engine) { engine_ = engine; }

  // Called when the dispatcher hands over a classified request.
  virtual void OnArrival(SimRequest* request) = 0;

  virtual std::string Name() const = 0;

  // Policy-specific counters surfaced in benches (e.g. preemptions, steals).
  virtual uint64_t preemptions() const { return 0; }
  virtual uint64_t steals() const { return 0; }

  // Publishes policy internals into the unified snapshot (counters, gauges,
  // reservation state, ...). Default: nothing beyond preemptions/steals,
  // which the engine exports itself.
  virtual void ExportTelemetry(TelemetrySnapshot* out) const { (void)out; }

  // Stamps policy-side gauges (queue depths, reserved shares) into a closing
  // time-series interval; entries are keyed by wire type id
  // (TypeIntervalStats::type). Called under the recorder's roll lock — must
  // not call back into the recorder. Default: leaves the -1 sentinels.
  virtual void SampleTimeSeriesGauges(IntervalRecord* rec) { (void)rec; }

 protected:
  ClusterEngine* engine_ = nullptr;
};

class ClusterEngine {
 public:
  ClusterEngine(WorkloadSpec workload, ClusterConfig config,
                std::unique_ptr<SchedulingPolicy> policy);

  // Trace-replay constructor: arrivals, types and service times come from
  // `trace` (see src/sim/trace.h) instead of the workload's generators; the
  // workload spec still names the types for metrics and policy seeding.
  // config.duration/rate_rps are ignored for generation (the warmup fraction
  // applies against the last trace send time).
  ClusterEngine(WorkloadSpec workload, ClusterConfig config,
                std::unique_ptr<SchedulingPolicy> policy,
                std::vector<TraceEntry> trace);

  // Fleet-server mode (src/fleet): the engine shares `sim` with its sibling
  // servers, generates no arrivals of its own, and receives requests through
  // InjectExternal. The fleet layer drives the shared event loop and calls
  // PrepareExternalRun / FinishExternalRun around it; Run() must not be
  // called on an engine built this way.
  ClusterEngine(WorkloadSpec workload, ClusterConfig config,
                std::unique_ptr<SchedulingPolicy> policy, Simulation* sim);

  // Runs the experiment to completion (all sent requests completed/dropped).
  void Run();

  // --- Fleet-server API (external-arrival mode) ----------------------------
  // Observes every completion (receive_time = client receive instant) or
  // flow-control drop; the fleet layer uses these for fleet-wide metrics and
  // outstanding-request tracking. Called before the request is recycled.
  using CompletionHook = std::function<void(const SimRequest&, Nanos receive)>;
  using DropHook = std::function<void(const SimRequest&)>;
  void set_completion_hook(CompletionHook hook) {
    completion_hook_ = std::move(hook);
  }
  void set_drop_hook(DropHook hook) { drop_hook_ = std::move(hook); }

  // Delivers a classified request into this server's pipeline now: one
  // forwarding hop (config.net_one_way) to the server NIC, then the
  // net-worker/dispatcher serial resource. `send_time` stays the client send
  // instant so per-server metrics remain client-observed.
  void InjectExternal(Nanos send_time, TypeId wire_type, uint32_t phase_slot,
                      Nanos service);

  // Schedules the virtual-time time-series grid over [0, duration] on the
  // shared simulation (external mode's half of Run()'s setup).
  void PrepareExternalRun(Nanos duration);
  // Flushes the final partial interval and renders introspection artifacts
  // (external mode's half of Run()'s teardown).
  void FinishExternalRun();

  // --- Policy-facing API ----------------------------------------------------
  Simulation& sim() { return *sim_; }
  Nanos Now() const { return sim_->Now(); }
  uint32_t num_workers() const { return config_.num_workers; }
  Rng& rng() { return rng_; }

  // Stamps the moment `request` begins service on `worker` (policies that
  // bypass WorkerBank call this; WorkerBank::Run does it automatically).
  void NoteServiceStart(SimRequest* request, uint32_t worker) {
    request->service_start = Now();
    request->worker = worker;
  }

  // The request finished service now; routes the response to the client and
  // releases the request.
  void CompleteRequest(SimRequest* request);
  // The request was shed (queue full); recorded as a drop.
  void DropRequest(SimRequest* request);

  // --- Results --------------------------------------------------------------
  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }
  const ClusterConfig& config() const { return config_; }
  const WorkloadSpec& workload() const { return workload_; }
  SchedulingPolicy& policy() { return *policy_; }
  uint64_t generated() const { return generated_; }

  // The unified introspection surface: the same TelemetrySnapshot API the
  // threaded runtime exposes (Persephone::telemetry_snapshot), fed by the
  // simulator's Metrics, the policy, and sampled lifecycle traces.
  Telemetry& telemetry() { return *telemetry_; }
  const Telemetry& telemetry() const { return *telemetry_; }
  TelemetrySnapshot telemetry_snapshot() const;
  // The tail-outlier recorder, when config.outliers.enabled.
  const OutlierRecorder* outliers() const { return outliers_.get(); }

  // The worker time-provenance ledger (src/telemetry/timeledger.h). The
  // engine charges the dispatcher serial resource's costs; DARC-family
  // policies attach it to their scheduler for worker-slot provenance, and
  // WorkerBank stamps plain busy/idle for the rest. Everything is driven by
  // virtual time, so totals are bit-deterministic per seed.
  WorkerTimeLedger* time_ledger() { return &time_ledger_; }
  const WorkerTimeLedger& time_ledger() const { return time_ledger_; }

  // Duration of the measured (post-warmup) sending window.
  Nanos MeasuredWindow() const {
    return config_.duration -
           static_cast<Nanos>(config_.warmup_fraction *
                              static_cast<double>(config_.duration));
  }

 private:
  void ScheduleNextArrival();
  void ScheduleTraceArrival(size_t index);
  void SampleWorkerTimeGauges(IntervalRecord* rec);
  void StartPhase(size_t phase_index, Nanos start_time);
  void InjectRequest(Nanos send_time, TypeId wire_type, uint32_t phase_slot,
                     Nanos service);

  // Time-series recorder slot for `wire`; SIZE_MAX when the recorder is off
  // or the type never registered (trace replay with unnamed types).
  size_t SeriesSlotFor(TypeId wire) const {
    const auto it = series_slot_by_wire_.find(wire);
    return it == series_slot_by_wire_.end() ? SIZE_MAX : it->second;
  }

  WorkloadSpec workload_;
  ClusterConfig config_;
  std::unique_ptr<SchedulingPolicy> policy_;
  // The engine normally owns its simulation; in fleet-server mode sim_
  // points at the fleet's shared event queue instead.
  Simulation own_sim_;
  Simulation* sim_ = &own_sim_;
  bool external_arrivals_ = false;
  CompletionHook completion_hook_;
  DropHook drop_hook_;
  Rng rng_;
  Metrics metrics_;
  std::unique_ptr<Telemetry> telemetry_;
  std::unique_ptr<OutlierRecorder> outliers_;
  TraceSampler trace_sampler_;
  std::map<TypeId, size_t> series_slot_by_wire_;
  WorkerTimeLedger time_ledger_;
  // Previous-interval ledger totals per worker slot, for the time-series
  // gauge sampler's delta computation (single-threaded: sampler runs inline
  // in virtual time).
  std::vector<std::array<uint64_t, kNumWorkerTimeStates>> ts_prev_state_;

  // Arrival generation state.
  size_t phase_index_ = 0;
  Nanos phase_end_ = 0;
  std::unique_ptr<PhaseSampler> sampler_;
  double gap_mean_nanos_ = 0;
  Nanos next_send_ = 0;
  uint64_t next_id_ = 0;
  uint64_t generated_ = 0;

  // Dispatcher serial-resource state.
  Nanos dispatcher_busy_until_ = 0;

  // Trace replay (empty = generated workload).
  std::vector<TraceEntry> trace_;

  // Request storage: slab + free list.
  std::deque<SimRequest> slab_;
  std::vector<SimRequest*> free_list_;

  SimRequest* AllocRequest();
  void FreeRequest(SimRequest* request);
};

// Helper for non-preemptive policies: tracks idle workers and runs requests
// to completion, invoking a callback when a worker frees up.
class WorkerBank {
 public:
  using IdleCallback = std::function<void(uint32_t worker)>;

  void Init(ClusterEngine* engine, IdleCallback on_idle);

  bool HasIdle() const { return !idle_.empty(); }
  // Pops an arbitrary idle worker (unspecified which).
  uint32_t PopIdle();
  // Removes a specific idle worker; false if busy.
  bool ClaimIdle(uint32_t worker);

  // Runs `request` on `worker` starting now, occupying it for
  // `extra_cost + request->service`, then completes it and reports idle.
  void Run(uint32_t worker, SimRequest* request, Nanos extra_cost = 0);

 private:
  ClusterEngine* engine_ = nullptr;
  IdleCallback on_idle_;
  std::vector<uint32_t> idle_;
};

}  // namespace psp

#endif  // PSP_SRC_SIM_CLUSTER_H_
