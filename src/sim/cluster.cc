#include "src/sim/cluster.h"

#include <cassert>
#include <cmath>

#include "src/introspect/offline.h"
#include "src/sim/trace.h"

namespace psp {

ClusterEngine::ClusterEngine(WorkloadSpec workload, ClusterConfig config,
                             std::unique_ptr<SchedulingPolicy> policy)
    : ClusterEngine(std::move(workload), config, std::move(policy),
                    static_cast<Simulation*>(nullptr)) {}

ClusterEngine::ClusterEngine(WorkloadSpec workload, ClusterConfig config,
                             std::unique_ptr<SchedulingPolicy> policy,
                             Simulation* sim)
    : workload_(std::move(workload)),
      config_(config),
      policy_(std::move(policy)),
      sim_(sim != nullptr ? sim : &own_sim_),
      external_arrivals_(sim != nullptr),
      rng_(config.seed),
      metrics_(static_cast<Nanos>(config.warmup_fraction *
                                  static_cast<double>(config.duration))),
      telemetry_(std::make_unique<Telemetry>(config.telemetry,
                                             /*num_rings=*/1)),
      trace_sampler_(telemetry_->sample_every()),
      time_ledger_(config_.num_workers) {
  assert(!workload_.phases.empty());
  // Pre-size the event arena past the usual steady-state pending count
  // (arrival chain + per-worker completions + grid events) so the hot loop
  // never allocates.
  sim_->Reserve(config_.num_workers + 64);
  for (const auto& t : workload_.AllTypes()) {
    metrics_.RegisterType(t.wire_id, t.name);
  }
  if (config_.time_series_bucket > 0) {
    metrics_.EnableTimeSeries(config_.time_series_bucket);
  }
  // Continuous observability: one recorder series per workload type (keyed
  // by wire id — everything the simulator feeds in is virtual time, so the
  // resulting series are bit-deterministic for a fixed seed).
  if (telemetry_->timeseries() != nullptr) {
    for (const auto& t : workload_.AllTypes()) {
      series_slot_by_wire_.emplace(t.wire_id,
                                   telemetry_->RegisterSeries(t.wire_id,
                                                              t.name));
    }
    telemetry_->timeseries()->set_gauge_sampler([this](IntervalRecord* rec) {
      policy_->SampleTimeSeriesGauges(rec);
      SampleWorkerTimeGauges(rec);
    });
  }
  if (config_.outliers.enabled) {
    assert(config_.outliers.Validate().empty());
    outliers_ = std::make_unique<OutlierRecorder>(config_.outliers);
  }
  // The ledger opens before the policy attaches so DARC-family policies can
  // hand it to their scheduler. The dispatcher pseudo-slot accumulates fixed
  // dispatch/completion costs; whatever wall time those leave unaccounted is
  // the serial resource sitting idle — poll_spin by construction.
  time_ledger_.Open(sim_->Now());
  time_ledger_.SetRemainderState(WorkerTimeLedger::kDispatcherSlot,
                                 WorkerTimeState::kPollSpin);
  policy_->Attach(this);
}

namespace {

ClusterConfig AdjustDurationForTrace(ClusterConfig config,
                                     const std::vector<TraceEntry>& trace) {
  if (!trace.empty()) {
    config.duration = trace.back().send_time + 1;
  }
  return config;
}

}  // namespace

ClusterEngine::ClusterEngine(WorkloadSpec workload, ClusterConfig config,
                             std::unique_ptr<SchedulingPolicy> policy,
                             std::vector<TraceEntry> trace)
    : ClusterEngine(std::move(workload), AdjustDurationForTrace(config, trace),
                    std::move(policy)) {
  trace_ = std::move(trace);
}

SimRequest* ClusterEngine::AllocRequest() {
  if (!free_list_.empty()) {
    SimRequest* r = free_list_.back();
    free_list_.pop_back();
    return r;
  }
  slab_.emplace_back();
  return &slab_.back();
}

void ClusterEngine::FreeRequest(SimRequest* request) {
  free_list_.push_back(request);
}

void ClusterEngine::StartPhase(size_t phase_index, Nanos start_time) {
  phase_index_ = phase_index;
  const WorkloadPhase& phase = workload_.phases[phase_index];
  sampler_ = std::make_unique<PhaseSampler>(phase);
  const double rate = config_.rate_rps * phase.load_scale;
  gap_mean_nanos_ = rate > 0 ? 1e9 / rate : 0;
  phase_end_ = phase.duration > 0 ? start_time + phase.duration
                                  : config_.duration;
}

void ClusterEngine::ScheduleNextArrival() {
  // Poisson gaps; crossing a phase boundary re-rolls the phase sampler.
  double u = rng_.NextDouble();
  if (u <= 0.0) {
    u = 1e-18;
  }
  next_send_ += static_cast<Nanos>(-gap_mean_nanos_ * std::log(1.0 - u)) + 1;
  while (next_send_ >= phase_end_ && phase_index_ + 1 < workload_.phases.size()) {
    StartPhase(phase_index_ + 1, phase_end_);
  }
  if (next_send_ >= config_.duration) {
    return;  // sending window over
  }

  const Nanos send_time = next_send_;
  sim_->ScheduleAt(send_time, [this, send_time] {
    const MixtureDraw draw = sampler_->Sample(rng_);
    InjectRequest(send_time, sampler_->type(draw.mode).wire_id, draw.mode,
                  draw.service_time);
    ScheduleNextArrival();
  });
}

void ClusterEngine::InjectRequest(Nanos send_time, TypeId wire_type,
                                  uint32_t phase_slot, Nanos service) {
  SimRequest* req = AllocRequest();
  req->id = next_id_++;
  req->wire_type = wire_type;
  req->phase_slot = phase_slot;
  req->service = service;
  req->remaining = service;
  req->send_time = send_time;
  req->deadline = 0;
  req->flow_hash = static_cast<uint32_t>(rng_.Next());
  req->ready_time = 0;
  req->service_start = 0;
  req->worker = 0;
  ++generated_;

  // Network flight, then the server's net-worker/dispatcher pipeline: a
  // serial resource charging dispatch_cost per request.
  const Nanos rx_time = send_time + config_.net_one_way;
  const Nanos ready =
      std::max(rx_time, dispatcher_busy_until_) + config_.dispatch_cost;
  dispatcher_busy_until_ = ready;
  time_ledger_.Add(WorkerTimeLedger::kDispatcherSlot,
                   WorkerTimeState::kDispatchOverhead, config_.dispatch_cost);
  req->ready_time = ready;
  sim_->ScheduleAt(ready, [this, req] {
    if (TimeSeriesRecorder* const ts = telemetry_->timeseries()) {
      const size_t slot = SeriesSlotFor(req->wire_type);
      if (slot != SIZE_MAX) {
        ts->RecordArrival(slot, Now());
      }
    }
    policy_->OnArrival(req);
  });
}

void ClusterEngine::ScheduleTraceArrival(size_t index) {
  if (index >= trace_.size()) {
    return;
  }
  // Capture the index only (the entry is re-read from trace_ at fire time):
  // keeps the event payload to two words.
  sim_->ScheduleAt(trace_[index].send_time, [this, index] {
    const TraceEntry& entry = trace_[index];
    InjectRequest(entry.send_time, entry.wire_type, /*phase_slot=*/0,
                  entry.service);
    ScheduleTraceArrival(index + 1);
  });
}

void ClusterEngine::PrepareExternalRun(Nanos duration) {
  // Pre-scheduled virtual-time rollovers: close every due interval at exact
  // grid points, so idle stretches still produce empty intervals and the
  // series is deterministic.
  if (TimeSeriesRecorder* const ts = telemetry_->timeseries()) {
    const Nanos interval = ts->config().interval;
    for (Nanos t = interval; t <= duration; t += interval) {
      sim_->ScheduleAt(t, [this, t] { telemetry_->AdvanceTimeSeries(t); });
    }
  }
}

void ClusterEngine::FinishExternalRun() {
  // Completions tail off past the sending window: flush the final partial
  // interval so the series covers the whole run.
  if (telemetry_->timeseries() != nullptr) {
    telemetry_->AdvanceTimeSeries(Now(), /*flush=*/true);
  }
  // Offline introspection: render the same artifacts the live admin plane
  // serves. Everything below derives from virtual time + the seeded RNG, so
  // the files are byte-identical across same-seed runs.
  if (!config_.introspect_dir.empty()) {
    const std::string error = WriteIntrospectionFiles(
        config_.introspect_dir, telemetry_snapshot(), outliers_.get());
    if (!error.empty()) {
      telemetry_->RecordEvent(Now(), error);
    }
  }
}

void ClusterEngine::Run() {
  assert(!external_arrivals_ &&
         "fleet-mode engines are driven by the fleet's event loop");
  if (!trace_.empty()) {
    ScheduleTraceArrival(0);
  } else {
    StartPhase(0, 0);
    ScheduleNextArrival();
  }
  PrepareExternalRun(config_.duration);
  sim_->RunToCompletion();
  FinishExternalRun();
}

void ClusterEngine::InjectExternal(Nanos send_time, TypeId wire_type,
                                   uint32_t phase_slot, Nanos service) {
  assert(external_arrivals_);
  SimRequest* req = AllocRequest();
  req->id = next_id_++;
  req->wire_type = wire_type;
  req->phase_slot = phase_slot;
  req->service = service;
  req->remaining = service;
  req->send_time = send_time;
  req->deadline = 0;
  req->flow_hash = static_cast<uint32_t>(rng_.Next());
  req->ready_time = 0;
  req->service_start = 0;
  req->worker = 0;
  ++generated_;

  // Forwarding hop from the fleet dispatcher to this server's NIC, then the
  // server's own net-worker/dispatcher serial resource. The hop is timed
  // from Now() (the instant the dispatcher forwarded), not from send_time:
  // the client→dispatcher leg already elapsed at the fleet tier.
  const Nanos rx_time = Now() + config_.net_one_way;
  const Nanos ready =
      std::max(rx_time, dispatcher_busy_until_) + config_.dispatch_cost;
  dispatcher_busy_until_ = ready;
  time_ledger_.Add(WorkerTimeLedger::kDispatcherSlot,
                   WorkerTimeState::kDispatchOverhead, config_.dispatch_cost);
  req->ready_time = ready;
  sim_->ScheduleAt(ready, [this, req] {
    if (TimeSeriesRecorder* const ts = telemetry_->timeseries()) {
      const size_t slot = SeriesSlotFor(req->wire_type);
      if (slot != SIZE_MAX) {
        ts->RecordArrival(slot, Now());
      }
    }
    policy_->OnArrival(req);
  });
}

void ClusterEngine::CompleteRequest(SimRequest* request) {
  // Completion signal occupies the dispatcher briefly (§4.3.3); the response
  // itself is transmitted by the worker directly (§4.3.4).
  dispatcher_busy_until_ =
      std::max(dispatcher_busy_until_, Now()) + config_.completion_cost;
  time_ledger_.Add(WorkerTimeLedger::kDispatcherSlot,
                   WorkerTimeState::kDispatchOverhead,
                   config_.completion_cost);
  const Nanos receive_time = Now() + config_.net_one_way;
  // Deadlines are judged at server-side completion (matching the runtime's
  // dispatcher-absorb accounting), not at client receive.
  metrics_.RecordCompletion(request->wire_type, request->send_time,
                            receive_time, request->service, request->deadline,
                            Now());
  if (TimeSeriesRecorder* const ts = telemetry_->timeseries()) {
    const size_t slot = SeriesSlotFor(request->wire_type);
    if (slot != SIZE_MAX) {
      ts->RecordCompletion(slot, receive_time - request->send_time,
                           request->service, Now());
      if (request->deadline > 0 && Now() > request->deadline) {
        ts->RecordDeadlineMiss(slot, Now());
      }
    }
  }
  if (trace_sampler_.Tick()) {
    // The simulator maps onto the same stage axis the threaded runtime uses.
    // Its model collapses parse/classify/enqueue into dispatch_cost
    // (classified == enqueued == ready) and the channel hop into the service
    // span (dispatched == handler-start); tx happens at completion.
    RequestTrace trace;
    trace.request_id = request->id;
    trace.type = request->wire_type;
    trace.worker = request->worker;
    trace.stamp[static_cast<size_t>(TraceStage::kRx)] =
        request->send_time + config_.net_one_way;
    trace.stamp[static_cast<size_t>(TraceStage::kClassified)] =
        request->ready_time;
    trace.stamp[static_cast<size_t>(TraceStage::kEnqueued)] =
        request->ready_time;
    const Nanos start =
        request->service_start > 0 ? request->service_start : Now();
    trace.stamp[static_cast<size_t>(TraceStage::kDispatched)] = start;
    trace.stamp[static_cast<size_t>(TraceStage::kHandlerStart)] = start;
    trace.stamp[static_cast<size_t>(TraceStage::kHandlerEnd)] = Now();
    trace.stamp[static_cast<size_t>(TraceStage::kTx)] = Now();
    telemetry_->ring(0).Push(trace);
    if (outliers_) {
      // Virtual-time offers: the retained set is a pure function of the
      // seed, which is what makes the offline files byte-reproducible.
      outliers_->Offer(trace, Now());
    }
  }
  if (completion_hook_) {
    completion_hook_(*request, receive_time);
  }
  FreeRequest(request);
}

TelemetrySnapshot ClusterEngine::telemetry_snapshot() const {
  TelemetrySnapshot snap = telemetry_->Snapshot();
  snap.counters["engine.generated"] += generated_;
  metrics_.ExportTelemetry(&snap);
  snap.gauges["engine.num_workers"] = config_.num_workers;
  // Event-queue introspection (psp_sim_engine_* in /metrics). Only when the
  // engine owns its simulation: fleet servers share the fleet's queue, which
  // exports these once as fleet.sim.engine.* instead of N double-counted
  // copies.
  if (!external_arrivals_) {
    snap.counters["sim.engine.executed"] += sim_->executed_events();
    snap.counters["sim.engine.cascades"] += sim_->wheel_cascades();
    snap.counters["sim.engine.rollovers"] += sim_->wheel_rollovers();
    snap.counters["sim.engine.arena_allocations"] +=
        sim_->arena_allocations();
    snap.gauges["sim.engine.pending_events"] =
        static_cast<int64_t>(sim_->pending_events());
  }
  snap.counters["policy.preemptions"] += policy_->preemptions();
  snap.counters["policy.steals"] += policy_->steals();
  policy_->ExportTelemetry(&snap);
  // Worker time provenance, resolved against the names the policy just
  // exported (dense scheduler type indices).
  snap.worker_time = time_ledger_.SnapshotTotals(
      Now(), [&snap](uint32_t t) {
        const auto it = snap.type_names.find(t);
        return it != snap.type_names.end() ? it->second : std::string();
      });
  return snap;
}

void ClusterEngine::SampleWorkerTimeGauges(IntervalRecord* rec) {
  const std::vector<WorkerTimeRecord> records =
      time_ledger_.SnapshotTotals(Now(), nullptr);
  if (records.empty()) {
    return;
  }
  // Workers only: the dispatcher pseudo-slot (last record) is not a worker
  // core and would skew the fleet-of-workers shares.
  IntervalOccupancy(records, records.size() - 1, &ts_prev_state_,
                    &rec->worker_busy_permille, &rec->worker_state_permille);
}

void ClusterEngine::DropRequest(SimRequest* request) {
  metrics_.RecordDrop(request->wire_type);
  if (request->deadline > 0) {
    metrics_.RecordDeadlineShed(request->wire_type, request->send_time);
  }
  if (TimeSeriesRecorder* const ts = telemetry_->timeseries()) {
    const size_t slot = SeriesSlotFor(request->wire_type);
    if (slot != SIZE_MAX) {
      ts->RecordDrop(slot, Now());
      if (request->deadline > 0) {
        ts->RecordDeadlineShed(slot, Now());
      }
    }
  }
  if (drop_hook_) {
    drop_hook_(*request);
  }
  FreeRequest(request);
}

void WorkerBank::Init(ClusterEngine* engine, IdleCallback on_idle) {
  engine_ = engine;
  on_idle_ = std::move(on_idle);
  idle_.clear();
  for (uint32_t w = 0; w < engine->num_workers(); ++w) {
    idle_.push_back(w);
  }
}

uint32_t WorkerBank::PopIdle() {
  const uint32_t w = idle_.back();
  idle_.pop_back();
  return w;
}

bool WorkerBank::ClaimIdle(uint32_t worker) {
  for (size_t i = 0; i < idle_.size(); ++i) {
    if (idle_[i] == worker) {
      idle_[i] = idle_.back();
      idle_.pop_back();
      return true;
    }
  }
  return false;
}

void WorkerBank::Run(uint32_t worker, SimRequest* request, Nanos extra_cost) {
  engine_->NoteServiceStart(request, worker);
  const Nanos busy = extra_cost + request->service;
  // Bank-managed policies have no dense type registry: busy time lands in
  // the ledger untyped (DARC-family policies stamp types via the scheduler).
  engine_->time_ledger()->Transition(worker, WorkerTimeState::kBusy,
                                     WorkerTimeLedger::kUntyped,
                                     engine_->Now());
  engine_->sim().ScheduleAfter(busy, [this, worker, request] {
    engine_->CompleteRequest(request);
    engine_->time_ledger()->Transition(worker, WorkerTimeState::kFreeIdle,
                                       WorkerTimeLedger::kUntyped,
                                       engine_->Now());
    idle_.push_back(worker);
    on_idle_(worker);
  });
}

}  // namespace psp
