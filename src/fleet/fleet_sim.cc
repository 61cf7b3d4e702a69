#include "src/fleet/fleet_sim.h"

#include <sys/stat.h>

#include <cassert>
#include <cerrno>
#include <cmath>

#include "src/introspect/offline.h"

namespace psp {

std::string FleetSimConfig::Validate() const {
  if (num_servers == 0) {
    return "fleet: num_servers must be >= 1";
  }
  if (server.num_workers == 0) {
    return "fleet: server.num_workers must be >= 1";
  }
  if (rate_rps <= 0) {
    return "fleet: rate_rps must be > 0";
  }
  if (duration <= 0) {
    return "fleet: duration must be > 0";
  }
  if (warmup_fraction < 0 || warmup_fraction >= 1) {
    return "fleet: warmup_fraction must be in [0, 1)";
  }
  if (net_one_way < 0 || dispatch_cost < 0) {
    return "fleet: network/dispatch costs must be >= 0";
  }
  return policy.Validate();
}

FleetSimulation::FleetSimulation(WorkloadSpec workload, FleetSimConfig config,
                                 PolicyFactory factory)
    : config_(config),
      workload_(std::move(workload)),
      policy_(FleetDispatchPolicy::Create(config.policy, config.num_servers)),
      arrival_rng_(Rng::StreamSeed(config.seed, 0)),
      policy_rng_(Rng::StreamSeed(config.seed, 1)),
      outstanding_(config.num_servers, 0),
      depth_view_(config.num_servers, 0),
      dispatched_per_server_(config.num_servers, 0),
      metrics_(static_cast<Nanos>(config.warmup_fraction *
                                  static_cast<double>(config.duration))) {
  assert(config_.Validate().empty());
  assert(!workload_.phases.empty());
  // Steady-state pending events: the arrival chain, each server's worker
  // completions + dispatcher handoffs, and the time-series grids.
  sim_.Reserve(static_cast<size_t>(config_.num_servers) *
                   (config_.server.num_workers + 64) +
               64);
  for (const auto& t : workload_.AllTypes()) {
    metrics_.RegisterType(t.wire_id, t.name);
  }
  servers_.reserve(config_.num_servers);
  for (uint32_t i = 0; i < config_.num_servers; ++i) {
    ClusterConfig server_config = config_.server;
    server_config.duration = config_.duration;
    server_config.warmup_fraction = config_.warmup_fraction;
    server_config.seed = Rng::StreamSeed(config_.seed, 2 + i);
    if (!config_.introspect_dir.empty()) {
      server_config.introspect_dir =
          config_.introspect_dir + "/server" + std::to_string(i);
    }
    servers_.push_back(std::make_unique<ClusterEngine>(
        workload_, server_config, factory(i), &sim_));
    ClusterEngine* const engine = servers_.back().get();
    engine->set_completion_hook(
        [this, i](const SimRequest& request, Nanos receive) {
          metrics_.RecordCompletion(request.wire_type, request.send_time,
                                    receive, request.service);
          --outstanding_[i];
        });
    engine->set_drop_hook([this, i](const SimRequest& request) {
      metrics_.RecordDrop(request.wire_type);
      --outstanding_[i];
    });
  }
}

void FleetSimulation::StartPhase(size_t phase_index, Nanos start_time) {
  phase_index_ = phase_index;
  const WorkloadPhase& phase = workload_.phases[phase_index];
  sampler_ = std::make_unique<PhaseSampler>(phase);
  const double rate = config_.rate_rps * phase.load_scale;
  gap_mean_nanos_ = rate > 0 ? 1e9 / rate : 0;
  phase_end_ =
      phase.duration > 0 ? start_time + phase.duration : config_.duration;
}

void FleetSimulation::ScheduleNextArrival() {
  double u = arrival_rng_.NextDouble();
  if (u <= 0.0) {
    u = 1e-18;
  }
  next_send_ += static_cast<Nanos>(-gap_mean_nanos_ * std::log(1.0 - u)) + 1;
  while (next_send_ >= phase_end_ &&
         phase_index_ + 1 < workload_.phases.size()) {
    StartPhase(phase_index_ + 1, phase_end_);
  }
  if (next_send_ >= config_.duration) {
    return;  // sending window over
  }

  const Nanos send_time = next_send_;
  sim_.ScheduleAt(send_time, [this, send_time] {
    const MixtureDraw draw = sampler_->Sample(arrival_rng_);
    const TypeId wire = sampler_->type(draw.mode).wire_id;
    const uint32_t slot = draw.mode;
    const Nanos service = draw.service_time;
    const uint32_t flow_hash = static_cast<uint32_t>(arrival_rng_.Next());
    ++generated_;

    // Network flight to the fleet dispatcher, then its serial per-request
    // decision slot (the RackSched switch pipeline analogue).
    const Nanos rx_time = send_time + config_.net_one_way;
    const Nanos decide =
        std::max(rx_time, dispatcher_busy_until_) + config_.dispatch_cost;
    dispatcher_busy_until_ = decide;
    sim_.ScheduleAt(decide, [this, send_time, wire, slot, service, flow_hash] {
      Dispatch(send_time, wire, slot, service, flow_hash);
    });
    ScheduleNextArrival();
  });
}

void FleetSimulation::MaybeRefreshDepths() {
  if (!policy_->uses_depths()) {
    return;
  }
  const Nanos staleness = config_.policy.depth_staleness;
  if (staleness <= 0) {
    // Live probing (po2c): every decision reads current depths.
    depth_view_ = outstanding_;
    ++depth_refreshes_;
    return;
  }
  // Bounded-staleness tracker: the table is renewed at most once per grid
  // period, so a decision reads a view at most `staleness` old.
  const Nanos now = sim_.Now();
  const Nanos grid = now - now % staleness;
  if (grid > depth_refreshed_at_) {
    depth_view_ = outstanding_;
    depth_refreshed_at_ = grid;
    ++depth_refreshes_;
  }
}

void FleetSimulation::Dispatch(Nanos send_time, TypeId wire_type,
                               uint32_t phase_slot, Nanos service,
                               uint32_t flow_hash) {
  MaybeRefreshDepths();
  const FleetDepths depths{depth_view_.data(), config_.num_servers};
  const uint32_t pick = policy_->Pick(flow_hash, policy_rng_, depths);
  assert(pick < config_.num_servers);
  // The dispatcher always knows its own dispatches: the staleness bound only
  // blurs completion information. Without this self-correction a whole grid
  // period's arrivals would herd onto the momentary argmin.
  ++depth_view_[pick];
  ++outstanding_[pick];
  ++dispatched_per_server_[pick];
  servers_[pick]->InjectExternal(send_time, wire_type, phase_slot, service);
}

void FleetSimulation::Run() {
  StartPhase(0, 0);
  ScheduleNextArrival();
  for (auto& server : servers_) {
    server->PrepareExternalRun(config_.duration);
  }
  if (!config_.introspect_dir.empty()) {
    // Servers render into <dir>/server<i>; make sure the parent exists first.
    ::mkdir(config_.introspect_dir.c_str(), 0755);
  }
  sim_.RunToCompletion();
  for (auto& server : servers_) {
    server->FinishExternalRun();
  }
  if (!config_.introspect_dir.empty()) {
    const FleetSnapshot snap = fleet_snapshot();
    WriteTextFile(config_.introspect_dir + "/fleet.json", snap.ToJson());
    WriteTextFile(config_.introspect_dir + "/metrics.prom",
                  snap.ToPrometheus());
  }
}

FleetSnapshot FleetSimulation::fleet_snapshot() const {
  FleetSnapshot snap;
  snap.policy = policy_->Name();
  snap.counters["fleet.generated"] = generated_;
  snap.counters["fleet.depth_refreshes"] = depth_refreshes_;
  snap.gauges["fleet.num_servers"] = config_.num_servers;
  // The shared event queue's counters (per-server snapshots omit them in
  // fleet mode — the queue is fleet-owned, so it reports here once).
  snap.counters["fleet.sim.engine.executed"] = sim_.executed_events();
  snap.counters["fleet.sim.engine.cascades"] = sim_.wheel_cascades();
  snap.counters["fleet.sim.engine.rollovers"] = sim_.wheel_rollovers();
  // Always 1; bench/e2e/sim.cc reads it for the fleet point's
  // sim.wheel_active.
  snap.gauges["fleet.sim.engine.wheel_active"] = sim_.wheel_active() ? 1 : 0;
  for (uint32_t i = 0; i < config_.num_servers; ++i) {
    const std::string key = "fleet.server." + std::to_string(i);
    snap.counters[key + ".dispatched"] = dispatched_per_server_[i];
    snap.gauges[key + ".outstanding"] = outstanding_[i];
  }
  snap.servers.reserve(servers_.size());
  for (const auto& server : servers_) {
    snap.servers.push_back(server->telemetry_snapshot());
  }
  return snap;
}

}  // namespace psp
