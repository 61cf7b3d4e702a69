// Elastic DARC (§6, "DARC in the datacenter ecosystem"): DARC cooperating
// with a core allocator that grants and revokes cores as load changes. A
// simple utilisation-band allocator samples the busy fraction of the active
// worker pool on a fixed period and calls DarcScheduler::ResizeWorkers —
// reservations are re-derived on every allocation event, and DARC keeps
// prioritising short requests throughout.
#ifndef PSP_SRC_SIM_POLICIES_ELASTIC_H_
#define PSP_SRC_SIM_POLICIES_ELASTIC_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "src/core/scheduler.h"
#include "src/sim/cluster.h"

namespace psp {

struct ElasticOptions {
  SchedulerConfig scheduler;          // mode must be kDarc / kDarcStatic
  uint32_t min_workers = 2;
  uint32_t initial_workers = 2;       // engine num_workers is the maximum
  Nanos allocation_period = 10 * kMillisecond;
  // Grow when the queued backlog exceeds this many core-periods of work.
  // (Raw busy fraction is the wrong growth signal under DARC: its reserved
  // idle cores cap measured utilisation below 1.0 by design.)
  double grow_backlog_cores = 0.25;
  double shrink_below = 0.50;         // busy fraction that triggers -1 core
};

class ElasticDarcPolicy final : public SchedulingPolicy {
 public:
  explicit ElasticDarcPolicy(ElasticOptions options)
      : options_(std::move(options)) {}

  void Attach(ClusterEngine* engine) override {
    SchedulingPolicy::Attach(engine);
    max_workers_ = engine->num_workers();
    active_workers_ = std::min(
        std::max(options_.initial_workers, options_.min_workers),
        max_workers_);
    SchedulerConfig config = options_.scheduler;
    config.num_workers = active_workers_;
    scheduler_ = std::make_unique<DarcScheduler>(config);
    for (const auto& t : engine->workload().AllTypes()) {
      scheduler_->RegisterType(t.wire_id, t.name, FromMicros(t.mean_us),
                               t.ratio);
    }
    scheduler_->ActivateSeededReservation();
    engine->sim().ScheduleAfter(options_.allocation_period,
                                [this] { AllocatorTick(); });
  }

  void OnArrival(SimRequest* request) override {
    const Nanos now = engine_->Now();
    Request r;
    r.id = next_id_++;
    r.type = scheduler_->ResolveType(request->wire_type);
    r.arrival = now;
    r.service_demand = request->service;
    r.payload = request;
    if (!scheduler_->Enqueue(r, now)) {
      engine_->DropRequest(request);
      return;
    }
    Pump();
  }

  std::string Name() const override { return "elastic-darc"; }

  uint32_t active_workers() const { return active_workers_; }
  const std::vector<std::pair<Nanos, uint32_t>>& allocation_log() const {
    return allocation_log_;
  }

 private:
  void Pump() {
    const Nanos now = engine_->Now();
    while (auto a = scheduler_->NextAssignment(now)) {
      auto* sim_request = static_cast<SimRequest*>(a->request.payload);
      const WorkerId worker = a->worker;
      const TypeIndex type = a->request.type;
      engine_->NoteServiceStart(sim_request, worker);
      busy_accum_ += sim_request->service;
      ++outstanding_;
      engine_->sim().ScheduleAfter(
          sim_request->service, [this, worker, type, sim_request] {
            const Nanos service = sim_request->service;
            engine_->CompleteRequest(sim_request);
            scheduler_->OnCompletion(worker, type, service, engine_->Now());
            --outstanding_;
            Pump();
          });
    }
  }

  bool WorkRemains() const {
    if (outstanding_ > 0) {
      return true;
    }
    for (TypeIndex t = 0; t < scheduler_->num_types(); ++t) {
      if (scheduler_->queue_depth(t) > 0) {
        return true;
      }
    }
    return false;
  }

  void AllocatorTick() {
    const double capacity = static_cast<double>(active_workers_) *
                            static_cast<double>(options_.allocation_period);
    const double busy_fraction =
        capacity > 0 ? static_cast<double>(busy_accum_) / capacity : 0;
    busy_accum_ = 0;

    // Backlog in core-periods: queued work that this period's capacity did
    // not absorb.
    double backlog = 0;
    for (TypeIndex t = 0; t < scheduler_->num_types(); ++t) {
      backlog += static_cast<double>(scheduler_->queue_depth(t)) *
                 static_cast<double>(scheduler_->profiler().MeanServiceTime(t));
    }
    const double backlog_cores =
        backlog / static_cast<double>(options_.allocation_period);

    if (std::getenv("PSP_ELASTIC_DEBUG") != nullptr) {
      std::fprintf(stderr, "tick t=%lldms busy=%.3f backlog=%.3f active=%u\n",
                   static_cast<long long>(engine_->Now() / kMillisecond),
                   busy_fraction, backlog_cores, active_workers_);
    }
    uint32_t target = active_workers_;
    if (backlog_cores > options_.grow_backlog_cores &&
        active_workers_ < max_workers_) {
      ++target;
    } else if (busy_fraction < options_.shrink_below &&
               backlog_cores == 0 && active_workers_ > options_.min_workers) {
      --target;
    }
    if (target != active_workers_) {
      active_workers_ = target;
      scheduler_->ResizeWorkers(target);
      allocation_log_.emplace_back(engine_->Now(), target);
      Pump();  // grown cores can take queued work immediately
    }
    // Stop ticking once the client is done and the system drained; otherwise
    // the periodic event would keep the simulation alive forever.
    if (engine_->Now() >= engine_->config().duration && !WorkRemains()) {
      return;
    }
    engine_->sim().ScheduleAfter(options_.allocation_period,
                                 [this] { AllocatorTick(); });
  }

  ElasticOptions options_;
  std::unique_ptr<DarcScheduler> scheduler_;
  uint32_t max_workers_ = 0;
  uint32_t active_workers_ = 0;
  uint64_t next_id_ = 0;
  uint64_t outstanding_ = 0;  // dispatched, not yet completed
  // Approximation of busy time granted this period (service time of work
  // started; good enough for a band controller).
  Nanos busy_accum_ = 0;
  std::vector<std::pair<Nanos, uint32_t>> allocation_log_;
};

}  // namespace psp

#endif  // PSP_SRC_SIM_POLICIES_ELASTIC_H_
