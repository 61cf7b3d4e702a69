#include "src/core/scheduler.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "src/sched/admission.h"
#include "src/sched/slack_reservation.h"

namespace psp {
namespace {

// kDarcSlack feeds ComputeSlackReservation budgets parallel to `demands`.
std::vector<Nanos> BudgetsFor(const std::vector<TypeDemand>& demands,
                              const std::vector<Nanos>& targets) {
  std::vector<Nanos> budgets;
  budgets.reserve(demands.size());
  for (const TypeDemand& d : demands) {
    budgets.push_back(d.type < targets.size() ? targets[d.type] : 0);
  }
  return budgets;
}

}  // namespace

std::string SchedulerConfig::Validate() const {
  if (num_workers == 0) {
    return "scheduler: num_workers must be > 0";
  }
  if (num_workers > kMaxWorkers) {
    return "scheduler: num_workers exceeds kMaxWorkers (" +
           std::to_string(kMaxWorkers) + ")";
  }
  if (typed_queue_capacity == 0) {
    return "scheduler: typed_queue_capacity must be > 0";
  }
  if (num_spillway > num_workers) {
    return "scheduler: num_spillway exceeds num_workers";
  }
  if (delta <= 1.0) {
    return "scheduler: delta (grouping factor) must be > 1";
  }
  if (mode == PolicyMode::kDarcStatic && static_reserved >= num_workers) {
    return "scheduler: static_reserved must leave at least one worker for "
           "other types (static_reserved < num_workers)";
  }
  if (const std::string error = deadline.Validate(); !error.empty()) {
    return "scheduler: " + error;
  }
  if (deadline.shed && !deadline.enabled() && mode != PolicyMode::kEdf &&
      mode != PolicyMode::kDarcSlack) {
    return "scheduler: deadline.shed without any deadline targets";
  }
  return "";
}

DarcScheduler::DarcScheduler(const SchedulerConfig& config)
    : config_(config),
      profiler_(config.profiler),
      edf_queue_(config.typed_queue_capacity) {
  if (const std::string error = config_.Validate(); !error.empty()) {
    throw std::invalid_argument(error);
  }
  free_.SetRange(0, config_.num_workers);
  free_count_.Store(config_.num_workers);
  all_workers_.SetRange(0, config_.num_workers);
  const uint32_t spill =
      std::min(std::max(config_.num_spillway, 1u), config_.num_workers);
  spillway_.SetRange(config_.num_workers - spill, config_.num_workers);

  // Slot 0 is the UNKNOWN type: low-priority queue served on spillway cores.
  wire_ids_.push_back(kUnknownTypeId);
  names_.push_back("UNKNOWN");
  queues_.emplace_back(config_.typed_queue_capacity);
  seed_means_.push_back(0);
  seed_ratios_.push_back(0);
  deadline_targets_.push_back(0);  // UNKNOWN carries no deadline budget
  deadline_types_.emplace_back();
  profiler_.ResizeTypes(1);
  RebuildPriorityOrder();
}

TypeIndex DarcScheduler::RegisterType(TypeId wire_id, std::string name,
                                      Nanos expected_mean,
                                      double expected_ratio) {
  assert(wire_id != kUnknownTypeId);
  const auto index = static_cast<TypeIndex>(wire_ids_.size());
  wire_ids_.push_back(wire_id);
  names_.push_back(std::move(name));
  queues_.emplace_back(config_.typed_queue_capacity);
  seed_means_.push_back(expected_mean);
  seed_ratios_.push_back(expected_ratio);
  // The budget is resolved once against the *seeded* mean: a deterministic
  // per-type constant (ingress stamping must not drift with the profile).
  deadline_targets_.push_back(
      config_.deadline.BudgetFor(names_.back(), expected_mean));
  deadline_types_.emplace_back();
  profiler_.ResizeTypes(wire_ids_.size());
  if (expected_mean > 0) {
    profiler_.SeedProfile(index, expected_mean, expected_ratio);
  }
  RebuildPriorityOrder();
  return index;
}

TypeIndex DarcScheduler::ResolveType(TypeId wire_id) const {
  // Linear scan: the paper's workloads have ≤ 5 types; registries stay tiny.
  for (size_t i = 1; i < wire_ids_.size(); ++i) {
    if (wire_ids_[i] == wire_id) {
      return static_cast<TypeIndex>(i);
    }
  }
  return kUnknownSlot;
}

void DarcScheduler::ActivateSeededReservation(Nanos now) {
  // The UNKNOWN slot is excluded: ApplyReservation routes it to the spillway.
  std::vector<TypeDemand> demands;
  demands.reserve(names_.size());
  for (size_t i = 1; i < names_.size(); ++i) {
    demands.push_back(TypeDemand{static_cast<TypeIndex>(i),
                                 static_cast<double>(seed_means_[i]),
                                 seed_ratios_[i]});
  }
  if (config_.mode == PolicyMode::kDarcStatic) {
    ApplyReservation(ComputeStaticReservation(demands, config_.num_workers,
                                              config_.static_reserved),
                     now);
  } else {
    ApplyAdaptiveReservation(demands, now);
  }
}

void DarcScheduler::ApplyAdaptiveReservation(
    const std::vector<TypeDemand>& demands, Nanos now) {
  const ReservationConfig rc{config_.num_workers, config_.delta,
                             config_.num_spillway};
  if (config_.mode == PolicyMode::kDarcSlack) {
    ApplyReservation(ComputeSlackReservation(
                         demands, BudgetsFor(demands, deadline_targets_), rc),
                     now);
  } else {
    ApplyReservation(ComputeReservation(demands, rc), now);
  }
}

void DarcScheduler::ResizeWorkers(uint32_t new_count, Nanos now) {
  assert(new_count > 0 && new_count <= kMaxWorkers);
  const uint32_t old_count = config_.num_workers;
  config_.num_workers = new_count;
  if (telemetry_ != nullptr) {
    telemetry_->RecordEvent(now, "scheduler: resized workers " +
                                     std::to_string(old_count) + " -> " +
                                     std::to_string(new_count));
  }

  all_workers_.ClearAll();
  all_workers_.SetRange(0, new_count);
  const uint32_t spill =
      std::min(std::max(config_.num_spillway, 1u), new_count);
  spillway_.ClearAll();
  spillway_.SetRange(new_count - spill, new_count);

  if (new_count > old_count) {
    // Grown workers start idle.
    free_.SetRange(old_count, new_count);
  } else {
    // Retired workers leave the free list now; busy ones simply never return
    // to it (OnCompletion ignores out-of-range workers).
    free_.ClearRange(new_count, old_count);
  }
  free_count_.Store(free_.Count());
  if (time_ledger_ != nullptr) {
    time_ledger_->SetNumWorkers(new_count, now);
  }

  if (!darc_active_.load(std::memory_order_relaxed)) {
    ReclassifyIdleWorkers(now);
    return;
  }
  // Re-derive the reservation for the new pool from the freshest profile.
  std::vector<TypeDemand> demands = profiler_.SnapshotDemands();
  // Strip the UNKNOWN slot; ApplyReservation routes it to the spillway.
  if (!demands.empty()) {
    demands.erase(demands.begin());
    // A freshly-rolled window can be empty: fall back to lifetime means,
    // then seeds, so a resize never degrades every type to the spillway.
    double ratio_total = 0;
    for (auto& d : demands) {
      if (d.mean_service_nanos <= 0) {
        const Nanos lifetime = profiler_.MeanServiceTime(d.type);
        if (lifetime > 0) {
          d.mean_service_nanos = static_cast<double>(lifetime);
        } else if (d.type < seed_means_.size()) {
          d.mean_service_nanos = static_cast<double>(seed_means_[d.type]);
        }
      }
      if (d.ratio <= 0 && d.type < seed_ratios_.size()) {
        d.ratio = seed_ratios_[d.type];
      }
      ratio_total += d.ratio;
    }
    if (ratio_total <= 0) {
      for (auto& d : demands) {
        d.ratio = 1.0;  // no occurrence data at all: split evenly
      }
    }
  }
  if (config_.mode == PolicyMode::kDarcStatic) {
    ApplyReservation(ComputeStaticReservation(demands, new_count,
                                              config_.static_reserved),
                     now);
  } else {
    ApplyAdaptiveReservation(demands, now);
  }
}

Nanos DarcScheduler::ExpectedMeanOf(TypeIndex t) const {
  const Nanos profiled = profiler_.MeanServiceTime(t);
  if (profiled > 0) {
    return profiled;
  }
  return t < seed_means_.size() ? seed_means_[t] : 0;
}

DarcScheduler::EnqueueResult DarcScheduler::TryEnqueue(const Request& request,
                                                       Nanos now) {
  assert(request.type < queues_.size());
  const TypeIndex type = request.type;

  // Admission control (src/sched/admission.h): shed a request whose
  // predicted completion already misses its deadline, before it consumes
  // queue space. The per-type shed counters feed psp_deadline_* telemetry;
  // the engines route kShed into their existing drop paths.
  if (config_.deadline.shed && request.deadline > 0) {
    const uint32_t servers =
        darc_active_.load(std::memory_order_relaxed)
            ? std::max(reserved_workers_of(type), 1u)
            : config_.num_workers;
    const AdmissionDecision decision = PredictAdmission(
        now, request.deadline, queue_depth(type), ExpectedMeanOf(type),
        servers,
        static_cast<int64_t>(config_.deadline.shed_safety * 1000.0));
    if (!decision.admit) {
      counters_.dropped.Add(1);
      deadline_counters_.shed.Add(1);
      const uint64_t sheds = deadline_types_[type].shed.Add(1);
      if (telemetry_ != nullptr && (sheds & (sheds - 1)) == 0) {
        telemetry_->RecordEvent(
            now, "scheduler: deadline shed #" + std::to_string(sheds) +
                     " type " + names_[type] + " (predicted completion " +
                     std::to_string(decision.predicted_completion) +
                     " > deadline " + std::to_string(request.deadline) + ")");
      }
      return EnqueueResult::kShed;
    }
  }

  bool pushed;
  if (config_.mode == PolicyMode::kEdf) {
    pushed = edf_queue_.Push(request);
    if (pushed) {
      deadline_types_[type].edf_depth.Add(1);
    } else {
      deadline_types_[type].queue_drops.Add(1);
    }
  } else {
    pushed = queues_[type].Push(request);
  }
  if (!pushed) {
    counters_.dropped.Add(1);
    if (telemetry_ != nullptr) {
      // Rate-limited (power-of-two drop counts) so a sustained overload
      // doesn't flood the bounded event buffer.
      const uint64_t drops = queue_drops(type);
      if ((drops & (drops - 1)) == 0) {
        telemetry_->RecordEvent(
            now, "scheduler: queue drop #" + std::to_string(drops) +
                     " type " + names_[type] + " (depth " +
                     std::to_string(queue_depth(type)) + ")");
      }
    }
    return EnqueueResult::kQueueFull;
  }
  counters_.enqueued.Add(1);
  if (request.deadline > 0) {
    deadline_counters_.stamped.Add(1);
  }
  return EnqueueResult::kOk;
}

DarcScheduler::Assignment DarcScheduler::MakeAssignment(TypeIndex type,
                                                        WorkerId worker,
                                                        bool stolen,
                                                        Nanos now) {
  Assignment a;
  // Every dispatch path checks the queue is non-empty before getting here; a
  // false Pop would hand out a default-constructed request.
  const bool popped = queues_[type].Pop(&a.request);
  assert(popped);
  (void)popped;
  a.worker = worker;
  a.stolen = stolen;
  FinishAssignment(&a, type, now);
  return a;
}

void DarcScheduler::FinishAssignment(Assignment* a, TypeIndex type,
                                     Nanos now) {
  MarkWorkerBusy(a->worker);
  if (time_ledger_ != nullptr) {
    time_ledger_->Transition(
        a->worker, a->stolen ? WorkerTimeState::kSteal : WorkerTimeState::kBusy,
        type, now);
  }
  counters_.dispatched.Add(1);
  if (a->stolen) {
    counters_.stolen_dispatches.Add(1);
  }
  profiler_.ObserveQueueingDelay(type, now - a->request.arrival);
  if (a->request.deadline > 0) {
    // Dispatch-time slack: positive = time to spare when service starts,
    // negative = already late. Exported as a sum/count gauge pair.
    TypeDeadlineStats& stats = deadline_types_[type];
    stats.slack_sum_nanos.Add(static_cast<int64_t>(a->request.deadline - now));
    stats.slack_samples.Add(1);
  }
}

std::optional<DarcScheduler::Assignment> DarcScheduler::DispatchEdf(
    Nanos now) {
  // Earliest deadline first, globally across types: one O(1) bucketed-queue
  // pop plus the lowest free worker. Ties (same bucket) drain in FIFO push
  // order — the deterministic tie-break the replay goldens rely on.
  Assignment a;
  if (!edf_queue_.PopEarliest(&a.request)) {
    return std::nullopt;
  }
  a.worker = free_.First();
  a.stolen = false;
  deadline_types_[a.request.type].edf_depth.Sub(1);
  FinishAssignment(&a, a.request.type, now);
  return a;
}

std::optional<DarcScheduler::Assignment> DarcScheduler::NextAssignment(
    Nanos now) {
  if (free_.Empty()) {
    return std::nullopt;
  }
  switch (config_.mode) {
    case PolicyMode::kCFcfs:
      return DispatchFcfs(now);
    case PolicyMode::kFixedPriority:
      return DispatchFixedPriority(now);
    case PolicyMode::kEdf:
      return DispatchEdf(now);
    case PolicyMode::kDarc:
    case PolicyMode::kDarcStatic:
    case PolicyMode::kDarcSlack:
      if (!darc_active_.load(std::memory_order_relaxed)) {
        // Bootstrap windows run c-FCFS until the first profile lands (§3).
        return DispatchFcfs(now);
      }
      return DispatchDarc(now);
  }
  return std::nullopt;
}

std::optional<DarcScheduler::Assignment> DarcScheduler::DispatchDarc(
    Nanos now) {
  // Algorithm 1: iterate typed queues sorted by ascending mean service time;
  // for each non-empty queue, search the group's reserved workers first, then
  // its stealable workers. Each group is one queue (the paper's single-queue
  // abstraction, §3): when several types of the *same* group have waiting
  // requests, the globally oldest head goes first. Groups are still visited
  // shortest-first.
  uint32_t pending_group = UINT32_MAX;
  TypeIndex pending_type = kInvalidTypeIndex;
  WorkerId pending_worker = kInvalidWorker;
  bool pending_stolen = false;
  Nanos pending_arrival = 0;

  for (const TypeIndex type : priority_order_) {
    if (queues_[type].Empty()) {
      continue;
    }
    const uint32_t gi = type < reservation_.group_of_type.size()
                            ? reservation_.group_of_type[type]
                            : 0;
    if (gi >= reservation_.groups.size()) {
      continue;
    }
    // Crossed into a later group with a dispatchable candidate pending from
    // an earlier one: the earlier group wins.
    if (pending_type != kInvalidTypeIndex && gi != pending_group) {
      break;
    }
    const ReservedGroup& group = reservation_.groups[gi];
    WorkerId w = free_.FirstCommon(group.reserved);
    bool stolen = false;
    if (w == kInvalidWorker && config_.enable_stealing) {
      w = free_.FirstCommon(group.stealable);
      stolen = w != kInvalidWorker;
    }
    if (w == kInvalidWorker) {
      continue;
    }
    const Nanos arrival = queues_[type].Front().arrival;
    if (pending_type == kInvalidTypeIndex || arrival < pending_arrival) {
      pending_group = gi;
      pending_type = type;
      pending_worker = w;
      pending_stolen = stolen;
      pending_arrival = arrival;
    }
  }
  if (pending_type != kInvalidTypeIndex) {
    return MakeAssignment(pending_type, pending_worker, pending_stolen, now);
  }
  return std::nullopt;
}

std::optional<DarcScheduler::Assignment> DarcScheduler::DispatchFcfs(
    Nanos now) {
  // Centralized FCFS: dispatch the globally oldest queued request to any free
  // worker (typed queues are each FIFO, so the oldest overall is some head).
  TypeIndex best = kInvalidTypeIndex;
  Nanos best_arrival = 0;
  for (TypeIndex t = 0; t < queues_.size(); ++t) {
    if (queues_[t].Empty()) {
      continue;
    }
    const Nanos arr = queues_[t].Front().arrival;
    if (best == kInvalidTypeIndex || arr < best_arrival) {
      best = t;
      best_arrival = arr;
    }
  }
  if (best == kInvalidTypeIndex) {
    return std::nullopt;
  }
  const WorkerId w = free_.First();
  return MakeAssignment(best, w, /*stolen=*/false, now);
}

std::optional<DarcScheduler::Assignment> DarcScheduler::DispatchFixedPriority(
    Nanos now) {
  for (const TypeIndex type : priority_order_) {
    if (queues_[type].Empty()) {
      continue;
    }
    const WorkerId w = free_.First();
    return MakeAssignment(type, w, /*stolen=*/false, now);
  }
  return std::nullopt;
}

void DarcScheduler::OnCompletion(WorkerId worker, TypeIndex type,
                                 Nanos service_time, Nanos now,
                                 Nanos deadline) {
  assert(worker < kMaxWorkers);
  if (worker < config_.num_workers && !free_.Test(worker)) {
    MarkWorkerFree(worker);
    if (time_ledger_ != nullptr) {
      time_ledger_->Transition(worker, IdleStateOf(worker),
                               WorkerTimeLedger::kUntyped, now);
    }
  }
  // Workers at or beyond num_workers were retired by ResizeWorkers while
  // running; their completion still feeds the profiler but they never
  // re-enter the free list.
  counters_.completed.Add(1);
  profiler_.RecordCompletion(type, service_time);
  if (deadline > 0) {
    if (now > deadline) {
      deadline_counters_.missed.Add(1);
      deadline_types_[type].missed.Add(1);
    } else {
      deadline_counters_.met.Add(1);
    }
  }

  if (config_.mode != PolicyMode::kDarc &&
      config_.mode != PolicyMode::kDarcStatic &&
      config_.mode != PolicyMode::kDarcSlack) {
    return;
  }
  if (!darc_active_.load(std::memory_order_relaxed)) {
    // Bootstrap: transition out of c-FCFS once the first window has enough
    // samples.
    if (profiler_.window_samples() >= config_.profiler.min_window_samples) {
      if (auto demands = profiler_.CheckUpdate(/*force=*/true)) {
        NoteWindowRollover(now);
        if (telemetry_ != nullptr) {
          telemetry_->RecordEvent(
              now, "scheduler: bootstrap complete, leaving c-FCFS");
        }
        if (config_.mode == PolicyMode::kDarcStatic) {
          ApplyReservation(
              ComputeStaticReservation(*demands, config_.num_workers,
                                       config_.static_reserved),
              now);
        } else {
          ApplyAdaptiveReservation(*demands, now);
        }
      }
    }
    return;
  }
  if (config_.mode == PolicyMode::kDarcStatic) {
    return;  // static reservations never adapt
  }
  if (auto demands = profiler_.CheckUpdate()) {
    NoteWindowRollover(now);
    ApplyAdaptiveReservation(*demands, now);
  }
}

void DarcScheduler::NoteWindowRollover(Nanos now) {
  if (telemetry_ == nullptr) {
    return;
  }
  telemetry_->RecordEvent(
      now, "profiler: window #" +
               std::to_string(profiler_.windows_completed()) +
               " rolled, recomputing reservation");
}

void DarcScheduler::ExportTelemetry(TelemetrySnapshot* out) const {
  out->counters["scheduler.enqueued"] += counters_.enqueued.Load();
  out->counters["scheduler.dropped"] += counters_.dropped.Load();
  out->counters["scheduler.dispatched"] += counters_.dispatched.Load();
  out->counters["scheduler.completed"] += counters_.completed.Load();
  out->counters["scheduler.reservation_updates"] +=
      counters_.reservation_updates.Load();
  out->counters["scheduler.stolen_dispatches"] +=
      counters_.stolen_dispatches.Load();
  out->gauges["scheduler.idle_workers"] = idle_workers();
  out->gauges["scheduler.darc_active"] =
      darc_active_.load(std::memory_order_relaxed) ? 1 : 0;
  for (TypeIndex t = 0; t < names_.size(); ++t) {
    const std::string prefix = "scheduler.type." + names_[t];
    out->gauges[prefix + ".queue_depth"] =
        static_cast<int64_t>(queue_depth(t));
    out->counters[prefix + ".queue_drops"] += queue_drops(t);
    out->gauges[prefix + ".reserved_workers"] = reserved_workers_of(t);
    out->type_names.emplace(t, names_[t]);
  }

  // Deadline tier: exported only when the tier is in play, so engines
  // without deadlines keep their exact pre-existing telemetry surface.
  // Per-type keys fold to psp_deadline_type_*{type="<name>"} in /metrics;
  // the slack sum can be negative (dispatches past the deadline).
  const bool deadline_active = config_.deadline.enabled() ||
                               config_.mode == PolicyMode::kEdf ||
                               config_.mode == PolicyMode::kDarcSlack;
  if (deadline_active) {
    out->counters["deadline.stamped"] += deadline_stamped();
    out->counters["deadline.shed"] += deadline_shed();
    out->counters["deadline.missed"] += deadline_missed();
    out->counters["deadline.met"] += deadline_met();
    for (TypeIndex t = 0; t < names_.size(); ++t) {
      const TypeDeadlineStats& stats = deadline_types_[t];
      const std::string prefix = "deadline.type." + names_[t];
      out->counters[prefix + ".missed"] += stats.missed.Load();
      out->counters[prefix + ".shed"] += stats.shed.Load();
      out->gauges[prefix + ".budget_ns"] = deadline_targets_[t];
      out->gauges[prefix + ".slack_ns_sum"] = stats.slack_sum_nanos.Load();
      out->gauges[prefix + ".slack_ns_count"] =
          static_cast<int64_t>(stats.slack_samples.Load());
    }
  }
}

void DarcScheduler::ApplyReservation(Reservation reservation, Nanos now) {
  // Route the UNKNOWN slot (and any type the reservation does not cover) to
  // the spillway group: find or synthesise a group covering spillway cores.
  reservation.group_of_type.resize(names_.size(), 0);
  uint32_t spill_group = UINT32_MAX;
  for (size_t gi = 0; gi < reservation.groups.size(); ++gi) {
    for (const TypeIndex t : reservation.groups[gi].members) {
      if (t == kUnknownSlot) {
        spill_group = static_cast<uint32_t>(gi);
      }
    }
  }
  if (spill_group == UINT32_MAX) {
    ReservedGroup g;
    g.members.push_back(kUnknownSlot);
    g.reserved = spillway_;
    g.reserved_count = g.reserved.Count();
    g.uses_spillway = true;
    reservation.groups.push_back(std::move(g));
    spill_group = static_cast<uint32_t>(reservation.groups.size() - 1);
  }
  reservation.group_of_type[kUnknownSlot] = spill_group;

  reservation_ = std::move(reservation);
  darc_active_.store(true, std::memory_order_relaxed);
  const uint64_t update_seq = counters_.reservation_updates.Add(1);

  // Per-type reserved-group core counts from the freshly applied reservation.
  std::vector<uint32_t> reserved_now(names_.size(), 0);
  for (TypeIndex t = 0; t < names_.size(); ++t) {
    const uint32_t gi = reservation_.group_of_type[t];
    if (gi < reservation_.groups.size()) {
      reserved_now[t] = reservation_.groups[gi].reserved_count;
    }
  }

  if (telemetry_ != nullptr) {
    std::string what =
        "scheduler: reservation update #" + std::to_string(update_seq);
    for (size_t gi = 0; gi < reservation_.groups.size(); ++gi) {
      const ReservedGroup& group = reservation_.groups[gi];
      what += gi == 0 ? " [" : " | ";
      for (size_t m = 0; m < group.members.size(); ++m) {
        if (m > 0) {
          what += ',';
        }
        what += names_[group.members[m]];
      }
      what += ':';
      what += std::to_string(group.reserved_count);
    }
    what += "]";
    telemetry_->RecordEvent(now, std::move(what));

    // Per-type transition events (only for types whose share changed) make
    // reservation shifts grep-able in the event log without parsing shares.
    for (TypeIndex t = 1; t < names_.size(); ++t) {
      const uint32_t before =
          t < published_reserved_.size() ? published_reserved_[t] : 0;
      if (before != reserved_now[t]) {
        std::string msg = "scheduler: type ";
        msg += names_[t];
        msg += " reserved cores ";
        msg += std::to_string(before);
        msg += " -> ";
        msg += std::to_string(reserved_now[t]);
        telemetry_->RecordEvent(now, std::move(msg));
      }
    }

    // Structured, machine-readable counterpart (drives the time-series
    // recorder's reservation track and the trace exporter's counter tracks).
    ReservationUpdate update;
    update.at = now;
    update.seq = update_seq;
    update.window = profiler_.windows_completed();
    update.shares.reserve(names_.size());
    for (TypeIndex t = 0; t < names_.size(); ++t) {
      ReservationShare share;
      share.type = t;
      share.name = names_[t];
      share.reserved_workers = reserved_now[t];
      update.shares.push_back(std::move(share));
    }
    telemetry_->RecordReservationUpdate(std::move(update));
  }

  {
    std::lock_guard<std::mutex> lock(published_mutex_);
    published_reserved_ = std::move(reserved_now);
  }
  ReclassifyIdleWorkers(now);
  RebuildPriorityOrder();
}

void DarcScheduler::ReclassifyIdleWorkers(Nanos now) {
  reserved_union_.ClearAll();
  for (const ReservedGroup& group : reservation_.groups) {
    reserved_union_ = reserved_union_.Union(group.reserved);
  }
  reserved_union_ = reserved_union_.Intersect(all_workers_);
  if (time_ledger_ == nullptr) {
    return;
  }
  for (WorkerId w = 0; w < config_.num_workers; ++w) {
    if (free_.Test(w)) {
      time_ledger_->Transition(w, IdleStateOf(w), WorkerTimeLedger::kUntyped,
                               now);
    }
  }
}

void DarcScheduler::RebuildPriorityOrder() {
  priority_order_.clear();
  for (TypeIndex t = 1; t < names_.size(); ++t) {
    priority_order_.push_back(t);
  }
  if (config_.mode == PolicyMode::kDarcSlack) {
    // Tightest deadline budget first: the group whose requests have the
    // least room gets the scan's first shot at a free worker. Budget-less
    // types sort after budgeted ones, by mean as usual.
    std::sort(priority_order_.begin(), priority_order_.end(),
              [this](TypeIndex a, TypeIndex b) {
                const Nanos ba = deadline_targets_[a];
                const Nanos bb = deadline_targets_[b];
                if ((ba > 0) != (bb > 0)) {
                  return ba > 0;  // budgeted types first
                }
                if (ba != bb) {
                  return ba < bb;
                }
                return a < b;
              });
    priority_order_.push_back(kUnknownSlot);
    return;
  }
  std::sort(priority_order_.begin(), priority_order_.end(),
            [this](TypeIndex a, TypeIndex b) {
              Nanos ma = profiler_.MeanServiceTime(a);
              Nanos mb = profiler_.MeanServiceTime(b);
              if (ma == 0) {
                ma = seed_means_[a];
              }
              if (mb == 0) {
                mb = seed_means_[b];
              }
              if (ma != mb) {
                return ma < mb;
              }
              return a < b;
            });
  // UNKNOWN requests are "placed in a low priority queue" (§4.2): last.
  priority_order_.push_back(kUnknownSlot);
}

uint32_t DarcScheduler::reserved_workers_of(TypeIndex t) const {
  if (!darc_active_.load(std::memory_order_relaxed)) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(published_mutex_);
  if (t >= published_reserved_.size()) {
    return 0;
  }
  return published_reserved_[t];
}

}  // namespace psp
