// The DARC scheduler: typed queues + Algorithm 1 dispatch + Algorithm 2
// reservations + profiling windows, behind an engine-agnostic interface.
//
// Both execution engines drive it the same way:
//   * Enqueue(request, now)          when a classified request arrives,
//   * NextAssignment(now) in a loop  after every arrival/completion event,
//   * OnCompletion(worker, ...)      when a worker signals completion.
//
// Besides DARC proper, the scheduler implements the in-Perséphone policy
// variants the paper evaluates: c-FCFS (Fig 3), Fixed Priority and
// "DARC-static" with a manually chosen reservation (Fig 4).
#ifndef PSP_SRC_CORE_SCHEDULER_H_
#define PSP_SRC_CORE_SCHEDULER_H_

#include <atomic>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/common/single_writer.h"
#include "src/core/profiler.h"
#include "src/core/request.h"
#include "src/core/reservation.h"
#include "src/core/typed_queue.h"
#include "src/core/worker_set.h"
#include "src/sched/deadline.h"
#include "src/sched/edf_queue.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/timeledger.h"

namespace psp {

enum class PolicyMode {
  kDarc,         // full DARC: profiling windows + Algorithm 2 reservations
  kDarcStatic,   // manual reservation for the shortest type (§5.3)
  kCFcfs,        // centralized FCFS within the Perséphone pipeline
  kFixedPriority,// shortest-mean-first priority, no reservations
  kEdf,          // earliest-deadline-first over one bucketed EDF queue
  kDarcSlack     // DARC with deadline-risk-weighted reservations
};

struct SchedulerConfig {
  PolicyMode mode = PolicyMode::kDarc;
  uint32_t num_workers = 14;
  double delta = 2.0;            // δ grouping factor
  uint32_t num_spillway = 1;
  uint32_t static_reserved = 0;  // kDarcStatic: cores reserved for shorts
  size_t typed_queue_capacity = 4096;
  // Ablation knob: disable cycle stealing (short groups may then run only on
  // their reserved cores — pure static partitioning with DARC sizing).
  bool enable_stealing = true;
  ProfilerConfig profiler;
  // Deadline tier (src/sched/): per-type budgets resolved at RegisterType,
  // exposed through DeadlineTargetOf for ingress stamping, consumed by the
  // kEdf dispatch order, kDarcSlack reservations and (when deadline.shed)
  // the admission-control predicate in TryEnqueue.
  DeadlineConfig deadline;

  // Empty string = valid; otherwise a description of the misconfiguration.
  // DarcScheduler's constructor calls this and throws std::invalid_argument
  // instead of silently misbehaving.
  std::string Validate() const;
};

class DarcScheduler {
 public:
  explicit DarcScheduler(const SchedulerConfig& config);

  // --- Type registry -------------------------------------------------------

  // Registers an application request type (wire id as produced by the
  // classifier). Optionally seeds its expected mean service time and
  // occurrence ratio so reservations can be computed before profiling data
  // exists. Returns the dense internal index.
  TypeIndex RegisterType(TypeId wire_id, std::string name,
                         Nanos expected_mean = 0, double expected_ratio = 0);

  // Maps a classifier result to the internal index; unrecognised wire ids
  // resolve to the UNKNOWN slot (low-priority, spillway-served).
  TypeIndex ResolveType(TypeId wire_id) const;
  TypeIndex unknown_type() const { return kUnknownSlot; }
  size_t num_types() const { return names_.size(); }
  const std::string& type_name(TypeIndex t) const { return names_[t]; }

  // Applies the seeded profiles immediately (skips the c-FCFS bootstrap
  // window). Requires every registered type to carry seed hints. `now`
  // timestamps the resulting reservation-update event.
  void ActivateSeededReservation(Nanos now = 0);

  // Datacenter core-allocator hook (§6): grows or shrinks the worker pool at
  // runtime and recomputes the reservation for the new size. Shrinking
  // retires the highest-numbered workers: any request already running there
  // completes normally, after which the worker is never assigned again.
  // `now` timestamps the resize + reservation-update events.
  void ResizeWorkers(uint32_t new_count, Nanos now = 0);

  // The type's relative deadline budget (0 = none), resolved from
  // SchedulerConfig::deadline at registration against the seeded mean.
  // Engines stamp `Request::deadline = arrival + budget` at ingress when the
  // wire carried no explicit budget.
  Nanos DeadlineTargetOf(TypeIndex t) const {
    return t < deadline_targets_.size() ? deadline_targets_[t] : 0;
  }

  // --- Data path -----------------------------------------------------------

  enum class EnqueueResult {
    kOk,         // admitted
    kQueueFull,  // flow-control drop (queue at capacity)
    kShed        // admission control predicted a deadline miss
  };

  // Enqueues into the request's typed queue (or the EDF queue under kEdf),
  // running the admission-control shed predicate first when the deadline
  // tier has shedding enabled.
  EnqueueResult TryEnqueue(const Request& request, Nanos now);

  // Legacy boolean surface; false = not admitted (either drop reason).
  bool Enqueue(const Request& request, Nanos now) {
    return TryEnqueue(request, now) == EnqueueResult::kOk;
  }

  struct Assignment {
    Request request;
    WorkerId worker = kInvalidWorker;
    bool stolen = false;  // dispatched onto a stealable (not reserved) worker
  };

  // One step of Algorithm 1: picks the highest-priority dispatchable request
  // and a worker for it. Call in a loop until nullopt after every event.
  std::optional<Assignment> NextAssignment(Nanos now);

  // Worker signalled completion of a request of type `type` that occupied the
  // CPU for `service_time`. `deadline` is the completed request's absolute
  // deadline (0 = none) and feeds the miss/met accounting — the engines
  // carry it through their completion signals.
  void OnCompletion(WorkerId worker, TypeIndex type, Nanos service_time,
                    Nanos now, Nanos deadline = 0);

  // --- Telemetry / introspection -------------------------------------------

  // Hooks the scheduler up to an engine's telemetry: reservation changes,
  // worker-pool resizes, profiler window rollovers and queue drops are
  // recorded as timestamped events, and each applied reservation is also
  // published as a structured ReservationUpdate (machine-readable shares).
  // Counters are kept internally (always on) and published through
  // ExportTelemetry.
  void AttachTelemetry(Telemetry* telemetry) { telemetry_ = telemetry; }

  // Hooks the scheduler up to the engine's worker time-provenance ledger
  // (not owned; must outlive the scheduler's data path). The scheduler
  // stamps the worker-slot state machine — busy/steal on dispatch,
  // reserved_idle/free_idle on completion and at every reservation change —
  // which is what makes the ledger identical across both substrates.
  void AttachTimeLedger(WorkerTimeLedger* ledger) { time_ledger_ = ledger; }

  // Publishes the scheduler's counters ("scheduler.*") and per-type queue
  // gauges into `out`. Safe to call from any thread while the data path runs.
  void ExportTelemetry(TelemetrySnapshot* out) const;

  bool darc_active() const {
    return darc_active_.load(std::memory_order_relaxed);
  }
  const Reservation& reservation() const { return reservation_; }
  const Profiler& profiler() const { return profiler_; }
  // Applied reservation count; cheap enough to poll (one relaxed load).
  uint64_t reservation_updates() const {
    return counters_.reservation_updates.Load();
  }
  uint64_t completed() const { return counters_.completed.Load(); }
  uint64_t dropped() const { return counters_.dropped.Load(); }
  uint64_t stolen_dispatches() const {
    return counters_.stolen_dispatches.Load();
  }
  uint64_t queue_drops(TypeIndex t) const {
    return queues_[t].drops() + deadline_types_[t].queue_drops.Load();
  }
  size_t queue_depth(TypeIndex t) const {
    if (config_.mode == PolicyMode::kEdf) {
      return deadline_types_[t].edf_depth.Load();
    }
    return queues_[t].Size();
  }
  // --- Deadline tier introspection (all one relaxed load) ------------------
  uint64_t deadline_stamped() const {
    return deadline_counters_.stamped.Load();
  }
  uint64_t deadline_shed() const { return deadline_counters_.shed.Load(); }
  uint64_t deadline_missed() const { return deadline_counters_.missed.Load(); }
  uint64_t deadline_met() const { return deadline_counters_.met.Load(); }
  uint64_t deadline_missed_of(TypeIndex t) const {
    return deadline_types_[t].missed.Load();
  }
  uint64_t deadline_shed_of(TypeIndex t) const {
    return deadline_types_[t].shed.Load();
  }
  // Reserved-core count of `t`'s group, from a copy published under a mutex
  // at every reservation change — safe to call from any thread while the
  // data path runs (the live Reservation vectors are dispatcher-private).
  uint32_t reserved_workers_of(TypeIndex t) const;
  bool AllWorkersIdle() const { return idle_workers() == config_.num_workers; }
  uint32_t idle_workers() const { return free_count_.Load(); }

 private:
  static constexpr TypeIndex kUnknownSlot = 0;

  void ApplyReservation(Reservation reservation, Nanos now);
  void NoteWindowRollover(Nanos now);
  // Idle provenance: a free worker inside some group's reserved set while
  // DARC is active is idling "on purpose" (the paper's ideal idling).
  WorkerTimeState IdleStateOf(WorkerId worker) const {
    return darc_active_.load(std::memory_order_relaxed) &&
                   reserved_union_.Test(worker)
               ? WorkerTimeState::kReservedIdle
               : WorkerTimeState::kFreeIdle;
  }
  // Recomputes reserved_union_ from the applied reservation and re-stamps
  // every currently-free worker's idle class in the ledger.
  void ReclassifyIdleWorkers(Nanos now);
  void RebuildPriorityOrder();
  std::optional<Assignment> DispatchDarc(Nanos now);
  std::optional<Assignment> DispatchFcfs(Nanos now);
  std::optional<Assignment> DispatchFixedPriority(Nanos now);
  std::optional<Assignment> DispatchEdf(Nanos now);
  Assignment MakeAssignment(TypeIndex type, WorkerId worker, bool stolen,
                            Nanos now);
  // Shared dispatch epilogue: worker/ledger/counter bookkeeping plus the
  // dispatch-time slack sample for deadlined requests.
  void FinishAssignment(Assignment* a, TypeIndex type, Nanos now);
  // Expected mean for the admission model: freshest profile, seed fallback.
  Nanos ExpectedMeanOf(TypeIndex t) const;
  // Recomputes the full-DARC / slack-DARC reservation from `demands`
  // (kDarcSlack routes through ComputeSlackReservation).
  void ApplyAdaptiveReservation(const std::vector<TypeDemand>& demands,
                                Nanos now);

  // The only two mutation paths for the free-worker bookkeeping: bitset and
  // mirror counter move together.
  void MarkWorkerBusy(WorkerId worker) {
    free_.Clear(worker);
    free_count_.Sub(1);
  }
  void MarkWorkerFree(WorkerId worker) {
    free_.Set(worker);
    free_count_.Add(1);
  }

  // Every counter below has one writer, the scheduling thread (the
  // dispatcher in the runtime, the event loop in the DES), so each update
  // is a relaxed load plus store (src/common/single_writer.h); other
  // threads only read them, for telemetry snapshots taken mid-run.
  struct Counters {
    SingleWriterCounter<uint64_t> enqueued;
    SingleWriterCounter<uint64_t> dropped;
    SingleWriterCounter<uint64_t> dispatched;
    SingleWriterCounter<uint64_t> completed;
    SingleWriterCounter<uint64_t> reservation_updates;
    SingleWriterCounter<uint64_t> stolen_dispatches;
  };

  // Deadline-tier counters; writer: the scheduling thread.
  struct DeadlineCounters {
    SingleWriterCounter<uint64_t> stamped;  // admitted, carrying a deadline
    SingleWriterCounter<uint64_t> shed;     // admission-control drops
    SingleWriterCounter<uint64_t> missed;   // completed after their deadline
    SingleWriterCounter<uint64_t> met;      // completed by their deadline
  };

  // Per-type deadline-tier state; writer: the scheduling thread. Lives in a
  // deque (types register dynamically and the counters are immovable).
  // edf_depth/queue_drops stand in for the typed queues' own gauges under
  // kEdf, where all requests share one EDF queue; slack is sampled at
  // dispatch (deadline - now) and exported as the
  // deadline.type.<name>.slack_ns_{sum,count} gauges.
  struct TypeDeadlineStats {
    SingleWriterCounter<uint64_t> missed;
    SingleWriterCounter<uint64_t> shed;
    SingleWriterCounter<int64_t> slack_sum_nanos;
    SingleWriterCounter<uint64_t> slack_samples;
    SingleWriterCounter<uint64_t> edf_depth;
    SingleWriterCounter<uint64_t> queue_drops;  // EDF-queue-full drops
  };

  SchedulerConfig config_;
  Profiler profiler_;
  Telemetry* telemetry_ = nullptr;  // optional, not owned
  WorkerTimeLedger* time_ledger_ = nullptr;  // optional, not owned

  std::vector<TypeId> wire_ids_;       // TypeIndex -> wire id
  std::vector<std::string> names_;
  std::vector<TypedQueue> queues_;     // TypeIndex -> typed queue
  std::vector<Nanos> seed_means_;
  std::vector<double> seed_ratios_;
  // TypeIndex -> relative deadline budget (0 = none), resolved from
  // config_.deadline at registration.
  std::vector<Nanos> deadline_targets_;
  // Single cross-type EDF queue (kEdf); idle otherwise.
  EdfQueue edf_queue_;
  DeadlineCounters deadline_counters_;
  std::deque<TypeDeadlineStats> deadline_types_;  // TypeIndex-parallel

  // Types sorted by ascending mean service time (UNKNOWN last).
  std::vector<TypeIndex> priority_order_;

  Reservation reservation_;
  // false while bootstrapping in c-FCFS; relaxed-atomic so introspection can
  // read it while the data path runs.
  std::atomic<bool> darc_active_{false};
  WorkerSet free_;
  WorkerSet all_workers_;
  WorkerSet spillway_;
  // Union of every reserved group's worker set under the applied
  // reservation; drives the reserved_idle vs free_idle ledger split.
  WorkerSet reserved_union_;
  // Mirror of free_.Count(), maintained at every Set/Clear site so
  // idle_workers() is one relaxed load instead of a racy bitset scan.
  // Writer: the scheduling thread.
  SingleWriterCounter<uint32_t> free_count_;
  Counters counters_;

  // Cross-thread introspection copy of the applied reservation: per-type
  // reserved-group core counts, rewritten under the mutex by
  // ApplyReservation (cold path) and read by reserved_workers_of.
  mutable std::mutex published_mutex_;
  std::vector<uint32_t> published_reserved_;
};

}  // namespace psp

#endif  // PSP_SRC_CORE_SCHEDULER_H_
