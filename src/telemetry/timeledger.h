// Worker time-provenance ledger: decomposes each worker's wall time into
// exhaustive, mutually exclusive states so the paper's central tradeoff —
// deliberately idle reserved cores vs short-request tail latency — is
// directly observable instead of hidden behind a binary busy flag.
//
// States (see docs/OBSERVABILITY.md "Time provenance & profiling"):
//   busy{type=T}       running a request of type T
//   steal              running a request on a stolen (non-reserved) core
//   reserved_idle      held idle by a DARC reservation with no eligible work
//                      — the paper's "ideal idling"
//   free_idle          idle and unreserved (starved, or DARC inactive)
//   poll_spin          burning CPU polling with nothing to do (dispatcher)
//   dispatch_overhead  dispatch/completion bookkeeping (dispatcher)
//
// One ledger instance serves both substrates. In the threaded runtime every
// per-slot field is a relaxed atomic with a single writer (the dispatcher
// thread drives worker-slot transitions; the dispatcher's own pseudo-slot is
// written only by itself), so concurrent snapshot reads are race-free under
// TSan; cross-field skew is bounded by one in-flight span. In the simulator
// the single thread and virtual clock make totals bit-deterministic per seed.
#ifndef PSP_SRC_TELEMETRY_TIMELEDGER_H_
#define PSP_SRC_TELEMETRY_TIMELEDGER_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/single_writer.h"
#include "src/common/time.h"

namespace psp {

enum class WorkerTimeState : uint8_t {
  kBusy = 0,
  kSteal = 1,
  kReservedIdle = 2,
  kFreeIdle = 3,
  kPollSpin = 4,
  kDispatchOverhead = 5,
};

inline constexpr size_t kNumWorkerTimeStates = 6;

const char* WorkerTimeStateName(WorkerTimeState state);

// One slot's totals at a snapshot instant. busy_type_ns splits the busy +
// steal time by request type (names resolved by the snapshot assembler); any
// unattributed remainder is reported under "untyped" by the exporters.
struct WorkerTimeRecord {
  uint32_t slot = 0;
  std::string role;  // "worker" or "dispatcher"
  std::array<uint64_t, kNumWorkerTimeStates> state_ns{};
  std::vector<std::pair<std::string, uint64_t>> busy_type_ns;

  uint64_t WallNs() const {
    uint64_t sum = 0;
    for (const uint64_t v : state_ns) {
      sum += v;
    }
    return sum;
  }
  uint64_t BusyNs() const {
    return state_ns[static_cast<size_t>(WorkerTimeState::kBusy)] +
           state_ns[static_cast<size_t>(WorkerTimeState::kSteal)];
  }
  bool operator==(const WorkerTimeRecord&) const = default;
};

// Interval occupancy from ledger totals. Over worker slots [0, workers) it
// takes each slot's per-state delta since `prev` (the slot's totals at the
// previous interval close, updated in place and grown as needed) and writes
// each worker's busy+steal permille of its interval wall time to
// `busy_permille` and the per-state permille of the summed worker wall time
// to `state_permille`. Shares of slots without wall time read 0.
void IntervalOccupancy(
    const std::vector<WorkerTimeRecord>& totals, size_t workers,
    std::vector<std::array<uint64_t, kNumWorkerTimeStates>>* prev,
    std::vector<int64_t>* busy_permille, std::vector<int64_t>* state_permille);

class WorkerTimeLedger {
 public:
  // Per-slot typed-busy resolution is capped: types registered past this
  // many dense indices still count as busy, just under "untyped".
  static constexpr uint32_t kMaxLedgerTypes = 64;
  // Sentinel "no request type" for non-busy transitions.
  static constexpr uint32_t kUntyped = ~uint32_t{0};

  // Exported id of the dispatcher pseudo-slot: one past the largest worker
  // id (kMaxWorkers in src/core/worker_set.h), whatever the ledger's size,
  // so exporters label it alike for every worker count.
  static constexpr uint32_t kDispatcherSlot = 256;

  // Storage for worker slots [0, num_workers) (at most kDispatcherSlot)
  // plus the dispatcher pseudo-slot, allocated here so Open never publishes
  // a pointer to a concurrent reader.
  explicit WorkerTimeLedger(uint32_t num_workers);
  ~WorkerTimeLedger();
  WorkerTimeLedger(const WorkerTimeLedger&) = delete;
  WorkerTimeLedger& operator=(const WorkerTimeLedger&) = delete;

  // Opens every worker slot plus the dispatcher pseudo-slot, all starting in
  // free_idle at `now`. Idempotent per instance lifetime.
  void Open(Nanos now);

  uint32_t num_workers() const {
    return active_workers_.load(std::memory_order_relaxed);
  }

  // Grows/shrinks the active worker range within the constructed worker
  // count; newly active slots open in free_idle at `now`.
  void SetNumWorkers(uint32_t num_workers, Nanos now);

  // Closes the slot's current span (charging it to the current state, and to
  // the current type when busy/stealing), then enters `state`. `type` is a
  // dense TypeIndex for kBusy/kSteal, kUntyped otherwise.
  void Transition(uint32_t slot, WorkerTimeState state, uint32_t type,
                  Nanos now);

  // Charges `span` directly to `state` without moving the span cursor — the
  // simulator's dispatcher serial resource uses this for its fixed
  // per-request dispatch/completion costs.
  void Add(uint32_t slot, WorkerTimeState state, Nanos span);

  // Charges [since, now) to `state` and restarts the span at `now` — the
  // runtime dispatcher classifies each loop iteration after the fact.
  void AccountSpan(uint32_t slot, WorkerTimeState state, Nanos now);

  // Slots flagged with a remainder state skip in-progress-span accounting at
  // snapshot time; the gap between accumulated totals and wall time is
  // attributed to `state` instead (sim dispatcher: unaccounted wall time is
  // poll_spin by construction).
  void SetRemainderState(uint32_t slot, WorkerTimeState state);

  // The slot's packed current (state, type) — async-signal-safe to read, so
  // the sampling profiler tags stacks with it from SIGPROF context.
  const std::atomic<uint32_t>* packed_state(uint32_t slot) const;

  static uint32_t Pack(WorkerTimeState state, uint32_t type) {
    const uint32_t type_field =
        type == kUntyped || type >= kMaxLedgerTypes ? 0u : type + 1;
    return (type_field << 3) | static_cast<uint32_t>(state);
  }
  static WorkerTimeState UnpackState(uint32_t packed) {
    return static_cast<WorkerTimeState>(packed & 7u);
  }
  static uint32_t UnpackType(uint32_t packed) {
    const uint32_t type_field = packed >> 3;
    return type_field == 0 ? kUntyped : type_field - 1;
  }

  using TypeNamer = std::function<std::string(uint32_t)>;

  // Totals for every active worker slot plus the dispatcher, including the
  // in-progress span up to `now` (each record's states then sum exactly to
  // now - open time, modulo cross-thread read skew in the runtime). `namer`
  // resolves dense type indices for busy_type_ns; null falls back to
  // "type-N". Const and idempotent: nothing in the ledger moves.
  std::vector<WorkerTimeRecord> SnapshotTotals(Nanos now,
                                               const TypeNamer& namer) const;

 private:
  // Writer of every field: the slot's one writer (the scheduling thread
  // for worker slots, the dispatcher loop or the DES event loop for the
  // dispatcher pseudo-slot). The accumulators are single-writer counters:
  // a relaxed load plus store per span, no locked read-modify-write.
  struct alignas(64) Slot {
    std::array<SingleWriterCounter<uint64_t>, kNumWorkerTimeStates> accum;
    std::array<SingleWriterCounter<uint64_t>, kMaxLedgerTypes> type_ns;
    std::atomic<int64_t> since{0};
    std::atomic<int64_t> opened_at{-1};
    std::atomic<uint32_t> packed{0};
    std::atomic<uint8_t> remainder_state{kNoRemainder};
  };
  static constexpr uint8_t kNoRemainder = 0xff;

  // Storage for exported slot id `id`: worker ids map to themselves, the
  // dispatcher id to the last slot; any other id has none (nullptr).
  Slot* SlotFor(uint32_t id) const {
    if (id < max_workers_) {
      return &slots_[id];
    }
    return id == kDispatcherSlot ? &slots_[max_workers_] : nullptr;
  }
  void OpenSlot(Slot* slot, Nanos now);
  void FillRecord(const Slot& slot, uint32_t index, const char* role,
                  Nanos now, const TypeNamer& namer,
                  WorkerTimeRecord* out) const;

  const uint32_t max_workers_;
  const std::unique_ptr<Slot[]> slots_;  // max_workers_ + 1
  std::atomic<uint32_t> active_workers_{0};
  std::atomic<bool> opened_{false};
};

}  // namespace psp

#endif  // PSP_SRC_TELEMETRY_TIMELEDGER_H_
