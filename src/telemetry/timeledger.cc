#include "src/telemetry/timeledger.h"

#include <algorithm>

namespace psp {

const char* WorkerTimeStateName(WorkerTimeState state) {
  switch (state) {
    case WorkerTimeState::kBusy:
      return "busy";
    case WorkerTimeState::kSteal:
      return "steal";
    case WorkerTimeState::kReservedIdle:
      return "reserved_idle";
    case WorkerTimeState::kFreeIdle:
      return "free_idle";
    case WorkerTimeState::kPollSpin:
      return "poll_spin";
    case WorkerTimeState::kDispatchOverhead:
      return "dispatch_overhead";
  }
  return "unknown";
}

void IntervalOccupancy(
    const std::vector<WorkerTimeRecord>& totals, size_t workers,
    std::vector<std::array<uint64_t, kNumWorkerTimeStates>>* prev,
    std::vector<int64_t>* busy_permille,
    std::vector<int64_t>* state_permille) {
  busy_permille->assign(workers, 0);
  state_permille->assign(kNumWorkerTimeStates, 0);
  if (prev->size() < workers) {
    prev->resize(workers);
  }
  std::array<uint64_t, kNumWorkerTimeStates> state_sum{};
  uint64_t wall_sum = 0;
  for (size_t w = 0; w < workers && w < totals.size(); ++w) {
    uint64_t wall = 0;
    uint64_t busy = 0;
    for (size_t s = 0; s < kNumWorkerTimeStates; ++s) {
      const uint64_t current = totals[w].state_ns[s];
      uint64_t& last = (*prev)[w][s];
      const uint64_t delta = current > last ? current - last : 0;
      last = current;
      wall += delta;
      state_sum[s] += delta;
      if (s == static_cast<size_t>(WorkerTimeState::kBusy) ||
          s == static_cast<size_t>(WorkerTimeState::kSteal)) {
        busy += delta;
      }
    }
    wall_sum += wall;
    if (wall > 0) {
      (*busy_permille)[w] = static_cast<int64_t>(busy * 1000 / wall);
    }
  }
  if (wall_sum > 0) {
    for (size_t s = 0; s < kNumWorkerTimeStates; ++s) {
      (*state_permille)[s] =
          static_cast<int64_t>(state_sum[s] * 1000 / wall_sum);
    }
  }
}

WorkerTimeLedger::WorkerTimeLedger(uint32_t num_workers)
    : max_workers_(std::min(num_workers, kDispatcherSlot)),
      slots_(new Slot[max_workers_ + 1]) {}

WorkerTimeLedger::~WorkerTimeLedger() = default;

void WorkerTimeLedger::OpenSlot(Slot* slot, Nanos now) {
  if (slot->opened_at.load(std::memory_order_relaxed) >= 0) {
    return;  // re-activated after a shrink: keep its history
  }
  slot->opened_at.store(now, std::memory_order_relaxed);
  slot->since.store(now, std::memory_order_relaxed);
  slot->packed.store(Pack(WorkerTimeState::kFreeIdle, kUntyped),
                     std::memory_order_relaxed);
}

void WorkerTimeLedger::Open(Nanos now) {
  if (opened_.exchange(true, std::memory_order_relaxed)) {
    return;
  }
  for (uint32_t w = 0; w <= max_workers_; ++w) {
    OpenSlot(&slots_[w], now);  // every worker slot, then the dispatcher's
  }
  active_workers_.store(max_workers_, std::memory_order_relaxed);
}

void WorkerTimeLedger::SetNumWorkers(uint32_t num_workers, Nanos now) {
  num_workers = std::min(num_workers, max_workers_);
  const uint32_t old = active_workers_.load(std::memory_order_relaxed);
  for (uint32_t w = old; w < num_workers; ++w) {
    OpenSlot(&slots_[w], now);
  }
  active_workers_.store(num_workers, std::memory_order_relaxed);
}

void WorkerTimeLedger::Transition(uint32_t slot_id, WorkerTimeState state,
                                  uint32_t type, Nanos now) {
  Slot* const found = SlotFor(slot_id);
  if (found == nullptr) {
    return;
  }
  Slot& slot = *found;
  const uint32_t prev = slot.packed.load(std::memory_order_relaxed);
  const Nanos since = slot.since.load(std::memory_order_relaxed);
  const Nanos span = now > since ? now - since : 0;
  if (span > 0) {
    const WorkerTimeState prev_state = UnpackState(prev);
    slot.accum[static_cast<size_t>(prev_state)].Add(
        static_cast<uint64_t>(span));
    if (prev_state == WorkerTimeState::kBusy ||
        prev_state == WorkerTimeState::kSteal) {
      const uint32_t prev_type = UnpackType(prev);
      if (prev_type < kMaxLedgerTypes) {
        slot.type_ns[prev_type].Add(static_cast<uint64_t>(span));
      }
    }
  }
  slot.since.store(now, std::memory_order_relaxed);
  slot.packed.store(Pack(state, type), std::memory_order_relaxed);
}

void WorkerTimeLedger::Add(uint32_t slot_id, WorkerTimeState state,
                           Nanos span) {
  Slot* const slot = SlotFor(slot_id);
  if (slot == nullptr || span <= 0) {
    return;
  }
  slot->accum[static_cast<size_t>(state)].Add(
      static_cast<uint64_t>(span));
}

void WorkerTimeLedger::AccountSpan(uint32_t slot_id, WorkerTimeState state,
                                   Nanos now) {
  Slot* const found = SlotFor(slot_id);
  if (found == nullptr) {
    return;
  }
  Slot& slot = *found;
  const Nanos since = slot.since.load(std::memory_order_relaxed);
  const Nanos span = now > since ? now - since : 0;
  if (span > 0) {
    slot.accum[static_cast<size_t>(state)].Add(static_cast<uint64_t>(span));
  }
  slot.since.store(now, std::memory_order_relaxed);
  slot.packed.store(Pack(state, kUntyped), std::memory_order_relaxed);
}

void WorkerTimeLedger::SetRemainderState(uint32_t slot_id,
                                         WorkerTimeState state) {
  Slot* const slot = SlotFor(slot_id);
  if (slot == nullptr) {
    return;
  }
  slot->remainder_state.store(static_cast<uint8_t>(state),
                                        std::memory_order_relaxed);
}

const std::atomic<uint32_t>* WorkerTimeLedger::packed_state(
    uint32_t slot_id) const {
  const Slot* const slot = SlotFor(slot_id);
  return slot == nullptr ? nullptr : &slot->packed;
}

void WorkerTimeLedger::FillRecord(const Slot& slot, uint32_t index,
                                  const char* role, Nanos now,
                                  const TypeNamer& namer,
                                  WorkerTimeRecord* out) const {
  out->slot = index;
  out->role = role;
  std::array<uint64_t, kMaxLedgerTypes> type_totals{};
  for (size_t s = 0; s < kNumWorkerTimeStates; ++s) {
    out->state_ns[s] = slot.accum[s].Load();
  }
  for (size_t t = 0; t < kMaxLedgerTypes; ++t) {
    type_totals[t] = slot.type_ns[t].Load();
  }
  const uint8_t remainder = slot.remainder_state.load(std::memory_order_relaxed);
  const Nanos opened = slot.opened_at.load(std::memory_order_relaxed);
  if (remainder != kNoRemainder) {
    // The slot's writer charges spans without moving a cursor (sim
    // dispatcher); whatever wall time is unaccounted belongs to the
    // remainder state by construction.
    const uint64_t wall =
        now > opened ? static_cast<uint64_t>(now - opened) : 0;
    uint64_t sum = 0;
    for (const uint64_t v : out->state_ns) {
      sum += v;
    }
    if (wall > sum) {
      out->state_ns[remainder] += wall - sum;
    }
  } else {
    // Charge the in-progress span so totals sum to wall time.
    const uint32_t packed = slot.packed.load(std::memory_order_relaxed);
    const Nanos since = slot.since.load(std::memory_order_relaxed);
    const Nanos span = now > since ? now - since : 0;
    if (span > 0) {
      const WorkerTimeState state = UnpackState(packed);
      out->state_ns[static_cast<size_t>(state)] +=
          static_cast<uint64_t>(span);
      if (state == WorkerTimeState::kBusy ||
          state == WorkerTimeState::kSteal) {
        const uint32_t type = UnpackType(packed);
        if (type < kMaxLedgerTypes) {
          type_totals[type] += static_cast<uint64_t>(span);
        }
      }
    }
  }
  for (uint32_t t = 0; t < kMaxLedgerTypes; ++t) {
    if (type_totals[t] == 0) {
      continue;
    }
    std::string name =
        namer ? namer(t) : std::string("type-") + std::to_string(t);
    if (name.empty()) {
      name = "type-" + std::to_string(t);
    }
    out->busy_type_ns.emplace_back(std::move(name), type_totals[t]);
  }
}

std::vector<WorkerTimeRecord> WorkerTimeLedger::SnapshotTotals(
    Nanos now, const TypeNamer& namer) const {
  std::vector<WorkerTimeRecord> records;
  if (!opened_.load(std::memory_order_relaxed)) {
    return records;
  }
  const uint32_t workers = active_workers_.load(std::memory_order_relaxed);
  records.reserve(workers + 1);
  for (uint32_t w = 0; w < workers; ++w) {
    WorkerTimeRecord rec;
    FillRecord(slots_[w], w, "worker", now, namer, &rec);
    records.push_back(std::move(rec));
  }
  WorkerTimeRecord dispatcher;
  FillRecord(slots_[max_workers_], kDispatcherSlot, "dispatcher", now, namer,
             &dispatcher);
  records.push_back(std::move(dispatcher));
  return records;
}

}  // namespace psp
