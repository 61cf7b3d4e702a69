#include "src/telemetry/lifecycle.h"

#include <algorithm>

namespace psp {

const char* TraceStageName(TraceStage stage) {
  switch (stage) {
    case TraceStage::kRx:
      return "rx";
    case TraceStage::kClassified:
      return "classified";
    case TraceStage::kEnqueued:
      return "enqueued";
    case TraceStage::kDispatched:
      return "dispatched";
    case TraceStage::kHandlerStart:
      return "handler_start";
    case TraceStage::kHandlerEnd:
      return "handler_end";
    case TraceStage::kTx:
      return "tx";
  }
  return "?";
}

namespace {

size_t RoundUpPow2(size_t v) {
  size_t p = 8;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

}  // namespace

TraceRing::TraceRing(size_t capacity) : capacity_(RoundUpPow2(capacity)) {
  blocks_.push_back(
      std::make_unique<Block>(std::min(capacity_, kInitialSlots)));
  live_.store(blocks_.back().get(), std::memory_order_relaxed);
}

RequestTrace TraceRing::Load(const Slot& slot) {
  RequestTrace copy;
  copy.request_id = slot.request_id.load(std::memory_order_relaxed);
  copy.type = slot.type.load(std::memory_order_relaxed);
  copy.worker = slot.worker.load(std::memory_order_relaxed);
  copy.wire_request_id = slot.wire_request_id.load(std::memory_order_relaxed);
  copy.client_id = slot.client_id.load(std::memory_order_relaxed);
  for (size_t i = 0; i < kNumTraceStages; ++i) {
    copy.stamp[i] = slot.stamp[i].load(std::memory_order_relaxed);
  }
  return copy;
}

void TraceRing::Store(const RequestTrace& record, Slot* slot) {
  slot->request_id.store(record.request_id, std::memory_order_relaxed);
  slot->type.store(record.type, std::memory_order_relaxed);
  slot->worker.store(record.worker, std::memory_order_relaxed);
  slot->wire_request_id.store(record.wire_request_id,
                              std::memory_order_relaxed);
  slot->client_id.store(record.client_id, std::memory_order_relaxed);
  for (size_t i = 0; i < kNumTraceStages; ++i) {
    slot->stamp[i].store(record.stamp[i], std::memory_order_relaxed);
  }
}

TraceRing::Block* TraceRing::Grow(const Block& full) {
  blocks_.push_back(std::make_unique<Block>(2 * full.size));
  Block* grown = blocks_.back().get();
  // No wrap has happened yet, so index i sits in slot i of both blocks. Only
  // this thread writes slots, so relaxed loads see every committed record.
  for (size_t i = 0; i < full.size; ++i) {
    const Slot& from = full.slots[i];
    Slot& to = grown->slots[i];
    to.seq.store(from.seq.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    Store(Load(from), &to);
  }
  // Publish the copied slots before head_ moves past the old block's end.
  live_.store(grown, std::memory_order_release);
  return grown;
}

void TraceRing::Push(const RequestTrace& record) {
  const uint64_t index = head_.load(std::memory_order_relaxed);
  Block* block = live_.load(std::memory_order_relaxed);
  if (index == block->size && block->size < capacity_) {
    block = Grow(*block);
  }
  Slot& slot = block->slots[index & (block->size - 1)];
  // Odd sequence = write in flight; readers that land here discard the slot.
  // The release fence keeps the field stores from hoisting above the odd
  // mark; the final release store keeps them from sinking below the even
  // mark (the standard seqlock-with-fences recipe).
  slot.seq.store(2 * index + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  Store(record, &slot);
  slot.seq.store(2 * (index + 1), std::memory_order_release);
  head_.store(index + 1, std::memory_order_release);
}

size_t TraceRing::Snapshot(std::vector<RequestTrace>* out) const {
  // head_ first, then the block: the block is then at least the one that
  // was live when `head` was stored, so it holds every index below it.
  const uint64_t head = head_.load(std::memory_order_acquire);
  const Block* block = live_.load(std::memory_order_acquire);
  const uint64_t depth = block->size;
  const uint64_t first = head > depth ? head - depth : 0;
  size_t added = 0;
  for (uint64_t index = first; index < head; ++index) {
    const Slot& slot = block->slots[index & (depth - 1)];
    const uint64_t expected = 2 * (index + 1);
    if (slot.seq.load(std::memory_order_acquire) != expected) {
      continue;  // overwritten or mid-write
    }
    const RequestTrace copy = Load(slot);
    // Re-validate: if the producer lapped us mid-copy the copy is torn. The
    // acquire fence pins the field loads above this second seq read.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != expected) {
      continue;
    }
    out->push_back(copy);
    ++added;
  }
  return added;
}

}  // namespace psp
