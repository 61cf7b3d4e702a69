// Per-request lifecycle tracing: the pipeline-stage timeline of a single
// request (rx → classified → enqueued → dispatched → handler-start →
// handler-end → tx), sampled 1-in-N and committed into bounded lock-free
// per-thread rings so the dispatcher's ~100 ns per-request budget (§4.3.3)
// is preserved.
//
// The stamps travel *in-band* with the request (TraceContext rides inside
// psp::Request and the dispatcher→worker WorkOrder), so a record is only
// ever written by the thread currently owning the request; the completed
// record is committed once, by the worker, into its own TraceRing. Readers
// (TelemetrySnapshot assembly) never block writers: each ring slot carries a
// seqlock-style sequence number and torn reads are simply discarded.
#ifndef PSP_SRC_TELEMETRY_LIFECYCLE_H_
#define PSP_SRC_TELEMETRY_LIFECYCLE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/time.h"

namespace psp {

// Pipeline stages in lifecycle order. Both engines map onto the same axis:
// the threaded runtime stamps every stage; the simulator collapses the
// dispatcher pipeline (classified == enqueued) and the channel hop
// (dispatched == handler-start) because its model charges them as one cost.
enum class TraceStage : uint8_t {
  kRx = 0,          // frame left the NIC RX queue (or sim: arrived at server)
  kClassified,      // parsed + classified by the dispatcher
  kEnqueued,        // entered its typed queue
  kDispatched,      // Algorithm 1 picked it and a worker
  kHandlerStart,    // application handler began executing
  kHandlerEnd,      // application handler returned
  kTx,              // response handed to the NIC TX queue
};

inline constexpr size_t kNumTraceStages = 7;

const char* TraceStageName(TraceStage stage);

// One completed lifecycle record. `type` is the engine's type key: the dense
// TypeIndex in the threaded runtime, the wire TypeId in the simulator; the
// TelemetrySnapshot's type_names map makes either self-describing.
struct RequestTrace {
  uint64_t request_id = 0;
  uint32_t type = 0;
  uint32_t worker = 0;
  // Wire identity (client's request_id / client_id echoed from the PSP
  // header). Lets an offline join pair this server-side record with the
  // client's per-request sample; both 0 for requests that never crossed a
  // wire (simulator, in-process NIC ring).
  uint64_t wire_request_id = 0;
  uint32_t client_id = 0;
  // Stamp per stage; 0 = the stage was never reached/recorded.
  std::array<Nanos, kNumTraceStages> stamp{};

  Nanos At(TraceStage stage) const {
    return stamp[static_cast<size_t>(stage)];
  }

  // Span between two stages; 0 when either stamp is missing or the span
  // would be negative (clock read on another core).
  Nanos Span(TraceStage from, TraceStage to) const {
    const Nanos a = At(from);
    const Nanos b = At(to);
    if (a == 0 || b == 0 || b < a) {
      return 0;
    }
    return b - a;
  }
};

// In-band stamp carrier embedded in a request while it flows through the
// pipeline. Only the thread currently owning the request touches it, so no
// synchronisation is needed until the final commit into a TraceRing.
struct TraceContext {
  std::array<Nanos, kNumTraceStages> stamp{};
  uint8_t sampled = 0;  // 1 = this request is being traced

  void Mark(TraceStage stage, Nanos now) {
    stamp[static_cast<size_t>(stage)] = now;
  }
};

// 1-in-N sampling decision, owned by a single thread (the dispatcher / the
// sim engine). every == 0 disables sampling entirely; every == 1 traces all.
class TraceSampler {
 public:
  explicit TraceSampler(uint32_t every) : every_(every) {}

  bool Tick() {
    if (every_ == 0) {
      return false;
    }
    if (++count_ >= every_) {
      count_ = 0;
      return true;
    }
    return false;
  }

  uint32_t every() const { return every_; }

 private:
  uint32_t every_;
  uint32_t count_ = 0;
};

// Lock-free trace ring: one single-writer producer (the owning worker
// thread) overwriting the oldest record, and wait-free concurrent readers.
// Each slot carries a sequence number (seqlock pattern): odd while a write is
// in flight, 2*(index+1) once committed. A reader copies the record and
// re-validates the sequence; torn copies are dropped.
//
// The ring starts at min(capacity, 64) slots and doubles whenever the writer
// fills it, up to `capacity`, so a ring that records a few hundred traces
// never allocates (or zero-fills) the thousands its capacity would allow.
// Growth happens before the first wrap, so every index keeps its slot in the
// larger block; the writer copies the filled slots across and publishes the
// block with a release store before it advances head_. A reader that loads
// head_ and then the live block (both acquire) therefore sees a block holding
// every index below that head. Replaced blocks stay allocated until the ring
// is destroyed, because a reader may still be copying from one.
class TraceRing {
 public:
  // Capacity is rounded up to a power of two (minimum 8).
  explicit TraceRing(size_t capacity);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  // Producer side; single writer. Never blocks; grows the ring until it
  // reaches capacity(), then overwrites the oldest record.
  void Push(const RequestTrace& record);

  // Reader side; safe concurrently with Push. Appends up to capacity() most
  // recent complete records to `out` in push order. Returns records added.
  size_t Snapshot(std::vector<RequestTrace>* out) const;

  // Total records ever pushed (including overwritten ones).
  uint64_t pushed() const { return head_.load(std::memory_order_acquire); }

  // The configured maximum, not the slots allocated so far.
  size_t capacity() const { return capacity_; }

 private:
  // Record fields are individually relaxed atomics (not a plain struct):
  // readers race with the producer by design, and the seqlock re-validation
  // discards torn copies — atomic fields make that a defined-behaviour,
  // TSan-clean race instead of a formal data race on plain memory.
  struct Slot {
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> request_id{0};
    std::atomic<uint32_t> type{0};
    std::atomic<uint32_t> worker{0};
    std::atomic<uint64_t> wire_request_id{0};
    std::atomic<uint32_t> client_id{0};
    std::array<std::atomic<Nanos>, kNumTraceStages> stamp{};
  };

  // A power-of-two run of slots; immutable in size once published.
  struct Block {
    explicit Block(size_t slot_count)
        : size(slot_count), slots(new Slot[slot_count]) {}
    const size_t size;
    const std::unique_ptr<Slot[]> slots;
  };

  static constexpr size_t kInitialSlots = 64;

  // Relaxed field-by-field copies between a slot and a record (seq aside).
  static RequestTrace Load(const Slot& slot);
  static void Store(const RequestTrace& record, Slot* slot);

  // Called by the writer with the live block full and below capacity:
  // allocates the doubled block, copies every slot across and publishes it.
  Block* Grow(const Block& full);

  const size_t capacity_;
  // Every block ever allocated, the live one last. Writer-only: readers reach
  // blocks through live_ alone.
  std::vector<std::unique_ptr<Block>> blocks_;
  std::atomic<Block*> live_;
  std::atomic<uint64_t> head_{0};  // next logical write index
};

}  // namespace psp

#endif  // PSP_SRC_TELEMETRY_LIFECYCLE_H_
