// In-process sampling CPU profiler ("where do the cycles go?").
//
// Each registered thread gets a POSIX per-thread CPU-time timer
// (timer_create on the clock from pthread_getcpuclockid, delivered as
// SIGPROF directly to that thread via SIGEV_THREAD_ID). The signal handler
// walks the stack by frame pointers (the build compiles with
// -fno-omit-frame-pointer) into a pre-allocated per-thread sample buffer —
// no locks, no allocation, no syscalls on the signal path. Samples carry the
// thread's current time-ledger state word (see src/telemetry/timeledger.h),
// so every stack is attributed to busy{type}/steal/idle/poll_spin/... at the
// instant it was taken. Symbolization (dladdr + demangling) happens off-path
// when the folded output is rendered.
//
// Because the timers run on *CPU time*, a thread that sleeps takes no
// samples, while a busy-polling thread is sampled at the full rate — which
// is exactly the attribution the paper's idling argument needs.
#ifndef PSP_SRC_PROFILE_SAMPLER_H_
#define PSP_SRC_PROFILE_SAMPLER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace psp {

struct SamplerOptions {
  // Per-thread sample buffer capacity. The buffer is fill-once per capture
  // (not a ring): at 99 Hz, 4096 entries cover ~40 s of per-thread CPU time;
  // overflow increments dropped_samples() instead of overwriting.
  size_t buffer_entries = 4096;
};

// Process-wide sampling profiler. One instance per runtime; engine threads
// call RegisterCurrentThread on entry to their loops. Start/Stop may be
// called from any thread (the admin plane, pspctl, tests).
class CpuSampler {
 public:
  static constexpr size_t kMaxDepth = 20;  // frames kept per sample

  // Per-thread sampling state; public only so the signal handler (a free
  // function — sigaction cannot take a member) can reach it.
  struct ThreadSlot;

  explicit CpuSampler(SamplerOptions options = {});
  ~CpuSampler();

  CpuSampler(const CpuSampler&) = delete;
  CpuSampler& operator=(const CpuSampler&) = delete;

  // Registers the calling thread for sampling. `role` labels the thread in
  // folded output ("dispatcher", "worker", ...). `state_word`, when
  // non-null, is the thread's packed ledger-state atomic
  // (WorkerTimeLedger::packed_state); it is read inside the signal handler,
  // so it must outlive the registration. Threads without a ledger slot pass
  // nullptr and `fallback_packed` tags their samples instead.
  void RegisterCurrentThread(const char* role,
                             const std::atomic<uint32_t>* state_word,
                             uint32_t fallback_packed);
  // Unregisters the calling thread (disarms its timer if a capture is
  // live). Must be called before the thread exits if it registered.
  void UnregisterCurrentThread();

  // Arms every registered thread's timer at `hz` samples per CPU-second and
  // clears previously collected samples; the capture runs until Stop.
  // Returns false — with no side effects — if a capture is already running
  // (the admin plane maps this to HTTP 409).
  bool Start(int hz);
  // Disarms the timers. Collected samples remain readable until the next
  // Start. Returns false if no capture was running.
  bool Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }
  int hz() const { return hz_; }

  // Renders everything collected since the last Start as folded stacks:
  //   role;state:<state>[;type:<NAME>];outermost;...;leaf <count>
  // one line per unique stack, highest count first. `type_namer` resolves
  // ledger type indices to request-type names (may be empty; falls back to
  // "type<N>"). Safe to call while a capture runs (reads published samples
  // only).
  std::string Folded(
      const std::function<std::string(uint32_t)>& type_namer) const;

  uint64_t total_samples() const;
  uint64_t dropped_samples() const;

 private:
  // Arms/disarms one slot's timer; callers hold mu_.
  bool ArmSlot(ThreadSlot* slot, int hz);
  void DisarmSlot(ThreadSlot* slot);

  SamplerOptions options_;
  std::atomic<bool> running_{false};
  int hz_ = 0;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadSlot>> slots_;

  // The SIGPROF handler is installed once, on the first Start, and left in
  // place (it is a no-op for unarmed threads); POSIX leaves the fate of
  // signals pending from a deleted timer unspecified, so restoring the
  // default disposition at Stop could terminate the process.
  bool handler_installed_ = false;
};

}  // namespace psp

#endif  // PSP_SRC_PROFILE_SAMPLER_H_
