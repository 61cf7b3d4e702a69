// Net-worker poll pacing: how an ingress poll loop behaves when a round finds
// no packets. The paper's testbed busy-polls (one isolated core per role);
// Metronome (PAPERS.md, "adaptive and precise intermittent packet retrieval")
// shows that an idle net worker can instead sleep in short, adaptively sized
// increments and trade CPU for a *bounded* wakeup latency — exactly the knob
// a kernel-socket ingress needs so DARC's deliberate idling does not turn
// into a silently burning core per UDP shard.
//
// Policies:
//   kBusy     pure spin: lowest wakeup latency, one full core per poller.
//   kYield    cooperative spin (sched_yield per empty round): the default, and
//             the only livelock-free choice on machines with fewer cores than
//             threads.
//   kAdaptive Metronome-style: spin/yield through a short idle streak, then
//             nanosleep with exponential backoff from `min_sleep` capped at
//             `wakeup_budget` — the worst case added to a packet that arrives
//             just after the poller dozes off. Any work resets the backoff.
#ifndef PSP_SRC_NET_POLL_CONTROL_H_
#define PSP_SRC_NET_POLL_CONTROL_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "src/common/single_writer.h"
#include "src/common/time.h"

namespace psp {

enum class PollPolicy { kBusy, kYield, kAdaptive };

inline const char* PollPolicyName(PollPolicy policy) {
  switch (policy) {
    case PollPolicy::kBusy:
      return "busy";
    case PollPolicy::kYield:
      return "yield";
    case PollPolicy::kAdaptive:
      return "adaptive";
  }
  return "?";
}

struct PollControlConfig {
  PollPolicy policy = PollPolicy::kYield;
  // kAdaptive: empty poll rounds tolerated (spinning) before the first sleep.
  uint32_t idle_streak_before_sleep = 64;
  // kAdaptive: first sleep length; doubles per additional idle round.
  Nanos min_sleep = 2 * kMicrosecond;
  // kAdaptive: cap on any single sleep = the wakeup-latency budget, the worst
  // case added to a frame arriving the instant the poller goes to sleep.
  Nanos wakeup_budget = 100 * kMicrosecond;

  bool operator==(const PollControlConfig&) const = default;

  // Empty string = valid; otherwise a description of the misconfiguration.
  std::string Validate() const {
    if (policy != PollPolicy::kAdaptive) {
      return "";
    }
    if (min_sleep <= 0) {
      return "poll: adaptive policy needs min_sleep > 0";
    }
    if (wakeup_budget < min_sleep) {
      return "poll: wakeup_budget must be >= min_sleep (the budget caps each "
             "sleep)";
    }
    if (idle_streak_before_sleep == 0) {
      return "poll: idle_streak_before_sleep must be > 0 (sleeping on the "
             "first empty poll would add the budget to every packet gap)";
    }
    return "";
  }
};

// One controller per poll loop (single caller thread); the sleep counters are
// single-writer counters (writer: that caller) so telemetry snapshots can
// read them from other threads mid-run.
class PollController {
 public:
  explicit PollController(const PollControlConfig& config) : config_(config) {}

  // The poll round made progress: reset the idle streak and backoff.
  void OnWork() {
    idle_streak_ = 0;
    next_sleep_ = 0;
  }

  // The poll round found nothing: spin, yield, or sleep per policy.
  void OnIdle() {
    switch (config_.policy) {
      case PollPolicy::kBusy:
        return;
      case PollPolicy::kYield:
        std::this_thread::yield();
        return;
      case PollPolicy::kAdaptive:
        if (++idle_streak_ <= config_.idle_streak_before_sleep) {
          std::this_thread::yield();
          return;
        }
        if (next_sleep_ <= 0) {
          next_sleep_ = config_.min_sleep;
        }
        std::this_thread::sleep_for(std::chrono::nanoseconds(next_sleep_));
        sleeps_.Add(1);
        slept_nanos_.Add(static_cast<uint64_t>(next_sleep_));
        next_sleep_ = next_sleep_ < config_.wakeup_budget / 2
                          ? next_sleep_ * 2
                          : config_.wakeup_budget;
        return;
    }
  }

  // The sleep the *next* idle round beyond the streak would take (test hook).
  Nanos next_sleep() const { return next_sleep_; }
  uint64_t sleeps() const { return sleeps_.Load(); }
  Nanos slept_nanos() const { return static_cast<Nanos>(slept_nanos_.Load()); }
  const PollControlConfig& config() const { return config_; }

 private:
  PollControlConfig config_;
  uint32_t idle_streak_ = 0;
  Nanos next_sleep_ = 0;
  SingleWriterCounter<uint64_t> sleeps_;
  SingleWriterCounter<uint64_t> slept_nanos_;
};

}  // namespace psp

#endif  // PSP_SRC_NET_POLL_CONTROL_H_
