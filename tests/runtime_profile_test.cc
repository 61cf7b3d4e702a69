// Sampling profiler on the live threaded runtime: timers arm/disarm cleanly
// under load (this test is part of the TSan tier — scripts/check.sh thread),
// folded output keeps its grammar stable for flamegraph tooling, and every
// sample carries a ledger-state tag.
#include "src/profile/sampler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/synthetic.h"
#include "src/common/time.h"
#include "src/runtime/loadgen.h"
#include "src/runtime/persephone.h"
#include "src/telemetry/timeledger.h"

namespace psp {
namespace {

RuntimeConfig SmallRuntime() {
  RuntimeConfig config;
  config.num_workers = 2;
  config.pool_buffers = 1024;
  return config;
}

// Splits folded output into (stack, count) lines; fails the test on any line
// that does not match `key SPACE digits`.
std::vector<std::pair<std::string, uint64_t>> ParseFolded(
    const std::string& folded) {
  std::vector<std::pair<std::string, uint64_t>> lines;
  size_t pos = 0;
  while (pos < folded.size()) {
    size_t eol = folded.find('\n', pos);
    if (eol == std::string::npos) {
      eol = folded.size();
    }
    const std::string line = folded.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) {
      continue;
    }
    const size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << "no count in: " << line;
    if (space == std::string::npos) {
      continue;
    }
    const std::string key = line.substr(0, space);
    const std::string count = line.substr(space + 1);
    EXPECT_FALSE(key.empty()) << line;
    EXPECT_FALSE(count.empty()) << line;
    for (const char c : count) {
      EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(c)))
          << "non-numeric count in: " << line;
    }
    // No stray separators: the key is semicolon-delimited tokens only.
    EXPECT_EQ(key.find(' '), std::string::npos) << line;
    lines.emplace_back(key, std::strtoull(count.c_str(), nullptr, 10));
  }
  return lines;
}

TEST(Profile, StartStopLifecycleAndDoubleStartRejected) {
  CpuSampler sampler;
  EXPECT_FALSE(sampler.running());
  EXPECT_FALSE(sampler.Stop());  // nothing running
  ASSERT_TRUE(sampler.Start(99));
  EXPECT_TRUE(sampler.running());
  EXPECT_EQ(sampler.hz(), 99);
  // Second Start is the admin plane's 409: refused, no side effects.
  EXPECT_FALSE(sampler.Start(200));
  EXPECT_EQ(sampler.hz(), 99);
  EXPECT_TRUE(sampler.Stop());
  EXPECT_FALSE(sampler.running());
  EXPECT_FALSE(sampler.Stop());
}

TEST(Profile, SamplesBusyThreadWithStateTags) {
  CpuSampler sampler;
  std::atomic<uint32_t> state{WorkerTimeLedger::Pack(WorkerTimeState::kBusy,
                                                     /*type=*/1)};
  std::atomic<bool> stop{false};
  std::thread burner([&] {
    sampler.RegisterCurrentThread("worker", &state, 0);
    // Busy-spin: a CPU-time timer at 997 Hz fires steadily on this thread.
    volatile uint64_t sink = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < 4096; ++i) {
        sink = sink + static_cast<uint64_t>(i) * 2654435761u;
      }
    }
    sampler.UnregisterCurrentThread();
  });

  ASSERT_TRUE(sampler.Start(997));
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  ASSERT_TRUE(sampler.Stop());
  stop.store(true);
  burner.join();

  EXPECT_GT(sampler.total_samples(), 10u);
  const std::string folded = sampler.Folded(
      [](uint32_t type) { return "TYPE" + std::to_string(type); });
  const auto lines = ParseFolded(folded);
  ASSERT_FALSE(lines.empty());
  uint64_t tagged = 0;
  uint64_t total = 0;
  for (const auto& [key, count] : lines) {
    total += count;
    // Grammar: role;state:<name>[;type:<NAME>][;frame;frame;...]
    EXPECT_EQ(key.compare(0, 7, "worker;"), 0) << key;
    if (key.find(";state:busy;type:TYPE1") != std::string::npos) {
      tagged += count;
    }
  }
  // Aggregated counts cover exactly the published samples, and every sample
  // carries the ledger tag that the state word held (≥ 99% acceptance bar;
  // here the word never changed, so it is all of them).
  EXPECT_EQ(total, sampler.total_samples());
  EXPECT_GE(tagged * 100, total * 99);
}

TEST(Profile, RuntimeUnderLoadProducesLedgerTaggedStacks) {
  Persephone server(SmallRuntime());
  server.RegisterType(1, "SHORT", MakeSpinHandler(), FromMicros(2), 0.9);
  server.RegisterType(2, "LONG", MakeSpinHandler(), FromMicros(50), 0.1);
  server.Start();

  ASSERT_TRUE(server.cpu_sampler().Start(997));
  LoadGenConfig lg;
  lg.rate_rps = 3000;
  lg.total_requests = 1200;
  // The timers run on CPU time, so how soon the dispatcher takes its first
  // sample depends on how much CPU other processes leave it. Keep the load
  // coming, in 0.4 s rounds, until it has one or a deadline passes.
  const TscClock& clock = TscClock::Global();
  const Nanos deadline = clock.Now() + 5 * kSecond;
  do {
    LoadGenerator gen(&server,
                      {MakeSpinSpec(1, "SHORT", 0.9, FromMicros(2)),
                       MakeSpinSpec(2, "LONG", 0.1, FromMicros(50))},
                      lg);
    gen.Run();
  } while (("\n" + server.cpu_sampler().Folded(nullptr)).find(
               "\ndispatcher;") == std::string::npos &&
           clock.Now() < deadline);
  ASSERT_TRUE(server.cpu_sampler().Stop());
  const std::string folded = server.cpu_sampler().Folded(
      [&](uint32_t type) { return std::string("T") + std::to_string(type); });
  server.Stop();

  // Dispatcher + workers busy-poll, so CPU-time timers must have fired.
  EXPECT_GT(server.cpu_sampler().total_samples(), 0u);
  const auto lines = ParseFolded(folded);
  ASSERT_FALSE(lines.empty());
  uint64_t total = 0;
  uint64_t state_tagged = 0;
  bool saw_dispatcher = false;
  for (const auto& [key, count] : lines) {
    total += count;
    const size_t role_end = key.find(';');
    ASSERT_NE(role_end, std::string::npos) << key;
    const std::string role = key.substr(0, role_end);
    EXPECT_TRUE(role == "worker" || role == "dispatcher" || role == "net" ||
                role == "sampler")
        << key;
    saw_dispatcher |= role == "dispatcher";
    if (key.compare(role_end, 7, ";state:") == 0) {
      state_tagged += count;
    }
  }
  // The acceptance bar: ledger-state tags partition ≥ 99% of samples (by
  // construction every registered thread has a state word or fallback).
  EXPECT_GE(state_tagged * 100, total * 99);
  EXPECT_TRUE(saw_dispatcher);
}

TEST(Profile, RepeatedCapturesUnderLoadAreClean) {
  // Start/stop churn while the runtime is hot: the TSan-tier stress for the
  // signal path, buffer reset, and watcher interleavings.
  Persephone server(SmallRuntime());
  server.RegisterType(1, "T", MakeSpinHandler(), FromMicros(5), 1.0);
  server.Start();

  std::atomic<bool> done{false};
  std::thread load([&] {
    LoadGenConfig lg;
    lg.rate_rps = 4000;
    lg.total_requests = 2000;
    LoadGenerator gen(&server, {MakeSpinSpec(1, "T", 1.0, FromMicros(5))}, lg);
    gen.Run();
    done.store(true);
  });
  int captures = 0;
  while (!done.load() && captures < 50) {
    if (server.cpu_sampler().Start(499)) {
      ++captures;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      server.cpu_sampler().Stop();
      // Folded render interleaved with the next capture cycle.
      server.cpu_sampler().Folded(nullptr);
    }
  }
  load.join();
  server.Stop();
  EXPECT_GT(captures, 0);
}

}  // namespace
}  // namespace psp
