// Microbenchmarks for the dispatcher↔worker channels (§4.3.2): the paper
// reports ≈88 cycles per operation on its lightweight RPC channel. We measure
// single-threaded push+pop round trips (the uncontended fast path the number
// refers to) and cross-thread throughput.
#include <benchmark/benchmark.h>

#include <thread>

#include "src/common/mpsc_ring.h"
#include "src/common/spsc_ring.h"
#include "src/common/time.h"
#include "src/runtime/channel.h"

namespace psp {
namespace {

void BM_SpscPushPop(benchmark::State& state) {
  SpscRing<uint64_t> ring(1024);
  uint64_t v = 0;
  for (auto _ : state) {
    ring.TryPush(v);
    uint64_t out = 0;
    ring.TryPop(&out);
    benchmark::DoNotOptimize(out);
    ++v;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_SpscPushPop);

void BM_SpscBatchedPushPop(benchmark::State& state) {
  // Fill/drain in batches of 64: amortises the shared-index refresh, the
  // pattern the dispatcher sees under load.
  SpscRing<uint64_t> ring(1024);
  for (auto _ : state) {
    for (uint64_t i = 0; i < 64; ++i) {
      ring.TryPush(i);
    }
    uint64_t out = 0;
    while (ring.TryPop(&out)) {
      benchmark::DoNotOptimize(out);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 128);
}
BENCHMARK(BM_SpscBatchedPushPop);

void BM_WorkerChannelRoundTrip(benchmark::State& state) {
  // One work order out + one completion back: the per-request channel cost
  // in the Perséphone pipeline.
  WorkerChannel channel(512);
  WorkOrder order;
  order.type = 1;
  CompletionSignal signal{0, 1, 1000};
  for (auto _ : state) {
    channel.PushOrder(order);
    WorkOrder o;
    channel.PopOrder(&o);
    channel.PushCompletion(signal);
    CompletionSignal s;
    channel.PopCompletion(&s);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 4);
}
BENCHMARK(BM_WorkerChannelRoundTrip);

void BM_MpscPushPop(benchmark::State& state) {
  MpscRing<uint32_t> ring(1024);
  uint32_t v = 0;
  for (auto _ : state) {
    ring.TryPush(v);
    uint32_t out = 0;
    ring.TryPop(&out);
    benchmark::DoNotOptimize(out);
    ++v;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_MpscPushPop);

void BM_SpscCrossThread(benchmark::State& state) {
  // Producer thread feeds; the benchmark thread drains. On single-core
  // machines this measures the yielding path rather than true parallelism.
  SpscRing<uint64_t> ring(4096);
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    uint64_t v = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      if (!ring.TryPush(v)) {
        std::this_thread::yield();
      } else {
        ++v;
      }
    }
  });
  uint64_t drained = 0;
  for (auto _ : state) {
    uint64_t out = 0;
    if (ring.TryPop(&out)) {
      benchmark::DoNotOptimize(out);
      ++drained;
    } else {
      std::this_thread::yield();
    }
  }
  stop.store(true);
  producer.join();
  state.SetItemsProcessed(static_cast<int64_t>(drained));
}
BENCHMARK(BM_SpscCrossThread);

// Reports cycles per operation alongside time, to compare against the
// paper's "88 cycles on average".
void BM_SpscPushPopCycles(benchmark::State& state) {
  SpscRing<uint64_t> ring(1024);
  const TscClock& clock = TscClock::Global();
  uint64_t ops = 0;
  const uint64_t tsc_start = ReadTsc();
  for (auto _ : state) {
    ring.TryPush(ops);
    uint64_t out = 0;
    ring.TryPop(&out);
    benchmark::DoNotOptimize(out);
    ++ops;
  }
  const uint64_t tsc_end = ReadTsc();
  if (ops > 0) {
    state.counters["cycles_per_op"] = benchmark::Counter(
        static_cast<double>(tsc_end - tsc_start) / (2.0 * static_cast<double>(ops)));
  }
  (void)clock;
}
BENCHMARK(BM_SpscPushPopCycles);

// Burst counterpart of BM_SpscPushPopCycles: pushes and pops in bursts of 16
// (one shared-index update per burst). Comparing cycles_per_op between the
// two shows the amortisation the dispatcher gets from rx_burst-style I/O.
void BM_SpscBurstPushPopCycles(benchmark::State& state) {
  SpscRing<uint64_t> ring(1024);
  constexpr size_t kBurst = 16;
  uint64_t in[kBurst];
  uint64_t out[kBurst] = {};
  for (size_t i = 0; i < kBurst; ++i) {
    in[i] = i;
  }
  uint64_t ops = 0;
  const uint64_t tsc_start = ReadTsc();
  for (auto _ : state) {
    ring.TryPushBurst(in, kBurst);
    ring.TryPopBurst(out, kBurst);
    benchmark::DoNotOptimize(out[kBurst - 1]);
    ops += kBurst;
  }
  const uint64_t tsc_end = ReadTsc();
  if (ops > 0) {
    state.counters["cycles_per_op"] = benchmark::Counter(
        static_cast<double>(tsc_end - tsc_start) /
        (2.0 * static_cast<double>(ops)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(ops) * 2);
}
BENCHMARK(BM_SpscBurstPushPopCycles);

void BM_MpscBurstPushPop(benchmark::State& state) {
  MpscRing<uint64_t> ring(1024);
  constexpr size_t kBurst = 16;
  uint64_t in[kBurst];
  uint64_t out[kBurst] = {};
  for (size_t i = 0; i < kBurst; ++i) {
    in[i] = i;
  }
  for (auto _ : state) {
    ring.TryPushBurst(in, kBurst);  // one CAS claims all 16 cells
    ring.TryPopBurst(out, kBurst);
    benchmark::DoNotOptimize(out[kBurst - 1]);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kBurst *
                          2);
}
BENCHMARK(BM_MpscBurstPushPop);

void BM_SpscCrossThreadBurst(benchmark::State& state) {
  // Cross-thread variant with burst I/O on both sides: the net-worker ->
  // dispatcher forwarding path under load.
  SpscRing<uint64_t> ring(4096);
  constexpr size_t kBurst = 16;
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    uint64_t batch[kBurst];
    uint64_t v = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (size_t i = 0; i < kBurst; ++i) {
        batch[i] = v + i;
      }
      const size_t n = ring.TryPushBurst(batch, kBurst);
      if (n == 0) {
        std::this_thread::yield();
      } else {
        v += n;
      }
    }
  });
  uint64_t drained = 0;
  uint64_t out[kBurst] = {};
  for (auto _ : state) {
    const size_t n = ring.TryPopBurst(out, kBurst);
    if (n == 0) {
      std::this_thread::yield();
    } else {
      benchmark::DoNotOptimize(out[n - 1]);
      drained += n;
    }
  }
  stop.store(true);
  producer.join();
  state.SetItemsProcessed(static_cast<int64_t>(drained));
}
BENCHMARK(BM_SpscCrossThreadBurst);

}  // namespace
}  // namespace psp

BENCHMARK_MAIN();
