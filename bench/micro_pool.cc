// Microbenchmarks for the network buffer pool (§4.3.1): thread-local cache
// hit path vs the shared ring path, and packet build/format costs.
#include <benchmark/benchmark.h>

#include "src/common/histogram.h"
#include "src/common/memory_pool.h"
#include "src/net/packet.h"

namespace psp {
namespace {

void BM_PoolCachedAllocFree(benchmark::State& state) {
  MemoryPool pool(kMaxPacketSize, 4096);
  BufferCache cache(&pool, 32);
  for (auto _ : state) {
    std::byte* buf = cache.Alloc();
    benchmark::DoNotOptimize(buf);
    cache.Free(buf);
  }
}
BENCHMARK(BM_PoolCachedAllocFree);

void BM_PoolGlobalAllocFree(benchmark::State& state) {
  MemoryPool pool(kMaxPacketSize, 4096);
  for (auto _ : state) {
    std::byte* buf = pool.AllocGlobal();
    benchmark::DoNotOptimize(buf);
    pool.FreeGlobal(buf);
  }
}
BENCHMARK(BM_PoolGlobalAllocFree);

void BM_BuildRequestPacket(benchmark::State& state) {
  std::byte buf[kMaxPacketSize];
  std::byte payload[64] = {};
  RequestFrame frame;
  frame.flow = FlowTuple{0x0A000001, 0x0A000002, 1234, 6789};
  frame.payload = payload;
  frame.payload_length = sizeof(payload);
  for (auto _ : state) {
    const uint32_t len = BuildRequestPacket(frame, buf, sizeof(buf));
    benchmark::DoNotOptimize(len);
  }
}
BENCHMARK(BM_BuildRequestPacket);

void BM_FormatResponseInPlace(benchmark::State& state) {
  std::byte buf[kMaxPacketSize];
  RequestFrame frame;
  frame.flow = FlowTuple{0x0A000001, 0x0A000002, 1234, 6789};
  BuildRequestPacket(frame, buf, sizeof(buf));
  for (auto _ : state) {
    const uint32_t len = FormatResponseInPlace(buf, 32);
    benchmark::DoNotOptimize(len);
  }
}
BENCHMARK(BM_FormatResponseInPlace);

void BM_HistogramAdd(benchmark::State& state) {
  Histogram h;
  int64_t v = 1;
  for (auto _ : state) {
    h.Add(v);
    v = (v * 1103515245 + 12345) & 0xFFFFF;
  }
  benchmark::DoNotOptimize(h.Count());
}
BENCHMARK(BM_HistogramAdd);

void BM_HistogramPercentile(benchmark::State& state) {
  Histogram h;
  for (int64_t i = 0; i < 100000; ++i) {
    h.Add((i * 7919) & 0xFFFFF);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.Percentile(99.9));
  }
}
BENCHMARK(BM_HistogramPercentile);

}  // namespace
}  // namespace psp

BENCHMARK_MAIN();
