// Buffer pool tests: ownership, conservation across caches and threads,
// exhaustion behaviour, and on-demand issue (recycling k buffers touches at
// most k, not the whole pool).
#include "src/common/memory_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

namespace psp {
namespace {

TEST(MemoryPool, RoundsBufferCountToPowerOfTwo) {
  MemoryPool pool(100, 100);
  EXPECT_EQ(pool.num_buffers(), 128u);
  EXPECT_EQ(pool.buffer_size() % 64, 0u);  // cache-line multiple
}

TEST(MemoryPool, GlobalAllocFreeRoundTrip) {
  MemoryPool pool(256, 16);
  std::byte* buf = pool.AllocGlobal();
  ASSERT_NE(buf, nullptr);
  EXPECT_TRUE(pool.Owns(buf));
  pool.FreeGlobal(buf);
  EXPECT_EQ(pool.AvailableApprox(), pool.num_buffers());
}

TEST(MemoryPool, ExhaustionReturnsNull) {
  MemoryPool pool(64, 4);
  std::vector<std::byte*> held;
  for (size_t i = 0; i < pool.num_buffers(); ++i) {
    std::byte* buf = pool.AllocGlobal();
    ASSERT_NE(buf, nullptr);
    held.push_back(buf);
  }
  EXPECT_EQ(pool.AllocGlobal(), nullptr);
  pool.FreeGlobal(held.back());
  EXPECT_NE(pool.AllocGlobal(), nullptr);
}

TEST(MemoryPool, ExhaustsOnlyOnceEveryBufferIsOut) {
  // Mix recycled and never-issued buffers: whichever source an allocation
  // draws from, exactly num_buffers come out before the pool says no.
  MemoryPool pool(64, 64);
  std::vector<std::byte*> held;
  for (int i = 0; i < 10; ++i) {
    held.push_back(pool.AllocGlobal());
  }
  for (int i = 0; i < 5; ++i) {
    pool.FreeGlobal(held.back());
    held.pop_back();
  }
  {
    BufferCache cache(&pool, 8);
    for (int i = 0; i < 20; ++i) {
      std::byte* buf = cache.Alloc();
      ASSERT_NE(buf, nullptr);
      held.push_back(buf);
    }
  }  // the cache flushes the buffers it still holds to the ring
  while (std::byte* buf = pool.AllocGlobal()) {
    held.push_back(buf);
    ASSERT_LE(held.size(), pool.num_buffers());
  }
  EXPECT_EQ(held.size(), pool.num_buffers());
  EXPECT_EQ(std::set<std::byte*>(held.begin(), held.end()).size(),
            pool.num_buffers());
  EXPECT_EQ(pool.AvailableApprox(), 0u);
  for (std::byte* buf : held) {
    pool.FreeGlobal(buf);
  }
  EXPECT_EQ(pool.AvailableApprox(), pool.num_buffers());
}

TEST(MemoryPool, RecyclingKBuffersTouchesAtMostK) {
  // A pool pre-filled in FIFO order would walk all 1024 buffers here; issued
  // on demand, the buffers ever handed out are the peak held at once.
  MemoryPool pool(128, 1024);
  constexpr size_t kHeld = 3;
  std::set<std::byte*> seen;
  std::vector<std::byte*> held;
  for (int round = 0; round < 2'000; ++round) {
    for (size_t i = 0; i < kHeld; ++i) {
      std::byte* buf = pool.AllocGlobal();
      ASSERT_NE(buf, nullptr);
      seen.insert(buf);
      held.push_back(buf);
    }
    for (std::byte* buf : held) {
      pool.FreeGlobal(buf);
    }
    held.clear();
  }
  EXPECT_LE(seen.size(), kHeld);
  EXPECT_EQ(pool.AvailableApprox(), pool.num_buffers());
}

TEST(BufferCache, RecyclingKBuffersTouchesAtMostKPlusTwoBatches) {
  // Through a cache the bound loosens by what the cache may hold (2×batch):
  // refills top up from never-issued buffers only when the ring runs dry.
  MemoryPool pool(128, 1024);
  constexpr size_t kBatch = 8;
  constexpr size_t kHeld = 5;
  BufferCache cache(&pool, kBatch);
  std::set<std::byte*> seen;
  std::vector<std::byte*> held;
  for (int round = 0; round < 2'000; ++round) {
    for (size_t i = 0; i < kHeld; ++i) {
      std::byte* buf = cache.Alloc();
      ASSERT_NE(buf, nullptr);
      seen.insert(buf);
      held.push_back(buf);
    }
    // Half the frees go straight to the ring, as workers release buffers
    // after transmission; the rest return through the cache.
    for (size_t i = 0; i < held.size(); ++i) {
      if (i % 2 == 0) {
        pool.FreeGlobal(held[i]);
      } else {
        cache.Free(held[i]);
      }
    }
    held.clear();
  }
  EXPECT_LE(seen.size(), kHeld + 2 * kBatch);
  cache.FlushAll();
  EXPECT_EQ(pool.AvailableApprox(), pool.num_buffers());
}

TEST(MemoryPool, BuffersAreDistinctAndAligned) {
  MemoryPool pool(128, 8);
  std::set<std::byte*> seen;
  for (size_t i = 0; i < pool.num_buffers(); ++i) {
    std::byte* buf = pool.AllocGlobal();
    ASSERT_NE(buf, nullptr);
    EXPECT_TRUE(seen.insert(buf).second) << "duplicate buffer";
    EXPECT_EQ(reinterpret_cast<uintptr_t>(buf) % 64, 0u);
  }
}

TEST(MemoryPool, OwnsRejectsForeignAndMisalignedPointers) {
  MemoryPool pool(128, 8);
  std::byte outside;
  EXPECT_FALSE(pool.Owns(&outside));
  std::byte* buf = pool.AllocGlobal();
  EXPECT_FALSE(pool.Owns(buf + 1));  // interior pointer
  pool.FreeGlobal(buf);
}

TEST(BufferCache, AllocFreeThroughCache) {
  MemoryPool pool(128, 64);
  BufferCache cache(&pool, 8);
  std::byte* a = cache.Alloc();
  std::byte* b = cache.Alloc();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  cache.Free(a);
  cache.Free(b);
  cache.FlushAll();
  EXPECT_EQ(pool.AvailableApprox(), pool.num_buffers());
}

TEST(BufferCache, RefillsInBatches) {
  MemoryPool pool(128, 64);
  BufferCache cache(&pool, 8);
  (void)cache.Alloc();
  // One refill of 8 pulled from the pool; 7 remain cached.
  EXPECT_EQ(cache.CachedCount(), 7u);
  EXPECT_EQ(pool.AvailableApprox(), pool.num_buffers() - 8);
}

TEST(BufferCache, FlushesWhenOverfull) {
  MemoryPool pool(128, 128);
  BufferCache cache(&pool, 4);
  std::vector<std::byte*> bufs;
  for (int i = 0; i < 16; ++i) {
    bufs.push_back(cache.Alloc());
  }
  for (auto* b : bufs) {
    cache.Free(b);
  }
  // Cache flushed excess back: it never retains more than 2×batch.
  EXPECT_LE(cache.CachedCount(), 8u);
}

TEST(BufferCache, DestructorReturnsEverything) {
  MemoryPool pool(128, 32);
  {
    BufferCache cache(&pool, 8);
    for (int i = 0; i < 5; ++i) {
      std::byte* b = cache.Alloc();
      ASSERT_NE(b, nullptr);
      cache.Free(b);
    }
  }
  EXPECT_EQ(pool.AvailableApprox(), pool.num_buffers());
}

TEST(BufferCache, ConservationAcrossThreads) {
  // Workers alloc/free through private caches concurrently; afterwards every
  // buffer must be back (the paper's workers release buffers after TX).
  MemoryPool pool(256, 1024);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool] {
      BufferCache cache(&pool, 16);
      std::vector<std::byte*> held;
      for (int round = 0; round < 5'000; ++round) {
        if ((round & 3) != 3) {
          std::byte* b = cache.Alloc();
          if (b != nullptr) {
            held.push_back(b);
          }
        } else if (!held.empty()) {
          cache.Free(held.back());
          held.pop_back();
        }
      }
      for (auto* b : held) {
        cache.Free(b);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(pool.AvailableApprox(), pool.num_buffers());
}

TEST(BufferCache, ConcurrentHoldersNeverShareABuffer) {
  // Each thread stamps its id into every buffer it holds and checks the stamp
  // before releasing it: a buffer issued twice (once from the ring, once as
  // never-issued, or by two racing claims) would carry another owner's id.
  // The threads start together and first take a share of the pool without
  // freeing, so their never-issued claims contend; then they churn a pool
  // small enough to run dry, so allocations race on the ring and the
  // never-issued index alike.
  MemoryPool pool(64, 2048);
  constexpr int kThreads = 4;
  std::atomic<int> waiting{kThreads};
  std::atomic<int> shared{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &waiting, &shared, t] {
      BufferCache cache(&pool, 4);
      std::vector<std::byte*> held;
      const auto take = [&](bool global) {
        std::byte* buf = global ? pool.AllocGlobal() : cache.Alloc();
        if (buf != nullptr) {
          std::memcpy(buf, &t, sizeof(t));
          held.push_back(buf);
        }
      };
      const auto release = [&](bool global) {
        std::byte* buf = held.back();
        held.pop_back();
        int owner = -1;
        std::memcpy(&owner, buf, sizeof(owner));
        if (owner != t) {
          shared.fetch_add(1, std::memory_order_relaxed);
        }
        if (global) {
          pool.FreeGlobal(buf);
        } else {
          cache.Free(buf);
        }
      };
      waiting.fetch_sub(1);
      while (waiting.load() > 0) {
      }
      for (int i = 0; i < 400; ++i) {
        take((i & 1) != 0);
      }
      for (int round = 0; round < 20'000; ++round) {
        if (round % 5 < 3 || held.empty()) {
          take((round & 1) != 0);
        } else {
          release((round & 2) != 0);
        }
      }
      while (!held.empty()) {
        release(false);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(shared.load(), 0);
  EXPECT_EQ(pool.AvailableApprox(), pool.num_buffers());
}

}  // namespace
}  // namespace psp
