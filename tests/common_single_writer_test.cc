// SingleWriterCounter: one thread writes with a relaxed load plus store, any
// thread reads. Checked single-threaded for the arithmetic, and under
// concurrency for the two properties readers rely on: a counter that only
// grows never reads smaller than a value already seen, and no increment is
// lost. scripts/check.sh thread runs this binary under TSan.
#include "src/common/single_writer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace psp {
namespace {

TEST(SingleWriterCounter, AddSubStoreReturnTheNewValue) {
  SingleWriterCounter<uint64_t> count;
  EXPECT_EQ(count.Load(), 0u);
  EXPECT_EQ(count.Add(5), 5u);
  EXPECT_EQ(count.Sub(2), 3u);
  count.Store(40);
  EXPECT_EQ(count.Add(2), 42u);
  EXPECT_EQ(count.Load(), 42u);

  SingleWriterCounter<int64_t> signed_sum;
  EXPECT_EQ(signed_sum.Add(-7), -7);
  EXPECT_EQ(signed_sum.Add(3), -4);
}

TEST(SingleWriterCounter, ReadersSeeMonotoneValuesAndTheExactTotal) {
  constexpr uint64_t kIncrements = 200000;
  constexpr int kReaders = 2;
  SingleWriterCounter<uint64_t> count;
  std::atomic<bool> done{false};
  std::vector<uint64_t> last_seen(kReaders, 0);
  std::vector<uint64_t> regressions(kReaders, 0);

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t previous = 0;
      while (!done.load(std::memory_order_acquire)) {
        const uint64_t now = count.Load();
        if (now < previous) {
          ++regressions[r];
        }
        previous = now;
      }
      last_seen[r] = previous;
    });
  }
  std::thread writer([&] {
    for (uint64_t i = 0; i < kIncrements; ++i) {
      count.Add(1);
    }
    done.store(true, std::memory_order_release);
  });
  writer.join();
  for (std::thread& reader : readers) {
    reader.join();
  }

  EXPECT_EQ(count.Load(), kIncrements);
  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(regressions[r], 0u) << "reader " << r;
    EXPECT_LE(last_seen[r], kIncrements) << "reader " << r;
  }
}

}  // namespace
}  // namespace psp
