// FfsBitmap (src/common/ffs_bitmap.h): the two-level find-first-set map
// shared by the timer wheel and the EDF ring. Checked against a linear scan
// at both shipped sizes: empty maps, word boundaries, the last bit, summary
// maintenance as words fill and empty, and FindFrom starting in every word.
#include "src/common/ffs_bitmap.h"

#include <gtest/gtest.h>

#include <bitset>
#include <cstdint>

namespace psp {
namespace {

// Reference answer: linear scan of a std::bitset.
template <size_t kBits>
int LinearFindFrom(const std::bitset<kBits>& bits, uint32_t from) {
  for (size_t i = from; i < kBits; ++i) {
    if (bits[i]) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

template <typename Map, size_t kBits>
void ExpectMatchesFromEveryWord(const Map& map, const std::bitset<kBits>& ref) {
  for (uint32_t w = 0; w < kBits / 64; ++w) {
    for (const uint32_t offset : {0u, 1u, 31u, 63u}) {
      const uint32_t from = w * 64 + offset;
      ASSERT_EQ(map.FindFrom(from), LinearFindFrom(ref, from))
          << "from " << from;
    }
  }
}

TEST(FfsBitmap, EmptyMapFindsNothing) {
  const FfsBitmap<256> small;
  const FfsBitmap<4096> large;
  for (uint32_t from = 0; from < 256; ++from) {
    EXPECT_EQ(small.FindFrom(from), -1);
  }
  for (uint32_t from = 0; from < 4096; from += 7) {
    EXPECT_EQ(large.FindFrom(from), -1);
  }
  EXPECT_EQ(large.FindFrom(4095), -1);
}

TEST(FfsBitmap, WordBoundariesAndLastBit) {
  FfsBitmap<4096> map;
  for (const uint32_t bit : {63u, 64u, 127u, 128u, 4032u, 4095u}) {
    map.Set(bit);
  }
  EXPECT_EQ(map.FindFrom(0), 63);
  EXPECT_EQ(map.FindFrom(63), 63);
  EXPECT_EQ(map.FindFrom(64), 64);
  EXPECT_EQ(map.FindFrom(65), 127);
  EXPECT_EQ(map.FindFrom(128), 128);
  EXPECT_EQ(map.FindFrom(129), 4032);  // skips 30 empty words via summary
  EXPECT_EQ(map.FindFrom(4033), 4095);
  EXPECT_EQ(map.FindFrom(4095), 4095);  // last bit, last word

  FfsBitmap<256> small;
  small.Set(255);
  EXPECT_EQ(small.FindFrom(0), 255);
  EXPECT_EQ(small.FindFrom(255), 255);
  small.Clear(255);
  EXPECT_EQ(small.FindFrom(0), -1);
}

TEST(FfsBitmap, SummaryClearsExactlyWhenWordEmpties) {
  // Two bits in word 1 and one in word 3: clearing one of word 1's bits must
  // keep it discoverable; clearing the second must make the search skip
  // straight to word 3 (a stale summary bit would yield a bogus index).
  FfsBitmap<256> map;
  map.Set(70);
  map.Set(100);
  map.Set(200);
  map.Clear(70);
  EXPECT_EQ(map.FindFrom(0), 100);
  map.Clear(100);
  EXPECT_EQ(map.FindFrom(0), 200);
  EXPECT_EQ(map.FindFrom(64), 200);
  // Re-setting a bit in the emptied word restores its summary bit.
  map.Set(64);
  EXPECT_EQ(map.FindFrom(0), 64);
  // Clearing an already-clear bit leaves the summary alone.
  map.Clear(65);
  EXPECT_EQ(map.FindFrom(0), 64);
}

TEST(FfsBitmap, FindFromEveryWordMatchesLinearScan) {
  // A deterministic pseudo-random population at both shipped sizes, probed
  // from several offsets in every word, then thinned and probed again.
  FfsBitmap<4096> large;
  std::bitset<4096> large_ref;
  FfsBitmap<256> small;
  std::bitset<256> small_ref;
  uint64_t lcg = 0x2545f4914f6cdd1dull;
  const auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>(lcg >> 33);
  };
  for (int i = 0; i < 40; ++i) {
    const uint32_t big = next() % 4096;
    large.Set(big);
    large_ref.set(big);
    const uint32_t little = next() % 256;
    small.Set(little);
    small_ref.set(little);
  }
  ExpectMatchesFromEveryWord(large, large_ref);
  ExpectMatchesFromEveryWord(small, small_ref);
  for (int i = 0; i < 200; ++i) {
    const uint32_t big = next() % 4096;
    large.Clear(big);
    large_ref.reset(big);
    const uint32_t little = next() % 256;
    small.Clear(little);
    small_ref.reset(little);
  }
  ExpectMatchesFromEveryWord(large, large_ref);
  ExpectMatchesFromEveryWord(small, small_ref);
}

}  // namespace
}  // namespace psp
