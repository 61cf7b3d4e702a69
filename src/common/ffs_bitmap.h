// Two-level find-first-set bitmap in the Eiffel cFFS style: kBits occupancy
// bits in 64-bit words, plus one summary word whose bit w is set iff word w
// is non-zero. FindFrom is constant work whatever the population — one ctz on
// the starting word, one on the summary, one on the word it names.
//
// Shared by the simulator's timer wheel (src/sim/event_queue.h, one 256-bit
// map per level) and the EDF deadline ring (src/sched/edf_queue.h, 4096
// buckets). One summary word caps the size at 64 words = 4096 bits.
#ifndef PSP_SRC_COMMON_FFS_BITMAP_H_
#define PSP_SRC_COMMON_FFS_BITMAP_H_

#include <cassert>
#include <cstdint>

namespace psp {

template <uint32_t kBits>
class FfsBitmap {
  static_assert(kBits >= 64 && kBits <= 4096 && kBits % 64 == 0,
                "one summary word covers 1..64 whole 64-bit words");

 public:
  void Set(uint32_t bit) {
    assert(bit < kBits);
    words_[bit >> 6] |= uint64_t{1} << (bit & 63);
    summary_ |= uint64_t{1} << (bit >> 6);
  }

  void Clear(uint32_t bit) {
    assert(bit < kBits);
    uint64_t& word = words_[bit >> 6];
    word &= ~(uint64_t{1} << (bit & 63));
    if (word == 0) {
      summary_ &= ~(uint64_t{1} << (bit >> 6));
    }
  }

  // Lowest set bit >= `from`, or -1 when there is none.
  int FindFrom(uint32_t from) const {
    assert(from < kBits);
    const uint32_t w = from >> 6;
    const uint64_t head = words_[w] & (~uint64_t{0} << (from & 63));
    if (head != 0) {
      return static_cast<int>(w * 64 + Ctz(head));
    }
    // Summary bits strictly above w (2 << 63 wraps to 0, masking nothing).
    const uint64_t above = summary_ & ~((uint64_t{2} << w) - 1);
    if (above == 0) {
      return -1;
    }
    const uint32_t next = Ctz(above);
    return static_cast<int>(next * 64 + Ctz(words_[next]));
  }

 private:
  static constexpr uint32_t kWords = kBits / 64;

  static uint32_t Ctz(uint64_t x) {
    return static_cast<uint32_t>(__builtin_ctzll(x));
  }

  uint64_t words_[kWords] = {};
  uint64_t summary_ = 0;  // bit w set iff words_[w] != 0
};

}  // namespace psp

#endif  // PSP_SRC_COMMON_FFS_BITMAP_H_
