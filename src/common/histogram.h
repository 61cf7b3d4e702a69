// Log-linear latency histogram (HDR-histogram style) for recording response
// times and slowdowns with bounded memory and <0.1% relative error, plus exact
// percentile extraction helpers used by benchmark harnesses.
#ifndef PSP_SRC_COMMON_HISTOGRAM_H_
#define PSP_SRC_COMMON_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace psp {

// Records non-negative int64 values. Values up to `kSubBuckets` are exact;
// larger values are bucketed with relative precision 1/kSubBuckets (~0.05%).
// The bucket array starts empty and grows to the largest value's bucket, so
// an unused histogram costs no bucket storage.
class Histogram {
 public:
  void Add(int64_t value) {
    if (value < 0) {
      value = 0;
    }
    const size_t idx = IndexFor(static_cast<uint64_t>(value));
    if (idx >= counts_.size()) {
      counts_.resize(idx + 1, 0);
    }
    ++counts_[idx];
    ++count_;
    sum_ += value;
    if (value > max_) {
      max_ = value;
    }
    if (value < min_ || count_ == 1) {
      min_ = value;
    }
  }

  // Value at percentile p in [0, 100]. Returns a representative value with
  // bucket precision. Returns 0 when empty.
  int64_t Percentile(double p) const;

  uint64_t Count() const { return count_; }
  double Mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  int64_t Max() const { return max_; }
  int64_t Min() const { return count_ == 0 ? 0 : min_; }

  void Merge(const Histogram& other);

 private:
  static constexpr uint64_t kSubBucketBits = 11;  // 2048 sub-buckets per tier
  static constexpr uint64_t kSubBuckets = 1ULL << kSubBucketBits;

  // Maps a value to a dense bucket index.
  static size_t IndexFor(uint64_t value) {
    if (value < kSubBuckets) {
      return static_cast<size_t>(value);
    }
    // Tier t covers [2^(kSubBucketBits+t-1), 2^(kSubBucketBits+t)) with
    // kSubBuckets/2 buckets of width 2^t.
    const int msb = 63 - __builtin_clzll(value);
    const int tier = msb - static_cast<int>(kSubBucketBits) + 1;
    const uint64_t width_shift = static_cast<uint64_t>(tier);
    const uint64_t offset_in_tier =
        (value >> width_shift) - (kSubBuckets >> 1);
    return static_cast<size_t>(kSubBuckets +
                               static_cast<uint64_t>(tier - 1) *
                                   (kSubBuckets >> 1) +
                               offset_in_tier);
  }

  // Highest value mapping to bucket `idx` (used for percentile reporting).
  static uint64_t ValueFor(size_t idx);

  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t max_ = 0;
  int64_t min_ = 0;
};

}  // namespace psp

#endif  // PSP_SRC_COMMON_HISTOGRAM_H_
