#include "src/common/histogram.h"

#include <algorithm>

namespace psp {

uint64_t Histogram::ValueFor(size_t idx) {
  if (idx < kSubBuckets) {
    return static_cast<uint64_t>(idx);
  }
  const uint64_t beyond = static_cast<uint64_t>(idx) - kSubBuckets;
  const uint64_t tier = beyond / (kSubBuckets >> 1) + 1;
  const uint64_t offset_in_tier = beyond % (kSubBuckets >> 1);
  const uint64_t base = ((kSubBuckets >> 1) + offset_in_tier) << tier;
  // Highest value in bucket: base + width - 1.
  return base + (1ULL << tier) - 1;
}

int64_t Histogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the target sample (1-based), matching nearest-rank semantics.
  const uint64_t target = std::max<uint64_t>(
      1, static_cast<uint64_t>(p / 100.0 * static_cast<double>(count_) + 0.5));
  uint64_t seen = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= target) {
      return static_cast<int64_t>(std::min<uint64_t>(
          ValueFor(i), static_cast<uint64_t>(max_)));
    }
  }
  return max_;
}

void Histogram::Merge(const Histogram& other) {
  if (other.counts_.size() > counts_.size()) {
    counts_.resize(other.counts_.size(), 0);
  }
  for (size_t i = 0; i < other.counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  if (other.count_ > 0) {
    if (count_ == 0 || other.min_ < min_) {
      min_ = other.min_;
    }
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

}  // namespace psp
