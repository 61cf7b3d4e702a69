// Order statistics shared by the client, the layer harness and the report.
#ifndef PSP_BENCH_E2E_STATS_H_
#define PSP_BENCH_E2E_STATS_H_

#include <algorithm>
#include <cmath>
#include <vector>

namespace psp {
namespace e2e {

// Nearest-rank quantile, q in [0, 1], of an unsorted sample; T{} when empty.
template <typename T>
T Quantile(std::vector<T> values, double q) {
  if (values.empty()) {
    return T{};
  }
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      rank < 1 ? 0 : std::min(values.size(), static_cast<size_t>(rank)) - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

template <typename T>
T Median(std::vector<T> values) {
  return Quantile(std::move(values), 0.5);
}

}  // namespace e2e
}  // namespace psp

#endif  // PSP_BENCH_E2E_STATS_H_
