#include "src/common/distributions.h"

#include <algorithm>
#include <stdexcept>

namespace psp {

LognormalDistribution::LognormalDistribution(double mean_nanos, double sigma)
    : mean_(mean_nanos), sigma_(sigma) {
  if (mean_nanos <= 0) {
    throw std::invalid_argument("lognormal mean must be positive");
  }
  // E[X] = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2.
  mu_ = std::log(mean_nanos) - 0.5 * sigma * sigma;
}

Nanos LognormalDistribution::Sample(Rng& rng) const {
  // Box-Muller transform.
  double u1 = rng.NextDouble();
  double u2 = rng.NextDouble();
  if (u1 <= 0.0) {
    u1 = 1e-18;
  }
  const double z =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  const double v = std::exp(mu_ + sigma_ * z);
  return static_cast<Nanos>(v) + 1;
}

DiscreteMixture::DiscreteMixture(std::vector<Component> components)
    : components_(std::move(components)) {
  if (components_.empty()) {
    throw std::invalid_argument("mixture needs at least one component");
  }
  double total = 0;
  for (const auto& c : components_) {
    if (c.ratio < 0 || c.dist == nullptr) {
      throw std::invalid_argument("mixture component needs ratio>=0 and dist");
    }
    total += c.ratio;
  }
  if (total <= 0) {
    throw std::invalid_argument("mixture ratios must sum to > 0");
  }
  cumulative_.reserve(components_.size());
  double acc = 0;
  for (auto& c : components_) {
    c.ratio /= total;
    acc += c.ratio;
    cumulative_.push_back(acc);
    mean_ += c.ratio * c.dist->MeanNanos();
  }
  cumulative_.back() = 1.0;  // guard against rounding
}

MixtureDraw DiscreteMixture::SampleDraw(Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
  const auto mode = static_cast<uint32_t>(
      std::min<size_t>(static_cast<size_t>(it - cumulative_.begin()),
                       components_.size() - 1));
  return MixtureDraw{mode, components_[mode].dist->Sample(rng)};
}

}  // namespace psp
