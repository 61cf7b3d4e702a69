// Service-time and inter-arrival distributions used by workload generators.
//
// The paper's workloads (Tables 3 & 4, the RocksDB mix) are n-modal discrete
// mixtures of (nearly) fixed service times; arrivals follow a Poisson process
// (exponential inter-arrivals). We also provide exponential and lognormal
// service distributions for sensitivity experiments.
#ifndef PSP_SRC_COMMON_DISTRIBUTIONS_H_
#define PSP_SRC_COMMON_DISTRIBUTIONS_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/time.h"

namespace psp {

// A draw from an n-modal workload mixture: which mode (request type slot) was
// selected and the service time drawn for it.
struct MixtureDraw {
  uint32_t mode = 0;
  Nanos service_time = 0;
};

// Abstract positive-valued distribution over nanoseconds.
class Distribution {
 public:
  virtual ~Distribution() = default;
  virtual Nanos Sample(Rng& rng) const = 0;
  virtual double MeanNanos() const = 0;
};

// Always returns the same value.
class FixedDistribution final : public Distribution {
 public:
  explicit FixedDistribution(Nanos value) : value_(value) {}
  Nanos Sample(Rng&) const override { return value_; }
  double MeanNanos() const override { return static_cast<double>(value_); }

 private:
  Nanos value_;
};

// Exponential with the given mean.
class ExponentialDistribution final : public Distribution {
 public:
  explicit ExponentialDistribution(double mean_nanos) : mean_(mean_nanos) {}
  Nanos Sample(Rng& rng) const override {
    // Inverse CDF; clamp u away from 0 to avoid log(0).
    double u = rng.NextDouble();
    if (u <= 0.0) {
      u = 1e-18;
    }
    const double v = -mean_ * std::log(1.0 - u);
    return static_cast<Nanos>(v) + 1;  // strictly positive
  }
  double MeanNanos() const override { return mean_; }

 private:
  double mean_;
};

// Lognormal parameterised by its (linear-space) mean and sigma of the
// underlying normal.
class LognormalDistribution final : public Distribution {
 public:
  LognormalDistribution(double mean_nanos, double sigma);
  Nanos Sample(Rng& rng) const override;
  double MeanNanos() const override { return mean_; }

 private:
  double mean_;
  double mu_;
  double sigma_;
};

// Discrete mixture of component distributions with occurrence ratios; this is
// the n-modal shape of all paper workloads. Ratios are normalised internally.
class DiscreteMixture final : public Distribution {
 public:
  struct Component {
    double ratio;                                // occurrence ratio (weight)
    std::shared_ptr<const Distribution> dist;    // per-mode service time
  };

  explicit DiscreteMixture(std::vector<Component> components);

  // Distribution interface: samples a mode, then its service time.
  Nanos Sample(Rng& rng) const override { return SampleDraw(rng).service_time; }
  double MeanNanos() const override { return mean_; }

  // Returns both the mode index and the drawn service time.
  MixtureDraw SampleDraw(Rng& rng) const;

  size_t num_components() const { return components_.size(); }
  const Component& component(size_t i) const { return components_[i]; }
  // Normalised occurrence ratio of mode i.
  double ratio(size_t i) const { return components_[i].ratio; }

 private:
  std::vector<Component> components_;  // ratios normalised to sum 1
  std::vector<double> cumulative_;     // prefix sums of ratios
  double mean_ = 0;
};

// A Poisson arrival process: exponential gaps with mean 1/rate.
class PoissonProcess {
 public:
  // rate_per_sec: average arrivals per second.
  PoissonProcess(double rate_per_sec, uint64_t seed)
      : gap_mean_nanos_(1e9 / rate_per_sec), rng_(seed) {}

  // Advances and returns the next arrival instant (strictly increasing).
  Nanos NextArrival() {
    double u = rng_.NextDouble();
    if (u <= 0.0) {
      u = 1e-18;
    }
    const double gap = -gap_mean_nanos_ * std::log(1.0 - u);
    next_ += static_cast<Nanos>(gap) + 1;
    return next_;
  }

  void set_rate_per_sec(double rate_per_sec) {
    gap_mean_nanos_ = 1e9 / rate_per_sec;
  }
  double rate_per_sec() const { return 1e9 / gap_mean_nanos_; }

 private:
  double gap_mean_nanos_;
  Nanos next_ = 0;
  Rng rng_;
};

}  // namespace psp

#endif  // PSP_SRC_COMMON_DISTRIBUTIONS_H_
