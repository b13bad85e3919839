// One-dimensional Bayesian optimization with a Gaussian-process surrogate
// (RBF kernel, Cholesky solve) and a UCB acquisition rule.
//
// This is the credit-size auto-tuner that ByteScheduler (SOSP'19) runs at
// runtime; the paper's Fig. 3(b) attributes the 44-56 samples/s training-rate
// fluctuation of the baseline to exactly this exploration process, so the
// reproduction needs the real thing rather than a stub.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"

namespace prophet::sched {

class BayesOpt1D {
 public:
  BayesOpt1D(double lo, double hi);

  // Next point to evaluate. Deterministic given the observation history and
  // `rng` stream (rng breaks acquisition ties and jitters initial probes).
  [[nodiscard]] double suggest(Rng& rng) const;

  // Records an evaluation: f(x) ~= y (larger is better).
  void observe(double x, double y);

  [[nodiscard]] std::size_t observation_count() const { return xs_.size(); }
  // Best observed point so far.
  [[nodiscard]] double best_x() const;
  [[nodiscard]] double best_y() const;

  // GP posterior at normalized t in [0,1]; exposed for tests.
  struct Posterior {
    double mean;
    double stddev;
  };
  [[nodiscard]] Posterior posterior(double t) const;

 private:
  [[nodiscard]] double normalize(double x) const { return (x - lo_) / (hi_ - lo_); }
  [[nodiscard]] double denormalize(double t) const { return lo_ + t * (hi_ - lo_); }

  double lo_;
  double hi_;
  std::vector<double> xs_;  // normalized inputs
  std::vector<double> ys_;  // raw observations
};

}  // namespace prophet::sched
