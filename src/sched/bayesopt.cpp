#include "sched/bayesopt.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace prophet::sched {

namespace {

// RBF kernel length scale, in normalized [0, 1] input space.
constexpr double kLengthScale = 0.2;
// Observation noise standard deviation, relative to observed value spread.
constexpr double kNoise = 0.05;
// UCB exploration weight: acquisition = mu + kKappa * sigma.
constexpr double kKappa = 2.0;
// Acquisition is maximized over this many grid points.
constexpr std::size_t kGridPoints = 64;
// Number of initial space-filling probes before the GP takes over.
constexpr std::size_t kInitialProbes = 3;

double rbf(double a, double b) {
  const double d = (a - b) / kLengthScale;
  return std::exp(-0.5 * d * d);
}

// In-place Cholesky factorization of a symmetric positive-definite matrix
// stored row-major; returns the lower triangle.
void cholesky(std::vector<double>& a, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a[i * n + j];
      for (std::size_t k = 0; k < j; ++k) sum -= a[i * n + k] * a[j * n + k];
      if (i == j) {
        PROPHET_CHECK_MSG(sum > 0.0, "kernel matrix not positive definite");
        a[i * n + j] = std::sqrt(sum);
      } else {
        a[i * n + j] = sum / a[j * n + j];
      }
    }
    for (std::size_t j = i + 1; j < n; ++j) a[i * n + j] = 0.0;
  }
}

// Solves L y = b in place (forward substitution).
void solve_lower(const std::vector<double>& l, std::size_t n, std::vector<double>& b) {
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l[i * n + k] * b[k];
    b[i] = sum / l[i * n + i];
  }
}

// Solves L^T y = b in place (backward substitution).
void solve_upper(const std::vector<double>& l, std::size_t n, std::vector<double>& b) {
  for (std::size_t step = 0; step < n; ++step) {
    const std::size_t i = n - 1 - step;
    double sum = b[i];
    for (std::size_t k = i + 1; k < n; ++k) sum -= l[k * n + i] * b[k];
    b[i] = sum / l[i * n + i];
  }
}

}  // namespace

BayesOpt1D::BayesOpt1D(double lo, double hi) : lo_{lo}, hi_{hi} {
  PROPHET_CHECK(hi > lo);
}

void BayesOpt1D::observe(double x, double y) {
  PROPHET_CHECK(x >= lo_ && x <= hi_);
  xs_.push_back(normalize(x));
  ys_.push_back(y);
}

double BayesOpt1D::best_x() const {
  PROPHET_CHECK(!xs_.empty());
  const auto it = std::max_element(ys_.begin(), ys_.end());
  return denormalize(xs_[static_cast<std::size_t>(it - ys_.begin())]);
}

double BayesOpt1D::best_y() const {
  PROPHET_CHECK(!ys_.empty());
  return *std::max_element(ys_.begin(), ys_.end());
}

BayesOpt1D::Posterior BayesOpt1D::posterior(double t) const {
  const std::size_t n = xs_.size();
  if (n == 0) return Posterior{0.0, 1.0};

  // Center observations so the zero-mean GP prior is reasonable.
  double y_mean = 0.0;
  for (double y : ys_) y_mean += y;
  y_mean /= static_cast<double>(n);
  double y_spread = 1e-9;
  for (double y : ys_) y_spread = std::max(y_spread, std::abs(y - y_mean));

  const double noise_var = (kNoise * y_spread) * (kNoise * y_spread) + 1e-10;

  std::vector<double> k_matrix(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      k_matrix[i * n + j] = rbf(xs_[i], xs_[j]);
      if (i == j) k_matrix[i * n + j] += noise_var;
    }
  }
  cholesky(k_matrix, n);

  std::vector<double> alpha(n);
  for (std::size_t i = 0; i < n; ++i) alpha[i] = ys_[i] - y_mean;
  solve_lower(k_matrix, n, alpha);
  solve_upper(k_matrix, n, alpha);

  std::vector<double> k_star(n);
  for (std::size_t i = 0; i < n; ++i) k_star[i] = rbf(t, xs_[i]);

  double mean = y_mean;
  for (std::size_t i = 0; i < n; ++i) mean += k_star[i] * alpha[i];

  std::vector<double> v = k_star;
  solve_lower(k_matrix, n, v);
  double var = rbf(t, t);
  for (std::size_t i = 0; i < n; ++i) var -= v[i] * v[i];
  var = std::max(var, 0.0);
  // Scale predictive spread back to observation units.
  return Posterior{mean, std::sqrt(var) * y_spread};
}

double BayesOpt1D::suggest(Rng& rng) const {
  if (xs_.size() < kInitialProbes) {
    // Space-filling start: ends first, then midpoints, lightly jittered.
    static constexpr double kAnchors[] = {0.15, 0.85, 0.5, 0.3, 0.7};
    const std::size_t idx = std::min(xs_.size(), std::size_t{4});
    const double t =
        std::clamp(kAnchors[idx] + rng.uniform(-0.05, 0.05), 0.0, 1.0);
    return denormalize(t);
  }
  double best_t = 0.0;
  double best_acq = -1e300;
  for (std::size_t g = 0; g < kGridPoints; ++g) {
    const double t =
        static_cast<double>(g) / static_cast<double>(kGridPoints - 1);
    const Posterior p = posterior(t);
    const double acq = p.mean + kKappa * p.stddev +
                       1e-9 * rng.next_double();  // deterministic-ish tie break
    if (acq > best_acq) {
      best_acq = acq;
      best_t = t;
    }
  }
  return denormalize(best_t);
}

}  // namespace prophet::sched
