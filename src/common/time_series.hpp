// Time-binned series used to reproduce the paper's over-time plots
// (GPU utilization in Figs. 2/9/13, network throughput in Figs. 2/10).
#pragma once

#include <cstddef>
#include <vector>

#include "common/time.hpp"

namespace prophet {

// Accumulates weighted values into fixed-width time bins.
//
// Two usage modes, matching the two plot families in the paper:
//  * add_amount   — for throughput: bytes landing in a bin; report() divides
//                   by the bin width to yield a rate.
//  * add_interval — for utilization: a busy interval is spread across the
//                   bins it overlaps; report() divides by the bin width to
//                   yield a fraction in [0, 1].
//
// The series covers [origin, horizon) but stores bins only up to the last
// one written: a run that ends long before its horizon pays for the bins it
// used, not for the horizon. Unwritten bins read 0 and writes past the
// horizon are dropped, exactly as if every bin were preallocated.
class BinnedSeries {
 public:
  // An empty series (no bins): what a run that tracked nothing reports.
  BinnedSeries() = default;
  BinnedSeries(Duration bin_width, Duration horizon);

  void add_amount(TimePoint at, double amount);
  // Spreads `amount` uniformly over [begin, end) across the bins it overlaps
  // (used for bytes drained by a network flow at a constant rate).
  void add_amount_spread(TimePoint begin, TimePoint end, double amount);
  void add_interval(TimePoint begin, TimePoint end);

  [[nodiscard]] Duration bin_width() const { return bin_width_; }
  // Bins up to the horizon, written or not.
  [[nodiscard]] std::size_t bin_count() const { return bin_count_; }
  // Bins backed by storage: through the last bin written so far.
  [[nodiscard]] std::size_t stored_bins() const { return bins_.size(); }
  [[nodiscard]] TimePoint bin_start(std::size_t i) const;
  // Raw accumulated amount in bin i.
  [[nodiscard]] double bin_amount(std::size_t i) const;
  // Amount divided by bin width in seconds (rate or utilization fraction).
  [[nodiscard]] double bin_rate(std::size_t i) const;

  // Mean of bin_rate over bins [first, last); used for the paper's average
  // utilization / throughput claims.
  [[nodiscard]] double mean_rate(std::size_t first, std::size_t last) const;
  [[nodiscard]] double mean_rate() const { return mean_rate(0, bin_count_); }

 private:
  // Adds `per_second` times its overlap with [begin, end) to every bin the
  // span touches below the horizon, growing storage as it reaches them.
  void spread(TimePoint begin, TimePoint end, double per_second);

  Duration bin_width_{};
  std::size_t bin_count_ = 0;
  std::vector<double> bins_;
};

}  // namespace prophet
