// GPU busy/idle accounting for one worker: the instrument behind the paper's
// utilization plots (Figs. 2, 9, 13) and average-utilization claims.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "common/time_series.hpp"

namespace prophet::metrics {

class GpuTracker {
 public:
  // `bin` / `horizon` size the utilization-over-time series.
  GpuTracker(Duration bin, Duration horizon);

  void busy_from(TimePoint start);
  void idle_from(TimePoint end);
  [[nodiscard]] bool is_busy() const { return busy_since_.has_value(); }

  // Closes any open busy interval at `now` for final accounting.
  void finish(TimePoint now);

  // Busy fraction over [from, to].
  [[nodiscard]] double utilization(TimePoint from, TimePoint to) const;
  [[nodiscard]] const BinnedSeries& series() const { return series_; }
  // Raw busy intervals in chronological order (trace export).
  [[nodiscard]] const std::vector<std::pair<TimePoint, TimePoint>>& intervals() const {
    return intervals_;
  }
  // Result hand-off: move the series / intervals out instead of copying
  // them. The tracker reads them empty afterwards; totals and utilization()
  // are unaffected.
  [[nodiscard]] BinnedSeries take_series() { return std::move(series_); }
  [[nodiscard]] std::vector<std::pair<TimePoint, TimePoint>> take_intervals() {
    return std::move(intervals_);
  }

 private:
  BinnedSeries series_;
  std::optional<TimePoint> busy_since_;
  Duration total_busy_{};
  // Busy time accumulated before `t`, sampled at interval edges; enables
  // utilization() over arbitrary windows.
  std::vector<std::pair<TimePoint, Duration>> checkpoints_;
  std::vector<std::pair<TimePoint, TimePoint>> intervals_;
};

}  // namespace prophet::metrics
