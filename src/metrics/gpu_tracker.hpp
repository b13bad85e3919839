// GPU busy/idle accounting for one worker: the instrument behind the paper's
// utilization plots (Figs. 2, 9, 13) and average-utilization claims.
//
// Utilization is only ever read between iteration starts, so the tracker
// samples its busy total there and nowhere else: its always-on state is one
// mark per iteration plus the binned series. A mark reads "busy time
// accumulated by the last idle edge at or before its instant", so an edge at
// the mark's own instant still counts even when it is recorded after the
// mark. Raw busy intervals are kept only on opt-in, for the Chrome trace
// export (ClusterConfig::keep_transfer_records).
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "common/time_series.hpp"

namespace prophet::metrics {

class GpuTracker {
 public:
  // `bin` / `horizon` size the utilization-over-time series; `keep_intervals`
  // also keeps every raw busy interval.
  GpuTracker(Duration bin, Duration horizon, bool keep_intervals);

  void busy_from(TimePoint start);
  void idle_from(TimePoint end);
  [[nodiscard]] bool is_busy() const { return busy_since_.has_value(); }

  // Iteration `iter` began at `at`. A replay after a fault marks its
  // iteration again: the marks from `iter` on are discarded and the new one
  // is in force, as TrainingMetrics::rewind_to does for iteration starts.
  void mark_iteration(std::size_t iter, TimePoint at);

  // Closes any open busy interval at `now` for final accounting.
  void finish(TimePoint now);

  // Busy fraction between the starts of iterations `first` and `last`.
  [[nodiscard]] double utilization(std::size_t first, std::size_t last) const;
  // Result hand-off: move the series / intervals out instead of copying
  // them. The tracker reads them empty afterwards; utilization() is
  // unaffected. Intervals are in chronological order, contiguous ones
  // merged, and empty unless kept.
  [[nodiscard]] BinnedSeries take_series() { return std::move(series_); }
  [[nodiscard]] std::vector<std::pair<TimePoint, TimePoint>> take_intervals() {
    return std::move(intervals_);
  }

 private:
  struct Mark {
    TimePoint at;
    Duration busy;  // busy time accumulated by `at`
  };

  BinnedSeries series_;
  bool keep_intervals_;
  std::optional<TimePoint> busy_since_;
  Duration total_busy_{};
  // One per iteration started, indexed by iteration.
  std::vector<Mark> marks_;
  std::vector<std::pair<TimePoint, TimePoint>> intervals_;
};

}  // namespace prophet::metrics
