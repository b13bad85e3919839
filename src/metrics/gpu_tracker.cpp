#include "metrics/gpu_tracker.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace prophet::metrics {

GpuTracker::GpuTracker(Duration bin, Duration horizon, bool keep_intervals)
    : series_{bin, horizon}, keep_intervals_{keep_intervals} {}

void GpuTracker::busy_from(TimePoint start) {
  PROPHET_CHECK_MSG(!busy_since_.has_value(), "GPU already busy");
  busy_since_ = start;
}

void GpuTracker::idle_from(TimePoint end) {
  PROPHET_CHECK_MSG(busy_since_.has_value(), "GPU already idle");
  PROPHET_CHECK(end >= *busy_since_);
  series_.add_interval(*busy_since_, end);
  total_busy_ += end - *busy_since_;
  // An edge at a mark's own instant belongs to the busy time before it.
  for (auto it = marks_.rbegin(); it != marks_.rend() && it->at == end; ++it) {
    it->busy = total_busy_;
  }
  if (keep_intervals_) {
    // Merge with the previous interval when contiguous (adjacent forward
    // layers produce zero-length idle gaps).
    if (!intervals_.empty() && intervals_.back().second == *busy_since_) {
      intervals_.back().second = end;
    } else if (end > *busy_since_) {
      intervals_.emplace_back(*busy_since_, end);
    }
  }
  busy_since_.reset();
}

void GpuTracker::mark_iteration(std::size_t iter, TimePoint at) {
  PROPHET_CHECK_MSG(iter <= marks_.size(), "iterations must be marked in order");
  marks_.resize(iter);
  marks_.push_back({at, total_busy_});
}

void GpuTracker::finish(TimePoint now) {
  if (busy_since_.has_value()) idle_from(now);
}

double GpuTracker::utilization(std::size_t first, std::size_t last) const {
  PROPHET_CHECK(first < last && last < marks_.size());
  const Mark& from = marks_[first];
  const Mark& to = marks_[last];
  PROPHET_CHECK(to.at > from.at);
  return std::clamp((to.busy - from.busy) / (to.at - from.at), 0.0, 1.0);
}

}  // namespace prophet::metrics
