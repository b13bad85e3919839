// Training Job Profiler (Fig. 7): records, over the first ~50 iterations,
// when each gradient becomes ready for transfer relative to the start of
// backward propagation, plus the gradient sizes — producing the c^(i) / s^(i)
// inputs of Algorithm 1 and the derived expected transfer intervals A^(i).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/time.hpp"
#include "common/units.hpp"

namespace prophet::core {

struct GradientProfile {
  // s^(i): gradient payload sizes.
  std::vector<Bytes> sizes;
  // c^(i): mean ready offset from backward start; non-increasing in i.
  std::vector<Duration> ready;
  // A^(i): time from c^(i) until the next higher-priority gradient is
  // generated (Duration::max() for the final generation step). Derived from
  // `ready` via dnn::transfer_intervals.
  std::vector<Duration> intervals;
  std::size_t iterations_profiled = 0;

  [[nodiscard]] std::size_t gradient_count() const { return sizes.size(); }
  [[nodiscard]] Duration backward_duration() const;
};

class TrainingJobProfiler {
 public:
  // `gradient_count` fixes the model size up front; `target_iterations`
  // matches the paper's 50-iteration pre-training profile.
  TrainingJobProfiler(std::size_t gradient_count, std::size_t target_iterations = 50);

  void begin_iteration(TimePoint backward_start);
  // Gradient `grad` of size `size` became transferable at `when`.
  void record_ready(std::size_t grad, Bytes size, TimePoint when);
  void end_iteration();

  // Crash recovery: discards the open iteration (if any) without recording
  // it — a partially-observed iteration would skew the c^(i) means.
  void abandon_iteration();
  // Marks the open iteration as unusable (a replayed iteration that skips
  // already-aggregated gradients can never see every tensor); end_iteration
  // then discards it instead of asserting completeness. No-op when closed.
  void invalidate_iteration();

  [[nodiscard]] bool complete() const { return iterations_ >= target_; }

  // Averaged profile over everything recorded so far. Requires at least one
  // full iteration.
  [[nodiscard]] GradientProfile build() const;

 private:
  std::size_t gradient_count_;
  std::size_t target_;
  std::size_t iterations_{0};
  std::optional<TimePoint> backward_start_;
  std::vector<Bytes> sizes_;
  // Sum of ready offsets per gradient (for averaging) and per-iteration
  // scratch of this iteration's offsets. Accumulated in integer nanoseconds:
  // summing through double seconds loses sub-ns precision and makes c^(i)
  // depend on accumulation order, which would leak into the block plan.
  std::vector<std::int64_t> offset_sum_ns_;
  // This iteration's offsets are staged here and folded into the sums only
  // when the iteration completes cleanly, so a discarded iteration leaves no
  // residue in the means.
  std::vector<std::int64_t> iter_offset_ns_;
  std::vector<std::int8_t> seen_this_iter_;
  std::size_t seen_count_{0};
  bool invalid_{false};
};

}  // namespace prophet::core
