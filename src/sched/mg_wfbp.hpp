// MG-WFBP (Shi et al., INFOCOM'19): merged-gradient wait-free backward
// propagation. Consecutive gradients are merged into a single communication
// when the merge is predicted to cost less than transferring them
// separately — a *static* consolidation rule based only on sizes and a
// fixed per-message startup cost, with no knowledge of the stepwise
// generation timeline or the live bandwidth.
//
// In this engine: gradients accumulate in a priority buffer; a merge is
// emitted when the buffered bytes reach 8 MiB or when the most urgent
// buffered tensor has waited 10 ms (both constants in mg_wfbp.cpp). It is the
// natural static ancestor of Prophet's predictive blocks, which is why it
// appears in the extended comparison bench.
#pragma once

#include <map>

#include "sched/scheduler.hpp"

namespace prophet::sched {

class MgWfbpScheduler final : public CommScheduler {
 public:
  explicit MgWfbpScheduler(TaskKind kind) : CommScheduler{kind} {}

  void enqueue(std::size_t grad, Bytes bytes, TimePoint now) override;
  std::optional<TransferTask> next_task(TimePoint now) override;
  void on_recovery(TimePoint) override {
    buffer_.clear();
    buffered_ = Bytes::zero();
  }
  [[nodiscard]] bool has_pending() const override { return !buffer_.empty(); }

 private:
  struct Entry {
    Bytes bytes;
    TimePoint enqueued;
  };
  std::map<std::size_t, Entry> buffer_;  // priority-ordered
  Bytes buffered_{};
};

}  // namespace prophet::sched
