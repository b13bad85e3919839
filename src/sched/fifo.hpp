// Default MXNet behaviour (the paper's baseline): whole tensors transferred
// in generation order, no priority, no slicing. WFBP overlap still applies
// because the engine enqueues gradients as backward produces them. Each
// key's send is a blocking KVStore call: the next send waits for the
// server-side acknowledgment (`blocking_ack`, kBlockingAck by default), the
// cost the paper pins on the conventional frameworks (Secs. 2.2, 6.1).
#pragma once

#include <deque>

#include "sched/scheduler.hpp"

namespace prophet::sched {

class FifoScheduler final : public CommScheduler {
 public:
  explicit FifoScheduler(TaskKind kind, Duration blocking_ack = kBlockingAck)
      : CommScheduler{kind}, blocking_ack_{blocking_ack} {}

  void enqueue(std::size_t grad, Bytes bytes, TimePoint now) override;
  std::optional<TransferTask> next_task(TimePoint now) override;
  void on_recovery(TimePoint) override { queue_.clear(); }
  [[nodiscard]] bool has_pending() const override { return !queue_.empty(); }

 private:
  struct Entry {
    std::size_t grad;
    Bytes bytes;
  };
  Duration blocking_ack_;
  std::deque<Entry> queue_;
};

}  // namespace prophet::sched
