#include "sched/fifo.hpp"

namespace prophet::sched {

void FifoScheduler::enqueue(std::size_t grad, Bytes bytes, TimePoint) {
  queue_.push_back(Entry{grad, bytes});
}

std::optional<TransferTask> FifoScheduler::next_task(TimePoint) {
  if (queue_.empty()) return std::nullopt;
  const Entry entry = queue_.front();
  queue_.pop_front();
  TransferTask task;
  task.kind = kind();
  task.items.push_back(
      TransferItem{entry.grad, Bytes::zero(), entry.bytes, /*last_slice=*/true});
  task.post_delay = blocking_ack_;
  return task;
}

}  // namespace prophet::sched
