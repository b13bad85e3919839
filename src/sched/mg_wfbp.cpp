#include "sched/mg_wfbp.hpp"

#include "common/check.hpp"

namespace prophet::sched {

namespace {
// Target merged-message size: the startup-cost amortization point.
constexpr Bytes kMergeBytes = Bytes::mib(8);
// Emit a partial merge once its head tensor has waited this long.
constexpr Duration kMaxDelay = Duration::millis(10);
}  // namespace

void MgWfbpScheduler::enqueue(std::size_t grad, Bytes bytes, TimePoint now) {
  PROPHET_CHECK(bytes.count() > 0);
  const bool inserted = buffer_.emplace(grad, Entry{bytes, now}).second;
  PROPHET_CHECK_MSG(inserted, "tensor enqueued twice");
  buffered_ += bytes;
}

std::optional<TransferTask> MgWfbpScheduler::next_task(TimePoint now) {
  if (buffer_.empty()) return std::nullopt;
  // Merge condition: enough bytes buffered, or the most urgent buffered
  // tensor has waited long enough that holding it back costs more than the
  // startup saving.
  const bool size_ready = buffered_ >= kMergeBytes;
  const bool age_ready = now - buffer_.begin()->second.enqueued >= kMaxDelay;
  if (!size_ready && !age_ready) return std::nullopt;

  TransferTask task;
  task.kind = kind();
  Bytes taken{};
  auto it = buffer_.begin();
  while (it != buffer_.end() && taken < kMergeBytes) {
    task.items.push_back(
        TransferItem{it->first, Bytes::zero(), it->second.bytes, true});
    taken += it->second.bytes;
    it = buffer_.erase(it);
  }
  buffered_ -= taken;
  return task;
}

}  // namespace prophet::sched
