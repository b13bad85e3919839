#include "metrics/transfer_log.hpp"

namespace prophet::metrics {

void TransferLog::record(const TransferRecord& rec) {
  ++count_;
  if (keep_records_) records_.push_back(rec);
  if (rec.kind != sched::TaskKind::kPush || rec.iteration < first_ ||
      rec.iteration >= last_) {
    return;
  }
  const double wait = rec.wait().to_millis();
  const double transfer = rec.transfer().to_millis();
  wait_ms_.add(wait);
  transfer_ms_.add(transfer);

  if (rec.grad >= per_gradient_.size()) {
    if (per_gradient_.empty()) per_gradient_.reserve(gradients_);
    const std::size_t old_size = per_gradient_.size();
    per_gradient_.resize(rec.grad + 1);
    for (std::size_t g = old_size; g < per_gradient_.size(); ++g) {
      per_gradient_[g].grad = g;
    }
  }
  auto& summary = per_gradient_[rec.grad];
  summary.wait_ms.add(wait);
  summary.transfer_ms.add(transfer);
  if (const auto t0 = backward_start(rec.iteration)) {
    summary.start_offset_ms.add((rec.started - *t0).to_millis());
    summary.end_offset_ms.add((rec.finished - *t0).to_millis());
  }
}

void TransferLog::mark_backward_start(std::size_t iteration, TimePoint at) {
  if (iteration < first_ || iteration >= last_) return;
  if (backward_starts_.empty()) backward_starts_.resize(last_ - first_);
  backward_starts_[iteration - first_] = at;
}

std::optional<TimePoint> TransferLog::backward_start(std::size_t iteration) const {
  if (iteration < first_ || iteration - first_ >= backward_starts_.size()) {
    return std::nullopt;
  }
  return backward_starts_[iteration - first_];
}

TransferLog::Overall TransferLog::overall() const {
  Overall out;
  out.count = wait_ms_.count();
  if (!wait_ms_.empty()) {
    out.mean_wait_ms = wait_ms_.mean();
    out.mean_transfer_ms = transfer_ms_.mean();
  }
  return out;
}

}  // namespace prophet::metrics
