// Per-gradient transfer log: wait time (ready -> transfer start) and
// transmission time of the run's pushes — the data behind Fig. 11 and the
// "average wait 26 ms vs 67 ms" comparisons of Sec. 5.2.
//
// Every reader asks for pushes over the run's measurement window, so the log
// streams them: record() counts every record (pushes and pulls, any
// iteration) and folds each push of an iteration in [first, last) into its
// gradient's summary and into the overall wait/transfer stats, in record
// order. Raw records are kept only on opt-in
// (ClusterConfig::keep_transfer_records), for readers that replay the whole
// timeline: the Chrome trace export and tools that hash or re-aggregate
// records. Fault events are rare and always kept.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/stats.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "sched/task.hpp"

namespace prophet::metrics {

struct TransferRecord {
  std::size_t iteration;
  std::size_t grad;
  sched::TaskKind kind;
  Bytes bytes;           // bytes of this gradient in the task
  TimePoint enqueued;    // became transferable
  TimePoint started;     // task containing it left the NIC queue
  TimePoint finished;    // task completed
  // Transport attempts the carrying task took (1 = no retransmission).
  std::size_t attempts = 1;

  [[nodiscard]] Duration wait() const { return started - enqueued; }
  [[nodiscard]] Duration transfer() const { return finished - started; }
};

// Robustness events interleaved with the transfer timeline: transport
// retries, worker crash/recovery, PS crash and checkpoint failover.
enum class FaultKind {
  kTransportRetry,  // a reliable-transport attempt failed and backs off
  kWorkerCrash,
  kWorkerRecover,
  kPsCrash,
  kPsFailover,  // PS recovered to its last checkpoint; worker rolled back
};

[[nodiscard]] constexpr const char* fault_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kTransportRetry: return "transport_retry";
    case FaultKind::kWorkerCrash: return "worker_crash";
    case FaultKind::kWorkerRecover: return "worker_recover";
    case FaultKind::kPsCrash: return "ps_crash";
    case FaultKind::kPsFailover: return "ps_failover";
  }
  return "?";
}

struct FaultRecord {
  FaultKind kind = FaultKind::kTransportRetry;
  TimePoint at{};
  // Failed attempt number for retries, zero otherwise.
  std::size_t attempt = 0;
};

struct GradientTransferSummary {
  std::size_t grad = 0;
  RunningStats wait_ms;
  RunningStats transfer_ms;
  RunningStats start_offset_ms;  // start relative to iteration backward start
  RunningStats end_offset_ms;
};

class TransferLog {
 public:
  // Counts records and keeps faults only: the log of a run without pushes
  // (the all-reduce ring's).
  TransferLog() = default;
  // Streams the pushes of iterations [first_iter, last_iter) of a model with
  // `gradients` tensors; also keeps every raw record when `keep_records`.
  // Allocates nothing up front: the first window push reserves one summary
  // per gradient.
  TransferLog(std::size_t first_iter, std::size_t last_iter, std::size_t gradients,
              bool keep_records)
      : first_{first_iter},
        last_{last_iter},
        gradients_{gradients},
        keep_records_{keep_records} {}

  void record(const TransferRecord& rec);
  // Marks the backward start of `iteration`, the reference point of its
  // pushes' offsets. A replay after a rollback marks the iteration again;
  // each push is measured from the mark in force when it is recorded.
  void mark_backward_start(std::size_t iteration, TimePoint at);
  void record_fault(FaultRecord rec) { faults_.push_back(rec); }

  // Every record, pushes and pulls of any iteration, kept or not.
  [[nodiscard]] std::size_t count() const { return count_; }
  // Raw records in record order; empty unless kept.
  [[nodiscard]] const std::vector<TransferRecord>& records() const { return records_; }
  [[nodiscard]] const std::vector<FaultRecord>& faults() const { return faults_; }
  // The backward-start mark currently in force for `iteration`; nullopt
  // outside the window or before that iteration's backward pass.
  [[nodiscard]] std::optional<TimePoint> backward_start(std::size_t iteration) const;

  // Push summaries over the window, indexed by gradient up to the highest
  // gradient pushed in it (Fig. 11 plots gradient pushes).
  [[nodiscard]] const std::vector<GradientTransferSummary>& per_gradient() const {
    return per_gradient_;
  }

  // Mean wait / transfer across the window's pushes.
  struct Overall {
    double mean_wait_ms = 0.0;
    double mean_transfer_ms = 0.0;
    std::size_t count = 0;
  };
  [[nodiscard]] Overall overall() const;

 private:
  std::size_t first_ = 0;
  std::size_t last_ = 0;
  std::size_t gradients_ = 0;
  bool keep_records_ = false;
  std::size_t count_ = 0;
  RunningStats wait_ms_;
  RunningStats transfer_ms_;
  std::vector<GradientTransferSummary> per_gradient_;
  // Mark in force per window iteration, indexed by iteration - first_.
  std::vector<std::optional<TimePoint>> backward_starts_;
  std::vector<TransferRecord> records_;
  std::vector<FaultRecord> faults_;
};

}  // namespace prophet::metrics
