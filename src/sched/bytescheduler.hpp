// ByteScheduler (Peng et al., SOSP'19): credit-based priority scheduling.
// Tensors are partitioned; each network operation carries up to `credit`
// bytes of the most urgent partitions. The credit arbitrates between
// preemption latency (small credit) and per-transfer overhead (large
// credit). Optionally a Bayesian-optimization auto-tuner adjusts the credit
// at runtime from the observed iteration rate — the process responsible for
// the training-rate fluctuation in the paper's Fig. 3(b).
//
// Two more baselines are settings of the same mechanism, each operation a
// blocking call acknowledged before the next (Sec. 6.1 of the paper groups
// them on that point):
//   * P3 (Jayarajan et al., MLSys'19): fixed-size partitions sent strictly
//     most-urgent-first, one per operation. Fine slicing buys fast
//     preemption at the price of per-transfer overhead — the trade-off the
//     paper's Fig. 3(a) and Table 2 probe.
//   * TicTac (Hashemi et al., MLSys'19): whole tensors in priority order.
//     It avoids P3's small-partition overhead, but a large low-priority
//     tensor already in flight blocks an urgent one for its full transfer.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>

#include "common/rng.hpp"
#include "sched/bayesopt.hpp"
#include "sched/partition_queue.hpp"
#include "sched/scheduler.hpp"

namespace prophet::sched {

struct ByteSchedulerConfig {
  // Partition granularity (BytePS default).
  Bytes partition_bytes = Bytes::mib(1);
  // Initial / fixed credit. The paper's comparison runs ByteScheduler "with
  // a default credit size" (Sec. 5.1); Fig. 5 illustrates credit = 3
  // partitions. A credit below one partition still sends one partition.
  Bytes credit_bytes = Bytes::mib(4);
  // Runtime credit auto-tuning via Bayesian optimization.
  bool autotune = false;
  // Iterations per tuning episode (rate is averaged over an episode).
  std::size_t tune_interval_iters = 5;
  // Application-level acknowledgment that replenishes the credit window
  // after each group — one round trip of credit-based flow control.
  Duration credit_ack_delay = Duration::micros(1000);

  // P3: one `partition`-sized partition per blocking call (the paper's
  // evaluation uses 4 MB, Sec. 5.1), each acknowledged after `blocking_ack`.
  static constexpr ByteSchedulerConfig p3(Bytes partition,
                                          Duration blocking_ack = kBlockingAck) {
    return {.partition_bytes = partition,
            .credit_bytes = Bytes::of(1),
            .credit_ack_delay = blocking_ack};
  }
  // TicTac: P3 with whole-tensor partitions.
  static constexpr ByteSchedulerConfig tictac(Duration blocking_ack = kBlockingAck) {
    return p3(Bytes::of(std::numeric_limits<std::int64_t>::max()), blocking_ack);
  }
};

class ByteSchedulerScheduler final : public CommScheduler {
 public:
  ByteSchedulerScheduler(TaskKind kind, ByteSchedulerConfig config = {});

  void enqueue(std::size_t grad, Bytes bytes, TimePoint now) override;
  std::optional<TransferTask> next_task(TimePoint now) override;
  void on_iteration_end(std::size_t iteration, TimePoint now) override;
  // Lost queued partitions are dropped and the tuning episode restarts: the
  // iterations spanning a crash would feed the tuner a rate the credit did
  // not cause.
  void on_recovery(TimePoint) override {
    queue_.clear();
    episode_iters_ = 0;
    episode_start_.reset();
  }
  [[nodiscard]] bool has_pending() const override { return !queue_.empty(); }

  [[nodiscard]] Bytes credit_bytes() const { return credit_; }

 private:
  void finish_tuning_episode(TimePoint now);

  ByteSchedulerConfig config_;
  PartitionQueue queue_;
  Bytes credit_;
  // Auto-tuning state.
  std::unique_ptr<BayesOpt1D> tuner_;
  Rng tuner_rng_;
  std::size_t episode_iters_{0};
  std::optional<TimePoint> episode_start_;
};

}  // namespace prophet::sched
