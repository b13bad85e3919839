// ByteScheduler (Peng et al., SOSP'19): credit-based priority scheduling.
// Tensors are partitioned; each network operation carries up to `credit`
// bytes of the most urgent partitions. The credit arbitrates between
// preemption latency (small credit) and per-transfer overhead (large
// credit). Optionally a Bayesian-optimization auto-tuner adjusts the credit
// at runtime from the observed iteration rate — the process responsible for
// the training-rate fluctuation in the paper's Fig. 3(b).
#pragma once

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
  // partitions.
  Bytes credit_bytes = Bytes::mib(4);
  // Runtime credit auto-tuning via Bayesian optimization.
  bool autotune = false;
  // Iterations per tuning episode (rate is averaged over an episode).
  std::size_t tune_interval_iters = 5;
  // Credit search range explored by the tuner (Fig. 3(b): ~3 MB to 13 MB):
  // from 1 MiB (bytescheduler.cpp) up to credit_max.
  Bytes credit_max = Bytes::mib(16);
  // Application-level acknowledgment that replenishes the credit window
  // after each group — one round trip of credit-based flow control.
  Duration credit_ack_delay = Duration::micros(1000);
};

class ByteSchedulerScheduler final : public CommScheduler {
 public:
  ByteSchedulerScheduler(TaskKind kind, ByteSchedulerConfig config = {});

  void enqueue(std::size_t grad, Bytes bytes, TimePoint now) override;
  std::optional<TransferTask> next_task(TimePoint now) override;
  void on_task_done(const TransferTask& task, TimePoint started,
                    TimePoint finished) override;
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
  [[nodiscard]] std::string name() const override { return "bytescheduler"; }

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
