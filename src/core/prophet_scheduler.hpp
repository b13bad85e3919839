// The runtime Prophet scheduler: the online realization of Algorithm 1,
// structured like the BytePS-based prototype (Fig. 7).
//
//  * Training Job Profiler — during the first `profile_iterations`
//    iterations gradient generation times and sizes are recorded while
//    transfers run the underlying BytePS default (priority order in
//    credit-sized groups) — the paper's pre-training phase, whose cost is
//    the runtime overhead examined in Sec. 5.4 / Fig. 13.
//  * Network Bandwidth Monitor — injected as a callable returning the
//    current estimate of B (wired to net::BandwidthMonitor by the engine).
//  * Gradient Block Assembler — on every NIC-idle poll during backward
//    propagation, packs partitions of ready gradients, most urgent first,
//    into one block sized to finish before the *predicted* generation time
//    of the next higher-priority gradient (Constraint (11)). If even one
//    partition does not fit, the NIC deliberately idles: the imminent
//    high-priority gradient must not queue behind us.
//  * Scheduled Queue — next_task() mirrors the prototype's getTask; its
//    reportFinish is the interface's default no-op on_task_done(), since
//    plans come from the profile and the monitor, not from completions.
//
// Once gradient 0 arrives, backward is over and the remaining gradients
// drain whole, one per task, in strict priority order (Constraint (9)).
//
// The pull direction has no stepwise generation pattern to predict (updated
// parameters arrive as the PS finishes aggregating), so the pull instance
// groups ready parameters most-urgent-first into blocks capped at
// `pull_group_max` bytes — grouped like the push blocks they mirror, capped
// to bound the preemption delay of a late-arriving parameter 0.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "core/profile.hpp"
#include "net/cost_model.hpp"
#include "sched/partition_queue.hpp"
#include "sched/scheduler.hpp"

namespace prophet::core {

struct ProphetConfig {
  // Pre-training profile length (the paper uses 50 iterations).
  std::size_t profile_iterations = 50;
  // Fraction of the predicted interval kept as safety margin.
  double budget_margin = 0.05;
  // Floor on backward-phase block assembly. When transfers run behind the
  // generation timeline the interval budget collapses to ~zero; assembling
  // at least this much keeps the per-task overhead amortized (an overdue
  // higher-priority gradient then waits at most one such block — credit-like
  // preemption granularity) instead of degenerating into P3-sized slivers.
  Bytes min_block = Bytes::mib(4);
  // Block cap outside the backward race: pull-side groups and the
  // forward-phase drain both wrap ready tensors, most urgent first, into
  // blocks of at most this many bytes (bounds the preemption delay a
  // late-arriving urgent tensor can suffer). Under a dynamic network the
  // drain-phase cap shrinks with monitored instability (prophet_scheduler.cpp).
  Bytes forward_group_max = Bytes::mib(8);
  // Ablation knob: when non-zero, Algorithm 1 uses this fixed bandwidth
  // instead of the live Network Bandwidth Monitor estimate (what Prophet
  // degenerates to without its monitor component).
  Bandwidth bandwidth_override = Bandwidth::zero();
  // Re-plan trigger (the monitor feedback loop of Fig. 7 under a *dynamic*
  // network): Algorithm 1 plans each iteration against a bandwidth snapshot;
  // when the monitored estimate drifts from that snapshot by more than this
  // fraction, the snapshot is refreshed — a re-plan — at the next iteration
  // boundary. Zero refreshes every iteration.
  double replan_drift = 0.1;
  // Schedule repair after a crash/failover: true re-plans from the monitored
  // bandwidth at the next iteration boundary (the recovery burst and any
  // sub-threshold link change since the snapshot make the pre-crash plan
  // stale); false keeps the stale plan and merely re-enqueues lost work —
  // the naive recovery the baselines use (ablation knob; bench/fault_recovery
  // measures the gap).
  bool repair_replan = true;
};

class ProphetScheduler final : public sched::CommScheduler {
 public:
  using BandwidthFn = std::function<Bandwidth()>;

  // `gradient_count` is known from the model; `bandwidth_fn` supplies the
  // monitored B; `cost` is the transfer cost model used for predictions.
  ProphetScheduler(sched::TaskKind kind, std::size_t gradient_count,
                   BandwidthFn bandwidth_fn, net::TcpCostModel cost,
                   ProphetConfig config = {});

  void enqueue(std::size_t grad, Bytes bytes, TimePoint now) override;
  std::optional<sched::TransferTask> next_task(TimePoint now) override;
  void on_iteration_start(std::size_t iteration, TimePoint now) override;
  void on_recovery(TimePoint now) override;
  void on_partial_recovery(const std::vector<std::uint8_t>& affected_keys,
                           TimePoint now) override;
  void on_gradient_skipped(std::size_t grad, TimePoint now) override;
  [[nodiscard]] bool has_pending() const override;

  // Profiling finished and the block assembler is active.
  [[nodiscard]] bool profile_ready() const { return profile_.has_value(); }
  [[nodiscard]] const GradientProfile& profile() const;

  // Injects a pre-built profile (skips the profiling phase). Used by tests
  // and by pull-side instances that share the push side's profile.
  void set_profile(GradientProfile profile);

  // Drift-triggered refreshes of the bandwidth Algorithm 1 plans against.
  [[nodiscard]] std::size_t replan_count() const { return replans_; }

 private:
  // Refreshes planning_bandwidth_ when the monitored estimate drifted past
  // config_.replan_drift; called at iteration boundaries once planning.
  void maybe_replan();
  [[nodiscard]] Bandwidth plan_bandwidth_now() const;
  // Cap on drain-phase (forward/pull) groups: forward_group_max shrunk by
  // the monitored-instability signal, clamped to
  // [max(one partition, forward_group_max / 4), forward_group_max].
  [[nodiscard]] Bytes drain_group_bytes() const;
  std::optional<sched::TransferTask> next_push_task(TimePoint now);
  std::optional<sched::TransferTask> next_pull_task(TimePoint now);
  // Predicted generation time of the next gradient more urgent than `grad`
  // that has not been enqueued yet this iteration; nullopt if none pending.
  [[nodiscard]] std::optional<TimePoint> next_higher_priority_eta(std::size_t grad) const;

  std::size_t gradient_count_;
  BandwidthFn bandwidth_fn_;
  net::TcpCostModel cost_;
  ProphetConfig config_;

  // Profiling state (push side only).
  std::unique_ptr<TrainingJobProfiler> profiler_;
  std::optional<GradientProfile> profile_;

  // Block-assembly state (also serves the profiling phase, where tasks are
  // popped most-urgent-first in fixed credit-sized groups).
  sched::PartitionQueue partitions_;
  std::vector<std::int8_t> arrived_;  // per-iteration arrival flags
  TimePoint backward_start_{};
  bool iteration_open_{false};
  Bandwidth planning_bandwidth_ = Bandwidth::zero();
  double instability_{0.0};  // peak-hold monitored drift beyond the dead-band
  std::size_t replans_{0};
};

}  // namespace prophet::core
