// One training worker: runs the forward/backward compute loop, emits
// gradients through the KVStore stepwise model, and drives its push / pull
// NICs through the configured communication scheduler.
//
// Timeline per iteration k (the paper's Fig. 6):
//   forward k   — layer by layer; layer i of iteration k requires k completed
//                 pulls of key i (Eq. (3) dependency). Waiting here is the
//                 GPU idle time T_wait that Prophet minimizes.
//   backward k  — continuous GPU work; gradients become transferable at the
//                 KVStore flush instants (the stepwise pattern) and are
//                 handed to the push scheduler (WFBP overlap).
// The NIC pump keeps at most one task in flight per direction
// (Constraint (8)); every completed push feeds the PS, every completed pull
// unblocks forward layers.
//
// Sharded PS: the worker holds one reliable channel per PS shard. A task
// popped from a scheduler is partitioned by key shard into per-shard
// sub-flows launched at the same instant (ascending shard order); the task
// completes — and reports on_task_done — only when every item was delivered.
// Items addressed to a downed shard are dropped at send time (the failover
// rollback re-enqueues that shard's work), and a sub-flow killed by a shard
// crash finishes its task silently, exactly like a whole-tier abort. With
// ps_shards=1 a task is one sub-flow on channel 0 and the timeline is
// bit-identical to the historical single-channel worker.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "audit/bsp_auditor.hpp"
#include "common/rng.hpp"
#include "dnn/iteration_model.hpp"
#include "metrics/gpu_tracker.hpp"
#include "metrics/training_metrics.hpp"
#include "metrics/transfer_log.hpp"
#include "net/flow_network.hpp"
#include "net/monitor.hpp"
#include "net/reliability.hpp"
#include "ps/server.hpp"
#include "ps/strategy.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"

namespace prophet::ps {

class Worker {
 public:
  struct Params {
    std::size_t id;
    net::NodeId node;
    // One endpoint per PS shard (ps_nodes[s] hosts shard s); a single-shard
    // tier is the one-element vector.
    std::vector<net::NodeId> ps_nodes;
    std::size_t iterations;
    // First iteration of the measurement window [measure_first, iterations)
    // the transfer log streams push summaries over.
    std::size_t measure_first = 0;
    // Keep every raw transfer record too (ClusterConfig::keep_transfer_records).
    bool keep_transfer_records = false;
    const dnn::IterationModel* iteration_model;
    Server* server;
    StrategyConfig strategy;
    net::TcpCostModel cost;
    net::BandwidthMonitorConfig monitor;
    Duration metrics_bin;
    Duration metrics_horizon;
    int batch;
    // ClusterConfig::retry_budget, for this worker's channels to the PS.
    std::size_t retry_budget = 0;
    // Optional passive BSP invariant checker (cluster-owned; may be null).
    audit::BspAuditor* auditor = nullptr;
  };

  Worker(sim::Simulator& sim, net::FlowNetwork& network, Params params, Rng rng);
  ~Worker();
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  // Kicks off iteration 0 at the current simulation time.
  void start();
  // PS callback: `key`'s updated value became pullable by this worker.
  void on_param_updated(std::size_t key);
  // Closes open metric intervals; call once after the simulation drains.
  void finish();

  // Dynamics hook: stretches this worker's compute times (forward, backward
  // and gradient-ready offsets) by `factor` from the next sampled iteration
  // on (straggler injection; factor > 1 slows this worker down).
  void set_compute_factor(double factor);

  // --- fault injection hooks (cluster driver) ------------------------------
  // Worker process dies: in-flight push/pull transfers abort, queued
  // scheduler work and partial server-side contributions are lost, compute
  // stops. The worker stays down until recover().
  void crash();
  // Worker restarts: re-claims any parameter updates it lost, drops stale
  // scheduler state (Prophet re-plans from the surviving profile) and
  // replays its current iteration from the top of forward.
  void recover();
  // The whole PS tier died: abort transfers against the dead endpoints and
  // stop pumping until rollback() delivers the recovered snapshot.
  void on_ps_crash();
  // One PS shard died: abort only that shard's channel, detach its sub-flows
  // from any active tasks, and keep serving the surviving shards. Compute is
  // NOT fenced — forward stalls only if (until) it needs a shard-k pull.
  void on_ps_shard_crash(std::size_t shard);
  // Whole-tier failover completed with checkpoint `versions`: roll per-key
  // push/pull progress back to the snapshot, force a re-pull of the snapshot
  // round and replay from the first un-aggregated iteration.
  void rollback(const std::vector<std::size_t>& versions);
  // Per-shard failover: `versions` is full-length but only shard-k entries
  // moved (the server's recover_shard contract). Only shard-k keys' progress
  // rolls back; in-flight work everywhere is restarted (partial pushes on
  // surviving shards are discarded server-side and re-sent whole during
  // replay), and schedulers get the shard-aware on_partial_recovery repair.
  void rollback_shard(std::size_t shard, const std::vector<std::size_t>& versions);
  // Transport loss probability from now on (dynamics `loss_rate` events);
  // applies to every shard's channel.
  void set_loss_rate(double rate);
  [[nodiscard]] bool crashed() const { return crashed_; }

  [[nodiscard]] std::size_t id() const { return params_.id; }
  [[nodiscard]] bool done() const { return iter_ >= params_.iterations; }
  [[nodiscard]] std::size_t current_iteration() const { return iter_; }

  // --- results ------------------------------------------------------------
  [[nodiscard]] const metrics::TrainingMetrics& training_metrics() const {
    return training_;
  }
  // Result hand-off (JobRuntime::collect moves the GPU timeline out).
  [[nodiscard]] metrics::GpuTracker& gpu() { return gpu_; }
  // Result hand-off: moves the transfer log out instead of copying it; the
  // worker's log reads empty afterwards.
  [[nodiscard]] metrics::TransferLog take_transfers() {
    return std::exchange(transfer_log_, metrics::TransferLog{});
  }
  // Iteration at which Prophet's profile became active (nullopt: not Prophet
  // or still profiling).
  [[nodiscard]] std::optional<std::size_t> prophet_activated_at() const {
    return prophet_activated_at_;
  }
  // Drift-triggered bandwidth re-plans of the push-side Prophet scheduler
  // (zero for other strategies).
  [[nodiscard]] std::size_t prophet_replans() const;

 private:
  // One scheduler task in flight, fanned out as per-shard sub-flows.
  struct ActiveTask {
    sched::TransferTask task;
    TimePoint started{};
    std::size_t open_subflows = 0;
    // A sub-flow died (shard crash) or items were dropped at send time: the
    // task finishes silently, without on_task_done.
    bool lost_items = false;
    std::vector<std::uint8_t> live_on_shard;  // sub-flow in flight per shard
  };

  void begin_iteration();
  void advance_forward();
  void begin_backward();
  void end_backward();
  void pump(sched::TaskKind kind);
  void on_subflow_done(sched::TaskKind kind, std::size_t shard,
                       const std::vector<sched::TransferItem>& items,
                       TimePoint started, const net::SendOutcome& outcome);
  // A sub-flow's items have been processed (or the sub-flow died): closes the
  // task if this was its last open sub-flow.
  void close_subflow(sched::TaskKind kind);
  // Shard `shard` crashed: detach its in-flight sub-flows from the active
  // tasks (their aborted channel callbacks never fire).
  void detach_subflows(std::size_t shard);
  [[nodiscard]] bool forward_gate_open(std::size_t layer) const;
  [[nodiscard]] sched::CommScheduler& scheduler(sched::TaskKind kind);
  [[nodiscard]] std::size_t num_shards() const { return params_.ps_nodes.size(); }
  [[nodiscard]] std::size_t shard_of(std::size_t key) const {
    return key % params_.ps_nodes.size();
  }
  [[nodiscard]] bool all_ps_down() const;
  [[nodiscard]] bool any_ps_down() const;
  // Accepts the announced round of `key` into the pull pipeline.
  void claim_pull(std::size_t key);
  // Re-claims every announced round lost across a crash or rollback.
  void reclaim_missed_pulls();
  // Re-enqueues pushes the server is still owed from the previous backward
  // (WFBP overlap lets round-`iter_` pushes trail into forward `iter_`; a
  // crash there loses them without replay ever reaching that backward).
  void repush_owed_rounds();
  // Shared teardown of crash()/on_ps_crash()/rollback(): aborts transfers,
  // fences scheduled compute, closes the GPU interval.
  void halt_inflight();
  // Restarts the current iteration from the top of forward.
  void replay_iteration();

  sim::Simulator& sim_;
  net::FlowNetwork& network_;
  Params params_;
  Rng rng_;
  // One reliable channel per PS shard, each with its own RNG stream (shard 0
  // keeps the historical stream, so ps_shards=1 replays bit-identically).
  std::vector<std::unique_ptr<net::ReliableChannel>> channels_;

  std::unique_ptr<sched::CommScheduler> push_sched_;
  std::unique_ptr<sched::CommScheduler> pull_sched_;
  std::unique_ptr<net::BandwidthMonitor> tx_monitor_;
  std::unique_ptr<net::BandwidthMonitor> rx_monitor_;

  metrics::TrainingMetrics training_;
  metrics::GpuTracker gpu_;
  metrics::TransferLog transfer_log_;

  std::size_t iter_{0};
  std::size_t fwd_layer_{0};
  double compute_factor_{1.0};
  bool waiting_for_param_{false};
  dnn::IterationTiming timing_;
  // Completed pulls per key; forward layer i of iteration k needs
  // pulls_done_[i] >= k.
  std::vector<std::size_t> pulls_done_;
  std::vector<std::int64_t> pull_pending_bytes_;  // per key, current pull round
  // Announced rounds this worker accepted into its pull pipeline; lags the
  // server version exactly by the updates lost across a crash, which is what
  // recovery re-claims.
  std::vector<std::size_t> pull_rounds_claimed_;
  // Rounds fully delivered to the PS per key, plus the partial byte count of
  // the open round — a replayed iteration skips keys already aggregated.
  std::vector<std::size_t> push_rounds_done_;
  std::vector<std::int64_t> push_round_bytes_;
  bool crashed_{false};
  std::vector<std::uint8_t> ps_shard_down_;  // per-shard endpoint liveness
  // Fences scheduled compute callbacks (forward steps, gradient flushes,
  // backward end) across crash/rollback: each captures the incarnation it
  // was scheduled under and no-ops if it moved.
  std::uint64_t incarnation_{0};
  std::vector<TimePoint> enqueue_time_push_;
  std::vector<TimePoint> enqueue_time_pull_;
  std::vector<std::size_t> enqueue_iter_push_;
  std::optional<ActiveTask> push_active_;
  std::optional<ActiveTask> pull_active_;
  // Re-poll lanes for a scheduler that declines work now but holds pending
  // tensors whose release is time-driven. Only MG-WFBP declines (its age
  // trigger); Prophet always returns a task when work is queued.
  sim::LaneId push_poll_{sim::kNoLane};
  sim::LaneId pull_poll_{sim::kNoLane};
  // NIC hold-off deadlines from blocking/credit acknowledgments: pumps
  // triggered inside the window (e.g. by an enqueue) must not start a task.
  TimePoint push_hold_{};
  TimePoint pull_hold_{};
  std::optional<std::size_t> prophet_activated_at_;
};

}  // namespace prophet::ps
