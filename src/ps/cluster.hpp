// Single-job entry point (run_cluster) and the result schema every run
// reports, PS, multi-job and all-reduce alike: wires N workers, the PS, the
// flow network and the chosen communication strategy into a Simulator, runs
// the training job, and collects every measurement the paper's evaluation
// reports.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "common/time_series.hpp"
#include "dnn/model_zoo.hpp"
#include "metrics/gpu_tracker.hpp"
#include "metrics/training_metrics.hpp"
#include "metrics/transfer_log.hpp"
#include "net/flow_network.hpp"
#include "ps/config.hpp"

namespace prophet::ps {

struct WorkerResult {
  std::size_t id = 0;
  // Headline numbers over the default measurement window.
  double rate_samples_per_sec = 0.0;
  double gpu_utilization = 0.0;
  std::size_t iterations_completed = 0;
  std::optional<std::size_t> prophet_activated_at;
  // Drift-triggered bandwidth re-plans (Prophet only; zero otherwise).
  std::size_t prophet_replans = 0;
  // Full series/logs for timeline benches. All-reduce runs leave
  // `transfers`, `tx_series` and `rx_series` empty (the ring attaches no
  // trackers).
  metrics::TrainingMetrics training;
  // Push summaries streamed over [measure_first, measure_last) plus a count
  // of every record; raw records only under
  // ClusterConfig::keep_transfer_records.
  metrics::TransferLog transfers;
  BinnedSeries gpu_series;
  // Raw GPU busy intervals, contiguous ones merged (trace export); empty
  // unless ClusterConfig::keep_transfer_records.
  std::vector<std::pair<TimePoint, TimePoint>> gpu_intervals;
  BinnedSeries tx_series;
  BinnedSeries rx_series;
};

struct ClusterResult {
  std::vector<WorkerResult> workers;
  // Measurement window (iterations) used for the headline numbers.
  std::size_t measure_first = 0;
  std::size_t measure_last = 0;
  Duration simulated_time{};
  std::uint64_t events_fired = 0;
  // BSP invariant checks evaluated by the auditor (0 under ASP).
  std::size_t audit_checks = 0;
  // Rebalance-engine counters (settlements, component walks, rate-group
  // lifecycle, verify checks) for the network this job ran on. Under
  // multi-job sharing the fabric is common, so every job reports the same
  // shared snapshot.
  net::RebalanceStats rebalance;

  // Mean per-worker training rate (samples/s) over the window.
  [[nodiscard]] double mean_rate() const;
  [[nodiscard]] double mean_utilization() const;
};

// Validates `config`, runs the configured number of iterations on a fabric
// of its own and gathers results. The rate window defaults to
// [config.default_measure_first(), iterations), which skips Prophet's
// profiling phase (plus slack) so strategies are compared at steady state;
// a default window with nothing to measure aborts before the first event.
// Pass `measure_first` to override. The window is fixed before the run
// starts: it also bounds the push summaries every worker's transfer log
// streams.
ClusterResult run_cluster(const ClusterConfig& config,
                          std::optional<std::size_t> measure_first = {});

}  // namespace prophet::ps
