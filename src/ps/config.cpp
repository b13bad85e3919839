#include "ps/config.hpp"

#include "common/check.hpp"

namespace prophet::ps {

void ClusterConfig::validate() const {
  PROPHET_CHECK_MSG(num_workers > 0, "ClusterConfig: num_workers must be > 0");
  PROPHET_CHECK_MSG(iterations >= 2, "ClusterConfig: need at least 2 iterations");
  PROPHET_CHECK_MSG(batch > 0, "ClusterConfig: batch must be > 0");
  PROPHET_CHECK_MSG(model.tensor_count() > 0, "ClusterConfig: model has no tensors");
  PROPHET_CHECK_MSG(ps_shards >= 1,
                    "ClusterConfig::ps_shards: must be >= 1 — zero shards "
                    "would leave every key unowned");
  PROPHET_CHECK_MSG(ps_shards <= model.tensor_count(),
                    "ClusterConfig::ps_shards: more PS shards than model "
                    "tensors — shards beyond tensor_count() would own no "
                    "keys; lower --ps-shards");
  PROPHET_CHECK_MSG(jitter_sigma >= 0.0, "ClusterConfig: jitter_sigma must be >= 0");
  PROPHET_CHECK_MSG(topology.has_value(),
                    "ClusterConfig::topology: empty — set a fabric (the "
                    "default TopologySpec{} is the 10/10 Gbps star)");
  const net::TopologySpec& topo = *topology;
  topo.validate();
  PROPHET_CHECK_MSG(topo.worker_bandwidth_override.size() <= num_workers,
                    "ClusterConfig: worker_bandwidth_override longer than num_workers");
  // The fabric must seat every worker plus one host per PS shard (a star
  // seats any number). Compared without forming the sum, which a huge
  // num_workers would wrap past a star's capacity.
  const std::size_t capacity = topo.host_capacity();
  PROPHET_CHECK_MSG(num_workers <= capacity && ps_shards <= capacity - num_workers,
                    "ClusterConfig: topology rack capacity cannot hold "
                    "num_workers + ps_shards PS hosts");
  PROPHET_CHECK_MSG(update_bytes_per_sec > 0.0,
                    "ClusterConfig: update_bytes_per_sec must be > 0");
  PROPHET_CHECK_MSG(update_fixed >= Duration::zero(),
                    "ClusterConfig: update_fixed must be >= 0");
  PROPHET_CHECK_MSG(monitor.sample_period > Duration::zero(),
                    "ClusterConfig: monitor sample_period must be > 0");
  PROPHET_CHECK_MSG(metrics_bin > Duration::zero(),
                    "ClusterConfig: metrics_bin must be > 0");
  PROPHET_CHECK_MSG(metrics_horizon > metrics_bin,
                    "ClusterConfig: metrics_horizon must exceed metrics_bin");
  dynamics.validate(num_workers, ps_shards);
  // A retry budget of zero cannot survive a single drop: the transfer fails
  // permanently and the BSP round never completes.
  PROPHET_CHECK_MSG(retry_budget > 0 || !dynamics.has_loss(),
                    "ClusterConfig::retry_budget: a dynamics loss_rate event "
                    "enables transport loss, and a zero budget would hang the "
                    "first dropped transfer forever (docs/ROBUSTNESS.md)");
  // Crash recovery replays BSP rounds; under ASP there is no round to roll
  // back to, so fault plans with crashes are rejected up front.
  PROPHET_CHECK_MSG(
      sync == SyncMode::kBsp ||
          (!dynamics.has_worker_crash() && !dynamics.has_ps_crash()),
      "ClusterConfig::dynamics: crash/recovery faults require sync == "
      "SyncMode::kBsp — ASP has no BSP round boundary to replay from "
      "(lifting this is the ROADMAP item 'Async / stale-synchronous "
      "parallel mode')");
  PROPHET_CHECK_MSG(!dynamics.has_ps_crash() ||
                        checkpoint_period > Duration::zero(),
                    "ClusterConfig: ps_crash failover needs a positive "
                    "checkpoint_period to restore from");
}

std::size_t ClusterConfig::default_measure_first() const {
  std::size_t warmup = 3;
  if (strategy.kind == StrategyConfig::Kind::kProphet) {
    warmup = strategy.prophet_config.profile_iterations + 3;
  }
  PROPHET_CHECK_MSG(warmup + 1 < iterations,
                    "ClusterConfig::iterations: not enough iterations to "
                    "measure past warmup — the default window starts after "
                    "strategy.prophet_config.profile_iterations + 3 "
                    "iterations (3 for other strategies) and needs two more; "
                    "raise iterations or lower "
                    "strategy.prophet_config.profile_iterations");
  return warmup;
}

}  // namespace prophet::ps
