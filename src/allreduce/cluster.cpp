#include "allreduce/cluster.hpp"

#include <algorithm>
#include <memory>

#include "allreduce/coordinator.hpp"
#include "allreduce/worker.hpp"
#include "common/check.hpp"
#include "net/flow_network.hpp"
#include "net/monitor.hpp"
#include "net/topology.hpp"
#include "ps/strategy.hpp"
#include "sim/simulator.hpp"

namespace prophet::ar {

ps::ClusterResult run_allreduce(const ps::ClusterConfig& cfg,
                                std::optional<std::size_t> measure_first) {
  cfg.validate();
  PROPHET_CHECK_MSG(cfg.num_workers >= 2,
                    "ar::run_allreduce: ClusterConfig::num_workers must be >= 2 "
                    "to form a ring");
  PROPHET_CHECK_MSG(cfg.dynamics.empty(),
                    "ar::run_allreduce: ClusterConfig::dynamics must be empty — "
                    "the ring models no network dynamics, faults or transport "
                    "loss");
  PROPHET_CHECK_MSG(cfg.ps_shards == 1,
                    "ar::run_allreduce: ClusterConfig::ps_shards must be 1 — "
                    "the ring has no parameter server to shard");
  PROPHET_CHECK_MSG(cfg.sync == ps::SyncMode::kBsp,
                    "ar::run_allreduce: ClusterConfig::sync must be kBsp — "
                    "ring collectives are synchronous");
  const std::size_t first =
      measure_first.has_value() ? *measure_first : cfg.default_measure_first();
  const std::size_t last = cfg.iterations;

  sim::Simulator sim;
  const net::TcpCostModel cost{cfg.tcp};
  net::FlowNetwork network{sim, cost, cfg.rate_rebalance};
  network.set_verify_rates(cfg.verify_rates);
  net::BuiltTopology topology{network, *cfg.topology};

  std::vector<net::NodeId> nodes;
  for (std::size_t w = 0; w < cfg.num_workers; ++w) {
    nodes.push_back(topology.add_host("worker" + std::to_string(w),
                                      cfg.bandwidth_of_worker(w)));
  }

  const dnn::IterationModel iteration_model{cfg.model, cfg.gpu, cfg.batch,
                                            cfg.kvstore, cfg.jitter_sigma};

  // The collective scheduler sees the ring's effective per-member rate.
  net::BandwidthMonitor monitor{sim, network, nodes[0], net::Direction::kTx,
                                cfg.monitor};
  auto scheduler =
      ps::make_scheduler(cfg.strategy, sched::TaskKind::kPush,
                         cfg.model.tensor_count(),
                         [&monitor] { return monitor.estimate(); }, cost);

  std::vector<std::unique_ptr<Worker>> workers;
  Coordinator coordinator{sim,
                          network,
                          nodes,
                          cfg.model,
                          std::move(scheduler),
                          [&workers](std::size_t w, std::size_t key) {
                            workers[w]->on_reduced(key);
                          }};

  Rng root{cfg.seed};
  for (std::size_t w = 0; w < cfg.num_workers; ++w) {
    workers.push_back(std::make_unique<Worker>(
        sim, w, cfg.iterations, &iteration_model, &coordinator, cfg.batch,
        cfg.metrics_bin, cfg.metrics_horizon, cfg.keep_transfer_records, root.fork(w)));
  }
  for (auto& worker : workers) worker->start();

  const TimePoint horizon = TimePoint::origin() + cfg.metrics_horizon;
  auto all_done = [&] {
    return std::all_of(workers.begin(), workers.end(),
                       [](const auto& w) { return w->done(); });
  };
  while (!all_done() && sim.now() < horizon) {
    if (!sim.step()) break;
  }
  PROPHET_CHECK_MSG(all_done(),
                    "all-reduce training did not finish within "
                    "ClusterConfig::metrics_horizon");
  const Duration span = sim.now() - TimePoint::origin();
  for (auto& worker : workers) worker->finish();
  monitor.stop();
  sim.run_until(horizon);

  ps::ClusterResult result;
  result.measure_first = first;
  result.measure_last = last;
  result.simulated_time = span;
  result.events_fired = sim.events_fired();
  result.rebalance = network.rebalance_stats();
  result.workers.reserve(workers.size());
  for (std::size_t w = 0; w < workers.size(); ++w) {
    Worker& worker = *workers[w];
    const auto& tm = worker.training_metrics();
    result.workers.push_back(
        {.id = w,
         .rate_samples_per_sec = tm.rate_samples_per_sec(first, last),
         .gpu_utilization = worker.gpu().utilization(first, last),
         .iterations_completed = worker.current_iteration(),
         .prophet_activated_at = std::nullopt,
         .prophet_replans = 0,
         .training = tm,
         .transfers = {},
         .gpu_series = worker.gpu().take_series(),
         .gpu_intervals = worker.gpu().take_intervals(),
         .tx_series = {},
         .rx_series = {}});
  }
  return result;
}

}  // namespace prophet::ar
