#include "ps/cluster.hpp"

#include <memory>
#include <vector>

#include "common/check.hpp"
#include "net/flow_network.hpp"
#include "net/topology.hpp"
#include "ps/job_runtime.hpp"
#include "sim/simulator.hpp"

namespace prophet::ps {

double ClusterResult::mean_rate() const {
  PROPHET_CHECK(!workers.empty());
  double total = 0.0;
  for (const auto& w : workers) total += w.rate_samples_per_sec;
  return total / static_cast<double>(workers.size());
}

double ClusterResult::mean_utilization() const {
  PROPHET_CHECK(!workers.empty());
  double total = 0.0;
  for (const auto& w : workers) total += w.gpu_utilization;
  return total / static_cast<double>(workers.size());
}

ClusterResult run_cluster(const ClusterConfig& config,
                          std::optional<std::size_t> measure_first) {
  config.validate();
  sim::Simulator sim;
  const net::TcpCostModel cost{config.tcp};
  net::FlowNetwork network{sim, cost, config.rate_rebalance};
  network.set_verify_rates(config.verify_rates);
  net::BuiltTopology topology{network, *config.topology};

  JobOptions options;
  options.measure_first = measure_first;
  std::vector<std::unique_ptr<JobRuntime>> jobs;
  jobs.push_back(std::make_unique<JobRuntime>(sim, network, topology, config, options));
  run_jobs(sim, jobs, config.metrics_horizon);
  return jobs.front()->collect({}, sim.events_fired());
}

}  // namespace prophet::ps
