// Quickstart: simulate distributed training of ResNet50 on a 1 PS +
// 3 worker cluster with Prophet's predictable communication scheduling,
// and print the headline numbers.
//
//   ./build/examples/quickstart
#include <cstdio>

#include "ps/cluster.hpp"

int main() {
  using namespace prophet;

  // 1. Describe the training job: model, batch size, cluster shape.
  ps::ClusterConfig config;
  config.model = dnn::resnet50();
  config.batch = 64;
  config.num_workers = 3;
  config.topology = net::TopologySpec::star(/*worker_bw=*/Bandwidth::gbps(3),
                                            /*ps_bw=*/Bandwidth::gbps(10));
  config.iterations = 40;

  // 2. Pick the communication scheduling strategy. Prophet profiles the
  //    first iterations, then assembles gradient blocks sized to the
  //    stepwise generation pattern and the monitored bandwidth.
  config.strategy = ps::StrategyConfig::prophet();
  config.strategy.prophet_config.profile_iterations = 10;

  // 3. Run the simulation and read the results.
  const ps::ClusterResult result = ps::run_cluster(config);

  std::printf("Trained %zu iterations on %zu workers in %.2f simulated "
              "seconds\n",
              config.iterations, config.num_workers,
              result.simulated_time.to_seconds());
  std::printf("Training rate : %.1f samples/s per worker\n", result.mean_rate());
  std::printf("GPU utilization: %.1f%%\n", 100.0 * result.mean_utilization());
  const auto& worker0 = result.workers[0];
  if (worker0.prophet_activated_at.has_value()) {
    std::printf("Prophet's block assembler activated at iteration %zu (after "
                "profiling)\n",
                *worker0.prophet_activated_at);
  }
  const auto waits = worker0.transfers.overall();
  std::printf("Mean gradient wait before transfer: %.2f ms over %zu pushes\n",
              waits.mean_wait_ms, waits.count);
  return 0;
}
