// Compare all four communication scheduling strategies on a configurable
// workload — the paper's core experiment, as a CLI.
//
//   ./build/examples/compare_schedulers [model] [batch] [workers] [gbps]
//   ./build/examples/compare_schedulers resnet50 64 3 3
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/table.hpp"
#include "exec/executor.hpp"
#include "ps/cluster.hpp"

int main(int argc, char** argv) {
  using namespace prophet;

  const std::string model_name = argc > 1 ? argv[1] : "resnet50";
  const int batch = argc > 2 ? std::atoi(argv[2]) : 64;
  const std::size_t workers = argc > 3 ? static_cast<std::size_t>(std::atoi(argv[3])) : 3;
  const double gbps = argc > 4 ? std::atof(argv[4]) : 3.0;

  struct Contender {
    std::string label;
    ps::StrategyConfig strategy;
  };
  const std::vector<Contender> contenders{
      {"mxnet-fifo", ps::StrategyConfig::fifo()},
      {"p3 (4 MB partitions)", ps::StrategyConfig::p3()},
      {"bytescheduler (autotuned credit)",
       ps::StrategyConfig::bytescheduler(Bytes::mib(4), true)},
      {"prophet", ps::StrategyConfig::prophet()},
  };

  std::vector<ps::ClusterConfig> configs;
  for (const auto& contender : contenders) {
    ps::ClusterConfig cfg;
    cfg.model = dnn::model_by_name(model_name);
    cfg.batch = batch;
    cfg.num_workers = workers;
    cfg.topology = net::TopologySpec::star(Bandwidth::gbps(gbps), Bandwidth::gbps(10));
    cfg.iterations = 40;
    cfg.strategy = contender.strategy;
    cfg.strategy.prophet_config.profile_iterations = 8;
    configs.push_back(std::move(cfg));
  }

  const std::function<ps::ClusterResult(const ps::ClusterConfig&)> runner =
      [](const ps::ClusterConfig& cfg) { return ps::run_cluster(cfg); };
  const auto results =
      exec::parallel_map<ps::ClusterConfig, ps::ClusterResult>(configs, runner);

  std::printf("%s, batch %d, %zu workers, %.1f Gbps worker NICs:\n",
              model_name.c_str(), batch, workers, gbps);
  TextTable table{{"strategy", "rate (samples/s)", "GPU util", "mean push wait (ms)"}};
  for (std::size_t i = 0; i < contenders.size(); ++i) {
    const auto& r = results[i];
    const auto waits = r.workers[0].transfers.overall();
    table.add_row({contenders[i].label, TextTable::num(r.mean_rate(), 4),
                   TextTable::pct(r.mean_utilization()),
                   TextTable::num(waits.mean_wait_ms, 3)});
  }
  table.print(std::cout);
  return 0;
}
