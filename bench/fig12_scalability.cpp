// Fig. 12 — scalability: ResNet50 training with Prophet from 2 to 8
// workers. The paper reports per-worker rate dropping only from 69.94 to
// 68.83 samples/s — i.e. Algorithm 1's planning cost is negligible and the
// deployment scales PS capacity with the cluster (BytePS practice: one
// server process per instance). We scale the PS NIC accordingly.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"

namespace prophet::bench {
namespace {

int run() {
  banner("Fig. 12 — scalability of Prophet with cluster size",
         "ResNet50 b64, 10 Gbps workers, PS capacity scaled with workers");
  std::vector<ps::ClusterConfig> configs;
  const std::vector<std::size_t> worker_counts{2, 3, 4, 5, 6, 7, 8};
  for (std::size_t workers : worker_counts) {
    auto cfg = paper_cluster(dnn::resnet50(), 64, workers, Bandwidth::gbps(10),
                             ps::StrategyConfig::prophet(), 32);
    cfg.topology->ps_bandwidth = Bandwidth::gbps(5.0 * static_cast<double>(workers));
    configs.push_back(std::move(cfg));
  }
  const auto results = run_all(configs);

  TextTable table{{"workers", "per-worker rate (samples/s)",
                   "aggregate rate (samples/s)", "vs 2 workers"}};
  auto csv = make_csv("fig12_scalability", {"workers", "per_worker", "aggregate"});
  const double base = results[0].mean_rate();
  for (std::size_t i = 0; i < worker_counts.size(); ++i) {
    const double per_worker = results[i].mean_rate();
    const double aggregate = per_worker * static_cast<double>(worker_counts[i]);
    table.add_row({std::to_string(worker_counts[i]),
                   TextTable::num(per_worker, 4), TextTable::num(aggregate, 4),
                   TextTable::pct(per_worker / base - 1.0, 2)});
    csv.write_row_values({static_cast<double>(worker_counts[i]), per_worker,
                          aggregate});
  }
  table.print(std::cout);
  std::printf("Paper: 69.94 (2 workers) -> 68.83 (8 workers) samples/s per "
              "worker — near-linear aggregate scaling.\n");
  return 0;
}

}  // namespace
}  // namespace prophet::bench

int main() { return prophet::bench::run(); }
