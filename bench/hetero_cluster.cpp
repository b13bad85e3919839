// Sec. 5.3 — heterogeneous environments: one worker's NIC throttled to
// 500 Mbps. The paper measures 15.09 (MXNet) / 25.8 (ByteScheduler) / 26.4
// (Prophet) samples/s: block scheduling still helps, but the straggler
// compresses the optimization space under BSP. We also run the ASP
// extension (the paper's future work) to show the decoupling.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"

namespace prophet::bench {
namespace {

int run() {
  banner("Sec. 5.3 — heterogeneous cluster (one worker at 500 Mbps)",
         "ResNet50 b64, 3 workers; worker 0 throttled");

  std::vector<ps::ClusterConfig> configs;
  for (const auto& contender : all_contenders()) {
    auto cfg = paper_cluster(dnn::resnet50(), 64, 3, Bandwidth::gbps(10),
                             contender.strategy, 36);
    cfg.topology->worker_bandwidth_override = {Bandwidth::mbps(500)};
    configs.push_back(std::move(cfg));
  }
  const auto results = run_all(configs);
  const auto contenders = all_contenders();

  TextTable table{{"strategy", "rate (samples/s/worker)", "vs MXNet"}};
  auto csv = make_csv("hetero_cluster", {"strategy", "rate"});
  const double mxnet_rate = results[0].mean_rate();
  for (std::size_t i = 0; i < contenders.size(); ++i) {
    table.add_row({contenders[i].label,
                   TextTable::num(results[i].mean_rate(), 4),
                   TextTable::pct(results[i].mean_rate() / mxnet_rate - 1.0, 1)});
    csv.write_row({contenders[i].label, TextTable::num(results[i].mean_rate(), 6)});
  }
  table.print(std::cout);
  std::printf("Paper: 15.09 / - / 25.8 / 26.4 samples/s — the BSP straggler "
              "bound compresses the Prophet-vs-ByteScheduler gap to ~2%%.\n");

  // ASP extension (paper future work): the fast workers decouple.
  auto asp_cfg = paper_cluster(dnn::resnet50(), 64, 3, Bandwidth::gbps(10),
                               ps::StrategyConfig::prophet(), 36);
  asp_cfg.topology->worker_bandwidth_override = {Bandwidth::mbps(500)};
  asp_cfg.sync = ps::SyncMode::kAsp;
  const auto asp = ps::run_cluster(asp_cfg);
  std::printf("\nASP extension: per-worker rates with asynchronous updates: ");
  for (const auto& w : asp.workers) std::printf("%.1f ", w.rate_samples_per_sec);
  std::printf("samples/s — the throttled worker no longer gates its peers.\n");
  return 0;
}

}  // namespace
}  // namespace prophet::bench

int main() { return prophet::bench::run(); }
