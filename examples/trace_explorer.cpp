// Export a per-gradient transfer trace of one training run as CSV (for
// wait-time analyses and Fig.-11-style plots) plus a Chrome trace
// (chrome://tracing / Perfetto) showing GPU compute and transfers per
// worker as a browsable Gantt chart.
//
//   ./build/examples/trace_explorer [strategy] [output.csv]
//   ./build/examples/trace_explorer prophet trace.csv
#include <cstdio>
#include <string>

#include "common/csv.hpp"
#include "ps/cluster.hpp"
#include "ps/trace_export.hpp"

int main(int argc, char** argv) {
  using namespace prophet;

  const std::string strategy_name = argc > 1 ? argv[1] : "prophet";
  const std::string out_path = argc > 2 ? argv[2] : "trace.csv";

  const auto strategy = ps::StrategyConfig::from_name(strategy_name);
  if (!strategy.has_value()) {
    std::string names;
    for (const auto& n : ps::StrategyConfig::known_names()) {
      if (!names.empty()) names += "|";
      names += n;
    }
    std::fprintf(stderr, "unknown strategy '%s' (want %s)\n",
                 strategy_name.c_str(), names.c_str());
    return 1;
  }

  ps::ClusterConfig cfg;
  cfg.model = dnn::resnet50();
  cfg.batch = 64;
  cfg.num_workers = 3;
  cfg.topology = net::TopologySpec::star(Bandwidth::gbps(2), Bandwidth::gbps(10));
  cfg.iterations = 24;
  cfg.strategy = *strategy;
  cfg.strategy.prophet_config.profile_iterations = 6;
  cfg.keep_transfer_records = true;  // both exports replay every record

  const auto result = ps::run_cluster(cfg);
  const auto& records = result.workers[0].transfers.records();

  CsvWriter csv{out_path,
                {"iteration", "grad", "direction", "bytes", "enqueued_s",
                 "started_s", "finished_s", "wait_ms", "transfer_ms"}};
  for (const auto& rec : records) {
    csv.write_row({std::to_string(rec.iteration), std::to_string(rec.grad),
                   sched::to_string(rec.kind), std::to_string(rec.bytes.count()),
                   std::to_string(rec.enqueued.to_seconds()),
                   std::to_string(rec.started.to_seconds()),
                   std::to_string(rec.finished.to_seconds()),
                   std::to_string(rec.wait().to_millis()),
                   std::to_string(rec.transfer().to_millis())});
  }
  std::printf("wrote %zu transfer records (%s, worker 0) to %s\n",
              records.size(), strategy_name.c_str(), out_path.c_str());
  std::printf("rate: %.1f samples/s/worker, GPU util %.1f%%\n",
              result.mean_rate(), 100.0 * result.mean_utilization());

  const std::string chrome_path =
      out_path.substr(0, out_path.find_last_of('.')) + ".trace.json";
  ps::export_chrome_trace(result, chrome_path);
  std::printf("wrote Chrome trace to %s (open in chrome://tracing or "
              "ui.perfetto.dev)\n",
              chrome_path.c_str());
  return 0;
}
