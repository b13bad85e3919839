// Fault-recovery cost: what a mid-training fault costs each strategy beyond
// the unavoidable downtime, and — the headline — whether Prophet's schedule
// repair (a forced re-plan from the monitored bandwidth on recovery) beats
// the naive recovery the baselines use (re-enqueue lost work on the stale
// plan; ProphetConfig::repair_replan = false).
//
// Each fault point pairs the crash with a sub-threshold bandwidth shift
// (below ProphetConfig::replan_drift, so the drift trigger alone never
// fires): exactly the regime where repair matters, because the pre-crash
// planning snapshot is quietly wrong and only the recovery re-plan corrects
// it. Writes bench_results/BENCH_fault.json; exits nonzero unless repair
// wins on at least one point.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/flags.hpp"
#include "dnn/model_zoo.hpp"
#include "ps/cluster.hpp"

namespace prophet::bench {
namespace {

struct Point {
  std::string label;
  dnn::ModelSpec model;
  int batch;
  std::size_t workers;
  Bandwidth bandwidth;
  std::size_t iterations;
  double shift;   // bandwidth scale applied at the fault instant
  bool ps_fault;  // false: worker crash, true: PS crash + failover
  // 1: the whole PS tier crashes. >1: the key space stripes across this many
  // PS shards and the fault takes down shard 0 only — survivors keep serving
  // and only shard 0's keys roll back (partial rollback).
  std::size_t ps_shards = 1;
};

struct Recovery {
  double baseline_ms;
  double faulted_ms;
  double overhead_ms;  // faulted - baseline - injected downtime
};

ps::ClusterConfig point_config(const Point& point,
                               const ps::StrategyConfig& strategy) {
  ps::ClusterConfig cfg;
  cfg.model = point.model;
  cfg.batch = point.batch;
  cfg.num_workers = point.workers;
  cfg.iterations = point.iterations;
  cfg.topology = net::TopologySpec::star(point.bandwidth, point.bandwidth);
  cfg.strategy = strategy;
  cfg.strategy.prophet_config.profile_iterations = 4;
  cfg.ps_shards = point.ps_shards;
  return cfg;
}

Recovery measure(const Point& point, const ps::StrategyConfig& strategy) {
  const auto baseline = ps::run_cluster(point_config(point, strategy), 1);
  // Fault mid-run relative to this strategy's own fault-free length, so it
  // always lands inside training and each strategy replays comparable
  // remaining work. The link shift lands earlier so the bandwidth monitor
  // has converged to the new rate by the time recovery re-plans — the stale
  // snapshot is then genuinely wrong while the drift stays sub-threshold.
  const Duration fault_at = baseline.simulated_time * 0.5;
  const Duration downtime = Duration::millis(30);
  auto cfg = point_config(point, strategy);
  if (point.shift != 1.0) {
    // PS-side: the PS link is the contended bottleneck, so a worker-NIC
    // shift would never move the monitored estimate.
    cfg.dynamics.ps_bandwidth_scale(baseline.simulated_time * 0.35, point.shift);
  }
  if (point.ps_fault) {
    cfg.checkpoint_period = Duration::millis(50);
    if (point.ps_shards > 1) {
      cfg.dynamics.ps_shard_crash(fault_at, downtime, 0);
    } else {
      cfg.dynamics.ps_crash(fault_at, downtime);
    }
  } else {
    cfg.dynamics.worker_crash(fault_at, downtime, 0);
  }
  const auto faulted = ps::run_cluster(cfg, 1);
  Recovery r;
  r.baseline_ms = baseline.simulated_time.to_seconds() * 1e3;
  r.faulted_ms = faulted.simulated_time.to_seconds() * 1e3;
  r.overhead_ms = r.faulted_ms - r.baseline_ms - downtime.to_seconds() * 1e3;
  return r;
}

}  // namespace
}  // namespace prophet::bench

int main(int argc, char** argv) {
  using namespace prophet;
  using bench::Point;

  std::string error;
  const auto flags = Flags::parse(argc, argv, {"smoke", "out"}, &error);
  if (!flags) {
    std::fprintf(stderr, "fault_recovery: %s\n", error.c_str());
    return 1;
  }
  const bool smoke = flags->get("smoke", false);
  const std::string out_path =
      flags->get("out", bench::artifact_dir() + "/BENCH_fault.json");

  bench::banner("fault_recovery",
                "Recovery cost beyond downtime: Prophet's post-fault schedule "
                "repair vs naive re-enqueue on a stale plan");

  // 0.92: an 8% PS-link shift, inside the 10% drift dead-band — only the
  // recovery re-plan ever corrects the planning snapshot. The resnet50
  // points sit in the balanced compute/communication regime where Prophet's
  // interval budgets actually consume the snapshot; vgg19 at 10 Gbps is
  // network-bound (block sizes clamp at the group cap), kept as an honest
  // point where repair is expected to be a wash. The sharded failover point
  // loses 1 of 4 PS shards: survivors keep serving through the outage, the
  // planning estimate stays warm, and repair re-plans from live bandwidth —
  // the regime where partial rollback pays off.
  std::vector<Point> points = {
      {"resnet50_2w_4gbps_crash", dnn::resnet50(), 64, 2, Bandwidth::gbps(4),
       12, 0.92, false},
      {"resnet50_3w_6gbps_crash", dnn::resnet50(), 64, 3, Bandwidth::gbps(6),
       12, 0.92, false},
      {"resnet50_2w_4gbps_ps_failover", dnn::resnet50(), 64, 2,
       Bandwidth::gbps(4), 12, 0.92, true},
      {"resnet50_2w_4gbps_ps_failover_4shards", dnn::resnet50(), 64, 2,
       Bandwidth::gbps(4), 12, 0.92, true, 4},
      {"vgg19_2w_10gbps_crash", dnn::vgg19(), 64, 2, Bandwidth::gbps(10), 10,
       0.92, false},
  };
  if (smoke) {
    // CI smoke: toy-size cells, seconds not minutes. All metrics are
    // *simulated* milliseconds, so they are bit-deterministic — the
    // fault_ratchet gate compares them against the committed baseline with a
    // small tolerance and needs no RUN_SERIAL.
    points = {
        {"toy_2w_1gbps_crash", dnn::toy_cnn(), 32, 2, Bandwidth::gbps(1), 12,
         0.92, false},
        {"toy_2w_1gbps_ps_failover", dnn::toy_cnn(), 32, 2, Bandwidth::gbps(1),
         12, 0.92, true},
        {"toy_2w_1gbps_ps_failover_2shards", dnn::toy_cnn(), 32, 2,
         Bandwidth::gbps(1), 12, 0.92, true, 2},
    };
  }
  const std::vector<std::pair<std::string, ps::StrategyConfig>> naive = {
      {"fifo", ps::StrategyConfig::fifo()},
      {"p3", ps::StrategyConfig::p3()},
      {"bytescheduler", ps::StrategyConfig::bytescheduler()},
  };

  bench::BenchJson json{out_path};
  double best_advantage = -1e300;
  std::string best_point;
  for (const auto& point : points) {
    std::printf("\n%-28s baseline    faulted   overhead\n", point.label.c_str());
    json.clear_section(point.label);
    for (const auto& [name, strategy] : naive) {
      const auto r = bench::measure(point, strategy);
      std::printf("  %-26s %7.1f ms %7.1f ms %7.1f ms\n", name.c_str(),
                  r.baseline_ms, r.faulted_ms, r.overhead_ms);
      json.set(point.label, name + "_overhead_ms", r.overhead_ms);
    }
    auto repair = ps::StrategyConfig::prophet();
    auto stale = ps::StrategyConfig::prophet();
    stale.prophet_config.repair_replan = false;
    const auto with_repair = bench::measure(point, repair);
    const auto without = bench::measure(point, stale);
    std::printf("  %-26s %7.1f ms %7.1f ms %7.1f ms\n", "prophet (naive re-enqueue)",
                without.baseline_ms, without.faulted_ms, without.overhead_ms);
    std::printf("  %-26s %7.1f ms %7.1f ms %7.1f ms\n", "prophet (schedule repair)",
                with_repair.baseline_ms, with_repair.faulted_ms,
                with_repair.overhead_ms);
    json.set(point.label, "prophet_naive_overhead_ms", without.overhead_ms);
    json.set(point.label, "prophet_repair_overhead_ms", with_repair.overhead_ms);
    const double advantage = without.overhead_ms - with_repair.overhead_ms;
    json.set(point.label, "repair_advantage_ms", advantage);
    std::printf("  repair advantage: %.1f ms\n", advantage);
    if (advantage > best_advantage) {
      best_advantage = advantage;
      best_point = point.label;
    }
  }

  json.clear_section("advantage");
  json.set("advantage", "best_ms", best_advantage);
  json.save();
  std::printf("\nbest schedule-repair advantage: %.1f ms (%s)\n", best_advantage,
              best_point.c_str());
  std::printf("JSON: %s\n", out_path.c_str());
  // The smoke cells are deliberately tiny; whether repair wins there is the
  // ratchet's call (against the committed baseline), not a hard gate here.
  if (!smoke && best_advantage <= 0.0) {
    std::printf("FAIL: schedule repair never beat naive re-enqueue\n");
    return 1;
  }
  return 0;
}
