// Microbenchmarks (google-benchmark): the engine-level costs behind the
// paper's "negligible runtime overhead" claim (Sec. 5.4) — Algorithm 1
// planning runs in microseconds per iteration against iteration times of
// hundreds of milliseconds. Results print to the console; perf numbers that
// are tracked across changes come from perfbench/.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/block_planner.hpp"
#include "core/perf_model.hpp"
#include "dnn/iteration_model.hpp"
#include "dnn/stepwise.hpp"
#include "dnn/model_zoo.hpp"
#include "net/flow_network.hpp"
#include "ps/cluster.hpp"
#include "sim/simulator.hpp"

namespace prophet {
namespace {

// Raw event engine throughput: schedule + fire.
void BM_SimulatorScheduleFire(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_after(Duration::micros(i), [] {});
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorScheduleFire);

core::GradientProfile resnet50_profile() {
  const dnn::IterationModel iteration{dnn::resnet50(), dnn::tesla_m60_pair(), 64};
  const auto timing = iteration.nominal();
  core::GradientProfile profile;
  profile.ready = timing.ready_offset;
  for (const auto& tensor : iteration.model().tensors()) {
    profile.sizes.push_back(tensor.bytes);
  }
  profile.intervals = dnn::transfer_intervals(profile.ready);
  profile.iterations_profiled = 1;
  return profile;
}

// Algorithm 1: plan one ResNet50 iteration (161 gradients). This is the
// entire per-iteration scheduling cost of Prophet.
void BM_Algorithm1PlanResNet50(benchmark::State& state) {
  const auto profile = resnet50_profile();
  const core::BlockPlanner planner{net::TcpCostModel{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(profile, Bandwidth::gbps(3)));
  }
}
BENCHMARK(BM_Algorithm1PlanResNet50);

// Performance-model evaluation of a full schedule (used by tests/ablation).
void BM_PerfModelEvaluate(benchmark::State& state) {
  const auto profile = resnet50_profile();
  const dnn::IterationModel iteration{dnn::resnet50(), dnn::tesla_m60_pair(), 64};
  const auto timing = iteration.nominal();
  const core::PerfModel model{profile, timing.fwd, Bandwidth::gbps(3),
                              net::TcpCostModel{}};
  const auto schedule =
      core::BlockPlanner{net::TcpCostModel{}}.plan(profile, Bandwidth::gbps(3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.evaluate(schedule));
  }
}
BENCHMARK(BM_PerfModelEvaluate);

// Flow network churn: admit/complete flows with rate reassignment.
void BM_FlowNetworkChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    net::FlowNetwork net{sim, net::TcpCostModel{}};
    const auto ps = net.add_node("ps", Bandwidth::gbps(10), Bandwidth::gbps(10));
    std::vector<net::NodeId> workers;
    for (int i = 0; i < 4; ++i) {
      workers.push_back(net.add_node("w", Bandwidth::gbps(10), Bandwidth::gbps(10)));
    }
    int done = 0;
    for (int round = 0; round < 50; ++round) {
      for (const auto w : workers) {
        net.start_flow(w, ps, Bytes::mib(1), [&done](net::FlowId) { ++done; });
      }
      sim.run();
    }
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_FlowNetworkChurn);

// End-to-end: one full simulated ResNet50 training iteration per strategy.
void BM_FullIterationSimulation(benchmark::State& state) {
  ps::ClusterConfig cfg;
  cfg.model = dnn::resnet50();
  cfg.num_workers = 3;
  cfg.batch = 64;
  cfg.iterations = 12;
  cfg.topology = net::TopologySpec::star(Bandwidth::gbps(3), Bandwidth::gbps(10));
  cfg.strategy = state.range(0) == 0 ? ps::StrategyConfig::fifo()
                                     : ps::StrategyConfig::prophet();
  cfg.strategy.prophet_config.profile_iterations = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ps::run_cluster(cfg, 6));
  }
  state.SetItemsProcessed(state.iterations() * 12);
  state.SetLabel(state.range(0) == 0 ? "fifo" : "prophet");
}
BENCHMARK(BM_FullIterationSimulation)->Arg(0)->Arg(1);

}  // namespace
}  // namespace prophet
