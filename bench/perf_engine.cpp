// Engine perf baseline: times the three hot paths every experiment sweeps —
// simulator event dispatch, LocalSearchPlanner::refine, flow-network churn —
// plus a full simulated cluster iteration, and writes BENCH_engine.json so
// the repo's perf trajectory is machine-tracked PR over PR.
//
// Run with --smoke for a fast CI pass (fewer reps, separate output file so
// the tracked artifact is only updated by full runs).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "core/block_planner.hpp"
#include "core/local_search.hpp"
#include "core/perf_model.hpp"
#include "dnn/iteration_model.hpp"
#include "dnn/model_zoo.hpp"
#include "dnn/stepwise.hpp"
#include "net/flow_network.hpp"
#include "ps/cluster.hpp"
#include "sim/simulator.hpp"

namespace prophet::bench {
namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Best-of-`reps` wall time of `body` in milliseconds.
template <typename F>
double best_of(int reps, F&& body) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_ms();
    body();
    best = std::min(best, now_ms() - t0);
  }
  return best;
}

struct DispatchResult {
  double wall_ms;
  double events_per_sec;
};

// Raw event-engine throughput: a deterministic mix of scheduling, firing,
// cancellation, and periodic chains (the access pattern of a cluster run).
DispatchResult time_dispatch(int reps, int events) {
  std::uint64_t sink = 0;
  const double wall = best_of(reps, [&] {
    sim::Simulator sim;
    Rng rng{42};
    std::vector<sim::EventHandle> handles;
    handles.reserve(static_cast<std::size_t>(events) / 8);
    for (int i = 0; i < events; ++i) {
      auto h = sim.schedule_after(Duration::micros(rng.uniform_int(0, 1'000'000)),
                                  [&sink] { ++sink; });
      if ((i & 7) == 0) handles.push_back(h);
    }
    for (std::size_t i = 0; i < handles.size(); i += 2) handles[i].cancel();
    sim::EventHandle chain = sim.schedule_periodic(
        Duration::millis(1), [&sink](TimePoint) { ++sink; });
    sim.schedule_after(Duration::millis(900), [&chain] { chain.cancel(); });
    sim.run();
  });
  return {wall, static_cast<double>(events) / (wall * 1e-3)};
}

core::GradientProfile model_profile(const dnn::ModelSpec& model) {
  const dnn::IterationModel iteration{model, dnn::tesla_m60_pair(), 64};
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

struct RefineResult {
  double wall_ms;
  double moves_per_sec;
  std::size_t moves_evaluated;
};

// Local-search refinement of a deliberately coarse ResNet152 schedule: the
// candidate-evaluation loop AutoByte-style schedule search is made of.
RefineResult time_refine(int reps) {
  const auto model = dnn::resnet152();
  const auto profile = model_profile(model);
  const dnn::IterationModel iteration{model, dnn::tesla_m60_pair(), 64};
  const core::PerfModel pm{profile, iteration.nominal().fwd, Bandwidth::gbps(3),
                           net::TcpCostModel{}};
  core::Schedule initial;
  const std::size_t n = profile.gradient_count();
  for (std::size_t g = 0; g < n; g += 4) {
    core::ScheduledTask task;
    for (std::size_t k = g; k < std::min(n, g + 4); ++k) task.grads.push_back(k);
    initial.tasks.push_back(std::move(task));
  }
  const core::LocalSearchPlanner planner{16};
  std::size_t moves = 0;
  const double wall = best_of(reps, [&] {
    const auto result = planner.refine(initial, pm);
    moves = result.moves_evaluated;
  });
  return {wall, static_cast<double>(moves) / (wall * 1e-3), moves};
}

struct FlowResult {
  double wall_ms;
  double flows_per_sec;
};

// Flow admit/re-rate/complete churn through the max-min fair allocator.
FlowResult time_flows(int reps, int rounds) {
  const int kWorkers = 8;
  const double wall = best_of(reps, [&] {
    sim::Simulator sim;
    net::FlowNetwork net{sim, net::TcpCostModel{}};
    const auto ps = net.add_node("ps", Bandwidth::gbps(10), Bandwidth::gbps(10));
    std::vector<net::NodeId> workers;
    for (int i = 0; i < kWorkers; ++i) {
      workers.push_back(net.add_node("w", Bandwidth::gbps(5), Bandwidth::gbps(5)));
    }
    int done = 0;
    for (int round = 0; round < rounds; ++round) {
      for (const auto w : workers) {
        net.start_flow(w, ps, Bytes::mib(1), [&done](net::FlowId) { ++done; });
        net.start_flow(ps, w, Bytes::kib(256), [&done](net::FlowId) { ++done; });
      }
      sim.run();
    }
  });
  const double flows = static_cast<double>(rounds) * kWorkers * 2;
  return {wall, flows / (wall * 1e-3)};
}

struct ClusterPerf {
  double wall_ms;
  double iters_per_sec;
  double events_per_sec;
};

// End-to-end: a full simulated ResNet50 Prophet run (profiling + planning +
// transfers), the unit of work every figure sweep repeats.
ClusterPerf time_cluster(int reps, std::size_t iterations) {
  ps::ClusterConfig cfg;
  cfg.model = dnn::resnet50();
  cfg.num_workers = 3;
  cfg.batch = 64;
  cfg.iterations = iterations;
  cfg.topology = net::TopologySpec::star(Bandwidth::gbps(3), Bandwidth::gbps(10));
  cfg.strategy = ps::StrategyConfig::prophet();
  cfg.strategy.prophet_config.profile_iterations = 4;
  std::uint64_t events = 0;
  const double wall = best_of(reps, [&] {
    const auto result = ps::run_cluster(cfg, 5);
    events = result.events_fired;
  });
  return {wall, static_cast<double>(iterations) / (wall * 1e-3),
          static_cast<double>(events) / (wall * 1e-3)};
}

int run(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "bench_results/BENCH_engine.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      out_path = "BENCH_engine_smoke.json";
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  banner("perf_engine",
         "Engine hot-path throughput: event dispatch, refine(), flow churn, "
         "full cluster iteration");

  const int reps = smoke ? 2 : 7;
  const auto dispatch = time_dispatch(reps, smoke ? 20'000 : 200'000);
  std::printf("event dispatch   %10.1f ms   %12.0f events/s\n", dispatch.wall_ms,
              dispatch.events_per_sec);
  const auto refine = time_refine(reps);
  std::printf("refine()         %10.1f ms   %12.0f moves/s (%zu moves)\n",
              refine.wall_ms, refine.moves_per_sec, refine.moves_evaluated);
  const auto flows = time_flows(reps, smoke ? 20 : 200);
  std::printf("flow churn       %10.1f ms   %12.0f flows/s\n", flows.wall_ms,
              flows.flows_per_sec);
  const auto cluster = time_cluster(smoke ? 1 : 3, smoke ? 6 : 12);
  std::printf("cluster iter     %10.1f ms   %12.2f iters/s   %12.0f events/s\n",
              cluster.wall_ms, cluster.iters_per_sec, cluster.events_per_sec);

  BenchJson json{out_path};
  json.clear_section("engine");
  json.set("engine", "dispatch_wall_ms", dispatch.wall_ms);
  json.set("engine", "dispatch_events_per_sec", dispatch.events_per_sec);
  json.set("engine", "refine_wall_ms", refine.wall_ms);
  json.set("engine", "refine_moves_per_sec", refine.moves_per_sec);
  json.set("engine", "flow_wall_ms", flows.wall_ms);
  json.set("engine", "flow_flows_per_sec", flows.flows_per_sec);
  json.set("engine", "cluster_wall_ms", cluster.wall_ms);
  json.set("engine", "cluster_iters_per_sec", cluster.iters_per_sec);
  json.set("engine", "cluster_events_per_sec", cluster.events_per_sec);
  json.save();
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace prophet::bench

int main(int argc, char** argv) { return prophet::bench::run(argc, argv); }
