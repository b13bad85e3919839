// One-shot capture of pre-optimization engine outputs: prints the reference
// constants baked into tests/test_engine_perf_invariants.cpp. Built with the
// tree (not a test); from the repo root, after `cmake --build build`:
//   ./build/tools/golden_capture
#include <bit>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "allreduce/cluster.hpp"
#include "cluster/multi_job.hpp"
#include "common/rng.hpp"
#include "core/block_planner.hpp"
#include "core/local_search.hpp"
#include "core/perf_model.hpp"
#include "dnn/iteration_model.hpp"
#include "dnn/model_zoo.hpp"
#include "dnn/stepwise.hpp"
#include "net/flow_network.hpp"
#include "net/topology.hpp"
#include "ps/cluster.hpp"
#include "sim/simulator.hpp"

namespace prophet {
namespace {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}
constexpr std::uint64_t kFnvSeed = 14695981039346656037ull;

std::uint64_t hash_schedule(const core::Schedule& s) {
  std::uint64_t h = kFnvSeed;
  for (const auto& t : s.tasks) {
    h = fnv1a(h, static_cast<std::uint64_t>(t.start.count_nanos()));
    h = fnv1a(h, t.grads.size());
    for (std::size_t g : t.grads) h = fnv1a(h, g);
  }
  return h;
}

std::uint64_t hash_breakdown(const core::WaitTimeBreakdown& b) {
  std::uint64_t h = kFnvSeed;
  h = fnv1a(h, static_cast<std::uint64_t>(b.t_wait.count_nanos()));
  h = fnv1a(h, static_cast<std::uint64_t>(b.span.count_nanos()));
  for (auto d : b.update_done) h = fnv1a(h, static_cast<std::uint64_t>(d.count_nanos()));
  for (auto d : b.forward_done) h = fnv1a(h, static_cast<std::uint64_t>(d.count_nanos()));
  return h;
}

// Each worker's gpu_utilization as its exact IEEE-754 bits, in worker order.
void print_gpu_bits(const ps::ClusterResult& result) {
  std::printf(" gpu_bits=");
  for (std::size_t w = 0; w < result.workers.size(); ++w) {
    std::printf("%s0x%016llxull", w == 0 ? "" : ",",
                (unsigned long long)std::bit_cast<std::uint64_t>(
                    result.workers[w].gpu_utilization));
  }
  std::printf("\n");
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

void capture_planner(const char* name, const dnn::ModelSpec& model) {
  const auto profile = model_profile(model);
  const dnn::IterationModel iteration{model, dnn::tesla_m60_pair(), 64};
  const auto timing = iteration.nominal();
  const core::PerfModel pm{profile, timing.fwd, Bandwidth::gbps(3), net::TcpCostModel{}};
  const auto greedy = core::BlockPlanner{net::TcpCostModel{}}.plan(profile, Bandwidth::gbps(3));
  std::printf("%s plan_tasks=%zu plan_hash=%lluull\n", name, greedy.tasks.size(),
              (unsigned long long)hash_schedule(greedy));
  const auto eval = pm.evaluate(core::LocalSearchPlanner::retime(greedy, pm));
  std::printf("%s greedy_twait=%lld greedy_span=%lld eval_hash=%lluull\n", name,
              (long long)eval.t_wait.count_nanos(), (long long)eval.span.count_nanos(),
              (unsigned long long)hash_breakdown(eval));
  const core::LocalSearchPlanner planner{8};
  const auto refined = planner.refine(greedy, pm);
  std::printf(
      "%s refined_twait=%lld refined_span=%lld applied=%zu evaluated=%zu "
      "sched_hash=%lluull bd_hash=%lluull tasks=%zu\n",
      name, (long long)refined.breakdown.t_wait.count_nanos(),
      (long long)refined.breakdown.span.count_nanos(), refined.moves_applied,
      refined.moves_evaluated, (unsigned long long)hash_schedule(refined.schedule),
      (unsigned long long)hash_breakdown(refined.breakdown), refined.schedule.tasks.size());
}

// Refinement from deliberately poor initial schedules, so the accept/commit
// path of refine() is exercised (BlockPlanner output is already optimal).
void capture_refine_hard(const char* name, const dnn::ModelSpec& model,
                         std::size_t chunk) {
  const auto profile = model_profile(model);
  const dnn::IterationModel iteration{model, dnn::tesla_m60_pair(), 64};
  const auto timing = iteration.nominal();
  const core::PerfModel pm{profile, timing.fwd, Bandwidth::gbps(3), net::TcpCostModel{}};
  core::Schedule initial;
  const std::size_t n = profile.gradient_count();
  for (std::size_t g = 0; g < n; g += chunk) {
    core::ScheduledTask task;
    for (std::size_t k = g; k < std::min(n, g + chunk); ++k) task.grads.push_back(k);
    initial.tasks.push_back(std::move(task));
  }
  const core::LocalSearchPlanner planner{16};
  const auto refined = planner.refine(initial, pm);
  std::printf(
      "hard %s chunk=%zu twait=%lld span=%lld applied=%zu evaluated=%zu "
      "sched_hash=%lluull bd_hash=%lluull tasks=%zu\n",
      name, chunk, (long long)refined.breakdown.t_wait.count_nanos(),
      (long long)refined.breakdown.span.count_nanos(), refined.moves_applied,
      refined.moves_evaluated, (unsigned long long)hash_schedule(refined.schedule),
      (unsigned long long)hash_breakdown(refined.breakdown), refined.schedule.tasks.size());
}

// Random profiles through the same path, so odd ready/size patterns (ties,
// zero gaps) are pinned too.
void capture_refine_random(std::uint64_t seed, std::size_t n) {
  Rng rng{seed};
  std::vector<Duration> ready(n);
  std::vector<Bytes> sizes(n);
  Duration clock{};
  for (std::size_t step = 0; step < n; ++step) {
    const std::size_t idx = n - 1 - step;
    if (step == 0 || rng.bernoulli(0.6)) clock += Duration::millis(rng.uniform_int(2, 25));
    ready[idx] = clock;
    sizes[idx] = Bytes::kib(rng.uniform_int(16, 4096));
  }
  core::GradientProfile profile;
  profile.ready = ready;
  profile.sizes = sizes;
  profile.intervals = dnn::transfer_intervals(profile.ready);
  profile.iterations_profiled = 1;
  std::vector<Duration> fwd(n, Duration::millis(2));
  const core::PerfModel pm{profile, fwd, Bandwidth::gbps(1), net::TcpCostModel{}};
  core::Schedule initial;
  for (std::size_t g = 0; g < n; ++g) {
    core::ScheduledTask task;
    task.grads.push_back(g);
    initial.tasks.push_back(std::move(task));
  }
  const core::LocalSearchPlanner planner{32};
  const auto refined = planner.refine(initial, pm);
  std::printf(
      "random seed=%llu n=%zu twait=%lld span=%lld applied=%zu evaluated=%zu "
      "sched_hash=%lluull bd_hash=%lluull tasks=%zu\n",
      (unsigned long long)seed, n, (long long)refined.breakdown.t_wait.count_nanos(),
      (long long)refined.breakdown.span.count_nanos(), refined.moves_applied,
      refined.moves_evaluated, (unsigned long long)hash_schedule(refined.schedule),
      (unsigned long long)hash_breakdown(refined.breakdown), refined.schedule.tasks.size());
}

void capture_sim() {
  sim::Simulator sim;
  Rng rng{12345};
  std::vector<sim::LaneId> lanes;
  std::uint64_t work = 0;
  for (int i = 0; i < 5000; ++i) {
    const TimePoint at = sim.now() + Duration::micros(rng.uniform_int(0, 100000));
    if (rng.bernoulli(0.25)) {
      lanes.push_back(sim.lane_create([&work] { ++work; }));
      sim.lane_aim(lanes.back(), at);
    } else {
      sim.schedule_at(at, [&work] { ++work; });
    }
  }
  for (std::size_t i = 0; i < lanes.size(); i += 2) sim.lane_disarm(lanes[i]);
  sim::LaneId periodic = sim::kNoLane;
  periodic = sim.lane_create([&] {
    ++work;
    if (work <= 5500) sim.lane_aim(periodic, sim.now() + Duration::micros(700));
  });
  sim.lane_aim(periodic, sim.now() + Duration::micros(700));
  sim.schedule_after(Duration::millis(3), [&] {
    sim.schedule_after(Duration::millis(1), [&work] { work += 10; });
  });
  sim.run();
  std::printf("sim fired=%llu work=%llu now=%lld\n", (unsigned long long)sim.events_fired(),
              (unsigned long long)work, (long long)sim.now().count_nanos());
}

void capture_flows() {
  sim::Simulator sim;
  net::FlowNetwork net{sim, net::TcpCostModel{}};
  const auto ps = net.add_node("ps", Bandwidth::gbps(10), Bandwidth::gbps(10));
  const net::LinkId ps_rx = net.node_link(ps, net::Direction::kRx);
  std::vector<net::NodeId> workers;
  for (int i = 0; i < 4; ++i)
    workers.push_back(net.add_node("w", Bandwidth::gbps(5), Bandwidth::gbps(5)));
  std::uint64_t h = kFnvSeed;
  int done = 0;
  for (int round = 0; round < 6; ++round) {
    for (std::size_t w = 0; w < workers.size(); ++w) {
      net.start_flow(workers[w], ps, Bytes::mib(static_cast<std::int64_t>(1 + w)),
                     [&](net::FlowId id) {
                       ++done;
                       h = fnv1a(h, id);
                       h = fnv1a(h, static_cast<std::uint64_t>(sim.now().count_nanos()));
                     });
      net.start_flow(ps, workers[w], Bytes::kib(512), [&](net::FlowId id) {
        ++done;
        h = fnv1a(h, id);
        h = fnv1a(h, static_cast<std::uint64_t>(sim.now().count_nanos()));
      });
    }
    sim.schedule_after(Duration::millis(1),
                       [&] { net.set_link_capacity(ps_rx, Bandwidth::gbps(8)); });
    sim.schedule_after(Duration::millis(2),
                       [&] { net.set_link_state(net.access_links(workers[1]), false); });
    sim.schedule_after(Duration::millis(4),
                       [&] { net.set_link_state(net.access_links(workers[1]), true); });
    sim.run();
    net.set_link_capacity(ps_rx, Bandwidth::gbps(10));
  }
  std::printf("flows done=%d hash=%lluull fired=%llu now=%lld tb=%lld busy=%lld\n", done,
              (unsigned long long)h, (unsigned long long)sim.events_fired(),
              (long long)sim.now().count_nanos(),
              (long long)net.link_total_bytes(ps_rx),
              (long long)net.link_busy_time(ps_rx).count_nanos());
}

void capture_cluster(const char* name, const ps::StrategyConfig& strategy) {
  ps::ClusterConfig cfg;
  cfg.model = dnn::resnet50();
  cfg.num_workers = 3;
  cfg.batch = 64;
  cfg.iterations = 10;
  cfg.topology = net::TopologySpec::star(Bandwidth::gbps(3), Bandwidth::gbps(10));
  cfg.strategy = strategy;
  cfg.strategy.prophet_config.profile_iterations = 4;
  const auto result = ps::run_cluster(cfg, 5);
  std::printf("cluster %s events=%llu sim_ns=%lld rate_centi=%lld\n", name,
              (unsigned long long)result.events_fired,
              (long long)result.simulated_time.count_nanos(),
              (long long)(result.mean_rate() * 100.0));
  std::printf("cluster %s", name);
  print_gpu_bits(result);
}

// A 4-worker toy_cnn ring, under both rebalance modes (which must agree).
void capture_allreduce(const char* name, const ps::StrategyConfig& strategy) {
  for (const auto mode : {net::RebalanceMode::kIncremental, net::RebalanceMode::kFull}) {
    ps::ClusterConfig cfg;
    cfg.model = dnn::toy_cnn();
    cfg.num_workers = 4;
    cfg.batch = 32;
    cfg.iterations = 10;
    cfg.topology = net::TopologySpec::star(Bandwidth::gbps(2), Bandwidth::gbps(2));
    cfg.strategy = strategy;
    cfg.strategy.prophet_config.profile_iterations = 4;
    cfg.rate_rebalance = mode;
    const auto result = ar::run_allreduce(cfg, 5);
    std::printf("allreduce %s mode=%d sim_ns=%lld rate_centi=%lld\n", name,
                static_cast<int>(mode), (long long)result.simulated_time.count_nanos(),
                (long long)(result.mean_rate() * 100.0));
    std::printf("allreduce %s mode=%d", name, static_cast<int>(mode));
    print_gpu_bits(result);
  }
}

// Two toy_cnn jobs (FIFO, Prophet) striped over a 2x4 leaf-spine with
// CASSINI offsets, so the spine, the interleave and the shared loop all take
// part; under both rebalance modes.
void capture_multi_job() {
  for (const auto mode : {net::RebalanceMode::kIncremental, net::RebalanceMode::kFull}) {
    cluster::MultiJobConfig mcfg;
    mcfg.topology = net::TopologySpec::leaf_spine(2, 4, Bandwidth::gbps(1), 4.0);
    mcfg.placement = cluster::PlacementPolicy::kFifoStripe;
    mcfg.interleave = cluster::InterleavePolicy::kCassini;
    mcfg.rate_rebalance = mode;
    for (const auto& strategy : {ps::StrategyConfig::fifo(), ps::StrategyConfig::prophet()}) {
      cluster::JobSpec job;
      job.config.model = dnn::toy_cnn();
      job.config.num_workers = 3;
      job.config.batch = 32;
      job.config.iterations = 10;
      job.config.seed = 42 + mcfg.jobs.size();
      job.config.strategy = strategy;
      job.config.strategy.prophet_config.profile_iterations = 4;
      mcfg.jobs.push_back(std::move(job));
    }
    const auto result = cluster::run_multi_job(mcfg);
    std::printf("multijob mode=%d makespan_ns=%lld events=%llu", static_cast<int>(mode),
                (long long)result.makespan.count_nanos(),
                (unsigned long long)result.events_fired);
    for (const auto& job : result.jobs) {
      std::printf(" %s_rate_centi=%lld", job.name.c_str(),
                  (long long)(job.result.mean_rate() * 100.0));
    }
    std::printf("\n");
    for (const auto& job : result.jobs) {
      std::printf("multijob mode=%d %s", static_cast<int>(mode), job.name.c_str());
      print_gpu_bits(job.result);
    }
  }
}

}  // namespace
}  // namespace prophet

int main() {
  prophet::capture_planner("resnet50", prophet::dnn::resnet50());
  prophet::capture_planner("resnet152", prophet::dnn::resnet152());
  prophet::capture_refine_hard("resnet50", prophet::dnn::resnet50(), 1);
  prophet::capture_refine_hard("resnet152", prophet::dnn::resnet152(), 4);
  prophet::capture_refine_random(7, 48);
  prophet::capture_refine_random(99, 64);
  prophet::capture_sim();
  prophet::capture_flows();
  prophet::capture_cluster("fifo", prophet::ps::StrategyConfig::fifo());
  prophet::capture_cluster("prophet", prophet::ps::StrategyConfig::prophet());
  prophet::capture_allreduce("fifo", prophet::ps::StrategyConfig::fifo());
  prophet::capture_allreduce("prophet", prophet::ps::StrategyConfig::prophet());
  prophet::capture_multi_job();
  return 0;
}
