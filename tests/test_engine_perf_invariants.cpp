// Golden determinism suite for the engine hot-path optimizations.
//
// The event pool, the incremental local-search evaluator, the flat-vector
// BlockPlanner, and the slab-based FlowNetwork are all pure performance work:
// simulation *results* must not move. Every constant below was captured from
// the pre-optimization engine (tools/golden_capture.cpp, commit 92aa530) and
// the optimized engine must keep reproducing it bit for bit — schedules,
// WaitTimeBreakdowns, fired-event counts, and full cluster runs.
//
// The one intentional exception: FlowNetwork's FlowId values changed encoding
// (sequential counter -> {generation, slot}), and simultaneous same-nanosecond
// flow completions now fire in deterministic admission order instead of
// unordered_map hash order. The flow-scenario hash below is therefore the
// post-change capture; the scenario's completion *times*, byte totals, busy
// time, and event counts are pinned to the pre-change values.
//
// Incremental max-min recomputation (RebalanceMode::kIncremental, now the
// default) moved NO goldens: component-local rebalance reproduces the full
// algorithm's rates bit-identically (tests/test_incremental_rates.cpp proves
// this per-event under verify mode) and, in these scenarios, the identical
// event trajectories too. The flow and cluster goldens below therefore run
// under BOTH modes against the same constants — if a future change moves one
// mode but not the other, the failure pinpoints which engine diverged.
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

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

core::PerfModel model_perf(const dnn::ModelSpec& model) {
  const dnn::IterationModel iteration{model, dnn::tesla_m60_pair(), 64};
  return core::PerfModel{model_profile(model), iteration.nominal().fwd,
                         Bandwidth::gbps(3), net::TcpCostModel{}};
}

struct RefineGolden {
  std::int64_t t_wait_ns;
  std::int64_t span_ns;
  std::size_t applied;
  std::size_t evaluated;
  std::uint64_t sched_hash;
  std::uint64_t bd_hash;
  std::size_t tasks;
};

void expect_refine(const core::LocalSearchResult& got, const RefineGolden& want) {
  EXPECT_EQ(got.breakdown.t_wait.count_nanos(), want.t_wait_ns);
  EXPECT_EQ(got.breakdown.span.count_nanos(), want.span_ns);
  EXPECT_EQ(got.moves_applied, want.applied);
  EXPECT_EQ(got.moves_evaluated, want.evaluated);
  EXPECT_EQ(hash_schedule(got.schedule), want.sched_hash);
  EXPECT_EQ(hash_breakdown(got.breakdown), want.bd_hash);
  EXPECT_EQ(got.schedule.tasks.size(), want.tasks);
}

// --- Planner + full-evaluate goldens ---------------------------------------

TEST(GoldenPlanner, ResNet50) {
  const auto profile = model_profile(dnn::resnet50());
  const auto greedy =
      core::BlockPlanner{net::TcpCostModel{}}.plan(profile, Bandwidth::gbps(3));
  EXPECT_EQ(greedy.tasks.size(), 20u);
  EXPECT_EQ(hash_schedule(greedy), 9423424468779032942ull);
  const auto pm = model_perf(dnn::resnet50());
  const auto eval = pm.evaluate(core::LocalSearchPlanner::retime(greedy, pm));
  EXPECT_EQ(eval.t_wait.count_nanos(), 4000000);
  EXPECT_EQ(eval.span.count_nanos(), 845510243);
  EXPECT_EQ(hash_breakdown(eval), 8632650164700459392ull);
}

TEST(GoldenPlanner, ResNet152) {
  const auto profile = model_profile(dnn::resnet152());
  const auto greedy =
      core::BlockPlanner{net::TcpCostModel{}}.plan(profile, Bandwidth::gbps(3));
  EXPECT_EQ(greedy.tasks.size(), 54u);
  EXPECT_EQ(hash_schedule(greedy), 6287146089696557389ull);
  const auto pm = model_perf(dnn::resnet152());
  const auto eval = pm.evaluate(core::LocalSearchPlanner::retime(greedy, pm));
  EXPECT_EQ(eval.t_wait.count_nanos(), 4000000);
  EXPECT_EQ(eval.span.count_nanos(), 2264715373);
  EXPECT_EQ(hash_breakdown(eval), 12650727571343511294ull);
}

// --- Local-search goldens ---------------------------------------------------
// BlockPlanner output is already locally optimal for these models (0 applied
// moves), so the hard/random cases below start from deliberately poor
// schedules to pin the accept/commit path of the incremental evaluator.

TEST(GoldenRefine, ResNet50FromPlanner) {
  const auto pm = model_perf(dnn::resnet50());
  const auto greedy = core::BlockPlanner{net::TcpCostModel{}}.plan(
      pm.profile(), Bandwidth::gbps(3));
  expect_refine(core::LocalSearchPlanner{8}.refine(greedy, pm),
                {4000000, 845510243, 0, 212, 9423424468779032942ull,
                 8632650164700459392ull, 20});
}

TEST(GoldenRefine, ResNet152FromPlanner) {
  const auto pm = model_perf(dnn::resnet152());
  const auto greedy = core::BlockPlanner{net::TcpCostModel{}}.plan(
      pm.profile(), Bandwidth::gbps(3));
  expect_refine(core::LocalSearchPlanner{8}.refine(greedy, pm),
                {4000000, 2264715373, 0, 620, 6287146089696557389ull,
                 12650727571343511294ull, 54});
}

core::Schedule chunked_schedule(std::size_t n, std::size_t chunk) {
  core::Schedule initial;
  for (std::size_t g = 0; g < n; g += chunk) {
    core::ScheduledTask task;
    for (std::size_t k = g; k < std::min(n, g + chunk); ++k) task.grads.push_back(k);
    initial.tasks.push_back(std::move(task));
  }
  return initial;
}

TEST(GoldenRefine, ResNet50SingletonStart) {
  const auto pm = model_perf(dnn::resnet50());
  const auto initial = chunked_schedule(pm.profile().gradient_count(), 1);
  expect_refine(core::LocalSearchPlanner{16}.refine(initial, pm),
                {8891136, 850401379, 210, 3202, 3126980536504625264ull,
                 1389798525086048094ull, 17});
}

TEST(GoldenRefine, ResNet152ChunkedStart) {
  const auto pm = model_perf(dnn::resnet152());
  const auto initial = chunked_schedule(pm.profile().gradient_count(), 4);
  expect_refine(core::LocalSearchPlanner{16}.refine(initial, pm),
                {4000000, 2264715373, 79, 1339, 4124185615626618052ull,
                 775783153660606382ull, 70});
}

core::LocalSearchResult refine_random(std::uint64_t seed, std::size_t n) {
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
  const std::vector<Duration> fwd(n, Duration::millis(2));
  const core::PerfModel pm{profile, fwd, Bandwidth::gbps(1), net::TcpCostModel{}};
  return core::LocalSearchPlanner{32}.refine(chunked_schedule(n, 1), pm);
}

TEST(GoldenRefine, RandomProfileSeed7) {
  expect_refine(refine_random(7, 48),
                {653038400, 1146038400, 41, 412, 17919456594412970032ull,
                 11100656567336626467ull, 9});
}

TEST(GoldenRefine, RandomProfileSeed99) {
  expect_refine(refine_random(99, 64),
                {1032091680, 1675091680, 54, 558, 16290249102299553018ull,
                 7461085279390808929ull, 12});
}

// --- Simulator goldens ------------------------------------------------------

TEST(GoldenSim, MixedCancelAndPeriodicTrace) {
  // The ~25% of events that may be withdrawn, and the periodic, are lanes;
  // every lane is aimed in schedule order, so it takes the seq the pinned
  // trace gives its event.
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
  EXPECT_EQ(sim.events_fired(), 5493u);
  EXPECT_EQ(work, 5501u);
  EXPECT_EQ(sim.now().count_nanos(), 758800000);
}

// --- FlowNetwork goldens ----------------------------------------------------

void run_churn_with_dynamics(net::RebalanceMode mode) {
  sim::Simulator sim;
  net::FlowNetwork net{sim, net::TcpCostModel{}, mode};
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
  EXPECT_EQ(done, 48);
  // Pre-change values: completion times, event count, PS-ingress byte total
  // and busy time are all unchanged by the slab rewrite.
  EXPECT_EQ(sim.events_fired(), 114u);
  EXPECT_EQ(sim.now().count_nanos(), 83344476);
  EXPECT_EQ(net.link_total_bytes(ps_rx), 62914559);
  EXPECT_EQ(net.link_busy_time(ps_rx).count_nanos(), 66689436);
  // Post-change capture (FlowId encoding + same-instant completion tie order
  // are the documented exceptions; see the file comment).
  EXPECT_EQ(h, 11853743091979687350ull);
}

TEST(GoldenFlows, ChurnWithDynamicsTrace) {
  run_churn_with_dynamics(net::RebalanceMode::kIncremental);
}

TEST(GoldenFlows, ChurnWithDynamicsTraceFullRebalance) {
  run_churn_with_dynamics(net::RebalanceMode::kFull);
}

// --- Full-cluster goldens ---------------------------------------------------
// Besides events, simulated time and rate, each pins every worker's
// gpu_utilization to its exact bits (captured before GpuTracker sampled the
// busy total only at iteration starts).

void expect_gpu_bits(const ps::ClusterResult& result,
                     const std::vector<std::uint64_t>& want) {
  ASSERT_EQ(result.workers.size(), want.size());
  for (std::size_t w = 0; w < want.size(); ++w) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result.workers[w].gpu_utilization), want[w])
        << "worker " << w << " gpu_utilization " << result.workers[w].gpu_utilization;
  }
}

ps::ClusterResult run_golden_cluster(const ps::StrategyConfig& strategy,
                                     net::RebalanceMode mode) {
  ps::ClusterConfig cfg;
  cfg.model = dnn::resnet50();
  cfg.num_workers = 3;
  cfg.batch = 64;
  cfg.iterations = 10;
  cfg.topology = net::TopologySpec::star(Bandwidth::gbps(3), Bandwidth::gbps(10));
  cfg.strategy = strategy;
  cfg.strategy.prophet_config.profile_iterations = 4;
  cfg.rate_rebalance = mode;
  return ps::run_cluster(cfg, 5);
}

void expect_fifo_golden(const ps::ClusterResult& result) {
  EXPECT_EQ(result.events_fired, 36038u);
  EXPECT_EQ(result.simulated_time.count_nanos(), 11089550816);
  EXPECT_EQ(static_cast<std::int64_t>(result.mean_rate() * 100.0), 5618);
  expect_gpu_bits(result, {0x3fe7af60e6ad7752ull, 0x3fe7a385a1e6b73full,
                           0x3fe7a8fde2f8f19full});
}

void expect_prophet_golden(const ps::ClusterResult& result) {
  EXPECT_EQ(result.events_fired, 10838u);
  EXPECT_EQ(result.simulated_time.count_nanos(), 8484657037);
  EXPECT_EQ(static_cast<std::int64_t>(result.mean_rate() * 100.0), 7537);
  expect_gpu_bits(result, {0x3fefc680a4cab82eull, 0x3fefb541f24e6efeull,
                           0x3fefbcfecba43456ull});
}

TEST(GoldenCluster, FifoTrace) {
  expect_fifo_golden(run_golden_cluster(ps::StrategyConfig::fifo(),
                                        net::RebalanceMode::kIncremental));
}

TEST(GoldenCluster, FifoTraceFullRebalance) {
  expect_fifo_golden(run_golden_cluster(ps::StrategyConfig::fifo(),
                                        net::RebalanceMode::kFull));
}

TEST(GoldenCluster, ProphetTrace) {
  expect_prophet_golden(run_golden_cluster(ps::StrategyConfig::prophet(),
                                           net::RebalanceMode::kIncremental));
}

TEST(GoldenCluster, ProphetTraceFullRebalance) {
  expect_prophet_golden(run_golden_cluster(ps::StrategyConfig::prophet(),
                                           net::RebalanceMode::kFull));
}

// --- Ring all-reduce and multi-job goldens ----------------------------------
// Captured with tools/golden_capture.cpp from the ring's own star fabric and
// run_multi_job's own event loop; the ring on BuiltTopology and
// ps::run_jobs reproduce them bit for bit.

ps::ClusterResult run_golden_ring(const ps::StrategyConfig& strategy,
                                  net::RebalanceMode mode) {
  ps::ClusterConfig cfg;
  cfg.model = dnn::toy_cnn();
  cfg.num_workers = 4;
  cfg.batch = 32;
  cfg.iterations = 10;
  cfg.topology = net::TopologySpec::star(Bandwidth::gbps(2), Bandwidth::gbps(2));
  cfg.strategy = strategy;
  cfg.strategy.prophet_config.profile_iterations = 4;
  cfg.rate_rebalance = mode;
  return ar::run_allreduce(cfg, 5);
}

void expect_ring_golden(const ps::ClusterResult& result, std::int64_t sim_ns,
                        std::int64_t rate_centi,
                        const std::vector<std::uint64_t>& gpu_bits) {
  EXPECT_EQ(result.simulated_time.count_nanos(), sim_ns);
  EXPECT_EQ(static_cast<std::int64_t>(result.mean_rate() * 100.0), rate_centi);
  expect_gpu_bits(result, gpu_bits);
}

const std::vector<std::uint64_t> kFifoRingGpuBits = {
    0x3fb6b96b6265a531ull, 0x3fb6a8f6fac777b8ull, 0x3fb6a780f8631363ull,
    0x3fb6b947cd0a2a1dull};
const std::vector<std::uint64_t> kProphetRingGpuBits = {
    0x3fdb9763181c821aull, 0x3fdb80cc05a3796dull, 0x3fdb84fc38b0c1a8ull,
    0x3fdb9712744ade47ull};

TEST(GoldenAllReduce, FifoRing) {
  expect_ring_golden(
      run_golden_ring(ps::StrategyConfig::fifo(), net::RebalanceMode::kIncremental),
      1226575309, 23712, kFifoRingGpuBits);
}

TEST(GoldenAllReduce, FifoRingFullRebalance) {
  expect_ring_golden(
      run_golden_ring(ps::StrategyConfig::fifo(), net::RebalanceMode::kFull),
      1226575309, 23712, kFifoRingGpuBits);
}

TEST(GoldenAllReduce, ProphetRing) {
  expect_ring_golden(
      run_golden_ring(ps::StrategyConfig::prophet(), net::RebalanceMode::kIncremental),
      262112264, 115169, kProphetRingGpuBits);
}

TEST(GoldenAllReduce, ProphetRingFullRebalance) {
  expect_ring_golden(
      run_golden_ring(ps::StrategyConfig::prophet(), net::RebalanceMode::kFull),
      262112264, 115169, kProphetRingGpuBits);
}

// Two toy_cnn jobs (FIFO, Prophet) striped over a 2x4 leaf-spine with
// CASSINI offsets: the spine, the interleave and the shared loop all matter.
void expect_multi_job_golden(net::RebalanceMode mode) {
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
  EXPECT_EQ(result.makespan.count_nanos(), 501695394);
  EXPECT_EQ(result.events_fired, 4485u);
  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_EQ(static_cast<std::int64_t>(result.jobs[0].result.mean_rate() * 100.0), 58786);
  EXPECT_EQ(static_cast<std::int64_t>(result.jobs[1].result.mean_rate() * 100.0), 153514);
  expect_gpu_bits(result.jobs[0].result, {0x3fcc2a2777ffed29ull, 0x3fcc1111e5e3587eull,
                                          0x3fcc1b1b6efcb2e5ull});
  expect_gpu_bits(result.jobs[1].result, {0x3fe263846322c43eull, 0x3fe25aabe371054full,
                                          0x3fe25ca112581cadull});
}

TEST(GoldenMultiJob, StripedLeafSpineTrace) {
  expect_multi_job_golden(net::RebalanceMode::kIncremental);
}

TEST(GoldenMultiJob, StripedLeafSpineTraceFullRebalance) {
  expect_multi_job_golden(net::RebalanceMode::kFull);
}

// --- Event-pool mechanics ---------------------------------------------------

TEST(EventPool, SlotsAreReusedAcrossBatches) {
  sim::Simulator sim;
  for (int batch = 0; batch < 50; ++batch) {
    for (int i = 0; i < 100; ++i) {
      sim.schedule_after(Duration::micros(i), [] {});
    }
    sim.run();
  }
  // 5000 events total, but never more than one batch in flight: the slab's
  // high-water mark stays at one batch (plus nothing else), not 5000.
  EXPECT_LE(sim.event_slot_count(), 100u);
}

}  // namespace
}  // namespace prophet
