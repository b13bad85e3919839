// End-to-end integration tests: full training simulations through the PS
// engine with every strategy, checking conservation laws, determinism, and
// the engine-level invariants the modules promise each other.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/flow_network.hpp"
#include "net/topology.hpp"
#include "ps/cluster.hpp"
#include "ps/job_runtime.hpp"
#include "sim/simulator.hpp"

namespace prophet::ps {
namespace {

using namespace prophet::literals;

ClusterConfig small_config(StrategyConfig strategy) {
  ClusterConfig cfg;
  cfg.model = dnn::toy_cnn();
  cfg.num_workers = 2;
  cfg.batch = 32;
  cfg.iterations = 12;
  cfg.topology = net::TopologySpec::star(Bandwidth::gbps(1), Bandwidth::gbps(1));
  cfg.strategy = strategy;
  cfg.strategy.prophet_config.profile_iterations = 4;
  return cfg;
}

class EveryStrategy : public ::testing::TestWithParam<StrategyConfig::Kind> {
 protected:
  StrategyConfig strategy() const {
    switch (GetParam()) {
      case StrategyConfig::Kind::kFifo: return StrategyConfig::fifo();
      case StrategyConfig::Kind::kP3: return StrategyConfig::p3(Bytes::kib(64));
      case StrategyConfig::Kind::kByteScheduler: {
        StrategyConfig s = StrategyConfig::bytescheduler(Bytes::kib(256));
        s.bytescheduler_config.partition_bytes = Bytes::kib(64);
        return s;
      }
      case StrategyConfig::Kind::kTicTac: return StrategyConfig::tictac();
      case StrategyConfig::Kind::kMgWfbp: return StrategyConfig::mg_wfbp();
      case StrategyConfig::Kind::kProphet: return StrategyConfig::prophet();
    }
    return StrategyConfig::fifo();
  }
};

TEST_P(EveryStrategy, CompletesAllIterations) {
  const auto result = run_cluster(small_config(strategy()), 6);
  ASSERT_EQ(result.workers.size(), 2u);
  for (const auto& w : result.workers) {
    EXPECT_EQ(w.iterations_completed, 12u);
    EXPECT_GT(w.rate_samples_per_sec, 0.0);
    EXPECT_GT(w.gpu_utilization, 0.05);
    EXPECT_LE(w.gpu_utilization, 1.0);
  }
}

TEST_P(EveryStrategy, EveryGradientPushedAndPulledEveryIteration) {
  auto cfg = small_config(strategy());
  cfg.keep_transfer_records = true;
  const auto result = run_cluster(cfg, 6);
  const std::size_t n = dnn::toy_cnn().tensor_count();
  for (const auto& w : result.workers) {
    // Count full-tensor bytes moved per direction in iterations [2, 10).
    std::vector<std::int64_t> pushed(n, 0);
    std::vector<std::int64_t> pulled(n, 0);
    for (const auto& rec : w.transfers.records()) {
      if (rec.iteration < 2 || rec.iteration >= 10) continue;
      auto& bucket = rec.kind == sched::TaskKind::kPush ? pushed : pulled;
      bucket[rec.grad] += rec.bytes.count();
    }
    const auto model = dnn::toy_cnn();
    for (std::size_t g = 0; g < n; ++g) {
      EXPECT_EQ(pushed[g], model.tensor(g).bytes.count() * 8)
          << "grad " << g << " pushes";
      EXPECT_EQ(pulled[g], model.tensor(g).bytes.count() * 8)
          << "grad " << g << " pulls";
    }
  }
}

TEST_P(EveryStrategy, DeterministicAcrossRuns) {
  const auto a = run_cluster(small_config(strategy()), 6);
  const auto b = run_cluster(small_config(strategy()), 6);
  EXPECT_EQ(a.simulated_time.count_nanos(), b.simulated_time.count_nanos());
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_DOUBLE_EQ(a.mean_rate(), b.mean_rate());
}

TEST_P(EveryStrategy, SeedChangesJitterButNotScale) {
  auto cfg = small_config(strategy());
  const auto a = run_cluster(cfg, 6);
  cfg.seed = 1234;
  const auto b = run_cluster(cfg, 6);
  EXPECT_NE(a.simulated_time.count_nanos(), b.simulated_time.count_nanos());
  EXPECT_NEAR(a.mean_rate(), b.mean_rate(), 0.2 * a.mean_rate());
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, EveryStrategy,
    ::testing::Values(StrategyConfig::Kind::kFifo, StrategyConfig::Kind::kP3,
                      StrategyConfig::Kind::kTicTac, StrategyConfig::Kind::kMgWfbp,
                      StrategyConfig::Kind::kByteScheduler,
                      StrategyConfig::Kind::kProphet),
    [](const auto& param_info) {
      switch (param_info.param) {
        case StrategyConfig::Kind::kFifo: return "fifo";
        case StrategyConfig::Kind::kP3: return "p3";
        case StrategyConfig::Kind::kTicTac: return "tictac";
        case StrategyConfig::Kind::kMgWfbp: return "mg_wfbp";
        case StrategyConfig::Kind::kByteScheduler: return "bytescheduler";
        case StrategyConfig::Kind::kProphet: return "prophet";
      }
      return "unknown";
    });

TEST(ClusterIntegration, ProphetActivatesAfterProfiling) {
  auto cfg = small_config(StrategyConfig::prophet());
  cfg.strategy.prophet_config.profile_iterations = 4;
  const auto result = run_cluster(cfg, 6);
  for (const auto& w : result.workers) {
    ASSERT_TRUE(w.prophet_activated_at.has_value());
    EXPECT_EQ(*w.prophet_activated_at, 4u);
  }
}

TEST(ClusterIntegration, NonProphetNeverActivates) {
  const auto result = run_cluster(small_config(StrategyConfig::fifo()), 6);
  for (const auto& w : result.workers) {
    EXPECT_FALSE(w.prophet_activated_at.has_value());
  }
}

TEST(ClusterIntegration, HigherBandwidthNeverHurts) {
  for (auto kind :
       {StrategyConfig::Kind::kFifo, StrategyConfig::Kind::kProphet}) {
    auto strategy = kind == StrategyConfig::Kind::kFifo
                        ? StrategyConfig::fifo()
                        : StrategyConfig::prophet();
    auto slow = small_config(strategy);
    slow.topology = net::TopologySpec::star(Bandwidth::mbps(200), Bandwidth::mbps(200));
    auto fast = small_config(strategy);
    fast.topology = net::TopologySpec::star(Bandwidth::gbps(10), Bandwidth::gbps(10));
    EXPECT_GT(run_cluster(fast, 6).mean_rate() * 1.02,
              run_cluster(slow, 6).mean_rate());
  }
}

TEST(ClusterIntegration, HeterogeneousWorkerSlowsEveryone) {
  // BSP: the 100 Mbps straggler gates the whole cluster (Sec. 5.3).
  auto uniform = small_config(StrategyConfig::prophet());
  auto hetero = uniform;
  hetero.topology->worker_bandwidth_override = {Bandwidth::mbps(100)};
  const auto fast = run_cluster(uniform, 6);
  const auto slow = run_cluster(hetero, 6);
  EXPECT_LT(slow.mean_rate(), fast.mean_rate());
  // BSP lockstep: both workers in the hetero cluster run at ~the same rate.
  EXPECT_NEAR(slow.workers[0].rate_samples_per_sec,
              slow.workers[1].rate_samples_per_sec,
              0.05 * slow.workers[0].rate_samples_per_sec);
}

TEST(ClusterIntegration, AspModeRunsAndDecouplesWorkers) {
  auto cfg = small_config(StrategyConfig::prophet());
  cfg.sync = SyncMode::kAsp;
  cfg.topology->worker_bandwidth_override = {Bandwidth::mbps(100)};
  const auto result = run_cluster(cfg, 6);
  for (const auto& w : result.workers) {
    EXPECT_EQ(w.iterations_completed, 12u);
  }
  // ASP: the fast worker is NOT gated by the straggler.
  EXPECT_GT(result.workers[1].rate_samples_per_sec,
            1.3 * result.workers[0].rate_samples_per_sec);
}

TEST(ClusterIntegration, TransferWaitTimesNonNegative) {
  auto cfg = small_config(StrategyConfig::prophet());
  cfg.keep_transfer_records = true;
  const auto result = run_cluster(cfg, 6);
  for (const auto& w : result.workers) {
    ASSERT_FALSE(w.transfers.records().empty());
    for (const auto& rec : w.transfers.records()) {
      EXPECT_GE(rec.wait().count_nanos(), 0) << rec.grad;
      EXPECT_GT(rec.transfer().count_nanos(), 0);
    }
  }
}

TEST(ClusterIntegration, ThroughputSeriesAccountsAllTrafficOfWorker) {
  const auto cfg = small_config(StrategyConfig::fifo());
  const auto result = run_cluster(cfg, 6);
  const auto model = dnn::toy_cnn();
  const double per_iter = static_cast<double>(model.total_bytes().count());
  for (const auto& w : result.workers) {
    double tx_total = 0.0;
    for (std::size_t b = 0; b < w.tx_series.bin_count(); ++b) {
      tx_total += w.tx_series.bin_amount(b);
    }
    // 12 iterations of pushes (plus nothing else on the uplink).
    EXPECT_NEAR(tx_total, per_iter * 12, per_iter * 0.01);
  }
}


// collect() moves the job's logs and series into its result, so it is
// single-use: a second call aborts naming the contract, and the job's
// trackers leave the shared network before their series move out.
TEST(JobRuntimeDeathTest, CollectIsSingleUse) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ClusterConfig cfg = small_config(StrategyConfig::fifo());
  cfg.keep_transfer_records = true;  // so the GPU intervals move too
  sim::Simulator sim;
  net::FlowNetwork network{sim, net::TcpCostModel{cfg.tcp}};
  net::BuiltTopology topology{network, *cfg.topology};
  JobOptions options;
  options.measure_first = 6;
  std::vector<std::unique_ptr<JobRuntime>> jobs;
  jobs.push_back(std::make_unique<JobRuntime>(sim, network, topology, cfg, options));
  run_jobs(sim, jobs, cfg.metrics_horizon);

  const ClusterResult result = jobs.front()->collect(6, sim.events_fired());
  ASSERT_EQ(result.workers.size(), cfg.num_workers);
  EXPECT_EQ(result.measure_first, 6u);
  for (const auto& w : result.workers) {
    EXPECT_GT(w.transfers.count(), 0u);
    EXPECT_GT(w.transfers.overall().count, 0u);
    EXPECT_FALSE(w.gpu_intervals.empty());
    EXPECT_GT(w.gpu_series.stored_bins(), 0u);
    EXPECT_GT(w.tx_series.stored_bins(), 0u);
    EXPECT_GT(w.rx_series.stored_bins(), 0u);
  }
  EXPECT_DEATH((void)jobs.front()->collect(6, sim.events_fired()), "single-use");

  // The fabric outlives the job: traffic between its former hosts settles
  // without reaching the destroyed series (a use-after-free under ASan if a
  // tracker were still attached).
  const net::NodeId worker = jobs.front()->worker_nodes().front();
  const net::NodeId ps = jobs.front()->ps_node();
  jobs.clear();
  bool delivered = false;
  network.start_flow(worker, ps, Bytes::mib(1),
                     [&delivered](net::FlowId) { delivered = true; });
  sim.run();
  EXPECT_TRUE(delivered);
}

// The window is fixed when the job is built, because workers stream their
// push summaries over it: collect() refuses to report any other.
TEST(JobRuntimeDeathTest, CollectRejectsAnotherWindow) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const ClusterConfig cfg = small_config(StrategyConfig::fifo());
  ASSERT_EQ(cfg.default_measure_first(), 3u);
  sim::Simulator sim;
  net::FlowNetwork network{sim, net::TcpCostModel{cfg.tcp}};
  net::BuiltTopology topology{network, *cfg.topology};
  std::vector<std::unique_ptr<JobRuntime>> jobs;
  jobs.push_back(std::make_unique<JobRuntime>(sim, network, topology, cfg));
  run_jobs(sim, jobs, cfg.metrics_horizon);
  EXPECT_DEATH((void)jobs.front()->collect(6, sim.events_fired()),
               "measure_first 6 differs .* starts at iteration 3");
  EXPECT_EQ(jobs.front()->collect(3, sim.events_fired()).measure_first, 3u);
}

}  // namespace
}  // namespace prophet::ps
