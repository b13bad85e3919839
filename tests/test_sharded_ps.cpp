// Sharded parameter server: key striping across PS shards, per-shard
// checkpoint/failover with partial rollback, and the validate() rejections
// sharding adds.
//
// The load-bearing invariants:
//   * fault-free runs are bit-deterministic at every shard count, and
//     ps_shards=1 is the historical single-PS timeline;
//   * a crash of shard k rolls back only shard k's keys — surviving shards'
//     versions pass through the failover verbatim and keep serving during
//     the outage;
//   * the always-on BSP auditor (per-shard byte conservation, version
//     fencing, whole-model barrier) holds across every sharded fault run.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "audit/bsp_auditor.hpp"
#include "metrics/transfer_log.hpp"
#include "net/dynamics.hpp"
#include "net/topology.hpp"
#include "ps/cluster.hpp"
#include "ps/server.hpp"
#include "ps/shard_map.hpp"

namespace prophet {
namespace {

using namespace prophet::literals;

ps::ClusterConfig small_config(ps::StrategyConfig strategy) {
  ps::ClusterConfig cfg;
  cfg.model = dnn::toy_cnn();  // 14 tensors: shards up to 4 stay non-empty
  cfg.num_workers = 2;
  cfg.batch = 32;
  cfg.iterations = 12;
  cfg.topology = net::TopologySpec::star(Bandwidth::gbps(1), Bandwidth::gbps(1));
  cfg.strategy = strategy;
  cfg.strategy.prophet_config.profile_iterations = 4;
  return cfg;
}

std::size_t fault_count(const ps::WorkerResult& worker, metrics::FaultKind kind) {
  std::size_t count = 0;
  for (const auto& fault : worker.transfers.faults()) {
    if (fault.kind == kind) ++count;
  }
  return count;
}

void expect_identical(const ps::ClusterResult& a, const ps::ClusterResult& b) {
  EXPECT_EQ(a.simulated_time.count_nanos(), b.simulated_time.count_nanos());
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.audit_checks, b.audit_checks);
  EXPECT_DOUBLE_EQ(a.mean_rate(), b.mean_rate());
  ASSERT_EQ(a.workers.size(), b.workers.size());
  for (std::size_t w = 0; w < a.workers.size(); ++w) {
    EXPECT_EQ(a.workers[w].transfers.count(), b.workers[w].transfers.count());
    EXPECT_GT(a.workers[w].transfers.count(), 0u);
    EXPECT_EQ(a.workers[w].transfers.faults().size(),
              b.workers[w].transfers.faults().size());
  }
}

TEST(ShardMapTest, StripesKeysRoundRobin) {
  const ps::ShardMap map{3};
  EXPECT_EQ(map.num_shards(), 3u);
  EXPECT_EQ(map.shard_of(0), 0u);
  EXPECT_EQ(map.shard_of(1), 1u);
  EXPECT_EQ(map.shard_of(2), 2u);
  EXPECT_EQ(map.shard_of(3), 0u);
  const ps::ShardMap solo{};
  EXPECT_EQ(solo.num_shards(), 1u);
  EXPECT_EQ(solo.shard_of(7), 0u);
}

TEST(ShardedPs, FaultFreeRunsAreBitDeterministicPerShardCount) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    auto cfg = small_config(ps::StrategyConfig::prophet());
    cfg.ps_shards = shards;
    const auto a = run_cluster(cfg, 1);
    const auto b = run_cluster(cfg, 1);
    SCOPED_TRACE("ps_shards=" + std::to_string(shards));
    expect_identical(a, b);
    for (const auto& w : a.workers) {
      EXPECT_EQ(w.iterations_completed, 12u);
    }
    EXPECT_GT(a.audit_checks, 0u);
  }
}

TEST(ShardedServer, CrashShardWipesOnlyItsKeysAndRestoresItsCheckpoint) {
  sim::Simulator sim;
  const dnn::ModelSpec model = dnn::toy_cnn();
  const std::size_t n = model.tensor_count();  // shard0 = even keys, shard1 = odd
  ps::Server server{
      sim,  model, /*num_workers=*/1, /*asp=*/false, 1_ms, 1e9,
      [](std::size_t, std::size_t) {}, /*serialize_cpu=*/false, /*ps_shards=*/2};
  server.enable_failover(50_ms);
  EXPECT_EQ(server.num_shards(), 2u);

  auto push_all = [&] {
    for (std::size_t k = 0; k < n; ++k) {
      server.on_push_bytes(0, k, model.tensor(k).bytes);
    }
  };
  // Round 1 completes just after t=0; round 2 just after t=60ms — so the
  // last checkpoint boundary (50ms) separates the two.
  push_all();
  sim.run();
  sim.schedule_at(TimePoint::origin() + Duration{60_ms}, push_all);
  sim.run();
  for (std::size_t k = 0; k < n; ++k) EXPECT_EQ(server.version(k), 2u);

  // The consumable checkpoint status: a failover right now restores round 1
  // on every shard (round 2 completed past the 50ms boundary).
  const std::vector<std::size_t> would_restore = server.checkpoint_versions();
  ASSERT_EQ(would_restore.size(), n);
  for (std::size_t k = 0; k < n; ++k) EXPECT_EQ(would_restore[k], 1u);

  server.crash_shard(0);
  EXPECT_TRUE(server.crashed());
  EXPECT_TRUE(server.shard_crashed(0));
  EXPECT_FALSE(server.shard_crashed(1));

  // The surviving shard keeps aggregating while shard 0 is down.
  server.on_push_bytes(0, 1, model.tensor(1).bytes);
  sim.run();
  EXPECT_EQ(server.version(1), 3u);

  const std::vector<std::size_t> restored = server.recover_shard(0);
  EXPECT_FALSE(server.crashed());
  ASSERT_EQ(restored.size(), n);
  // Shard-0 keys roll back to the 50ms checkpoint (round 1)...
  EXPECT_EQ(restored[0], 1u);
  EXPECT_EQ(restored[2], 1u);
  EXPECT_EQ(restored[4], 1u);
  // ...while the survivors' live versions pass through verbatim.
  EXPECT_EQ(restored[1], 3u);
  EXPECT_EQ(restored[3], 2u);
  for (std::size_t k = 0; k < n; ++k) EXPECT_EQ(server.version(k), restored[k]);
}

TEST(ShardedPs, ShardCrashRollsBackOnlyThatShardAndFinishes) {
  auto cfg = small_config(ps::StrategyConfig::bytescheduler());
  cfg.ps_shards = 2;
  cfg.checkpoint_period = 50_ms;
  const auto baseline = run_cluster(cfg, 1);
  cfg.dynamics.ps_shard_crash(120_ms, 80_ms, 1);
  const auto faulted = run_cluster(cfg, 1);
  for (const auto& w : faulted.workers) {
    EXPECT_EQ(w.iterations_completed, 12u);
    EXPECT_EQ(fault_count(w, metrics::FaultKind::kPsCrash), 1u);
    EXPECT_EQ(fault_count(w, metrics::FaultKind::kPsFailover), 1u);
  }
  // The failover costs real time, and the whole run stays audit-clean
  // (per-shard byte conservation + version fencing + whole-model barrier).
  EXPECT_GT(faulted.simulated_time.count_nanos(),
            baseline.simulated_time.count_nanos());
  EXPECT_GT(faulted.audit_checks, 0u);
  // Deterministic replay, faults included.
  expect_identical(faulted, run_cluster(cfg, 1));
}

TEST(ShardedPs, ShardFailoverCostsNoMoreThanWholeTierFailover) {
  // Same crash instant, same downtime: losing one of two shards must not
  // cost more than losing the whole tier — the survivors kept serving and
  // only half the key space re-pulls and replays.
  auto shard_cfg = small_config(ps::StrategyConfig::bytescheduler());
  shard_cfg.ps_shards = 2;
  shard_cfg.checkpoint_period = 50_ms;
  shard_cfg.dynamics.ps_shard_crash(120_ms, 80_ms, 0);
  const auto shard_run = run_cluster(shard_cfg, 1);

  auto whole_cfg = small_config(ps::StrategyConfig::bytescheduler());
  whole_cfg.ps_shards = 2;
  whole_cfg.checkpoint_period = 50_ms;
  whole_cfg.dynamics.ps_crash(120_ms, 80_ms);
  const auto whole_run = run_cluster(whole_cfg, 1);

  EXPECT_LE(shard_run.simulated_time.count_nanos(),
            whole_run.simulated_time.count_nanos());
}

TEST(ShardedPs, PsCrashSpecRoundTripsShardTarget) {
  net::DynamicsPlan plan;
  std::string error;
  ASSERT_TRUE(plan.add_ps_crash_spec("1:0.5:shard:1", &error)) << error;
  ASSERT_EQ(plan.events.size(), 2u);
  for (const auto& ev : plan.events) {
    EXPECT_TRUE(ev.target_ps);
    ASSERT_TRUE(ev.ps_shard.has_value());
    EXPECT_EQ(*ev.ps_shard, 1u);
  }
  net::DynamicsPlan bad;
  EXPECT_FALSE(bad.add_ps_crash_spec("1:0.5:shard:x", &error));
  EXPECT_NE(error.find("--ps-crash"), std::string::npos);
  EXPECT_FALSE(bad.add_ps_crash_spec("1:0.5:rack:1", &error));
}

TEST(ShardedPsDeathTest, ConfigRejectsBadShardPlans) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  {
    // Zero shards would leave every key unowned.
    auto cfg = small_config(ps::StrategyConfig::fifo());
    cfg.ps_shards = 0;
    EXPECT_DEATH(cfg.validate(), "ps_shards");
  }
  {
    // More shards than tensors: trailing shards would own no keys.
    auto cfg = small_config(ps::StrategyConfig::fifo());
    cfg.ps_shards = 64;  // toy_cnn has 14 tensors
    EXPECT_DEATH(cfg.validate(), "tensor");
  }
  {
    // Leaf-spine must still seat every worker plus one host per shard.
    auto cfg = small_config(ps::StrategyConfig::fifo());
    cfg.topology = net::TopologySpec::leaf_spine(2, 2, Bandwidth::gbps(10), 4.0);
    cfg.ps_shards = 4;  // 2 workers + 4 PS hosts > 4 seats
    EXPECT_DEATH(cfg.validate(), "cannot hold");
  }
  {
    // A shard fault must name a shard that exists.
    auto cfg = small_config(ps::StrategyConfig::fifo());
    cfg.ps_shards = 2;
    cfg.checkpoint_period = 50_ms;
    cfg.dynamics.ps_shard_crash(1_s, 100_ms, 5);
    EXPECT_DEATH(cfg.validate(), "shard index");
  }
  {
    // A shard crash while the whole tier is already down has no well-defined
    // rollback arithmetic.
    net::DynamicsPlan plan;
    plan.ps_crash(1_s, 1_s);
    plan.ps_shard_crash(1500_ms, 100_ms, 0);
    plan.sort();
    EXPECT_DEATH(plan.validate(2, 2), "already down");
  }
}

TEST(ShardedPsDeathTest, ValidateDiagnosticsNameTheOffendingField) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  {
    // Loss from the start with no retries: the message names the field to
    // fix.
    auto cfg = small_config(ps::StrategyConfig::fifo());
    cfg.dynamics.loss_rate(Duration::zero(), 0.1);
    cfg.retry_budget = 0;
    EXPECT_DEATH(cfg.validate(), "ClusterConfig::retry_budget");
  }
  {
    // Loss that arrives mid-run is caught before simulating all the same,
    // naming the exact field and where the requirement comes from.
    auto cfg = small_config(ps::StrategyConfig::fifo());
    cfg.retry_budget = 0;
    cfg.dynamics.loss_rate(1_s, 0.1);
    EXPECT_DEATH(cfg.validate(), "ClusterConfig::retry_budget.*loss_rate");
  }
  {
    // The ASP-crash rejection points at the ROADMAP item that would lift it.
    auto cfg = small_config(ps::StrategyConfig::fifo());
    cfg.sync = ps::SyncMode::kAsp;
    cfg.dynamics.worker_crash(1_s, 100_ms, 0);
    EXPECT_DEATH(cfg.validate(), "stale-synchronous parallel mode");
  }
}

}  // namespace
}  // namespace prophet
