// GpuTracker: busy time sampled at iteration starts, raw intervals on opt-in.
//
// The load-bearing invariants:
//   * a mark reads the busy time accumulated by the last idle edge at or
//     before its instant, including an edge recorded after the mark at the
//     same instant, and a busy span counts in the window it ends in;
//   * a replay re-marks its iteration and that mark is the one in force;
//   * every worker's gpu_utilization equals, bit for bit, a recomputation
//     from its kept busy intervals between the starts of the window's first
//     and last iterations — for FIFO, P3, ByteScheduler and Prophet, a
//     sharded PS, and a worker crash and a PS failover whose replays
//     re-mark the window's first iteration;
//   * raw intervals are kept only under ClusterConfig::keep_transfer_records,
//     and keeping them moves no output.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "allreduce/cluster.hpp"
#include "metrics/gpu_tracker.hpp"
#include "ps/cluster.hpp"

namespace prophet {
namespace {

using namespace prophet::literals;
using metrics::GpuTracker;

TimePoint at_ms(std::int64_t ms) {
  return TimePoint::origin() + Duration::millis(ms);
}

GpuTracker tracker(bool keep_intervals = false) {
  return GpuTracker{Duration::millis(10), Duration::seconds(1), keep_intervals};
}

void busy(GpuTracker& gpu, std::int64_t from_ms, std::int64_t to_ms) {
  gpu.busy_from(at_ms(from_ms));
  gpu.idle_from(at_ms(to_ms));
}

TEST(GpuTracker, BusySpanCountsInTheWindowItEnds) {
  auto gpu = tracker();
  gpu.mark_iteration(0, at_ms(0));
  busy(gpu, 10, 30);
  gpu.busy_from(at_ms(50));  // open across the next two marks
  gpu.mark_iteration(1, at_ms(100));
  gpu.mark_iteration(2, at_ms(200));
  gpu.idle_from(at_ms(250));
  gpu.mark_iteration(3, at_ms(300));

  EXPECT_DOUBLE_EQ(gpu.utilization(0, 1), 0.2);
  EXPECT_DOUBLE_EQ(gpu.utilization(1, 2), 0.0);
  // The whole 200 ms span lands in [200, 300): clamped to fully busy.
  EXPECT_DOUBLE_EQ(gpu.utilization(2, 3), 1.0);
  EXPECT_DOUBLE_EQ(gpu.utilization(0, 3), 220.0 / 300.0);
  EXPECT_DOUBLE_EQ(gpu.utilization(1, 3), 200.0 / 200.0);
}

TEST(GpuTracker, IdleEdgeAtTheMarkInstantCountsBeforeIt) {
  // Backward ends at 50 ms, recorded after iteration 1's mark at 50 ms: the
  // busy time still belongs to iteration 0.
  auto gpu = tracker();
  gpu.mark_iteration(0, at_ms(0));
  gpu.busy_from(at_ms(10));
  gpu.mark_iteration(1, at_ms(50));
  gpu.idle_from(at_ms(50));
  busy(gpu, 60, 80);
  gpu.mark_iteration(2, at_ms(100));

  EXPECT_DOUBLE_EQ(gpu.utilization(0, 1), 0.8);
  EXPECT_DOUBLE_EQ(gpu.utilization(1, 2), 0.4);
  EXPECT_DOUBLE_EQ(gpu.utilization(0, 2), 0.6);
}

TEST(GpuTracker, ReplayReMarkIsInForce) {
  // Iteration 1 starts at 50 ms, the worker crashes mid-forward at 70 ms and
  // replays iteration 1 from 100 ms; the compute lost to the crash counts in
  // iteration 0's window, which now ends at the replay.
  auto gpu = tracker();
  gpu.mark_iteration(0, at_ms(0));
  busy(gpu, 0, 40);
  gpu.mark_iteration(1, at_ms(50));
  busy(gpu, 50, 70);
  gpu.mark_iteration(1, at_ms(100));
  busy(gpu, 100, 140);
  gpu.mark_iteration(2, at_ms(150));

  EXPECT_DOUBLE_EQ(gpu.utilization(0, 1), 0.6);
  EXPECT_DOUBLE_EQ(gpu.utilization(1, 2), 0.8);

  // Re-marking an earlier iteration discards every later mark.
  gpu.mark_iteration(1, at_ms(200));
  busy(gpu, 200, 210);
  gpu.mark_iteration(2, at_ms(250));
  EXPECT_DOUBLE_EQ(gpu.utilization(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(gpu.utilization(1, 2), 0.2);
}

TEST(GpuTracker, KeepsMergedIntervalsOnlyOnOptIn) {
  auto plain = tracker(false);
  auto kept = tracker(true);
  for (GpuTracker* gpu : {&plain, &kept}) {
    gpu->mark_iteration(0, at_ms(0));
    busy(*gpu, 0, 10);
    busy(*gpu, 10, 20);  // contiguous: merged
    busy(*gpu, 30, 30);  // zero length: dropped
    busy(*gpu, 40, 50);
    gpu->mark_iteration(1, at_ms(100));
  }
  EXPECT_TRUE(plain.take_intervals().empty());
  const std::vector<std::pair<TimePoint, TimePoint>> want = {{at_ms(0), at_ms(20)},
                                                             {at_ms(40), at_ms(50)}};
  EXPECT_EQ(kept.take_intervals(), want);
  EXPECT_EQ(plain.utilization(0, 1), kept.utilization(0, 1));
  EXPECT_DOUBLE_EQ(kept.utilization(0, 1), 0.3);
}

TEST(GpuTrackerDeathTest, WindowNeedsMarkedIterations) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto gpu = tracker();
  gpu.mark_iteration(0, at_ms(0));
  gpu.mark_iteration(1, at_ms(10));
  EXPECT_DEATH((void)gpu.utilization(0, 2), "last < marks_.size");
  EXPECT_DEATH((void)gpu.utilization(1, 1), "first < last");
  EXPECT_DEATH(gpu.mark_iteration(3, at_ms(20)), "marked in order");
}

// --- Cluster runs -----------------------------------------------------------

ps::ClusterConfig small_config(ps::StrategyConfig strategy) {
  ps::ClusterConfig cfg;
  cfg.model = dnn::toy_cnn();
  cfg.num_workers = 2;
  cfg.batch = 32;
  cfg.iterations = 12;
  cfg.topology = net::TopologySpec::star(Bandwidth::gbps(1), Bandwidth::gbps(1));
  cfg.strategy = strategy;
  cfg.strategy.prophet_config.profile_iterations = 4;
  return cfg;
}

ps::ClusterConfig case_config(const std::string& name) {
  if (name == "fifo") return small_config(ps::StrategyConfig::fifo());
  if (name == "p3") return small_config(ps::StrategyConfig::p3(Bytes::kib(64)));
  if (name == "bytescheduler") {
    ps::StrategyConfig s = ps::StrategyConfig::bytescheduler(Bytes::kib(256));
    s.bytescheduler_config.partition_bytes = Bytes::kib(64);
    return small_config(s);
  }
  if (name == "prophet") return small_config(ps::StrategyConfig::prophet());
  if (name == "prophet_2_shards") {
    auto cfg = small_config(ps::StrategyConfig::prophet());
    cfg.ps_shards = 2;
    return cfg;
  }
  if (name == "worker_crash") {
    auto cfg = small_config(ps::StrategyConfig::fifo());
    cfg.dynamics.worker_crash(300_ms, 50_ms, 0);
    return cfg;
  }
  auto cfg = small_config(ps::StrategyConfig::bytescheduler());
  cfg.checkpoint_period = 50_ms;
  cfg.dynamics.ps_crash(120_ms, 80_ms);
  return cfg;
}

// The fault cases measure from the iteration their replay re-marks: worker
// 0 crashes in iteration 6 and replays it; the PS failover rolls both
// workers back to iteration 5.
std::optional<std::size_t> replayed_first(const std::string& name) {
  if (name == "worker_crash") return 6;
  if (name == "ps_crash") return 5;
  return std::nullopt;
}

// Busy time of `intervals` inside [from, to).
Duration busy_between(const std::vector<std::pair<TimePoint, TimePoint>>& intervals,
                      TimePoint from, TimePoint to) {
  Duration busy{};
  for (const auto& [begin, end] : intervals) {
    const TimePoint lo = std::max(begin, from);
    const TimePoint hi = std::min(end, to);
    if (hi > lo) busy += hi - lo;
  }
  return busy;
}

class GpuUtilization : public ::testing::TestWithParam<const char*> {};

TEST_P(GpuUtilization, MatchesRecomputationFromKeptIntervals) {
  auto cfg = case_config(GetParam());
  cfg.keep_transfer_records = true;
  const auto replayed = replayed_first(GetParam());
  const auto result = ps::run_cluster(cfg, replayed);
  const std::size_t first = result.measure_first;
  const std::size_t last = result.measure_last;
  std::size_t remarked = 0;
  for (const auto& w : result.workers) {
    SCOPED_TRACE("worker " + std::to_string(w.id));
    ASSERT_FALSE(w.gpu_intervals.empty());
    const TimePoint from = w.training.iteration_start(first);
    const TimePoint to = w.training.iteration_start(last);
    const double want =
        std::clamp(busy_between(w.gpu_intervals, from, to) / (to - from), 0.0, 1.0);
    EXPECT_EQ(w.gpu_utilization, want);
    EXPECT_GT(w.gpu_utilization, 0.0);
    // A fault after iteration first - 1 began but before `from`: the start
    // of `first` in force is the replay's re-mark.
    const TimePoint before = w.training.iteration_start(first - 1);
    for (const auto& fault : w.transfers.faults()) {
      if (fault.at > before && fault.at < from) ++remarked;
    }
  }
  // The fault cases are only meaningful if the window starts at a re-mark.
  if (replayed.has_value()) {
    EXPECT_GT(remarked, 0u);
  }
}

TEST_P(GpuUtilization, KeepingIntervalsMovesNoOutput) {
  const auto cfg = case_config(GetParam());
  auto kept_cfg = cfg;
  kept_cfg.keep_transfer_records = true;
  const auto plain = ps::run_cluster(cfg);
  const auto kept = ps::run_cluster(kept_cfg);
  EXPECT_EQ(plain.simulated_time.count_nanos(), kept.simulated_time.count_nanos());
  EXPECT_EQ(plain.events_fired, kept.events_fired);
  ASSERT_EQ(plain.workers.size(), kept.workers.size());
  for (std::size_t w = 0; w < plain.workers.size(); ++w) {
    SCOPED_TRACE("worker " + std::to_string(w));
    EXPECT_TRUE(plain.workers[w].gpu_intervals.empty());
    EXPECT_FALSE(kept.workers[w].gpu_intervals.empty());
    EXPECT_EQ(plain.workers[w].gpu_utilization, kept.workers[w].gpu_utilization);
    EXPECT_EQ(plain.workers[w].gpu_series.stored_bins(),
              kept.workers[w].gpu_series.stored_bins());
  }
}

INSTANTIATE_TEST_SUITE_P(Runs, GpuUtilization,
                         ::testing::Values("fifo", "p3", "bytescheduler", "prophet",
                                           "prophet_2_shards", "worker_crash",
                                           "ps_crash"),
                         [](const auto& param_info) {
                           return std::string{param_info.param};
                         });

// The ring's results take the same opt-in and the same recomputation.
TEST(GpuUtilizationRing, KeepsIntervalsOnlyOnOptIn) {
  ps::ClusterConfig cfg;
  cfg.model = dnn::toy_cnn();
  cfg.num_workers = 3;
  cfg.batch = 32;
  cfg.iterations = 8;
  cfg.topology = net::TopologySpec::star(Bandwidth::gbps(2), Bandwidth::gbps(2));
  cfg.strategy = ps::StrategyConfig::fifo();
  auto kept_cfg = cfg;
  kept_cfg.keep_transfer_records = true;
  const auto plain = ar::run_allreduce(cfg, 3);
  const auto kept = ar::run_allreduce(kept_cfg, 3);
  ASSERT_EQ(plain.workers.size(), 3u);
  for (std::size_t w = 0; w < plain.workers.size(); ++w) {
    SCOPED_TRACE("worker " + std::to_string(w));
    const auto& k = kept.workers[w];
    EXPECT_TRUE(plain.workers[w].gpu_intervals.empty());
    ASSERT_FALSE(k.gpu_intervals.empty());
    EXPECT_EQ(plain.workers[w].gpu_utilization, k.gpu_utilization);
    const TimePoint from = k.training.iteration_start(3);
    const TimePoint to = k.training.iteration_start(8);
    EXPECT_EQ(k.gpu_utilization,
              std::clamp(busy_between(k.gpu_intervals, from, to) / (to - from), 0.0, 1.0));
  }
}

}  // namespace
}  // namespace prophet
