// TransferLog: push summaries streamed over the run's measurement window,
// counts always kept, raw records only on opt-in.
//
// The load-bearing invariants:
//   * the streamed overall() and per_gradient() equal, bit for bit, a
//     recomputation from the raw records over [measure_first, measure_last),
//     for FIFO, P3, ByteScheduler and Prophet, a sharded PS and a lossy
//     transport;
//   * keeping records moves no output: a default run counts exactly the
//     records an opted-in run keeps, and reports the same summaries;
//   * a push is measured from the backward-start mark in force when it is
//     recorded, so a replay after a rollback does not count the outage.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "metrics/transfer_log.hpp"
#include "ps/cluster.hpp"

namespace prophet {
namespace {

using namespace prophet::literals;
using metrics::TransferLog;
using metrics::TransferRecord;

TimePoint at_ms(std::int64_t ms) {
  return TimePoint::origin() + Duration::millis(ms);
}

TransferRecord push(std::size_t iteration, std::size_t grad, std::int64_t enqueued_ms,
                    std::int64_t started_ms, std::int64_t finished_ms) {
  return TransferRecord{.iteration = iteration,
                        .grad = grad,
                        .kind = sched::TaskKind::kPush,
                        .bytes = Bytes::kib(64),
                        .enqueued = at_ms(enqueued_ms),
                        .started = at_ms(started_ms),
                        .finished = at_ms(finished_ms)};
}

void expect_same_stats(const RunningStats& got, const RunningStats& want,
                       const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(got.count(), want.count());
  EXPECT_EQ(got.sum(), want.sum());
  if (want.empty()) return;
  EXPECT_EQ(got.mean(), want.mean());
  EXPECT_EQ(got.variance(), want.variance());
  EXPECT_EQ(got.min(), want.min());
  EXPECT_EQ(got.max(), want.max());
}

TEST(TransferLog, ReplayedPushIsMeasuredFromTheMarkInForce) {
  // A PS failover rolls iteration 3 back: its backward pass runs again at
  // 1000 ms, and the replayed push lands 50 ms into it, as the first did.
  TransferLog log{0, 10, 1, false};
  log.mark_backward_start(3, at_ms(100));
  log.record(push(3, 0, 120, 150, 160));
  log.mark_backward_start(3, at_ms(1000));
  log.record(push(3, 0, 1020, 1050, 1060));

  ASSERT_EQ(log.per_gradient().size(), 1u);
  const auto& g = log.per_gradient()[0];
  ASSERT_EQ(g.start_offset_ms.count(), 2u);
  EXPECT_DOUBLE_EQ(g.start_offset_ms.mean(), 50.0);
  EXPECT_DOUBLE_EQ(g.end_offset_ms.mean(), 60.0);
  EXPECT_DOUBLE_EQ(g.wait_ms.mean(), 30.0);
  ASSERT_TRUE(log.backward_start(3).has_value());
  EXPECT_EQ(*log.backward_start(3), at_ms(1000));
}

TEST(TransferLog, StreamsWindowPushesAndCountsEveryRecord) {
  TransferLog log{2, 4, 8, false};
  // Nothing is allocated up front; the first window push reserves one
  // summary per gradient of the model.
  EXPECT_EQ(log.per_gradient().capacity(), 0u);
  EXPECT_EQ(log.records().capacity(), 0u);

  log.mark_backward_start(1, at_ms(0));
  log.record(push(1, 5, 0, 10, 20));  // before the window
  TransferRecord pull = push(2, 7, 30, 40, 50);
  pull.kind = sched::TaskKind::kPull;
  log.record(pull);                    // wrong direction
  log.record(push(4, 6, 60, 70, 80));  // past the window
  EXPECT_EQ(log.count(), 3u);
  EXPECT_TRUE(log.per_gradient().empty());
  EXPECT_EQ(log.overall().count, 0u);
  EXPECT_FALSE(log.backward_start(1).has_value());  // outside the window

  EXPECT_EQ(log.per_gradient().capacity(), 0u);

  log.record(push(2, 3, 100, 104, 110));  // no mark yet: no offsets
  EXPECT_EQ(log.per_gradient().capacity(), 8u);
  log.mark_backward_start(3, at_ms(200));
  log.record(push(3, 1, 200, 202, 203));
  EXPECT_EQ(log.count(), 5u);
  EXPECT_TRUE(log.records().empty());
  ASSERT_EQ(log.per_gradient().size(), 4u);
  for (std::size_t g = 0; g < 4; ++g) EXPECT_EQ(log.per_gradient()[g].grad, g);
  EXPECT_EQ(log.per_gradient()[3].wait_ms.count(), 1u);
  EXPECT_TRUE(log.per_gradient()[3].start_offset_ms.empty());
  EXPECT_DOUBLE_EQ(log.per_gradient()[1].end_offset_ms.mean(), 3.0);
  const auto overall = log.overall();
  EXPECT_EQ(overall.count, 2u);
  EXPECT_DOUBLE_EQ(overall.mean_wait_ms, 3.0);
  EXPECT_DOUBLE_EQ(overall.mean_transfer_ms, 3.5);

  TransferLog kept{2, 4, 8, true};
  kept.record(push(1, 5, 0, 10, 20));
  kept.record(push(2, 3, 100, 104, 110));
  ASSERT_EQ(kept.records().size(), 2u);
  EXPECT_EQ(kept.records()[0].iteration, 1u);
  EXPECT_EQ(kept.count(), 2u);
}

// The first window push reserves one summary per gradient of the model, so
// a ResNet50 worker holds exactly its 161 summaries instead of a doubling
// grown from whichever gradient it pushed first.
TEST(TransferLog, ReservesOneSummaryPerModelGradient) {
  ps::ClusterConfig cfg;
  cfg.model = dnn::resnet50();
  cfg.num_workers = 2;
  cfg.batch = 64;
  cfg.iterations = 6;
  cfg.topology = net::TopologySpec::star(Bandwidth::gbps(3), Bandwidth::gbps(10));
  cfg.strategy = ps::StrategyConfig::fifo();
  const auto result = ps::run_cluster(cfg, 3);
  ASSERT_EQ(cfg.model.tensor_count(), 161u);
  for (const auto& w : result.workers) {
    SCOPED_TRACE("worker " + std::to_string(w.id));
    EXPECT_GT(w.transfers.overall().count, 0u);
    EXPECT_EQ(w.transfers.per_gradient().size(), cfg.model.tensor_count());
    EXPECT_EQ(w.transfers.per_gradient().capacity(), cfg.model.tensor_count());
  }
}

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
  // p3_lossy: retransmitted pushes carry attempts > 1.
  auto cfg = small_config(ps::StrategyConfig::p3(Bytes::kib(64)));
  cfg.dynamics.loss_rate(Duration::zero(), 0.05);
  cfg.retry_budget = 64;
  return cfg;
}

class StreamedSummaries : public ::testing::TestWithParam<const char*> {};

TEST_P(StreamedSummaries, MatchRecomputationFromKeptRecords) {
  auto cfg = case_config(GetParam());
  cfg.keep_transfer_records = true;
  const auto result = ps::run_cluster(cfg);
  const std::size_t first = result.measure_first;
  const std::size_t last = result.measure_last;
  ASSERT_EQ(first, cfg.default_measure_first());
  ASSERT_EQ(last, cfg.iterations);

  std::size_t retransmitted = 0;
  for (const auto& w : result.workers) {
    SCOPED_TRACE("worker " + std::to_string(w.id));
    const TransferLog& log = w.transfers;
    EXPECT_EQ(log.count(), log.records().size());

    RunningStats wait;
    RunningStats transfer;
    std::vector<metrics::GradientTransferSummary> want;
    for (const auto& rec : log.records()) {
      if (rec.attempts > 1) ++retransmitted;
      if (rec.kind != sched::TaskKind::kPush || rec.iteration < first ||
          rec.iteration >= last) {
        continue;
      }
      wait.add(rec.wait().to_millis());
      transfer.add(rec.transfer().to_millis());
      if (rec.grad >= want.size()) want.resize(rec.grad + 1);
      auto& g = want[rec.grad];
      g.wait_ms.add(rec.wait().to_millis());
      g.transfer_ms.add(rec.transfer().to_millis());
      // Fault-free runs mark each iteration once, so the final mark is the
      // one every push of it was measured from.
      const auto t0 = log.backward_start(rec.iteration);
      ASSERT_TRUE(t0.has_value()) << "iteration " << rec.iteration;
      g.start_offset_ms.add((rec.started - *t0).to_millis());
      g.end_offset_ms.add((rec.finished - *t0).to_millis());
    }
    ASSERT_GT(wait.count(), 0u);

    const auto overall = log.overall();
    EXPECT_EQ(overall.count, wait.count());
    EXPECT_EQ(overall.mean_wait_ms, wait.mean());
    EXPECT_EQ(overall.mean_transfer_ms, transfer.mean());

    ASSERT_EQ(log.per_gradient().size(), want.size());
    for (std::size_t g = 0; g < want.size(); ++g) {
      const auto& got = log.per_gradient()[g];
      const std::string grad = "grad " + std::to_string(g);
      EXPECT_EQ(got.grad, g);
      expect_same_stats(got.wait_ms, want[g].wait_ms, grad + " wait");
      expect_same_stats(got.transfer_ms, want[g].transfer_ms, grad + " transfer");
      expect_same_stats(got.start_offset_ms, want[g].start_offset_ms, grad + " start");
      expect_same_stats(got.end_offset_ms, want[g].end_offset_ms, grad + " end");
    }
  }
  // The lossy case is only meaningful if its run retransmits.
  if (cfg.dynamics.has_loss()) {
    EXPECT_GT(retransmitted, 0u);
  }
}

TEST_P(StreamedSummaries, KeepingRecordsMovesNoOutput) {
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
    const TransferLog& a = plain.workers[w].transfers;
    const TransferLog& b = kept.workers[w].transfers;
    EXPECT_TRUE(a.records().empty());
    EXPECT_GT(b.records().size(), 0u);
    EXPECT_EQ(a.count(), b.records().size());
    EXPECT_EQ(a.overall().count, b.overall().count);
    EXPECT_EQ(a.overall().mean_wait_ms, b.overall().mean_wait_ms);
    EXPECT_EQ(a.overall().mean_transfer_ms, b.overall().mean_transfer_ms);
    ASSERT_EQ(a.per_gradient().size(), b.per_gradient().size());
    for (std::size_t g = 0; g < a.per_gradient().size(); ++g) {
      const std::string grad = "grad " + std::to_string(g);
      expect_same_stats(a.per_gradient()[g].wait_ms, b.per_gradient()[g].wait_ms,
                        grad + " wait");
      expect_same_stats(a.per_gradient()[g].start_offset_ms,
                        b.per_gradient()[g].start_offset_ms, grad + " start");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Runs, StreamedSummaries,
                         ::testing::Values("fifo", "p3", "bytescheduler", "prophet",
                                           "prophet_2_shards", "p3_lossy"),
                         [](const auto& param_info) {
                           return std::string{param_info.param};
                         });

}  // namespace
}  // namespace prophet
