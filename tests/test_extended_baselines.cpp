// Unit tests for the related-work baselines added beyond the paper's core
// comparison set: TicTac (op-order priority, a ByteScheduler setting) and
// MG-WFBP (static gradient merging).
#include <gtest/gtest.h>

#include "sched/bytescheduler.hpp"
#include "sched/mg_wfbp.hpp"

namespace prophet::sched {
namespace {

using namespace prophet::literals;

TimePoint at(std::int64_t ms) { return TimePoint::origin() + Duration::millis(ms); }

TEST(TicTac, WholeTensorsInPriorityOrder) {
  ByteSchedulerScheduler tictac{TaskKind::kPush, ByteSchedulerConfig::tictac()};
  tictac.enqueue(7, Bytes::mib(2), at(0));
  tictac.enqueue(3, Bytes::mib(1), at(1));
  tictac.enqueue(9, Bytes::kib(8), at(1));
  EXPECT_EQ(tictac.next_task(at(2))->items[0].grad, 3u);
  EXPECT_EQ(tictac.next_task(at(2))->items[0].grad, 7u);
  EXPECT_EQ(tictac.next_task(at(2))->items[0].grad, 9u);
  EXPECT_FALSE(tictac.next_task(at(2)).has_value());
}

TEST(TicTac, NoSlicing) {
  ByteSchedulerScheduler tictac{TaskKind::kPush, ByteSchedulerConfig::tictac()};
  tictac.enqueue(0, Bytes::mib(64), at(0));
  const auto task = tictac.next_task(at(0));
  ASSERT_TRUE(task.has_value());
  EXPECT_EQ(task->items.size(), 1u);
  EXPECT_EQ(task->total_bytes(), Bytes::mib(64));
  EXPECT_TRUE(task->items[0].last_slice);
}

TEST(TicTac, UrgentArrivalPreemptsAtTaskBoundary) {
  ByteSchedulerScheduler tictac{TaskKind::kPush, ByteSchedulerConfig::tictac()};
  tictac.enqueue(5, Bytes::mib(4), at(0));
  (void)tictac.next_task(at(0));
  tictac.enqueue(6, Bytes::mib(4), at(1));
  tictac.enqueue(0, Bytes::kib(4), at(2));
  EXPECT_EQ(tictac.next_task(at(2))->items[0].grad, 0u);
}

TEST(TicTac, BlockingAckCarried) {
  ByteSchedulerScheduler tictac{TaskKind::kPush, ByteSchedulerConfig::tictac(2_ms)};
  tictac.enqueue(0, Bytes::mib(1), at(0));
  EXPECT_EQ(tictac.next_task(at(0))->post_delay, 2_ms);
}

TEST(TicTacDeath, DoubleEnqueueAborts) {
  ByteSchedulerScheduler tictac{TaskKind::kPush, ByteSchedulerConfig::tictac()};
  tictac.enqueue(1, Bytes::mib(1), at(0));
  EXPECT_DEATH(tictac.enqueue(1, Bytes::mib(1), at(1)), "enqueued twice");
}

TEST(MgWfbp, WaitsForMergeThreshold) {
  MgWfbpScheduler mg{TaskKind::kPush};
  mg.enqueue(9, Bytes::mib(2), at(0));
  mg.enqueue(8, Bytes::mib(2), at(0));
  EXPECT_FALSE(mg.next_task(at(0)).has_value());  // below 8 MiB, not aged
  EXPECT_TRUE(mg.has_pending());
  mg.enqueue(7, Bytes::mib(4), at(1));
  const auto task = mg.next_task(at(1));
  ASSERT_TRUE(task.has_value());
  EXPECT_EQ(task->total_bytes(), Bytes::mib(8));
  EXPECT_EQ(task->items.size(), 3u);
  EXPECT_EQ(task->items[0].grad, 7u);  // priority order inside the merge
}

TEST(MgWfbp, AgeTriggerFlushesPartialMerge) {
  MgWfbpScheduler mg{TaskKind::kPush};
  mg.enqueue(3, Bytes::mib(1), at(0));
  EXPECT_FALSE(mg.next_task(at(9)).has_value());
  const auto task = mg.next_task(at(10));  // the head has waited 10 ms
  ASSERT_TRUE(task.has_value());
  EXPECT_EQ(task->items[0].grad, 3u);
  EXPECT_FALSE(mg.has_pending());
}

TEST(MgWfbp, MergeStopsAtThreshold) {
  MgWfbpScheduler mg{TaskKind::kPush};
  for (std::size_t g = 0; g < 10; ++g) mg.enqueue(g, Bytes::mib(2), at(0));
  const auto first = mg.next_task(at(0));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->items.size(), 4u);  // 4 x 2 MiB reach the 8 MiB threshold
  EXPECT_EQ(first->items[0].grad, 0u);
  const auto second = mg.next_task(at(0));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->items[0].grad, 4u);
}

TEST(MgWfbp, AgeOfMostUrgentGoverns) {
  MgWfbpScheduler mg{TaskKind::kPush};
  mg.enqueue(9, Bytes::mib(1), at(0));
  mg.enqueue(1, Bytes::mib(1), at(8));  // more urgent but younger
  // At 10 ms: gradient 1 (head of the buffer) is only 2 ms old -> hold.
  EXPECT_FALSE(mg.next_task(at(10)).has_value());
  // At 18 ms the head has aged past the 10 ms delay -> flush everything
  // buffered.
  const auto task = mg.next_task(at(18));
  ASSERT_TRUE(task.has_value());
  EXPECT_EQ(task->items.size(), 2u);
}

}  // namespace
}  // namespace prophet::sched
