#include <gtest/gtest.h>

#include "sched/bytescheduler.hpp"
#include "sched/fifo.hpp"

namespace prophet::sched {
namespace {

using namespace prophet::literals;

TimePoint at(std::int64_t ms) { return TimePoint::origin() + Duration::millis(ms); }

TEST(Fifo, TransfersWholeTensorsInArrivalOrder) {
  FifoScheduler fifo{TaskKind::kPush};
  fifo.enqueue(7, Bytes::mib(2), at(0));
  fifo.enqueue(3, Bytes::mib(1), at(1));
  fifo.enqueue(0, Bytes::kib(4), at(2));

  auto t1 = fifo.next_task(at(3));
  ASSERT_TRUE(t1.has_value());
  EXPECT_EQ(t1->items.size(), 1u);
  EXPECT_EQ(t1->items[0].grad, 7u);  // arrival order, NOT priority
  EXPECT_EQ(t1->total_bytes(), Bytes::mib(2));
  EXPECT_TRUE(t1->items[0].last_slice);

  EXPECT_EQ(fifo.next_task(at(3))->items[0].grad, 3u);
  EXPECT_EQ(fifo.next_task(at(3))->items[0].grad, 0u);
  EXPECT_FALSE(fifo.next_task(at(3)).has_value());
  EXPECT_FALSE(fifo.has_pending());
}

TEST(Fifo, BlockingAckAppliedToTasks) {
  FifoScheduler fifo{TaskKind::kPush, 2_ms};
  fifo.enqueue(1, Bytes::mib(1), at(0));
  EXPECT_EQ(fifo.next_task(at(0))->post_delay, 2_ms);
}

TEST(Fifo, KindPropagates) {
  FifoScheduler pull{TaskKind::kPull};
  pull.enqueue(1, Bytes::mib(1), at(0));
  EXPECT_EQ(pull.next_task(at(0))->kind, TaskKind::kPull);
}

TEST(P3, OnePartitionPerTask) {
  ByteSchedulerScheduler p3{TaskKind::kPush, ByteSchedulerConfig::p3(Bytes::mib(4))};
  p3.enqueue(2, Bytes::mib(10), at(0));
  auto t1 = p3.next_task(at(0));
  ASSERT_TRUE(t1.has_value());
  EXPECT_EQ(t1->items.size(), 1u);
  EXPECT_EQ(t1->total_bytes(), Bytes::mib(4));
  auto t2 = p3.next_task(at(0));
  EXPECT_EQ(t2->items[0].offset, Bytes::mib(4));
  auto t3 = p3.next_task(at(0));
  EXPECT_EQ(t3->total_bytes(), Bytes::mib(2));
  EXPECT_TRUE(t3->items[0].last_slice);
  EXPECT_FALSE(p3.next_task(at(0)).has_value());
}

TEST(P3, StrictPriorityPreemption) {
  ByteSchedulerScheduler p3{TaskKind::kPush, ByteSchedulerConfig::p3(Bytes::mib(4))};
  p3.enqueue(5, Bytes::mib(12), at(0));
  (void)p3.next_task(at(0));          // one partition of gradient 5 sent
  p3.enqueue(1, Bytes::mib(4), at(1));  // higher priority arrives
  EXPECT_EQ(p3.next_task(at(1))->items[0].grad, 1u);
  EXPECT_EQ(p3.next_task(at(1))->items[0].grad, 5u);
}

TEST(ByteScheduler, GroupsUpToCreditAcrossTensors) {
  ByteSchedulerConfig cfg;
  cfg.partition_bytes = Bytes::mib(1);
  cfg.credit_bytes = Bytes::mib(3);
  ByteSchedulerScheduler bs{TaskKind::kPush, cfg};
  bs.enqueue(4, Bytes::mib(2), at(0));
  bs.enqueue(9, Bytes::mib(2), at(0));
  auto t1 = bs.next_task(at(0));
  ASSERT_TRUE(t1.has_value());
  EXPECT_EQ(t1->total_bytes(), Bytes::mib(3));
  EXPECT_EQ(t1->items.size(), 3u);
  EXPECT_EQ(t1->items[0].grad, 4u);
  EXPECT_EQ(t1->items[2].grad, 9u);  // crosses tensors in priority order
  auto t2 = bs.next_task(at(0));
  EXPECT_EQ(t2->total_bytes(), Bytes::mib(1));
  EXPECT_FALSE(bs.next_task(at(0)).has_value());
}

TEST(ByteScheduler, CreditAckDelayOnTasks) {
  ByteSchedulerConfig cfg;
  cfg.credit_ack_delay = 700_us;
  ByteSchedulerScheduler bs{TaskKind::kPush, cfg};
  bs.enqueue(0, Bytes::mib(1), at(0));
  EXPECT_EQ(bs.next_task(at(0))->post_delay, 700_us);
}

TEST(ByteScheduler, FixedCreditWithoutAutotune) {
  ByteSchedulerScheduler bs{TaskKind::kPush, {}};
  const Bytes before = bs.credit_bytes();
  for (std::size_t i = 0; i < 30; ++i) {
    bs.on_iteration_end(i, at(static_cast<std::int64_t>(100 * i)));
  }
  EXPECT_EQ(bs.credit_bytes(), before);
}

TEST(ByteScheduler, AutotuneAdjustsCreditAcrossEpisodes) {
  ByteSchedulerConfig cfg;
  cfg.autotune = true;
  cfg.tune_interval_iters = 2;
  ByteSchedulerScheduler bs{TaskKind::kPush, cfg};
  const Bytes initial = bs.credit_bytes();
  bool changed = false;
  for (std::size_t i = 0; i < 20; ++i) {
    bs.on_iteration_end(i, at(static_cast<std::int64_t>(100 * (i + 1))));
    if (bs.credit_bytes() != initial) changed = true;
  }
  EXPECT_TRUE(changed);
  EXPECT_GE(bs.credit_bytes(), cfg.partition_bytes);
  EXPECT_LE(bs.credit_bytes().count(), Bytes::mib(16).count());  // tuner bound
}

TEST(ByteScheduler, PreemptionWithinCreditGranularity) {
  ByteSchedulerConfig cfg;
  cfg.partition_bytes = Bytes::mib(1);
  cfg.credit_bytes = Bytes::mib(2);
  ByteSchedulerScheduler bs{TaskKind::kPush, cfg};
  bs.enqueue(8, Bytes::mib(6), at(0));
  (void)bs.next_task(at(0));  // 2 MiB of gradient 8 in flight
  bs.enqueue(0, Bytes::mib(1), at(1));
  const auto next = bs.next_task(at(1));
  // Gradient 0 leads the next credit group.
  EXPECT_EQ(next->items[0].grad, 0u);
  EXPECT_EQ(next->items[1].grad, 8u);
}

// A credit below one partition still sends one (P3's setting); a zero
// credit is a misconfiguration.
TEST(ByteSchedulerDeath, ZeroCreditAborts) {
  ByteSchedulerConfig cfg;
  cfg.credit_bytes = Bytes::zero();
  EXPECT_DEATH((void)ByteSchedulerScheduler(TaskKind::kPush, cfg), "credit_bytes");
}

}  // namespace
}  // namespace prophet::sched
