#include <gtest/gtest.h>

#include "core/prophet_scheduler.hpp"
#include "testing_profiles.hpp"

namespace prophet::core {
namespace {

using namespace prophet::literals;
using sched::TaskKind;
using testing::fig5_profile;
using testing::make_profile;
using testing::simple_cost;

TimePoint at(std::int64_t ms) { return TimePoint::origin() + Duration::millis(ms); }

constexpr double kMiBps100 = 1024.0 * 1024.0 * 100;

ProphetScheduler make_push(std::size_t grads, GradientProfile profile,
                           ProphetConfig config = {},
                           Bandwidth bw = Bandwidth::bytes_per_sec(kMiBps100)) {
  ProphetScheduler sched{TaskKind::kPush, grads, [bw] { return bw; },
                         simple_cost(), config};
  sched.set_profile(std::move(profile));
  return sched;
}

TEST(ProphetScheduler, RunsEngineDefaultWhileProfiling) {
  // Before the profile exists Prophet behaves like the underlying BytePS
  // engine: priority order, credit-sized groups.
  ProphetConfig config;
  config.min_block = Bytes::mib(2);
  ProphetScheduler sched{TaskKind::kPush, 3,
                         [] { return Bandwidth::gbps(1); }, simple_cost(), config};
  EXPECT_FALSE(sched.profile_ready());
  sched.on_iteration_start(0, at(0));
  sched.enqueue(2, Bytes::mib(2), at(1));
  sched.enqueue(1, Bytes::mib(1), at(2));
  sched.enqueue(0, Bytes::kib(4), at(3));
  const auto first = sched.next_task(at(3));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->items[0].grad, 0u);  // most urgent first
  EXPECT_EQ(first->items[1].grad, 1u);  // grouped up to the credit
  const auto second = sched.next_task(at(3));
  EXPECT_EQ(second->items[0].grad, 2u);
  EXPECT_FALSE(sched.next_task(at(3)).has_value());
  EXPECT_FALSE(sched.has_pending());
}

TEST(ProphetScheduler, ProfileBuildsAfterConfiguredIterations) {
  ProphetConfig config;
  config.profile_iterations = 2;
  ProphetScheduler sched{TaskKind::kPush, 2,
                         [] { return Bandwidth::gbps(1); }, simple_cost(), config};
  for (std::size_t iter = 0; iter < 3; ++iter) {
    sched.on_iteration_start(iter, at(static_cast<std::int64_t>(100 * iter)));
    if (sched.profile_ready()) break;
    sched.enqueue(1, Bytes::mib(1), at(static_cast<std::int64_t>(100 * iter + 10)));
    sched.enqueue(0, Bytes::mib(1), at(static_cast<std::int64_t>(100 * iter + 30)));
    while (sched.next_task(at(static_cast<std::int64_t>(100 * iter + 30)))) {
    }
  }
  EXPECT_TRUE(sched.profile_ready());
  EXPECT_NEAR(sched.profile().ready[1].to_millis(), 10.0, 1e-9);
  EXPECT_NEAR(sched.profile().ready[0].to_millis(), 30.0, 1e-9);
  EXPECT_EQ(sched.profile().iterations_profiled, 2u);
}

TEST(ProphetScheduler, AssemblesBlockWithinPredictedInterval) {
  // Gradients 1 and 2 generated at t=0; gradient 0 predicted at 30 ms.
  auto sched = make_push(
      3, make_profile({30_ms, 0_ms, 0_ms},
                      {Bytes::mib(1), Bytes::mib(1), Bytes::mib(1)}));
  sched.on_iteration_start(0, at(0));
  sched.enqueue(2, Bytes::mib(1), at(0));
  sched.enqueue(1, Bytes::mib(1), at(0));
  const auto task = sched.next_task(at(0));
  ASSERT_TRUE(task.has_value());
  // Both fit: 1 ms + 20 ms < 28.5 ms budget; one block, priority order.
  EXPECT_EQ(task->total_bytes(), Bytes::mib(2));
  EXPECT_EQ(task->items.front().grad, 1u);
  EXPECT_EQ(task->priority(), 1u);
  EXPECT_EQ(task->post_delay, Duration::zero());  // Prophet streams
}

TEST(ProphetScheduler, Fig5PartialGradientBeforeGradientZero) {
  // The paper's illustrative example: only two of gradient 1's three
  // 1 MiB partitions fit before gradient 0 is generated.
  ProphetConfig config;
  config.budget_margin = 0.0;
  config.min_block = Bytes::of(1);
  config.forward_group_max = Bytes::mib(1);  // isolate per-gradient drain tasks
  auto sched = make_push(3, fig5_profile(), config);
  sched.on_iteration_start(0, at(0));
  sched.enqueue(2, Bytes::mib(1), at(0));
  // Gradient 2 goes out as its own block (fits before 10 ms: 1 + 10 = 11 >
  // 10!? no: budget to gradient 1's generation is 10 ms, one partition is
  // 11 ms -> does not fit, but the no-starvation floor sends it anyway).
  const auto first = sched.next_task(at(0));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->items[0].grad, 2u);

  // At 11 ms gradient 1 (3 MiB) is ready; gradient 0 predicted at 30 ms.
  sched.enqueue(1, Bytes::mib(3), at(11));
  const auto second = sched.next_task(at(11));
  ASSERT_TRUE(second.has_value());
  // Budget 19 ms -> 1 ms overhead + 18 ms serialization ~= 1.8 MiB -> one
  // 1 MiB partition... with min_block=1 B the fit is computed exactly:
  // 2 partitions need 1 + 20.5 ms > 19; 1 partition needs 11 ms < 19.
  EXPECT_EQ(second->items.size(), 1u);
  EXPECT_EQ(second->items[0].grad, 1u);
  EXPECT_FALSE(second->items[0].last_slice);

  // Gradient 0 arrives; remaining work drains priority-first.
  sched.enqueue(0, Bytes::mib(1), at(30));
  const auto third = sched.next_task(at(30));
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->items[0].grad, 0u);
  // Then the rest of gradient 1.
  const auto fourth = sched.next_task(at(45));
  ASSERT_TRUE(fourth.has_value());
  EXPECT_EQ(fourth->items[0].grad, 1u);
  EXPECT_EQ(fourth->items[0].offset, Bytes::mib(1));
}

TEST(ProphetScheduler, NeverIdlesWithBackloggedQueue) {
  // Predicted event already overdue: the scheduler must still emit work
  // (min_block floor) instead of starving the NIC.
  auto sched = make_push(
      3, make_profile({5_ms, 0_ms, 0_ms},
                      {Bytes::mib(1), Bytes::mib(8), Bytes::mib(8)}));
  sched.on_iteration_start(0, at(0));
  sched.enqueue(2, Bytes::mib(8), at(0));
  sched.enqueue(1, Bytes::mib(8), at(0));
  const auto task = sched.next_task(at(20));  // gradient 0 late
  ASSERT_TRUE(task.has_value());
  EXPECT_GE(task->total_bytes(), Bytes::mib(4));  // assembly floor
}

TEST(ProphetScheduler, DrainModeGroupsUpToCap) {
  ProphetConfig config;
  config.forward_group_max = Bytes::mib(2);
  auto sched = make_push(
      4, make_profile({10_ms, 10_ms, 0_ms, 0_ms},
                      std::vector<Bytes>(4, Bytes::mib(1))), config);
  sched.on_iteration_start(0, at(0));
  sched.enqueue(3, Bytes::mib(1), at(0));
  sched.enqueue(2, Bytes::mib(1), at(0));
  sched.enqueue(1, Bytes::mib(1), at(10));
  sched.enqueue(0, Bytes::mib(1), at(10));  // backward over -> drain mode
  const auto first = sched.next_task(at(10));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->total_bytes(), Bytes::mib(2));
  EXPECT_EQ(first->items[0].grad, 0u);
  EXPECT_EQ(first->items[1].grad, 1u);
  const auto second = sched.next_task(at(40));
  EXPECT_EQ(second->items[0].grad, 2u);
}

TEST(ProphetScheduler, PullSideGroupsReadyParamsByPriority) {
  ProphetConfig config;
  config.forward_group_max = Bytes::mib(4);
  ProphetScheduler pull{TaskKind::kPull, 5,
                        [] { return Bandwidth::gbps(1); }, simple_cost(), config};
  pull.set_profile(make_profile(
      {40_ms, 30_ms, 20_ms, 10_ms, 0_ms}, std::vector<Bytes>(5, Bytes::mib(2))));
  pull.enqueue(4, Bytes::mib(2), at(0));
  pull.enqueue(2, Bytes::mib(2), at(1));
  pull.enqueue(3, Bytes::mib(2), at(1));
  const auto task = pull.next_task(at(2));
  ASSERT_TRUE(task.has_value());
  EXPECT_EQ(task->total_bytes(), Bytes::mib(4));
  EXPECT_EQ(task->items.front().grad, 2u);
  EXPECT_EQ(task->kind, TaskKind::kPull);
}

// Drain groups shrink with monitored instability: a bandwidth drop past the
// 2% dead-band cuts them to the floor max(one 1 MiB partition,
// forward_group_max / 4), and while the estimate holds steady the peak-hold
// signal decays by 0.95 per iteration, so the groups grow back gradually.
TEST(ProphetScheduler, DrainGroupsShrinkWithInstabilityAndRecoverGradually) {
  constexpr std::size_t kTensors = 16;
  Bandwidth live = Bandwidth::gbps(10);
  ProphetScheduler pull{TaskKind::kPull, kTensors, [&live] { return live; },
                        simple_cost()};
  pull.set_profile(make_profile(std::vector<Duration>(kTensors, 0_ms),
                                std::vector<Bytes>(kTensors, Bytes::mib(4))));
  std::size_t iteration = 0;
  // Opens the next iteration (sampling `live`) and returns the first group.
  auto next_group = [&] {
    const TimePoint now = at(static_cast<std::int64_t>(100 * iteration));
    pull.on_iteration_start(iteration++, now);
    for (std::size_t g = 0; g < kTensors; ++g) pull.enqueue(g, Bytes::mib(4), now);
    const auto first = pull.next_task(now);
    EXPECT_TRUE(first.has_value());
    while (pull.next_task(now)) {
    }
    return first.has_value() ? first->total_bytes() : Bytes::zero();
  };

  EXPECT_EQ(next_group(), Bytes::mib(8));  // initial plan: no drift yet
  EXPECT_EQ(next_group(), Bytes::mib(8));  // steady estimate
  live = Bandwidth::gbps(7);               // a 30% drop
  EXPECT_EQ(next_group(), Bytes::mib(2));
  Bytes previous = Bytes::mib(2);
  for (int i = 0; i < 57; ++i) {
    const Bytes group = next_group();
    EXPECT_GE(group, previous) << "steady iteration " << i;
    previous = group;
  }
  EXPECT_GT(previous, Bytes::mib(2));
  EXPECT_LT(previous, Bytes::mib(8));
}

TEST(ProphetScheduler, ReplansEachIteration) {
  auto sched = make_push(
      2, make_profile({10_ms, 0_ms}, {Bytes::mib(1), Bytes::mib(1)}));
  for (std::int64_t iter = 0; iter < 3; ++iter) {
    const std::int64_t base = 100 * iter;
    sched.on_iteration_start(static_cast<std::size_t>(iter), at(base));
    sched.enqueue(1, Bytes::mib(1), at(base));
    const auto t1 = sched.next_task(at(base));
    ASSERT_TRUE(t1.has_value()) << "iteration " << iter;
    sched.enqueue(0, Bytes::mib(1), at(base + 10));
    const auto t2 = sched.next_task(at(base + 12));
    ASSERT_TRUE(t2.has_value());
    EXPECT_EQ(t2->items[0].grad, 0u);
    EXPECT_FALSE(sched.has_pending());
  }
}

TEST(ProphetSchedulerDeath, ProfileAccessBeforeReadyAborts) {
  ProphetScheduler sched{TaskKind::kPush, 2,
                         [] { return Bandwidth::gbps(1); }, simple_cost(), {}};
  EXPECT_DEATH((void)sched.profile(), "profile not ready");
}

}  // namespace
}  // namespace prophet::core
