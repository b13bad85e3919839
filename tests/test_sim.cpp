#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"

namespace prophet::sim {
namespace {

using namespace prophet::literals;

TEST(Simulator, FiresInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(30_ms, [&] { order.push_back(3); });
  sim.schedule_after(10_ms, [&] { order.push_back(1); });
  sim.schedule_after(20_ms, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now().to_millis(), 30.0);
}

TEST(Simulator, StableOrderForSimultaneousEvents) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(5_ms, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, HandlersCanScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) sim.schedule_after(1_ms, chain);
  };
  sim.schedule_after(1_ms, chain);
  sim.run();
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(sim.now().to_millis(), 5.0);
}

TEST(Simulator, ZeroDelayFiresAtSameTime) {
  Simulator sim;
  bool inner = false;
  sim.schedule_after(2_ms, [&] {
    sim.schedule_after(0_ms, [&] {
      inner = true;
      EXPECT_DOUBLE_EQ(sim.now().to_millis(), 2.0);
    });
  });
  sim.run();
  EXPECT_TRUE(inner);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(10_ms, [&] { order.push_back(1); });
  sim.schedule_after(20_ms, [&] { order.push_back(2); });
  sim.schedule_after(30_ms, [&] { order.push_back(3); });
  sim.run_until(TimePoint::origin() + 20_ms);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));  // event at exactly the deadline fires
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(order.size(), 3u);
}

TEST(Simulator, StepFiresExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.schedule_after(1_ms, [&] { ++count; });
  sim.schedule_after(2_ms, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, CountsLiveEvents) {
  Simulator sim;
  const LaneId lane = sim.lane_create([] {});
  sim.lane_aim(lane, TimePoint::origin() + 1_ms);
  sim.schedule_after(2_ms, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.lane_disarm(lane);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.events_fired(), 1u);
  sim.lane_destroy(lane);
}

TEST(SimulatorLanes, FiresAtAimedTime) {
  Simulator sim;
  std::vector<double> fired_at;
  const LaneId lane = sim.lane_create([&] { fired_at.push_back(sim.now().to_millis()); });
  EXPECT_EQ(sim.lane_count(), 1u);
  EXPECT_FALSE(sim.lane_armed(lane));
  sim.lane_aim(lane, TimePoint::origin() + 7_ms);
  EXPECT_TRUE(sim.lane_armed(lane));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(fired_at, (std::vector<double>{7.0}));
  EXPECT_FALSE(sim.lane_armed(lane));
  EXPECT_TRUE(sim.empty());
  sim.lane_destroy(lane);
  EXPECT_EQ(sim.lane_count(), 0u);
}

TEST(SimulatorLanes, ReaimSupersedesEarlierAim) {
  // A lane holds ONE live aim: re-aiming moves the lane's single heap record
  // to the new target, so the callback runs exactly once, at the latest
  // target — even when the new aim is earlier than the old.
  Simulator sim;
  int fires = 0;
  const LaneId lane = sim.lane_create([&] {
    ++fires;
    EXPECT_DOUBLE_EQ(sim.now().to_millis(), 5.0);
  });
  sim.lane_aim(lane, TimePoint::origin() + 20_ms);
  sim.lane_aim(lane, TimePoint::origin() + 5_ms);
  sim.run();
  EXPECT_EQ(fires, 1);
  sim.lane_destroy(lane);
}

TEST(SimulatorLanes, DisarmPreventsFiring) {
  Simulator sim;
  bool fired = false;
  const LaneId lane = sim.lane_create([&] { fired = true; });
  sim.lane_aim(lane, TimePoint::origin() + 3_ms);
  sim.lane_disarm(lane);
  EXPECT_FALSE(sim.lane_armed(lane));
  EXPECT_TRUE(sim.empty());
  sim.run();
  EXPECT_FALSE(fired);
  sim.lane_destroy(lane);
}

TEST(SimulatorLanes, CallbackMayReaimItself) {
  Simulator sim;
  std::vector<double> ticks;
  LaneId lane = kNoLane;
  lane = sim.lane_create([&] {
    ticks.push_back(sim.now().to_millis());
    if (ticks.size() < 3) sim.lane_aim(lane, sim.now() + 10_ms);
  });
  sim.lane_aim(lane, TimePoint::origin() + 10_ms);
  sim.run();
  EXPECT_EQ(ticks, (std::vector<double>{10.0, 20.0, 30.0}));
  sim.lane_destroy(lane);
}

TEST(SimulatorLanes, CallbackMayDestroyItsOwnLane) {
  // The dispatcher moves the callback out before invoking it, so a lane
  // tearing itself down mid-fire (a rate group dissolving on its final
  // completion) must not touch freed state.
  Simulator sim;
  LaneId lane = kNoLane;
  bool fired = false;
  lane = sim.lane_create([&] {
    fired = true;
    sim.lane_destroy(lane);
  });
  sim.lane_aim(lane, TimePoint::origin() + 1_ms);
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.lane_count(), 0u);
  EXPECT_TRUE(sim.empty());
}

TEST(SimulatorLanes, CallbackMayDisarmItsOwnLane) {
  // A lane runs its callback disarmed, so disarming itself there is a no-op
  // that must not touch any other record (a ReliableChannel drop failing its
  // own attempt does this), and a later aim still fires.
  Simulator sim;
  LaneId lane = kNoLane;
  std::vector<double> fired_at;
  lane = sim.lane_create([&] {
    fired_at.push_back(sim.now().to_millis());
    sim.lane_disarm(lane);
    EXPECT_FALSE(sim.lane_armed(lane));
    if (fired_at.size() == 1) sim.lane_aim(lane, sim.now() + 5_ms);
  });
  sim.lane_aim(lane, TimePoint::origin() + 1_ms);
  sim.schedule_after(2_ms, [] {});
  sim.schedule_after(3_ms, [] {});
  sim.run();
  EXPECT_EQ(fired_at, (std::vector<double>{1.0, 6.0}));
  EXPECT_EQ(sim.events_fired(), 4u);
  sim.lane_destroy(lane);
}

TEST(SimulatorLanes, DestroyedArmedLaneNeverFires) {
  Simulator sim;
  bool fired = false;
  const LaneId lane = sim.lane_create([&] { fired = true; });
  sim.lane_aim(lane, TimePoint::origin() + 4_ms);
  sim.lane_destroy(lane);
  sim.schedule_after(10_ms, [] {});  // keep the loop busy past the destroyed aim
  sim.run();
  EXPECT_FALSE(fired);
  // A fresh lane reusing the freed id must not inherit the old aim.
  bool reused_fired = false;
  const LaneId again = sim.lane_create([&] { reused_fired = true; });
  EXPECT_EQ(again, lane);
  sim.lane_aim(again, sim.now() + 2_ms);
  sim.run();
  EXPECT_TRUE(reused_fired);
  sim.lane_destroy(again);
}

TEST(SimulatorLanes, InterleavesWithPoolEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  const LaneId lane = sim.lane_create([&] { order.push_back(2); });
  sim.schedule_after(10_ms, [&] { order.push_back(1); });
  sim.schedule_after(30_ms, [&] { order.push_back(3); });
  sim.lane_aim(lane, TimePoint::origin() + 20_ms);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.events_fired(), 3u);  // lane fires count like pool events
  sim.lane_destroy(lane);
}

TEST(SimulatorLanes, ReaimLeavesOneQueuedRecord) {
  // Re-aiming rewrites the lane's record in place, whichever way it moves,
  // so the heap holds the background events plus exactly one lane record.
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 64; ++i) {
    sim.schedule_after(Duration::micros(100 * i), [&order, i] { order.push_back(i); });
  }
  const LaneId lane = sim.lane_create([&] { order.push_back(-1); });
  for (int i = 0; i < 10'000; ++i) {
    // Alternate between the front and the back of the background events.
    const Duration at = i % 2 == 0 ? Duration::micros(50 + i / 2)
                                   : Duration::micros(10'000 - i / 2);
    sim.lane_aim(lane, TimePoint::origin() + at);
    ASSERT_EQ(sim.pending_events(), 65u) << "after re-aim " << i;
  }
  sim.run();
  // The last aim (odd i = 9999) targets 10'000 - 4'999 us = 5'001 us: after
  // background event 50 (5'000 us), before 51.
  ASSERT_EQ(order.size(), 65u);
  EXPECT_EQ(order[51], -1);
  EXPECT_EQ(sim.events_fired(), 65u);
  EXPECT_TRUE(sim.empty());
  sim.lane_destroy(lane);
}

// Reference model for RandomOpsFireInTimeSeqOrder: a pending event or armed
// lane is one entry keyed by (time ns, seq), with seqs handed out in call
// order as the simulator does.
using ModelKey = std::pair<std::int64_t, std::uint64_t>;
struct ModelEntry {
  bool lane;
  std::size_t index;  // into the lane table, or the plain event's schedule order
  friend bool operator==(const ModelEntry&, const ModelEntry&) = default;
};

void run_random_ops(std::uint64_t seed, int ops) {
  struct LaneState {
    LaneId id;
    bool self_destroy = false;
    std::optional<ModelKey> key;  // set while armed
  };
  Simulator sim;
  Rng rng{seed};
  std::map<ModelKey, ModelEntry> live;
  std::uint64_t next_seq = 0;
  std::vector<LaneState> lanes;
  std::vector<std::size_t> alive;  // indices into lanes
  std::size_t events = 0;          // plain events scheduled so far
  std::vector<ModelEntry> fired;

  const auto at_ns = [](std::int64_t ns) {
    return TimePoint::origin() + Duration::nanos(ns);
  };
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const auto forget_lane = [&](std::size_t li) {
    alive.erase(std::find(alive.begin(), alive.end(), li));
  };
  const auto step = [&] {
    const std::size_t before = fired.size();
    const bool any = sim.step();
    if (live.empty()) {
      ASSERT_FALSE(any);
      return;
    }
    ASSERT_TRUE(any);
    ASSERT_EQ(fired.size(), before + 1);
    const auto head = live.begin();
    ASSERT_EQ(sim.now().count_nanos(), head->first.first);
    ASSERT_EQ(fired.back(), head->second) << "fired out of (time, seq) order";
    if (head->second.lane) {
      LaneState& ln = lanes[head->second.index];
      ln.key.reset();
      if (ln.self_destroy) forget_lane(head->second.index);
    }
    live.erase(head);
  };

  for (int op = 0; op < ops; ++op) {
    const std::int64_t now = sim.now().count_nanos();
    const std::int64_t choice = rng.uniform_int(0, 17);
    if (choice == 0 && alive.size() < 32) {
      const std::size_t li = lanes.size();
      lanes.push_back(LaneState{});
      lanes[li].id = sim.lane_create([&, li] {
        fired.push_back(ModelEntry{true, li});
        if (lanes[li].self_destroy) sim.lane_destroy(lanes[li].id);
      });
      alive.push_back(li);
    } else if (choice <= 6 && !alive.empty()) {
      // Aim earlier, later, or at the same instant as the current aim.
      const std::size_t li = alive[pick(alive.size())];
      LaneState& ln = lanes[li];
      std::int64_t at = now + rng.uniform_int(0, 20);
      if (ln.key) {
        const std::int64_t cur = ln.key->first;
        const std::int64_t how = rng.uniform_int(0, 2);
        if (how == 0) at = rng.uniform_int(now, std::max(now, cur - 1));
        if (how == 1) at = cur + rng.uniform_int(1, 20);
        if (how == 2) at = cur;
        live.erase(*ln.key);
      }
      sim.lane_aim(ln.id, at_ns(at));
      ln.key = ModelKey{at, next_seq++};
      live.emplace(*ln.key, ModelEntry{true, li});
    } else if (choice == 7 && !alive.empty()) {
      LaneState& ln = lanes[alive[pick(alive.size())]];
      sim.lane_disarm(ln.id);
      if (ln.key) live.erase(*ln.key);
      ln.key.reset();
    } else if (choice == 8 && !alive.empty()) {
      const std::size_t li = alive[pick(alive.size())];
      sim.lane_destroy(lanes[li].id);
      if (lanes[li].key) live.erase(*lanes[li].key);
      lanes[li].key.reset();
      forget_lane(li);
    } else if (choice == 9 && !alive.empty()) {
      // The lane destroys itself from its own callback when it next fires.
      lanes[alive[pick(alive.size())]].self_destroy = true;
    } else if (choice <= 12) {
      const std::size_t ei = events++;
      const std::int64_t at = now + rng.uniform_int(0, 20);
      sim.schedule_at(at_ns(at), [&, ei] { fired.push_back(ModelEntry{false, ei}); });
      live.emplace(ModelKey{at, next_seq++}, ModelEntry{false, ei});
    } else {
      step();
      if (testing::Test::HasFatalFailure()) return;
    }
    ASSERT_EQ(sim.pending_events(), live.size()) << "seed " << seed << " op " << op;
    ASSERT_EQ(sim.lane_count(), alive.size());
  }
  while (!live.empty()) {
    step();
    if (testing::Test::HasFatalFailure()) return;
  }
  step();  // the queue is empty: fires nothing
  EXPECT_TRUE(sim.empty());
}

TEST(SimulatorLanes, RandomOpsFireInTimeSeqOrder) {
  // Seeded random mixes of lane create / aim (earlier, later, same instant)
  // / disarm / destroy (also from the lane's own callback), plain
  // schedule_at, and step(): every fire must be the live minimum (time,
  // seq), and the pending count must match the model.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    run_random_ops(seed, 20'000);
    if (HasFatalFailure()) return;
  }
}

TEST(SimulatorDeath, SchedulingIntoThePastAborts) {
  Simulator sim;
  sim.schedule_after(10_ms, [&] {
    EXPECT_DEATH(sim.schedule_at(TimePoint::origin() + 5_ms, [] {}),
                 "scheduling into the past");
  });
  sim.run();
}

}  // namespace
}  // namespace prophet::sim
