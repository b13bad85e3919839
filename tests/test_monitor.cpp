#include <gtest/gtest.h>

#include "net/monitor.hpp"

namespace prophet::net {
namespace {

using namespace prophet::literals;

TcpCostModel plain_model() {
  TcpCostParams params;
  params.per_task_overhead = 0_ns;
  params.slow_start = false;
  return TcpCostModel{params};
}

TEST(BandwidthMonitor, ReturnsCapacityBeforeAnyTraffic) {
  sim::Simulator sim;
  FlowNetwork net{sim, plain_model()};
  const NodeId a = net.add_node("a", Bandwidth::gbps(3), Bandwidth::gbps(3));
  net.add_node("b", Bandwidth::gbps(3), Bandwidth::gbps(3));
  BandwidthMonitor monitor{sim, net, a, Direction::kTx};
  EXPECT_FALSE(monitor.has_measurement());
  EXPECT_DOUBLE_EQ(monitor.estimate().bytes_per_second(),
                   Bandwidth::gbps(3).bytes_per_second());
}

TEST(BandwidthMonitor, MeasuresAchievedGoodput) {
  sim::Simulator sim;
  FlowNetwork net{sim, plain_model()};
  const NodeId a = net.add_node("a", Bandwidth::gbps(1), Bandwidth::gbps(1));
  const NodeId b = net.add_node("b", Bandwidth::gbps(1), Bandwidth::gbps(1));
  BandwidthMonitorConfig cfg;
  cfg.sample_period = 1_s;
  BandwidthMonitor monitor{sim, net, a, Direction::kTx, cfg};
  // Saturate the link for 3 seconds.
  net.start_flow(a, b, Bytes::of(375'000'000), [](FlowId) {});
  sim.run_until(TimePoint::origin() + 4_s);
  EXPECT_TRUE(monitor.has_measurement());
  EXPECT_NEAR(monitor.estimate().bytes_per_second(), 125e6, 2e6);
  monitor.stop();
}

TEST(BandwidthMonitor, GoodputReflectsContention) {
  sim::Simulator sim;
  FlowNetwork net{sim, plain_model()};
  const NodeId ps = net.add_node("ps", Bandwidth::gbps(1), Bandwidth::gbps(1));
  const NodeId w1 = net.add_node("w1", Bandwidth::gbps(1), Bandwidth::gbps(1));
  const NodeId w2 = net.add_node("w2", Bandwidth::gbps(1), Bandwidth::gbps(1));
  BandwidthMonitorConfig cfg;
  cfg.sample_period = 1_s;
  BandwidthMonitor monitor{sim, net, w1, Direction::kTx, cfg};
  // Both workers push concurrently: w1's achieved share is ~62.5 MB/s.
  net.start_flow(w1, ps, Bytes::of(250'000'000), [](FlowId) {});
  net.start_flow(w2, ps, Bytes::of(250'000'000), [](FlowId) {});
  sim.run_until(TimePoint::origin() + 3_s);
  EXPECT_NEAR(monitor.estimate().bytes_per_second(), 62.5e6, 2e6);
  monitor.stop();
}

TEST(BandwidthMonitor, IgnoresIdleSamples) {
  sim::Simulator sim;
  FlowNetwork net{sim, plain_model()};
  const NodeId a = net.add_node("a", Bandwidth::gbps(1), Bandwidth::gbps(1));
  const NodeId b = net.add_node("b", Bandwidth::gbps(1), Bandwidth::gbps(1));
  BandwidthMonitorConfig cfg;
  cfg.sample_period = 500_ms;
  BandwidthMonitor monitor{sim, net, a, Direction::kTx, cfg};
  net.start_flow(a, b, Bytes::of(125'000'000), [](FlowId) {});  // done at 1 s
  sim.run_until(TimePoint::origin() + 10_s);
  const double measured = monitor.estimate().bytes_per_second();
  // Idle periods after the flow must not dilute the estimate.
  EXPECT_NEAR(measured, 125e6, 2e6);
  EXPECT_GE(monitor.samples_taken(), 19u);
  monitor.stop();
}

TEST(BandwidthMonitor, StopCancelsTimer) {
  sim::Simulator sim;
  FlowNetwork net{sim, plain_model()};
  const NodeId a = net.add_node("a", Bandwidth::gbps(1), Bandwidth::gbps(1));
  net.add_node("b", Bandwidth::gbps(1), Bandwidth::gbps(1));
  BandwidthMonitor monitor{sim, net, a, Direction::kTx};
  monitor.stop();
  // Exactly the tick already aimed fires, as a no-op; nothing re-aims it.
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(monitor.samples_taken(), 0u);
}

TEST(BandwidthMonitor, DestroyedMonitorLeavesNoEvent) {
  sim::Simulator sim;
  FlowNetwork net{sim, plain_model()};
  const NodeId a = net.add_node("a", Bandwidth::gbps(1), Bandwidth::gbps(1));
  net.add_node("b", Bandwidth::gbps(1), Bandwidth::gbps(1));
  {
    BandwidthMonitor monitor{sim, net, a, Direction::kTx};
    EXPECT_EQ(sim.pending_events(), 1u);
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.run(), 0u);
}

}  // namespace
}  // namespace prophet::net
