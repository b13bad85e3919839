// ReliableChannel: loss injection, watchdog, backoff, retry budget and the
// pay-for-use guarantee (a loss-free channel adds no events and no RNG
// draws, so timelines with and without it are identical).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "net/flow_network.hpp"
#include "net/reliability.hpp"

namespace prophet::net {
namespace {

using namespace prophet::literals;

// ClusterConfig::retry_budget's default.
constexpr std::size_t kRetryBudget = 16;

TcpCostModel no_overhead_model() {
  TcpCostParams params;
  params.per_task_overhead = 0_ns;
  params.slow_start = false;
  return TcpCostModel{params};
}

struct Fixture {
  sim::Simulator sim;
  FlowNetwork net;
  NodeId a;
  NodeId b;
  explicit Fixture(Bandwidth bw = Bandwidth::gbps(1))
      : net{sim, no_overhead_model()},
        a{net.add_node("a", bw, bw)},
        b{net.add_node("b", bw, bw)} {}
};

TEST(Reliability, LossFreeSendIsOneAttemptAtLineRate) {
  Fixture f;
  ReliableChannel channel{f.sim, f.net, kRetryBudget, Rng{7}};
  bool done = false;
  channel.send(f.a, f.b, Bytes::of(125'000'000), [&](const SendOutcome& out) {
    done = true;
    EXPECT_EQ(out.attempts, 1u);
    EXPECT_NEAR(f.sim.now().to_seconds(), 1.0, 1e-6);
  });
  f.sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(channel.inflight(), 0u);
  EXPECT_EQ(f.net.link_total_bytes(f.net.node_link(f.b, Direction::kRx)),
            125'000'000);
}

TEST(Reliability, LossFreeChannelAddsNoEventsOverBareFlow) {
  // Pay-for-use: the exact event and lane counts of a bare start_flow run.
  std::uint64_t bare_events = 0;
  std::size_t bare_lanes = 0;
  {
    Fixture f;
    f.net.start_flow(f.a, f.b, Bytes::mib(64), [](FlowId) {});
    bare_lanes = f.sim.lane_count();
    f.sim.run();
    bare_events = f.sim.events_fired();
  }
  Fixture f;
  ReliableChannel channel{f.sim, f.net, kRetryBudget, Rng{7}};
  channel.send(f.a, f.b, Bytes::mib(64), [](const SendOutcome&) {});
  EXPECT_EQ(f.sim.lane_count(), bare_lanes);
  f.sim.run();
  EXPECT_EQ(f.sim.events_fired(), bare_events);
}

TEST(Reliability, LossySendsReleaseTheirLanes) {
  // Each lossy send holds two lanes from its first attempt until it
  // completes, is aborted, or its channel dies. A loss-free warm-up first
  // gives the network its flow slots (each slot keeps a completion lane).
  constexpr int kSends = 4;
  Fixture f;
  auto channel = std::make_unique<ReliableChannel>(f.sim, f.net, 64, Rng{3});
  int done = 0;
  int faults = 0;
  channel->set_fault_handler([&](const ChannelFault&) { ++faults; });
  const auto send_all = [&] {
    for (int i = 0; i < kSends; ++i) {
      channel->send(f.a, f.b, Bytes::mib(4), [&](const SendOutcome&) { ++done; });
    }
  };
  send_all();
  f.sim.run();
  const std::size_t base = f.sim.lane_count();
  channel->set_loss_rate(0.5);

  send_all();
  EXPECT_EQ(f.sim.lane_count(), base + 2 * kSends);
  f.sim.run();
  EXPECT_EQ(done, 2 * kSends);
  EXPECT_GT(faults, 0);
  EXPECT_EQ(f.sim.lane_count(), base);

  send_all();
  channel->abort_all();
  EXPECT_EQ(f.sim.lane_count(), base);

  send_all();
  channel.reset();
  EXPECT_EQ(f.sim.lane_count(), base);
}

TEST(Reliability, LossyTransferRetriesUntilDelivered) {
  Fixture f;
  ReliableChannel channel{f.sim, f.net, 64, Rng{3}};
  channel.set_loss_rate(0.7);
  std::vector<ChannelFault> faults;
  channel.set_fault_handler(
      [&](const ChannelFault& fault) { faults.push_back(fault); });
  bool done = false;
  SendOutcome outcome;
  channel.send(f.a, f.b, Bytes::of(125'000'000), [&](const SendOutcome& out) {
    done = true;
    outcome = out;
  });
  f.sim.run();
  ASSERT_TRUE(done);
  // With p=0.7 and this seed at least one attempt is lost; the completion
  // reports every attempt and the fault handler saw each failed one.
  EXPECT_GT(outcome.attempts, 1u);
  EXPECT_EQ(faults.size(), outcome.attempts - 1);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(faults[i].attempt, i + 1);
    EXPECT_GT(faults[i].backoff.count_nanos(), 0);
  }
  // Byte-range resume sends no byte twice: the receiver sees the message
  // once, plus at most the one byte each cancelled attempt's undrained tail
  // rounds up to.
  const std::int64_t received =
      f.net.link_total_bytes(f.net.node_link(f.b, Direction::kRx));
  EXPECT_GE(received, 125'000'000);
  EXPECT_LE(received, 125'000'000 + static_cast<std::int64_t>(faults.size()));
  // The transfer still cannot beat line rate.
  EXPECT_GT(f.sim.now().to_seconds(), 1.0);
}

TEST(Reliability, SameSeedReplaysTheIdenticalFaultTimeline) {
  auto run = [](std::uint64_t seed) {
    Fixture f;
    ReliableChannel channel{f.sim, f.net, 64, Rng{seed}};
    channel.set_loss_rate(0.5);
    std::size_t attempts = 0;
    channel.send(f.a, f.b, Bytes::mib(32), [&](const SendOutcome& out) {
      attempts = out.attempts;
    });
    f.sim.run();
    return std::pair{attempts, f.sim.now()};
  };
  const auto first = run(11);
  const auto second = run(11);
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
  const auto other = run(12);
  // Different seed, different timeline (with overwhelming probability).
  EXPECT_TRUE(other.first != first.first || other.second != first.second);
}

TEST(Reliability, WatchdogRecoversFlowParkedBehindOutage) {
  Fixture f;
  ReliableChannel channel{f.sim, f.net, 64, Rng{5}};
  channel.set_loss_rate(1e-9);  // enabled, but effectively never drops on its own
  std::size_t timeouts = 0;
  channel.set_fault_handler([&](const ChannelFault& fault) {
    if (fault.kind == ChannelFault::Kind::kTimeout) ++timeouts;
  });
  bool done = false;
  channel.send(f.a, f.b, Bytes::mib(8), [&](const SendOutcome&) { done = true; });
  // Take the destination link down immediately and bring it back after the
  // 200 ms stall timeout: the parked flow makes no progress, the watchdog
  // declares it lost, and a retry after the outage delivers.
  f.net.set_link_state(f.net.access_links(f.b), false);
  f.sim.schedule_at(TimePoint::origin() + Duration::millis(300),
                    [&] { f.net.set_link_state(f.net.access_links(f.b), true); });
  f.sim.run();
  EXPECT_TRUE(done);
  EXPECT_GE(timeouts, 1u);
}

TEST(Reliability, AbortAllSuppressesCompletionCallbacks) {
  Fixture f;
  ReliableChannel channel{f.sim, f.net, kRetryBudget, Rng{7}};
  bool fired = false;
  channel.send(f.a, f.b, Bytes::mib(64), [&](const SendOutcome&) { fired = true; });
  f.sim.schedule_at(TimePoint::origin() + Duration::millis(1),
                    [&] { channel.abort_all(); });
  f.sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(channel.inflight(), 0u);
}

TEST(Reliability, ExhaustedRetryBudgetAbortsLoudly) {
  Fixture f;
  ReliableChannel channel{f.sim, f.net, 2, Rng{9}};
  // Every attempt is practically doomed. A drop lands inside the attempt's
  // ideal ~67 ms serialization window, well before the 200 ms stall timeout,
  // so a doomed attempt can never sneak through.
  channel.set_loss_rate(0.999);
  channel.send(f.a, f.b, Bytes::mib(8), [](const SendOutcome&) {});
  EXPECT_DEATH(f.sim.run(), "retry budget");
}

TEST(Reliability, ValidateRejectsIllFormedConfigs) {
  Fixture f;
  {
    ReliableChannel channel{f.sim, f.net, kRetryBudget, Rng{7}};
    EXPECT_DEATH(channel.set_loss_rate(-0.1), "loss rate");
    EXPECT_DEATH(channel.set_loss_rate(1.0), "loss rate");
  }
  {
    // A zero budget is fine until loss turns on: then the first drop would
    // hang the transfer.
    ReliableChannel channel{f.sim, f.net, 0, Rng{7}};
    channel.set_loss_rate(0.0);
    EXPECT_DEATH(channel.set_loss_rate(0.1), "retry budget");
  }
}

}  // namespace
}  // namespace prophet::net
