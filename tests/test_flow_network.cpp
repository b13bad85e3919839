#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/time_series.hpp"
#include "net/flow_network.hpp"

namespace prophet::net {
namespace {

using namespace prophet::literals;

TcpCostModel no_overhead_model() {
  TcpCostParams params;
  params.per_task_overhead = 0_ns;
  params.slow_start = false;
  return TcpCostModel{params};
}

struct Fixture {
  sim::Simulator sim;
  FlowNetwork net;
  explicit Fixture(TcpCostModel model = no_overhead_model()) : net{sim, model} {}
};

TEST(FlowNetwork, SoloFlowDrainsAtLineRate) {
  Fixture f;
  const NodeId a = f.net.add_node("a", Bandwidth::gbps(1), Bandwidth::gbps(1));
  const NodeId b = f.net.add_node("b", Bandwidth::gbps(1), Bandwidth::gbps(1));
  bool done = false;
  f.net.start_flow(a, b, Bytes::of(125'000'000), [&](FlowId) {
    done = true;
    EXPECT_NEAR(f.sim.now().to_seconds(), 1.0, 1e-6);
  });
  f.sim.run();
  EXPECT_TRUE(done);
}

TEST(FlowNetwork, SetupDelayPrecedesDraining) {
  TcpCostParams params;
  params.per_task_overhead = 10_ms;
  params.slow_start = false;
  Fixture f{TcpCostModel{params}};
  const NodeId a = f.net.add_node("a", Bandwidth::gbps(1), Bandwidth::gbps(1));
  const NodeId b = f.net.add_node("b", Bandwidth::gbps(1), Bandwidth::gbps(1));
  bool done = false;
  f.net.start_flow(a, b, Bytes::of(125'000'000), [&](FlowId) {
    done = true;
    EXPECT_NEAR(f.sim.now().to_seconds(), 1.010, 1e-6);
  });
  f.sim.run();
  EXPECT_TRUE(done);
}

TEST(FlowNetwork, ZeroByteFlowCompletesAfterSetup) {
  TcpCostParams params;
  params.per_task_overhead = 2_ms;
  params.slow_start = false;
  Fixture f{TcpCostModel{params}};
  const NodeId a = f.net.add_node("a", Bandwidth::gbps(1), Bandwidth::gbps(1));
  const NodeId b = f.net.add_node("b", Bandwidth::gbps(1), Bandwidth::gbps(1));
  bool done = false;
  f.net.start_flow(a, b, Bytes::zero(), [&](FlowId) {
    done = true;
    EXPECT_NEAR(f.sim.now().to_millis(), 2.0, 1e-6);
  });
  f.sim.run();
  EXPECT_TRUE(done);
}

TEST(FlowNetwork, IncastSharesIngressFairly) {
  Fixture f;
  const NodeId ps = f.net.add_node("ps", Bandwidth::gbps(1), Bandwidth::gbps(1));
  const NodeId w1 = f.net.add_node("w1", Bandwidth::gbps(1), Bandwidth::gbps(1));
  const NodeId w2 = f.net.add_node("w2", Bandwidth::gbps(1), Bandwidth::gbps(1));
  int done = 0;
  // Two equal flows into one 1 Gbps port: each gets 62.5 MB/s, finishing
  // together at 1 s for 62.5 MB payloads.
  for (NodeId w : {w1, w2}) {
    f.net.start_flow(w, ps, Bytes::of(62'500'000), [&](FlowId) {
      ++done;
      EXPECT_NEAR(f.sim.now().to_seconds(), 1.0, 1e-6);
    });
  }
  f.sim.run();
  EXPECT_EQ(done, 2);
}

TEST(FlowNetwork, MaxMinRespectsSlowerSender) {
  Fixture f;
  const NodeId ps = f.net.add_node("ps", Bandwidth::gbps(10), Bandwidth::gbps(10));
  const NodeId fast = f.net.add_node("fast", Bandwidth::gbps(8), Bandwidth::gbps(8));
  const NodeId slow = f.net.add_node("slow", Bandwidth::mbps(500), Bandwidth::mbps(500));
  // Slow sender is capped by its own egress (62.5 MB/s); the fast one gets
  // the rest of the PS ingress. Progressive filling must not starve either.
  double slow_done_s = 0.0;
  double fast_done_s = 0.0;
  f.net.start_flow(slow, ps, Bytes::of(62'500'000),
                   [&](FlowId) { slow_done_s = f.sim.now().to_seconds(); });
  f.net.start_flow(fast, ps, Bytes::of(500'000'000),
                   [&](FlowId) { fast_done_s = f.sim.now().to_seconds(); });
  f.sim.run();
  EXPECT_NEAR(slow_done_s, 1.0, 1e-6);  // 62.5 MB at 62.5 MB/s
  // Fast flow: 500 MB at min(1 GB/s egress, 1.25 GB/s - 62.5 MB/s share)
  // = 1 GB/s for the first second, then still 1 GB/s (own NIC bound).
  EXPECT_NEAR(fast_done_s, 0.5, 1e-6);
}

TEST(FlowNetwork, DepartureRedistributesBandwidth) {
  Fixture f;
  const NodeId ps = f.net.add_node("ps", Bandwidth::gbps(1), Bandwidth::gbps(1));
  const NodeId w1 = f.net.add_node("w1", Bandwidth::gbps(1), Bandwidth::gbps(1));
  const NodeId w2 = f.net.add_node("w2", Bandwidth::gbps(1), Bandwidth::gbps(1));
  double small_done = 0.0;
  double big_done = 0.0;
  // Small flow shares for 0.4 s (draining 25 MB at 62.5 MB/s), then the big
  // flow speeds up to full rate.
  f.net.start_flow(w1, ps, Bytes::of(25'000'000),
                   [&](FlowId) { small_done = f.sim.now().to_seconds(); });
  f.net.start_flow(w2, ps, Bytes::of(100'000'000),
                   [&](FlowId) { big_done = f.sim.now().to_seconds(); });
  f.sim.run();
  EXPECT_NEAR(small_done, 0.4, 1e-6);
  // Big flow: 25 MB in the shared 0.4 s, then 75 MB at 125 MB/s = 0.6 s.
  EXPECT_NEAR(big_done, 1.0, 1e-6);
}

TEST(FlowNetwork, DynamicCapacityChangeRerates) {
  Fixture f;
  const NodeId a = f.net.add_node("a", Bandwidth::gbps(1), Bandwidth::gbps(1));
  const NodeId b = f.net.add_node("b", Bandwidth::gbps(1), Bandwidth::gbps(1));
  double done_s = 0.0;
  f.net.start_flow(a, b, Bytes::of(125'000'000),
                   [&](FlowId) { done_s = f.sim.now().to_seconds(); });
  // Halve the sender's rate halfway through: 62.5 MB drained by then, the
  // rest drains at 62.5 MB/s -> total 0.5 + 1.0 = 1.5 s.
  f.sim.schedule_after(500_ms, [&] {
    f.net.set_link_capacity(f.net.node_link(a, Direction::kTx), Bandwidth::mbps(500));
  });
  f.sim.run();
  EXPECT_NEAR(done_s, 1.5, 1e-6);
}

TEST(FlowNetwork, TracksBytesAndBusyTime) {
  Fixture f;
  const NodeId a = f.net.add_node("a", Bandwidth::gbps(1), Bandwidth::gbps(1));
  const NodeId b = f.net.add_node("b", Bandwidth::gbps(1), Bandwidth::gbps(1));
  BinnedSeries tx{100_ms, 10_s};
  f.net.attach_tracker(a, Direction::kTx, &tx);
  f.net.start_flow(a, b, Bytes::of(125'000'000), [](FlowId) {});
  f.sim.run();
  const LinkId a_tx = f.net.node_link(a, Direction::kTx);
  EXPECT_EQ(f.net.link_total_bytes(a_tx), 125'000'000);
  EXPECT_EQ(f.net.link_total_bytes(f.net.node_link(b, Direction::kRx)), 125'000'000);
  EXPECT_NEAR(f.net.link_busy_time(a_tx).to_seconds(), 1.0, 1e-6);
  // Throughput series: ~12.5 MB per 100 ms bin while draining.
  EXPECT_NEAR(tx.bin_amount(5), 12'500'000.0, 1.0);
}

// Each set_link_state(false) takes one down-hold and each (true) releases
// one; a link is up only while it holds none, so overlapping outage windows
// compose instead of the first end cutting the later window short.
TEST(FlowNetwork, LinkStaysDownUntilItsLastHoldIsReleased) {
  for (const RebalanceMode mode : {RebalanceMode::kIncremental, RebalanceMode::kFull}) {
    SCOPED_TRACE(mode == RebalanceMode::kFull ? "kFull" : "kIncremental");
    sim::Simulator sim;
    FlowNetwork net{sim, no_overhead_model(), mode};
    const NodeId a = net.add_node("a", Bandwidth::gbps(1), Bandwidth::gbps(1));
    const NodeId b = net.add_node("b", Bandwidth::gbps(1), Bandwidth::gbps(1));
    const auto links = net.access_links(a);
    // 125 MB at 1 Gbps drains in 1 s. Holds taken at 0.2 s and 0.3 s and
    // released at 0.4 s and 0.7 s park the flow for 0.5 s: done at 1.5 s.
    double done_s = 0.0;
    const FlowId flow = net.start_flow(a, b, Bytes::of(125'000'000),
                                       [&](FlowId) { done_s = sim.now().to_seconds(); });
    auto at = [&](Duration t, auto fn) { sim.schedule_at(TimePoint::origin() + t, fn); };
    at(200_ms, [&] { net.set_link_state(links, false); });
    at(300_ms, [&] { net.set_link_state(links, false); });
    at(400_ms, [&] {
      net.set_link_state(links, true);
      EXPECT_FALSE(net.link_state(links[0]));
      EXPECT_FALSE(net.link_state(links[1]));
      EXPECT_TRUE(net.flow_rate(flow).is_zero());
    });
    at(650_ms, [&] {
      // Still parked where the first hold froze it: 25 MB drained by 0.2 s.
      EXPECT_NEAR(net.flow_remaining_bytes(flow), 100'000'000.0, 1.0);
    });
    at(700_ms, [&] {
      net.set_link_state(links, true);
      EXPECT_TRUE(net.link_state(links[0]));
      EXPECT_TRUE(net.link_state(links[1]));
      EXPECT_NEAR(net.flow_rate(flow).bytes_per_second(), 125e6, 1.0);
    });
    sim.run();
    EXPECT_NEAR(done_s, 1.5, 1e-6);
  }
}

TEST(FlowNetworkDeathTest, ReleasingAnUnheldLinkAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Fixture f;
  const NodeId a = f.net.add_node("a", Bandwidth::gbps(1), Bandwidth::gbps(1));
  const auto links = f.net.access_links(a);
  f.sim.schedule_at(TimePoint::origin() + 100_ms,
                    [&] { f.net.set_link_state(links, false); });
  f.sim.schedule_at(TimePoint::origin() + 200_ms,
                    [&] { f.net.set_link_state(links, true); });
  // One hold, two releases: the second names the link and the time.
  f.sim.schedule_at(TimePoint::origin() + 250_ms,
                    [&] { f.net.set_link_state(links, true); });
  EXPECT_DEATH(f.sim.run(),
               "link 'a\\.tx' brought up at 250\\.000 ms with no down-hold");
}

TEST(FlowNetwork, FlowRateVisibleWhileDraining) {
  Fixture f;
  const NodeId a = f.net.add_node("a", Bandwidth::gbps(1), Bandwidth::gbps(1));
  const NodeId b = f.net.add_node("b", Bandwidth::gbps(1), Bandwidth::gbps(1));
  const FlowId id = f.net.start_flow(a, b, Bytes::of(125'000'000), [](FlowId) {});
  EXPECT_TRUE(f.net.flow_active(id));
  EXPECT_DOUBLE_EQ(f.net.flow_rate(id).bytes_per_second(), 0.0);  // setup phase
  f.sim.run_until(TimePoint::origin() + 100_ms);
  EXPECT_NEAR(f.net.flow_rate(id).bytes_per_second(), 125e6, 1.0);
  f.sim.run();
  EXPECT_FALSE(f.net.flow_active(id));
  EXPECT_EQ(f.net.active_flow_count(), 0u);
}

TEST(FlowNetwork, ManyConcurrentFlowsConserveBytes) {
  Fixture f;
  const NodeId ps = f.net.add_node("ps", Bandwidth::gbps(2), Bandwidth::gbps(2));
  std::vector<NodeId> workers;
  for (int i = 0; i < 5; ++i) {
    workers.push_back(f.net.add_node("w", Bandwidth::gbps(1), Bandwidth::gbps(1)));
  }
  int done = 0;
  for (NodeId w : workers) {
    f.net.start_flow(w, ps, Bytes::mib(7), [&](FlowId) { ++done; });
    f.net.start_flow(ps, w, Bytes::mib(3), [&](FlowId) { ++done; });
  }
  f.sim.run();
  EXPECT_EQ(done, 10);
  const auto [ps_tx, ps_rx] = f.net.access_links(ps);
  EXPECT_EQ(f.net.link_total_bytes(ps_rx), Bytes::mib(35).count());
  EXPECT_EQ(f.net.link_total_bytes(ps_tx), Bytes::mib(15).count());
}

// --- completion lanes ---------------------------------------------------------

// A flow slot keeps its completion lane across tenants, so a recycled slot
// must never fire its previous tenant's aim. In each case the old flow
// leaves the slot at `leave_at` and a new 12.5 MB flow takes it at once; the
// new flow is still in its 10 ms setup when a draining old tenant would have
// finished, so a leftover aim would fire into it. Only the new flow's
// callback may fire, at its own ETA.
enum class Departure { kDraining, kGrouped, kInSetup };

void expect_reused_slot_fires_only_new_tenant(Departure how) {
  TcpCostParams params;
  params.per_task_overhead = 10_ms;
  params.slow_start = false;
  Fixture f{TcpCostModel{params}};
  const NodeId c = f.net.add_node("c", Bandwidth::gbps(1), Bandwidth::gbps(1));
  const NodeId d = f.net.add_node("d", Bandwidth::gbps(1), Bandwidth::gbps(1));
  int old_fires = 0;
  FlowId old_id = 0;
  Duration leave_at;
  if (how == Departure::kGrouped) {
    // Ten pushes into one 1 Gbps port: a single-bottleneck incast, which
    // forms a rate group. Push 0 is the old tenant.
    const NodeId ps = f.net.add_node("ps", Bandwidth::gbps(1), Bandwidth::gbps(1));
    for (int i = 0; i < 10; ++i) {
      const NodeId w =
          f.net.add_node("w" + std::to_string(i), Bandwidth::gbps(1), Bandwidth::gbps(1));
      const FlowId id = f.net.start_flow(w, ps, Bytes::of(125'000'000), [&, i](FlowId) {
        if (i == 0) ++old_fires;
      });
      if (i == 0) old_id = id;
    }
    leave_at = 1_s;
  } else {
    old_id = f.net.start_flow(c, d, Bytes::of(125'000'000), [&](FlowId) { ++old_fires; });
    // Draining from 10 ms at 125 MB/s, it would finish at 1.010 s.
    leave_at = how == Departure::kDraining ? 1005_ms : 5_ms;
  }
  FlowId new_id = 0;
  std::vector<double> new_fires_s;
  f.sim.schedule_at(TimePoint::origin() + leave_at, [&] {
    EXPECT_EQ(f.net.rate_group_count(), how == Departure::kGrouped ? 1u : 0u);
    if (how == Departure::kInSetup) {
      EXPECT_TRUE(f.net.flow_rate(old_id).is_zero());
    } else {
      EXPECT_FALSE(f.net.flow_rate(old_id).is_zero());
    }
    f.net.cancel_flow(old_id);
    new_id = f.net.start_flow(c, d, Bytes::of(12'500'000), [&](FlowId id) {
      EXPECT_EQ(id, new_id);
      new_fires_s.push_back(f.sim.now().to_seconds());
    });
  });
  f.sim.run();
  EXPECT_EQ(old_fires, 0);
  // Same slot (the free list is LIFO), new generation.
  EXPECT_EQ(new_id & 0xffffffffu, old_id & 0xffffffffu);
  EXPECT_NE(new_id, old_id);
  ASSERT_EQ(new_fires_s.size(), 1u);
  // 10 ms setup, then 12.5 MB at 125 MB/s.
  EXPECT_NEAR(new_fires_s[0], leave_at.to_seconds() + 0.010 + 0.100, 1e-6);
}

TEST(FlowNetworkLanes, ReusedSlotAfterCancellingDrainingFlow) {
  expect_reused_slot_fires_only_new_tenant(Departure::kDraining);
}

TEST(FlowNetworkLanes, ReusedSlotAfterCancellingGroupedMember) {
  expect_reused_slot_fires_only_new_tenant(Departure::kGrouped);
}

TEST(FlowNetworkLanes, ReusedSlotAfterCancellingFlowInSetup) {
  expect_reused_slot_fires_only_new_tenant(Departure::kInSetup);
}

// Every slow-path rebalance re-aims each component flow's completion lane in
// place, so a storm of capacity changes over one ungrouped component leaves
// the event heap holding only live records.
TEST(FlowNetworkLanes, RebalanceStormLeavesOnlyLiveRecords) {
  Fixture f;
  f.net.set_verify_rates(true);
  const NodeId sink = f.net.add_node("sink", Bandwidth::gbps(10), Bandwidth::gbps(10));
  const LinkId sink_rx = f.net.node_link(sink, Direction::kRx);
  constexpr int kFlows = 24;
  constexpr int kChanges = 1'000;
  int done = 0;
  for (int i = 0; i < kFlows; ++i) {
    // Half the senders are capped by their own 100 Mbps NIC and half share
    // what is left of the sink's port: two bottlenecks, so no rate group.
    const Bandwidth nic = i % 2 == 0 ? Bandwidth::mbps(100) : Bandwidth::gbps(10);
    const NodeId src = f.net.add_node("s" + std::to_string(i), nic, nic);
    f.net.start_flow(src, sink, Bytes::of(50'000'000), [&](FlowId) { ++done; });
  }
  int changes = 0;
  for (int k = 1; k <= kChanges; ++k) {
    f.sim.schedule_at(TimePoint::origin() + Duration::micros(100 * k), [&, k] {
      f.net.set_link_capacity(sink_rx,
                              k % 2 == 0 ? Bandwidth::gbps(10) : Bandwidth::gbps(8));
      ++changes;
      EXPECT_EQ(f.net.rate_group_count(), 0u);
      EXPECT_EQ(f.net.active_flow_count(), static_cast<std::size_t>(kFlows));
    });
  }
  std::size_t steps = 0;
  while (f.sim.step()) {
    ++steps;
    // One record per active flow (its setup event or its completion lane)
    // plus the capacity changes still to come: nothing stale.
    ASSERT_LE(f.sim.pending_events(),
              f.net.active_flow_count() + static_cast<std::size_t>(kChanges - changes))
        << "after step " << steps;
  }
  EXPECT_EQ(done, kFlows);
  // Each flow completes within a byte of empty.
  EXPECT_NEAR(static_cast<double>(f.net.link_total_bytes(sink_rx)), kFlows * 50e6,
              kFlows);
  // Each change re-rated the whole component on the slow path.
  const RebalanceStats& stats = f.net.rebalance_stats();
  EXPECT_GE(stats.rebalances, static_cast<std::uint64_t>(kChanges));
  EXPECT_GE(stats.component_flows, static_cast<std::uint64_t>(kChanges) * kFlows);
  EXPECT_EQ(stats.group_forms, 0u);
}

// A tracked incast run end to end: what the eager kFull engine and the
// rate-group replay must agree on.
struct TrackedIncast {
  std::vector<std::int64_t> finish_ns;  // per flow: push i at 2i, pull i at 2i+1
  std::vector<std::int64_t> link_bytes;
  std::vector<std::int64_t> link_busy_ns;
  std::vector<BinnedSeries> trackers;  // per worker: tx at 2i, rx at 2i+1
  double polled_remaining = 0.0;
  std::size_t groups_at_poll = 0;
};

TrackedIncast run_tracked_incast(RebalanceMode mode) {
  constexpr std::size_t kWorkers = 12;
  sim::Simulator sim;
  FlowNetwork net{sim, no_overhead_model(), mode};
  TrackedIncast out;
  out.finish_ns.assign(2 * kWorkers, -1);
  out.trackers.assign(2 * kWorkers, BinnedSeries{1_ms, 60_s});
  // The PS NIC is the bottleneck of both the push incast (ps.rx) and the
  // pull fan-out (ps.tx), so each direction forms a rate group.
  const NodeId ps = net.add_node("ps", Bandwidth::gbps(40), Bandwidth::gbps(40));
  std::vector<NodeId> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.push_back(net.add_node("w" + std::to_string(w), Bandwidth::gbps(10),
                                   Bandwidth::gbps(10)));
    net.attach_tracker(workers.back(), Direction::kTx, &out.trackers[2 * w]);
    net.attach_tracker(workers.back(), Direction::kRx, &out.trackers[2 * w + 1]);
  }
  // Arrivals 250 us apart and sizes 40 kB apart put several admissions and
  // several completions inside one 1 ms bin (some boundaries land exactly on
  // a bin edge), while the long drain in between makes segments cross many
  // bin edges.
  FlowId polled = 0;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    const auto k = static_cast<std::int64_t>(w);
    const Bytes size = Bytes::of(1'500'000'000 + 40'000 * k);
    sim.schedule_after(Duration::micros(250 * k), [&, w, size] {
      const FlowId push = net.start_flow(workers[w], ps, size, [&out, &sim, w](FlowId) {
        out.finish_ns[2 * w] = sim.now().count_nanos();
      });
      net.start_flow(ps, workers[w], size, [&out, &sim, w](FlowId) {
        out.finish_ns[2 * w + 1] = sim.now().count_nanos();
      });
      if (w == 3) polled = push;
    });
  }
  // One member settled alone between two admissions: mid-segment and
  // mid-bin, so its next replay resumes inside a bin it already wrote.
  sim.schedule_at(TimePoint::origin() + Duration::nanos(1'871'300), [&] {
    out.groups_at_poll = net.rate_group_count();
    out.polled_remaining = net.flow_remaining_bytes(polled);
  });
  sim.run();
  for (LinkId l = 0; l < net.link_count(); ++l) {
    out.link_bytes.push_back(net.link_total_bytes(l));
    out.link_busy_ns.push_back(net.link_busy_time(l).count_nanos());
  }
  return out;
}

// Rate-group replays sum the chunks that fall inside one tracker bin before
// writing them. That is metrics only: against the eager engine the
// trajectory stays bitwise equal, and each bin agrees up to summation order.
TEST(FlowNetwork, GroupTrackerBinsMatchEagerSettlement) {
  const TrackedIncast eager = run_tracked_incast(RebalanceMode::kFull);
  const TrackedIncast grouped = run_tracked_incast(RebalanceMode::kIncremental);
  EXPECT_EQ(grouped.groups_at_poll, 2u);
  EXPECT_EQ(grouped.polled_remaining, eager.polled_remaining);
  EXPECT_EQ(grouped.finish_ns, eager.finish_ns);
  EXPECT_EQ(grouped.link_bytes, eager.link_bytes);
  EXPECT_EQ(grouped.link_busy_ns, eager.link_busy_ns);
  for (const std::int64_t t : grouped.finish_ns) EXPECT_GT(t, 0);

  for (std::size_t t = 0; t < grouped.trackers.size(); ++t) {
    const BinnedSeries& g = grouped.trackers[t];
    const BinnedSeries& e = eager.trackers[t];
    ASSERT_EQ(g.bin_count(), e.bin_count());
    double sum = 0.0;
    for (std::size_t b = 0; b < g.bin_count(); ++b) {
      const double want = e.bin_amount(b);
      EXPECT_LE(std::abs(g.bin_amount(b) - want), 1e-12 * std::abs(want))
          << "tracker " << t << " bin " << b;
      sum += g.bin_amount(b);
    }
    // Worker w's tx is link 2 + 2w, its rx link 3 + 2w (the PS owns 0 and 1).
    const auto total = static_cast<double>(grouped.link_bytes[2 + t]);
    EXPECT_GT(total, 0.0) << "tracker " << t;
    EXPECT_LE(std::abs(sum - total), 1e-9 * total) << "tracker " << t;
  }
}

}  // namespace
}  // namespace prophet::net
