// Differential tests for incremental max-min recomputation: with
// set_verify_rates(true), FlowNetwork re-runs the retained full progressive
// filling after EVERY component rebalance and PROPHET_CHECKs each draining
// flow's rate bit-identical to it — so simply driving churn and dynamics
// scenarios to completion under verify mode IS the proof. The scenarios
// cover random flow churn, capacity scale/set, outages (park + resume) and
// trace-CSV-driven cluster dynamics, on star and oversubscribed leaf-spine
// fabrics, plus chaos-style fault cells (crash/loss) at cluster level.
//
// Cross-mode runs (kIncremental vs kFull) are compared on conserved
// quantities only: the two modes assign bit-identical *rates*, but may order
// same-nanosecond completion events differently (kFull reschedules every
// completion on every change, re-rounding ETAs network-wide), so full event
// streams are not comparable — the golden exceptions in
// test_engine_perf_invariants.cpp document this.
#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/multi_job.hpp"
#include "common/rng.hpp"
#include "dnn/model_zoo.hpp"
#include "net/flow_network.hpp"
#include "ps/cluster.hpp"

namespace prophet::net {
namespace {

using namespace prophet::literals;

TcpCostModel small_overhead_model() {
  TcpCostParams params;
  params.per_task_overhead = Duration::micros(50);
  params.slow_start = false;
  return TcpCostModel{params};
}

struct Fixture {
  sim::Simulator sim;
  FlowNetwork net;
  explicit Fixture(RebalanceMode mode = RebalanceMode::kIncremental,
                   const TcpCostModel& model = small_overhead_model())
      : net{sim, model, mode} {}
};

// Random churn: `flows` transfers between random node pairs at random start
// times, a third of them cancelled mid-flight. Returns completed count.
int drive_churn(Fixture& f, const std::vector<NodeId>& nodes,
                std::uint64_t seed, int flows) {
  Rng rng{seed};
  int completed = 0;
  std::vector<FlowId> started;
  started.reserve(static_cast<std::size_t>(flows));
  for (int i = 0; i < flows; ++i) {
    const auto src = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1));
    auto dst = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1));
    if (dst == src) dst = (dst + 1) % nodes.size();
    const Bytes size = Bytes::kib(rng.uniform_int(64, 4096));
    const Duration at = Duration::millis(rng.uniform_int(0, 40));
    f.sim.schedule_after(at, [&f, &nodes, &completed, &started, src, dst, size] {
      started.push_back(f.net.start_flow(nodes[src], nodes[dst], size,
                                         [&completed](FlowId) { ++completed; }));
    });
    if (i % 3 == 0) {
      // Cancel a previously started flow (if any) mid-run; stale ids no-op.
      const Duration cancel_at = at + Duration::millis(rng.uniform_int(1, 15));
      f.sim.schedule_after(cancel_at, [&f, &started, i] {
        if (!started.empty()) {
          f.net.cancel_flow(started[static_cast<std::size_t>(i) % started.size()]);
        }
      });
    }
  }
  f.sim.run();
  return completed;
}

TEST(IncrementalRates, StarChurnBitIdenticalToFull) {
  Fixture f;
  f.net.set_verify_rates(true);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 6; ++i) {
    nodes.push_back(f.net.add_node("n" + std::to_string(i),
                                   Bandwidth::mbps(800), Bandwidth::mbps(600)));
  }
  const int completed = drive_churn(f, nodes, 0xfeed, 50);
  EXPECT_GT(completed, 0);
}

// Under slow start a flow's setup delay grows with its size, so flows start
// draining out of admission order and the slow path's admission-ordered
// list must insert each arrival in place, not append it.
TEST(IncrementalRates, SlowStartChurnDrainsOutOfAdmissionOrder) {
  TcpCostParams params;
  params.per_task_overhead = Duration::micros(50);
  params.slow_start = true;
  Fixture f{RebalanceMode::kIncremental, TcpCostModel{params}};
  f.net.set_verify_rates(true);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 6; ++i) {
    nodes.push_back(f.net.add_node("n" + std::to_string(i), Bandwidth::gbps(10),
                                   Bandwidth::gbps(10)));
  }
  const int completed = drive_churn(f, nodes, 0xfeed, 50);
  EXPECT_GT(completed, 0);
}

TEST(IncrementalRates, StarChurnWithCapacityDynamics) {
  Fixture f;
  f.net.set_verify_rates(true);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 5; ++i) {
    nodes.push_back(f.net.add_node("n" + std::to_string(i), Bandwidth::gbps(1),
                                   Bandwidth::gbps(1)));
  }
  // Capacity scale/set + a full outage landing mid-churn on several NICs.
  const LinkId tx0 = f.net.node_link(nodes[0], Direction::kTx);
  const LinkId rx1 = f.net.node_link(nodes[1], Direction::kRx);
  const std::array<LinkId, 2> links2 = f.net.access_links(nodes[2]);
  f.sim.schedule_after(5_ms, [&f, tx0] {
    f.net.set_link_capacity(tx0, Bandwidth::mbps(250));
  });
  f.sim.schedule_after(9_ms, [&f, rx1] {
    f.net.set_link_capacity(rx1, Bandwidth::mbps(120));
  });
  f.sim.schedule_after(12_ms, [&f, links2] { f.net.set_link_state(links2, false); });
  f.sim.schedule_after(20_ms, [&f, links2] { f.net.set_link_state(links2, true); });
  f.sim.schedule_after(26_ms, [&f, tx0] {
    f.net.set_link_capacity(tx0, Bandwidth::gbps(1));
  });
  const int completed = drive_churn(f, nodes, 0xbeef, 40);
  EXPECT_GT(completed, 0);
}

TEST(IncrementalRates, LeafSpineOversubscribedChurn) {
  Fixture f;
  f.net.set_verify_rates(true);
  // Two racks of three hosts behind 4:1-oversubscribed uplinks: cross-rack
  // flows contend on the shared rack links, so components span racks.
  const RackId r0 = f.net.add_rack("r0", Bandwidth::mbps(750), Bandwidth::mbps(750));
  const RackId r1 = f.net.add_rack("r1", Bandwidth::mbps(750), Bandwidth::mbps(750));
  std::vector<NodeId> nodes;
  for (int i = 0; i < 6; ++i) {
    const NodeId n = f.net.add_node("h" + std::to_string(i), Bandwidth::gbps(1),
                                    Bandwidth::gbps(1));
    f.net.assign_rack(n, i < 3 ? r0 : r1);
    nodes.push_back(n);
  }
  // Rack-uplink dynamics: scale, outage (flows park at zero and resume), set.
  const LinkId up0 = f.net.rack_link(r0, Direction::kTx);
  f.sim.schedule_after(6_ms, [&f, up0] {
    f.net.set_link_capacity(up0, Bandwidth::mbps(300));
  });
  f.sim.schedule_after(11_ms, [&f, up0] { f.net.set_link_state({&up0, 1}, false); });
  f.sim.schedule_after(18_ms, [&f, up0] { f.net.set_link_state({&up0, 1}, true); });
  f.sim.schedule_after(24_ms, [&f, up0] {
    f.net.set_link_capacity(up0, Bandwidth::mbps(750));
  });
  const int completed = drive_churn(f, nodes, 0xabcd, 60);
  EXPECT_GT(completed, 0);
}

TEST(IncrementalRates, OutageParksFlowsAtZeroAndVerifies) {
  Fixture f;
  f.net.set_verify_rates(true);
  const NodeId a = f.net.add_node("a", Bandwidth::gbps(1), Bandwidth::gbps(1));
  const NodeId b = f.net.add_node("b", Bandwidth::gbps(1), Bandwidth::gbps(1));
  bool done = false;
  const FlowId id = f.net.start_flow(a, b, Bytes::of(125'000'000),
                                     [&done](FlowId) { done = true; });
  f.sim.schedule_after(200_ms,
                       [&f, a] { f.net.set_link_state(f.net.access_links(a), false); });
  f.sim.schedule_after(500_ms, [&f, id] {
    // Parked at rate zero: remaining bytes frozen, flow still live.
    EXPECT_TRUE(f.net.flow_active(id));
    EXPECT_EQ(f.net.flow_rate(id).bytes_per_second(), 0.0);
  });
  f.sim.schedule_after(700_ms,
                       [&f, a] { f.net.set_link_state(f.net.access_links(a), true); });
  f.sim.run();
  EXPECT_TRUE(done);
  // 1 s of draining at line rate + 0.5 s parked.
  EXPECT_NEAR(f.sim.now().to_seconds(), 1.5, 1e-3);
}

// The two modes must agree on conserved quantities: every flow completes,
// and each access link carries the same byte total (settlement chunking
// differs, so totals agree to sub-byte floating-point residue per flow).
TEST(IncrementalRates, CrossModeByteConservation) {
  std::vector<std::int64_t> totals[2];
  int completed[2] = {0, 0};
  const RebalanceMode modes[2] = {RebalanceMode::kIncremental,
                                  RebalanceMode::kFull};
  for (int m = 0; m < 2; ++m) {
    Fixture f{modes[m]};
    std::vector<NodeId> nodes;
    for (int i = 0; i < 5; ++i) {
      nodes.push_back(f.net.add_node("n" + std::to_string(i),
                                     Bandwidth::mbps(900), Bandwidth::mbps(700)));
    }
    f.sim.schedule_after(7_ms, [&f, &nodes] {
      f.net.set_link_capacity(f.net.node_link(nodes[3], Direction::kRx),
                              Bandwidth::mbps(200));
    });
    completed[m] = drive_churn(f, nodes, 0x5eed, 45);
    for (const NodeId n : nodes) {
      totals[m].push_back(f.net.link_total_bytes(f.net.node_link(n, Direction::kTx)));
      totals[m].push_back(f.net.link_total_bytes(f.net.node_link(n, Direction::kRx)));
    }
  }
  EXPECT_EQ(completed[0], completed[1]);
  ASSERT_EQ(totals[0].size(), totals[1].size());
  for (std::size_t i = 0; i < totals[0].size(); ++i) {
    EXPECT_NEAR(static_cast<double>(totals[0][i]),
                static_cast<double>(totals[1][i]), 64.0)
        << "link index " << i;
  }
}

// Swap-and-pop removal must not disturb the admission-order tie-break:
// equal flows started in order still freeze in admission order after
// unrelated cancellations shuffle the active slab.
TEST(IncrementalRates, CancellationPreservesAdmissionOrdering) {
  Fixture f;
  f.net.set_verify_rates(true);
  const NodeId ps = f.net.add_node("ps", Bandwidth::gbps(1), Bandwidth::gbps(1));
  std::vector<NodeId> workers;
  for (int i = 0; i < 8; ++i) {
    workers.push_back(f.net.add_node("w" + std::to_string(i),
                                     Bandwidth::gbps(1), Bandwidth::gbps(1)));
  }
  std::vector<FlowId> ids;
  int completed = 0;
  for (const NodeId w : workers) {
    ids.push_back(f.net.start_flow(w, ps, Bytes::of(10'000'000),
                                   [&completed](FlowId) { ++completed; }));
  }
  // Cancel from the middle and the front: each removal swap-and-pops the
  // active list, then the next rebalance must still walk by admission.
  f.sim.schedule_after(10_ms, [&f, &ids] { f.net.cancel_flow(ids[3]); });
  f.sim.schedule_after(12_ms, [&f, &ids] { f.net.cancel_flow(ids[0]); });
  f.sim.schedule_after(14_ms, [&f, &ids] { f.net.cancel_flow(ids[5]); });
  f.sim.run();
  EXPECT_EQ(completed, 5);
}

// Same-instant completions fire in admission order even where slot order and
// the bottleneck's per-link list disagree with it. Seven equal flows (below
// the rate-group size, so they stay on the slow path) take recycled slots in
// reverse admission order, two decoys among them are cancelled mid-drain
// (each swap-and-pops the shared link's list), and the five survivors drain
// to one instant: their lanes were aimed in the walk order, so that is the
// order their callbacks fire in.
TEST(IncrementalRates, SameInstantCompletionsFireInAdmissionOrder) {
  Fixture f;
  f.net.set_verify_rates(true);
  const NodeId ps = f.net.add_node("ps", Bandwidth::gbps(1), Bandwidth::gbps(1));
  std::vector<NodeId> workers;
  for (int i = 0; i < 7; ++i) {
    workers.push_back(f.net.add_node("w" + std::to_string(i), Bandwidth::gbps(1),
                                     Bandwidth::gbps(1)));
  }
  // Cancelling in setup frees slots 0..6 in order; the free list is LIFO, so
  // each later admission below gets a lower slot.
  std::vector<FlowId> fillers;
  for (const NodeId w : workers) {
    fillers.push_back(f.net.start_flow(w, ps, Bytes::of(1), nullptr));
  }
  for (const FlowId id : fillers) f.net.cancel_flow(id);

  const auto slot_of = [](FlowId id) { return id & 0xffffffffu; };  // FlowId's low word
  std::vector<FlowId> ids;
  std::vector<FlowId> decoys;
  std::vector<int> fired;
  std::vector<std::int64_t> fired_ns;
  for (int i = 0; i < 7; ++i) {
    const bool decoy = i == 1 || i == 4;
    const FlowId id = f.net.start_flow(
        workers[static_cast<std::size_t>(i)], ps, Bytes::of(2'000'000),
        [&f, &fired, &fired_ns, i](FlowId) {
          fired.push_back(i);
          fired_ns.push_back(f.sim.now().count_nanos());
        });
    if (!ids.empty()) {
      ASSERT_LT(slot_of(id), slot_of(ids.back()));
    }
    ids.push_back(id);
    if (decoy) decoys.push_back(id);
  }
  f.sim.schedule_after(2_ms, [&f, &decoys] { f.net.cancel_flow(decoys[0]); });
  f.sim.schedule_after(3_ms, [&f, &decoys] { f.net.cancel_flow(decoys[1]); });
  f.sim.run();

  EXPECT_EQ(fired, (std::vector<int>{0, 2, 3, 5, 6}));
  ASSERT_EQ(fired_ns.size(), 5u);
  for (const std::int64_t ns : fired_ns) EXPECT_EQ(ns, fired_ns.front());
  EXPECT_EQ(f.net.rebalance_stats().group_forms, 0u);
}

// Replay determinism at cluster level: two incremental runs of the same
// config produce identical simulations.
TEST(IncrementalRates, IncrementalClusterReplaysIdentically) {
  ps::ClusterConfig cfg;
  cfg.model = dnn::toy_cnn();
  cfg.num_workers = 3;
  cfg.batch = 32;
  cfg.iterations = 6;
  cfg.seed = 7;
  cfg.strategy = ps::StrategyConfig::fifo();
  const auto first = ps::run_cluster(cfg, 1);
  const auto replay = ps::run_cluster(cfg, 1);
  EXPECT_EQ(first.events_fired, replay.events_fired);
  EXPECT_EQ(first.simulated_time.count_nanos(), replay.simulated_time.count_nanos());
}

// Cluster-level differential check under a trace-CSV dynamics plan
// (bandwidth scale + set + outages on named links): every rebalance across
// the whole training run is verified against the full recompute.
TEST(IncrementalRates, ClusterDynamicsTraceVerified) {
  const std::string path = ::testing::TempDir() + "/incr_rates_trace.csv";
  {
    std::ofstream out{path};
    out << "time_s,event,target,value\n"
        << "0.02,bandwidth_scale,0,0.4\n"
        << "0.05,bandwidth_gbps,1,0.5\n"
        << "0.08,outage_start,0,0\n"
        << "0.11,outage_end,0,0\n"
        << "0.15,bandwidth_scale,*,0.7\n";
  }
  std::string error;
  const auto plan = net::DynamicsPlan::from_trace_csv(path, &error);
  ASSERT_TRUE(plan.has_value()) << error;

  ps::ClusterConfig cfg;
  cfg.model = dnn::toy_cnn();
  cfg.num_workers = 3;
  cfg.batch = 32;
  cfg.iterations = 8;
  cfg.seed = 11;
  cfg.strategy = ps::StrategyConfig::prophet();
  cfg.strategy.prophet_config.profile_iterations = 3;
  cfg.dynamics = *plan;
  cfg.verify_rates = true;
  const auto result = ps::run_cluster(cfg, 1);
  for (const auto& w : result.workers) {
    EXPECT_EQ(w.iterations_completed, cfg.iterations);
  }
}

// Chaos-style fault cell (transport loss + worker crash + PS failover) with
// verification on: crash-driven flow cancellations and recovery re-pushes
// must keep incremental rates bit-identical throughout.
TEST(IncrementalRates, ClusterFaultPlanVerified) {
  ps::ClusterConfig cfg;
  cfg.model = dnn::toy_cnn();
  cfg.num_workers = 2;
  cfg.batch = 32;
  cfg.iterations = 10;
  cfg.seed = 3;
  cfg.topology = TopologySpec::star(Bandwidth::gbps(1), Bandwidth::gbps(1));
  cfg.strategy = ps::StrategyConfig::fifo();
  cfg.retry_budget = 64;
  cfg.checkpoint_period = 40_ms;
  cfg.dynamics.loss_rate(10_ms, 0.05);
  cfg.dynamics.worker_crash(60_ms, 25_ms, 1);
  cfg.dynamics.ps_crash(170_ms, 20_ms);
  cfg.verify_rates = true;
  const auto result = ps::run_cluster(cfg, 1);
  for (const auto& w : result.workers) {
    EXPECT_EQ(w.iterations_completed, cfg.iterations);
  }
}

// --- Rate-group cells -------------------------------------------------------
// Bottleneck-homogeneous incasts (>= kMinGroupFlows flows at one common rate
// over one common bottleneck) are promoted to rate groups and complete via
// the O(log n) lane fast path. Verify mode still re-runs the full progressive
// filling at every group boundary (form/admit/remove/capacity change), so
// finishing under set_verify_rates proves the fast path bit-identical.

// Staggered admissions into one PS NIC: the group forms at the 8th flow,
// later arrivals join through the O(log n) admit path, and completions pop
// off the group heap without a component rebalance.
TEST(RateGroups, StaggeredIncastFormsGroupAndVerifies) {
  Fixture f;
  f.net.set_verify_rates(true);
  const NodeId ps = f.net.add_node("ps", Bandwidth::gbps(1), Bandwidth::gbps(1));
  int completed = 0;
  bool saw_group = false;
  for (int i = 0; i < 12; ++i) {
    const NodeId w = f.net.add_node("w" + std::to_string(i), Bandwidth::gbps(1),
                                    Bandwidth::gbps(1));
    f.sim.schedule_after(Duration::millis(i), [&f, &completed, w, ps] {
      f.net.start_flow(w, ps, Bytes::of(8'000'000),
                       [&completed](FlowId) { ++completed; });
    });
  }
  f.sim.schedule_after(30_ms, [&f, &saw_group] {
    saw_group = f.net.rate_group_count() > 0;
  });
  f.sim.run();
  EXPECT_EQ(completed, 12);
  EXPECT_TRUE(saw_group);
  const RebalanceStats& stats = f.net.rebalance_stats();
  EXPECT_GE(stats.group_forms, 1u);
  EXPECT_GT(stats.group_fast_events, 0u);
  EXPECT_GT(stats.verify_checks, 0u);
}

// Mid-incast dynamics on the bottleneck itself: capacity scale down and up
// re-rates the group in place (one boundary, no rebalance); an outage parks
// the whole incast at zero (slow path dissolves the group) and recovery
// re-forms it. All of it bit-checked against the full recompute.
TEST(RateGroups, MidIncastBottleneckDynamicsVerified) {
  Fixture f;
  f.net.set_verify_rates(true);
  const NodeId ps = f.net.add_node("ps", Bandwidth::gbps(1), Bandwidth::gbps(1));
  int completed = 0;
  for (int i = 0; i < 12; ++i) {
    const NodeId w = f.net.add_node("w" + std::to_string(i), Bandwidth::gbps(1),
                                    Bandwidth::gbps(1));
    f.net.start_flow(w, ps, Bytes::of(16'000'000),
                     [&completed](FlowId) { ++completed; });
  }
  const LinkId ps_rx = f.net.node_link(ps, Direction::kRx);
  f.sim.schedule_after(100_ms, [&f, ps_rx] {
    f.net.set_link_capacity(ps_rx, Bandwidth::mbps(400));
  });
  f.sim.schedule_after(250_ms, [&f, ps_rx] {
    f.net.set_link_capacity(ps_rx, Bandwidth::gbps(1));
  });
  f.sim.schedule_after(400_ms,
                       [&f, ps] { f.net.set_link_state(f.net.access_links(ps), false); });
  f.sim.schedule_after(550_ms, [&f, ps] {
    // Parked: the outage dissolved the group and froze every flow at zero.
    EXPECT_EQ(f.net.rate_group_count(), 0u);
    f.net.set_link_state(f.net.access_links(ps), true);
  });
  f.sim.run();
  EXPECT_EQ(completed, 12);
  const RebalanceStats& stats = f.net.rebalance_stats();
  EXPECT_GE(stats.group_forms, 2u);  // re-formed after the outage cleared
  EXPECT_GE(stats.group_dissolves, 1u);
  EXPECT_GT(stats.verify_checks, 0u);
}

// Fault-style mass abort: half the group's flows are cancelled mid-incast
// (what a worker crash's abort_all does), each removal re-rating the
// surviving group members without dissolving the group.
TEST(RateGroups, AbortingHalfTheGroupKeepsRatesVerified) {
  Fixture f;
  f.net.set_verify_rates(true);
  const NodeId ps = f.net.add_node("ps", Bandwidth::gbps(1), Bandwidth::gbps(1));
  std::vector<FlowId> ids;
  int completed = 0;
  for (int i = 0; i < 12; ++i) {
    const NodeId w = f.net.add_node("w" + std::to_string(i), Bandwidth::gbps(1),
                                    Bandwidth::gbps(1));
    ids.push_back(f.net.start_flow(w, ps, Bytes::of(16'000'000),
                                   [&completed](FlowId) { ++completed; }));
  }
  f.sim.schedule_after(50_ms, [&f, &ids] {
    ASSERT_GT(f.net.rate_group_count(), 0u);
    for (std::size_t i = 0; i < ids.size(); i += 2) f.net.cancel_flow(ids[i]);
  });
  f.sim.run();
  EXPECT_EQ(completed, 6);
  EXPECT_GT(f.net.rebalance_stats().verify_checks, 0u);
}

// A group's life on a leaf-spine beside flows it never touches, verified: the
// full check also requires the slow path's admission list to be exactly the
// ungrouped draining flows in order, so every transition below (form, fast
// admit, grouped and ungrouped cancels, a dissolving arrival, capacity
// changes on the anchor) is checked to keep it.
TEST(RateGroups, FormAndDissolveKeepWalkOrder) {
  Fixture f;
  f.net.set_verify_rates(true);
  const RackId r0 = f.net.add_rack("r0", Bandwidth::gbps(1), Bandwidth::gbps(2));
  const RackId r1 = f.net.add_rack("r1", Bandwidth::gbps(1), Bandwidth::gbps(2));
  const auto host = [&f](const std::string& name, RackId rack, Bandwidth tx) {
    const NodeId n = f.net.add_node(name, tx, Bandwidth::gbps(10));
    f.net.assign_rack(n, rack);
    return n;
  };
  std::vector<NodeId> senders;
  for (int i = 0; i < 9; ++i) {
    senders.push_back(host("s" + std::to_string(i), r0, Bandwidth::gbps(10)));
  }
  const NodeId slow = host("slow", r0, Bandwidth::mbps(10));
  const NodeId sink = host("sink", r1, Bandwidth::gbps(10));
  const NodeId b0 = host("b0", r1, Bandwidth::gbps(10));
  const NodeId b1 = host("b1", r1, Bandwidth::gbps(10));

  int completed = 0;
  const auto count = [&completed](FlowId) { ++completed; };
  // Two r1 -> r0 flows in a component of their own, admitted before and
  // after the incast: they stay ungrouped while its group forms beside them,
  // and the dissolved members must merge back in between them.
  f.net.start_flow(b0, senders[0], Bytes::of(8'000'000), count);
  f.sim.schedule_after(9500_us, [&f, &count, b1, &senders] {
    f.net.start_flow(b1, senders[1], Bytes::of(8'000'000), count);
  });
  // An incast on r0's uplink: the 8th arrival forms a group anchored there,
  // the 9th joins it on the fast path.
  std::vector<FlowId> incast(senders.size());
  for (std::size_t i = 0; i < senders.size(); ++i) {
    f.sim.schedule_after(Duration::millis(static_cast<std::int64_t>(i)),
                         [&f, &incast, &senders, &count, sink, i] {
                           incast[i] = f.net.start_flow(senders[i], sink,
                                                        Bytes::of(4'000'000), count);
                         });
  }
  const LinkId anchor = f.net.rack_link(r0, Direction::kTx);
  bool grouped = false;
  f.sim.schedule_after(10_ms, [&f, &incast, &grouped] {
    grouped = f.net.rate_group_count() == 1;
    f.net.cancel_flow(incast[0]);  // a grouped member
  });
  f.sim.schedule_after(11_ms, [&f, anchor] {
    f.net.set_link_capacity(anchor, Bandwidth::mbps(900));
  });
  // A cross-rack arrival whose own 10 Mbps NIC is below the group's share:
  // it cannot join, and the slow path's walk reaches the group and dissolves it.
  FlowId slow_id = 0;
  f.sim.schedule_after(12_ms, [&f, &slow_id, &count, slow, sink] {
    slow_id = f.net.start_flow(slow, sink, Bytes::of(1'000'000), count);
  });
  f.sim.schedule_after(14_ms, [&f, &incast] {
    EXPECT_EQ(f.net.rate_group_count(), 0u);
    f.net.cancel_flow(incast[3]);  // an ungrouped member now
  });
  f.sim.schedule_after(15_ms, [&f, anchor] {
    f.net.set_link_capacity(anchor, Bandwidth::gbps(1));
  });
  f.sim.schedule_after(16_ms, [&f, &slow_id] { f.net.cancel_flow(slow_id); });
  f.sim.run();

  EXPECT_TRUE(grouped);
  EXPECT_EQ(completed, 2 + 9 - 2);
  const RebalanceStats& stats = f.net.rebalance_stats();
  EXPECT_GT(stats.group_forms, 0u);
  EXPECT_GT(stats.group_dissolves, 0u);
  EXPECT_GT(stats.group_fast_events, 0u);
  EXPECT_GT(stats.verify_checks, 0u);
}

// Cluster-level crash plan on an 8-worker incast: the crashes abort the
// crashed workers' in-flight push flows out of live rate groups, recovery
// re-pushes, and every rebalance across the run is verified bit-identical.
TEST(RateGroups, ClusterCrashPlanAbortsGroupedFlowsVerified) {
  ps::ClusterConfig cfg;
  cfg.model = dnn::toy_cnn();
  cfg.num_workers = 8;
  cfg.batch = 32;
  cfg.iterations = 6;
  cfg.seed = 13;
  cfg.topology = TopologySpec::star(Bandwidth::gbps(1), Bandwidth::gbps(1));
  cfg.strategy = ps::StrategyConfig::fifo();
  cfg.retry_budget = 64;
  for (std::size_t w = 0; w < 4; ++w) {
    cfg.dynamics.worker_crash(
        Duration::millis(static_cast<std::int64_t>(40 + 5 * w)), 20_ms, w);
  }
  cfg.dynamics.sort();  // crash/recover pairs interleave across workers
  cfg.verify_rates = true;
  const auto result = ps::run_cluster(cfg, 1);
  for (const auto& w : result.workers) {
    EXPECT_EQ(w.iterations_completed, cfg.iterations);
  }
  EXPECT_GT(result.rebalance.verify_checks, 0u);
}

// Two jobs contending across a shared oversubscribed spine, verified: job
// arrivals/departures dirty only their own component unless the spine
// couples them, and either way the rates must match the full recompute.
TEST(IncrementalRates, MultiJobLeafSpineVerified) {
  cluster::MultiJobConfig cfg;
  cfg.topology = net::TopologySpec::leaf_spine(
      /*racks=*/2, /*hosts_per_rack=*/2, Bandwidth::gbps(1),
      /*oversubscription=*/4.0);
  cfg.placement = cluster::PlacementPolicy::kFifoStripe;
  cfg.interleave = cluster::InterleavePolicy::kNone;
  cfg.verify_rates = true;
  for (std::size_t j = 0; j < 2; ++j) {
    cluster::JobSpec job;
    job.config.model = dnn::toy_cnn();
    job.config.num_workers = 1;
    job.config.batch = 32;
    job.config.iterations = 6;
    job.config.seed = 20 + j;
    job.config.strategy = ps::StrategyConfig::fifo();
    cfg.jobs.push_back(std::move(job));
  }
  const auto result = cluster::run_multi_job(cfg);
  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_GT(result.spine_bytes, 0);
}

}  // namespace
}  // namespace prophet::net
