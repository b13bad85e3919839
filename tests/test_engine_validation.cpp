// Cross-validation between the analytic layers and the simulated engine:
//  * the Eq. (1)-(5) performance model against measured engine behaviour on
//    a single-worker cluster (where its assumptions hold exactly);
//  * the flow network under randomized load (byte conservation, completion);
//  * PS-engine traffic conservation across the whole model zoo.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hpp"
#include "core/perf_model.hpp"
#include "dnn/stepwise.hpp"
#include "net/flow_network.hpp"
#include "ps/cluster.hpp"

namespace prophet {
namespace {

using namespace prophet::literals;

TEST(EngineValidation, PerfModelSpanTracksSimulatedIterationTime) {
  // Single worker, zero jitter, TicTac (whole-tensor priority transfers, no
  // blocking ack): the engine realizes almost exactly the schedule the
  // performance model assumes — priority-ordered single-tensor tasks.
  //
  // Eq. (4) charges u = t + 2E, i.e. the pull serializes behind the push on
  // one timeline; the engine's full-duplex NIC overlaps pulls of early
  // tensors with pushes of later ones. The analytic prediction is therefore
  // an upper bound that should stay within a small factor of the simulated
  // steady-state iteration time — this pins down both the direction and the
  // magnitude of the paper's modeling approximation.
  ps::ClusterConfig cfg;
  cfg.model = dnn::resnet50();
  cfg.num_workers = 1;
  cfg.batch = 64;
  cfg.iterations = 12;
  cfg.jitter_sigma = 0.0;
  cfg.topology = net::TopologySpec::star(Bandwidth::gbps(2), Bandwidth::gbps(10));
  // TicTac with a zero blocking ack is a ByteScheduler setting.
  cfg.strategy = ps::StrategyConfig::bytescheduler();
  cfg.strategy.bytescheduler_config = sched::ByteSchedulerConfig::tictac(Duration::zero());
  const auto result = ps::run_cluster(cfg, 4);
  const Duration simulated =
      result.workers[0].training.mean_iteration_time(4, 12);

  // Build the matching analytic instance.
  const dnn::IterationModel iteration{cfg.model, cfg.gpu, cfg.batch, cfg.kvstore,
                                      0.0};
  const auto timing = iteration.nominal();
  core::GradientProfile profile;
  profile.ready = timing.ready_offset;
  for (const auto& tensor : cfg.model.tensors()) {
    profile.sizes.push_back(tensor.bytes);
  }
  profile.intervals = dnn::transfer_intervals(profile.ready);
  profile.iterations_profiled = 1;
  const net::TcpCostModel cost{cfg.tcp};
  const core::PerfModel model{profile, timing.fwd, cfg.bandwidth_of_worker(0), cost};

  // TicTac's realized schedule: single-tensor tasks, priority order after
  // generation, serialized NIC.
  core::Schedule schedule;
  {
    // Replay: at each generation event, queue tensors; pop most urgent when
    // the NIC frees.
    std::map<Duration, std::vector<std::size_t>> events;
    for (std::size_t g = 0; g < profile.ready.size(); ++g) {
      events[profile.ready[g]].push_back(g);
    }
    std::set<std::size_t> ready;
    Duration nic{};
    auto it = events.begin();
    while (it != events.end() || !ready.empty()) {
      if (!ready.empty() && (it == events.end() || nic >= it->first)) {
        const std::size_t g = *ready.begin();
        ready.erase(ready.begin());
        core::ScheduledTask task{{g}, std::max(nic, profile.ready[g])};
        nic = task.start + model.task_duration(task);
        schedule.tasks.push_back(std::move(task));
      } else {
        nic = std::max(nic, it->first);
        for (std::size_t g : it->second) ready.insert(g);
        ++it;
      }
    }
  }
  const auto breakdown = model.evaluate(schedule);
  Duration compute{};
  for (Duration d : timing.bwd) compute += d;
  for (Duration d : timing.fwd) compute += d;
  const Duration predicted =
      timing.backward_total() /* includes flush gaps */ + breakdown.t_wait +
      timing.forward_total();

  EXPECT_GE(predicted.to_seconds(), 0.98 * simulated.to_seconds())
      << "Eq. (1)-(5) should not under-predict: predicted "
      << format_duration(predicted) << " vs simulated "
      << format_duration(simulated);
  EXPECT_LE(predicted.to_seconds(), 1.6 * simulated.to_seconds())
      << "the 2E serial-pull approximation should stay within a small "
         "factor: predicted "
      << format_duration(predicted) << " vs simulated "
      << format_duration(simulated);
}

TEST(EngineValidation, FlowNetworkRandomStressConservesBytes) {
  Rng rng{4242};
  for (int trial = 0; trial < 5; ++trial) {
    sim::Simulator sim;
    net::TcpCostParams params;
    params.per_task_overhead = Duration::micros(200);
    net::FlowNetwork network{sim, net::TcpCostModel{params}};
    const std::size_t n_nodes = static_cast<std::size_t>(rng.uniform_int(3, 8));
    std::vector<net::NodeId> nodes;
    for (std::size_t i = 0; i < n_nodes; ++i) {
      nodes.push_back(network.add_node(
          "n" + std::to_string(i),
          Bandwidth::mbps(static_cast<double>(rng.uniform_int(200, 10'000))),
          Bandwidth::mbps(static_cast<double>(rng.uniform_int(200, 10'000)))));
    }
    std::int64_t launched_bytes = 0;
    int completed = 0;
    const int flows = 60;
    for (int f = 0; f < flows; ++f) {
      const auto src = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n_nodes) - 1));
      auto dst = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n_nodes) - 1));
      if (dst == src) dst = (dst + 1) % n_nodes;
      const Bytes size = Bytes::kib(rng.uniform_int(1, 8192));
      launched_bytes += size.count();
      sim.schedule_after(Duration::millis(rng.uniform_int(0, 50)), [&network, &completed,
                                                                    src, dst, size,
                                                                    &nodes] {
        network.start_flow(nodes[src], nodes[dst], size,
                           [&completed](net::FlowId) { ++completed; });
      });
    }
    sim.run();
    EXPECT_EQ(completed, flows) << "trial " << trial;
    std::int64_t tx_total = 0;
    std::int64_t rx_total = 0;
    for (const auto node : nodes) {
      tx_total += network.link_total_bytes(network.node_link(node, net::Direction::kTx));
      rx_total += network.link_total_bytes(network.node_link(node, net::Direction::kRx));
    }
    // Fluid drain accounting: exact up to sub-byte float residue per flow.
    EXPECT_NEAR(static_cast<double>(tx_total), static_cast<double>(launched_bytes),
                static_cast<double>(flows));
    EXPECT_NEAR(static_cast<double>(rx_total), static_cast<double>(launched_bytes),
                static_cast<double>(flows));
    EXPECT_EQ(network.active_flow_count(), 0u);
  }
}

class ZooConservation : public ::testing::TestWithParam<const char*> {};

TEST_P(ZooConservation, PsEngineMovesExactlyTheModelBytes) {
  ps::ClusterConfig cfg;
  cfg.model = dnn::model_by_name(GetParam());
  cfg.num_workers = 2;
  cfg.batch = 8;
  cfg.iterations = 6;
  cfg.topology = net::TopologySpec::star(Bandwidth::gbps(10), Bandwidth::gbps(10));
  cfg.strategy = ps::StrategyConfig::prophet();
  cfg.strategy.prophet_config.profile_iterations = 2;
  cfg.keep_transfer_records = true;
  const auto result = ps::run_cluster(cfg, 3);
  const auto expected = cfg.model.total_bytes().count();
  for (const auto& w : result.workers) {
    std::int64_t pushed = 0;
    for (const auto& rec : w.transfers.records()) {
      if (rec.kind == sched::TaskKind::kPush && rec.iteration == 3) {
        pushed += rec.bytes.count();
      }
    }
    EXPECT_EQ(pushed, expected) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Models, ZooConservation,
                         ::testing::Values("resnet18", "mobilenet_v1", "alexnet",
                                           "bert_base", "toy_cnn"),
                         [](const auto& param_info) {
                           return std::string{param_info.param};
                         });

}  // namespace
}  // namespace prophet
