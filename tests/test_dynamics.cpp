// Network-dynamics & fault-injection subsystem: plan construction and
// validation, flow-network outage semantics, monitor tracking of scripted
// bandwidth changes, full-cluster determinism under dynamics, and the
// strategy-name registry the CLI flags are built on.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "allreduce/cluster.hpp"
#include "cluster/multi_job.hpp"
#include "net/dynamics.hpp"
#include "net/flow_network.hpp"
#include "net/monitor.hpp"
#include "net/topology.hpp"
#include "ps/cluster.hpp"
#include "ps/job_runtime.hpp"

namespace prophet {
namespace {

using namespace prophet::literals;

net::TcpCostModel plain_model() {
  net::TcpCostParams params;
  params.per_task_overhead = 0_ns;
  params.slow_start = false;
  return net::TcpCostModel{params};
}

// --- flow-network outage semantics ----------------------------------------

TEST(Outage, FlowStallsAndResumesAcrossLinkDowntime) {
  sim::Simulator sim;
  net::FlowNetwork network{sim, plain_model()};
  const net::NodeId a = network.add_node("a", Bandwidth::gbps(1), Bandwidth::gbps(1));
  const net::NodeId b = network.add_node("b", Bandwidth::gbps(1), Bandwidth::gbps(1));
  // 125 MB at 1 Gbps = 1 s of drain time; a [0.25 s, 0.75 s) outage freezes
  // the transfer without losing progress, so it finishes at 1.5 s.
  bool done = false;
  network.start_flow(a, b, Bytes::of(125'000'000), [&](net::FlowId) {
    done = true;
    EXPECT_NEAR(sim.now().to_seconds(), 1.5, 1e-6);
  });
  sim.schedule_at(TimePoint::origin() + 250_ms,
                  [&] { network.set_link_state(network.access_links(a), false); });
  sim.schedule_at(TimePoint::origin() + 750_ms,
                  [&] { network.set_link_state(network.access_links(a), true); });
  sim.run();
  EXPECT_TRUE(done);
}

TEST(Outage, DownLinkStallsBothDirections) {
  sim::Simulator sim;
  net::FlowNetwork network{sim, plain_model()};
  const net::NodeId a = network.add_node("a", Bandwidth::gbps(1), Bandwidth::gbps(1));
  const net::NodeId b = network.add_node("b", Bandwidth::gbps(1), Bandwidth::gbps(1));
  for (const net::LinkId l : network.access_links(b)) EXPECT_TRUE(network.link_state(l));
  bool done = false;
  // Flow towards the downed receiver: stalls just the same.
  network.start_flow(a, b, Bytes::of(125'000'000), [&](net::FlowId) {
    done = true;
    EXPECT_NEAR(sim.now().to_seconds(), 1.2, 1e-6);
  });
  sim.schedule_at(TimePoint::origin() + 500_ms,
                  [&] { network.set_link_state(network.access_links(b), false); });
  sim.schedule_at(TimePoint::origin() + 700_ms,
                  [&] { network.set_link_state(network.access_links(b), true); });
  sim.run();
  EXPECT_TRUE(done);
}

// --- monitor tracks scripted bandwidth changes ----------------------------

TEST(Dynamics, MonitorTracksScriptedBandwidthStep) {
  sim::Simulator sim;
  net::FlowNetwork network{sim, plain_model()};
  const net::NodeId a = network.add_node("a", Bandwidth::gbps(1), Bandwidth::gbps(1));
  const net::NodeId b = network.add_node("b", Bandwidth::gbps(1), Bandwidth::gbps(1));
  net::BandwidthMonitorConfig cfg;
  cfg.sample_period = 1_s;
  net::BandwidthMonitor monitor{sim, network, a, net::Direction::kTx, cfg};
  // Saturating flow; the link halves at t = 4 s. The monitor's estimate must
  // converge towards the new 62.5 MB/s goodput after the step.
  network.start_flow(a, b, Bytes::of(1'000'000'000), [](net::FlowId) {});
  sim.schedule_at(TimePoint::origin() + 4_s, [&] {
    network.set_link_capacity(network.node_link(a, net::Direction::kTx),
                              Bandwidth::gbps(0.5));
  });
  sim.run_until(TimePoint::origin() + 4_s);
  const double before = monitor.estimate().bytes_per_second();
  EXPECT_NEAR(before, 125e6, 5e6);
  sim.run_until(TimePoint::origin() + 12_s);
  const double after = monitor.estimate().bytes_per_second();
  EXPECT_LT(after, 95e6);
  EXPECT_GT(after, 55e6);
  monitor.stop();
}

// --- plan construction & validation ---------------------------------------

TEST(DynamicsPlan, FluctuationIsSeededAndBounded) {
  const auto horizon = Duration::seconds(10);
  const auto a = net::DynamicsPlan::fluctuation(7, 0.4, 2_s, horizon, 3);
  const auto b = net::DynamicsPlan::fluctuation(7, 0.4, 2_s, horizon, 3);
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_EQ(a.events.size(), 5u * 3u);  // 5 periods x 3 workers
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].at.count_nanos(), b.events[i].at.count_nanos());
    EXPECT_DOUBLE_EQ(a.events[i].factor, b.events[i].factor);
    EXPECT_GE(a.events[i].factor, 0.6);
    EXPECT_LE(a.events[i].factor, 1.0);
  }
  const auto c = net::DynamicsPlan::fluctuation(8, 0.4, 2_s, horizon, 3);
  bool any_differs = false;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    any_differs = any_differs || a.events[i].factor != c.events[i].factor;
  }
  EXPECT_TRUE(any_differs);
  a.validate(3);
}

TEST(DynamicsPlan, SpecParsingRoundTrips) {
  std::string error;
  const auto fluct = net::DynamicsPlan::from_spec("fluctuate:0.3", 1, 4_s, 2, &error);
  ASSERT_TRUE(fluct.has_value()) << error;
  EXPECT_EQ(fluct->events.size(), 2u * 2u);  // periods at 2 s and 4 s, 2 workers

  const auto step = net::DynamicsPlan::from_spec("step:1.5:0.5:1", 1, 4_s, 2, &error);
  ASSERT_TRUE(step.has_value()) << error;
  ASSERT_EQ(step->events.size(), 1u);
  EXPECT_EQ(step->events[0].at.count_nanos(), Duration::from_seconds(1.5).count_nanos());
  EXPECT_DOUBLE_EQ(step->events[0].factor, 0.5);
  ASSERT_TRUE(step->events[0].worker.has_value());
  EXPECT_EQ(*step->events[0].worker, 1u);

  EXPECT_TRUE(net::DynamicsPlan::from_spec("none", 1, 4_s, 2, &error)->empty());
  EXPECT_FALSE(net::DynamicsPlan::from_spec("bogus:1", 1, 4_s, 2, &error).has_value());
  EXPECT_FALSE(error.empty());

  net::DynamicsPlan plan;
  EXPECT_TRUE(plan.add_outage_spec("2:0.5:1", &error));
  EXPECT_TRUE(plan.add_straggler_spec("0:1.5:3", &error));
  EXPECT_TRUE(plan.add_ps_degrade_spec("2.0:4", &error));
  EXPECT_FALSE(plan.add_outage_spec("nope", &error));
  // Non-finite numbers are malformed, not huge or undefined values.
  EXPECT_FALSE(plan.add_ps_degrade_spec("inf", &error));
  EXPECT_FALSE(plan.add_straggler_spec("0:nan", &error));
  EXPECT_FALSE(plan.add_outage_spec("nan:1", &error));
  EXPECT_FALSE(net::DynamicsPlan::from_spec("step:1:inf", 1, 4_s, 2, &error).has_value());
  plan.sort();
  plan.validate(2);
  EXPECT_EQ(plan.events.size(), 4u);

  // Times must be non-negative and fit Duration's int64 nanoseconds, and so
  // must a window's end: past ~9.2e9 s Duration::from_seconds is an undefined
  // cast, and `at + duration` would wrap.
  for (const char* spec : {"step:1e300:0.5", "step:-1:0.5", "fluctuate:0.3:1e300"}) {
    EXPECT_FALSE(net::DynamicsPlan::from_spec(spec, 1, 4_s, 2, &error).has_value())
        << spec;
  }
  net::DynamicsPlan bad;
  EXPECT_FALSE(bad.add_outage_spec("1e300:1", &error));
  EXPECT_EQ(error, "--outage wants T_S:DUR_S[:WORKER]");
  EXPECT_FALSE(bad.add_outage_spec("1:1e300", &error));
  EXPECT_FALSE(bad.add_outage_spec("9e9:9e9", &error));  // each fits; the end does not
  EXPECT_FALSE(bad.add_outage_spec("-1:1", &error));
  EXPECT_FALSE(bad.add_straggler_spec("0:1.5:1e300", &error));
  EXPECT_FALSE(bad.add_ps_degrade_spec("2:1e300", &error));
  EXPECT_FALSE(bad.add_worker_crash_spec("9e9:9e9:1", &error));
  EXPECT_FALSE(bad.add_ps_crash_spec("1e300:1", &error));
  EXPECT_FALSE(bad.add_ps_crash_spec("9e9:9e9:shard:0", &error));
  EXPECT_FALSE(bad.add_loss_spec("0.1:1e300", &error));
  EXPECT_TRUE(bad.empty());
}

TEST(DynamicsPlan, CrashSpecParsingAndErrorPaths) {
  std::string error;
  net::DynamicsPlan plan;
  EXPECT_TRUE(plan.add_worker_crash_spec("1.5:0.5:1", &error));
  EXPECT_TRUE(plan.add_ps_crash_spec("3:0.25", &error));
  EXPECT_TRUE(plan.add_loss_spec("0.05:2", &error));
  plan.sort();
  plan.validate(2);
  // crash + recover pairs plus the loss event.
  EXPECT_EQ(plan.events.size(), 5u);
  EXPECT_TRUE(plan.has_worker_crash());
  EXPECT_TRUE(plan.has_ps_crash());
  EXPECT_TRUE(plan.has_loss());

  net::DynamicsPlan bad;
  // Missing worker index, zero downtime, negative time, junk.
  EXPECT_FALSE(bad.add_worker_crash_spec("1.5:0.5", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(bad.add_worker_crash_spec("1.5:0:1", &error));
  EXPECT_FALSE(bad.add_worker_crash_spec("-1:0.5:1", &error));
  EXPECT_FALSE(bad.add_ps_crash_spec("3", &error));
  EXPECT_FALSE(bad.add_ps_crash_spec("3:0", &error));
  EXPECT_FALSE(bad.add_loss_spec("1.0", &error));  // rate must stay below 1
  EXPECT_FALSE(bad.add_loss_spec("-0.1", &error));
  EXPECT_FALSE(bad.add_loss_spec("0.1:-2", &error));
  EXPECT_TRUE(bad.empty());
}

TEST(DynamicsPlan, TraceCsvRoundTripsFaultEvents) {
  const std::string path = ::testing::TempDir() + "/fault_trace.csv";
  {
    std::ofstream out{path};
    out << "time_s,event,target,value\n"
        << "# crash worker 1, then the PS\n"
        << "0.5,worker_crash,1,0\n"
        << "0.7,worker_recover,1,0\n"
        << "1.0,loss_rate,*,0.02\n"
        << "2.0,ps_crash,ps,0\n"
        << "2.5,ps_recover,ps,0\n";
  }
  std::string error;
  const auto plan = net::DynamicsPlan::from_trace_csv(path, &error);
  ASSERT_TRUE(plan.has_value()) << error;
  ASSERT_EQ(plan->events.size(), 5u);
  plan->validate(2);
  EXPECT_EQ(plan->events[0].type, net::DynamicsEvent::Type::kWorkerCrash);
  ASSERT_TRUE(plan->events[0].worker.has_value());
  EXPECT_EQ(*plan->events[0].worker, 1u);
  EXPECT_EQ(plan->events[2].type, net::DynamicsEvent::Type::kLossRate);
  EXPECT_DOUBLE_EQ(plan->events[2].factor, 0.02);
  EXPECT_TRUE(plan->events[3].target_ps);
}

TEST(DynamicsPlan, TraceCsvErrorPaths) {
  std::string error;
  EXPECT_FALSE(
      net::DynamicsPlan::from_trace_csv("/no/such/trace.csv", &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);

  const std::string path = ::testing::TempDir() + "/bad_trace.csv";
  auto write_and_parse = [&](const std::string& row) {
    std::ofstream out{path};
    out << "time_s,event,target,value\n" << row << "\n";
    out.close();
    error.clear();
    return net::DynamicsPlan::from_trace_csv(path, &error);
  };
  EXPECT_FALSE(write_and_parse("0.5,worker_crash,1").has_value());  // 3 fields
  EXPECT_NE(error.find("4 fields"), std::string::npos);
  EXPECT_FALSE(write_and_parse("-1,worker_crash,1,0").has_value());
  EXPECT_NE(error.find("bad time"), std::string::npos);
  EXPECT_FALSE(write_and_parse("0.5,melted,1,0").has_value());
  EXPECT_NE(error.find("unknown event"), std::string::npos);
  EXPECT_FALSE(write_and_parse("0.5,loss_rate,*,oops").has_value());
  EXPECT_NE(error.find("bad value"), std::string::npos);
  EXPECT_FALSE(write_and_parse("0.5,worker_crash,q,0").has_value());
  EXPECT_NE(error.find("bad target"), std::string::npos);
  // Non-finite times and values fail here, before Duration::from_seconds or
  // the run sees them.
  // So do times past Duration's int64 nanoseconds (~9.2e9 s).
  for (const char* row : {"nan,bandwidth_scale,*,0.5", "inf,bandwidth_scale,*,0.5",
                          "1e300,bandwidth_scale,*,0.5", "9.3e9,outage_start,*,0"}) {
    EXPECT_FALSE(write_and_parse(row).has_value()) << row;
    EXPECT_NE(error.find("bad time"), std::string::npos) << row;
  }
  for (const char* row : {"0.01,bandwidth_gbps,*,nan", "0,compute_scale,0,inf",
                          "0,ps_compute_scale,*,inf"}) {
    EXPECT_FALSE(write_and_parse(row).has_value()) << row;
    EXPECT_NE(error.find("bad value"), std::string::npos) << row;
  }
}

TEST(DynamicsPlanDeathTest, ValidateRejectsMalformedFaultPlans) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  {
    // Crashing a worker that is already down.
    net::DynamicsPlan plan;
    plan.worker_crash(1_s, 2_s, 0).worker_crash(1500_ms, 2_s, 0);
    plan.sort();
    EXPECT_DEATH(plan.validate(2), "already down");
  }
  {
    // Recover without a crash.
    net::DynamicsPlan plan;
    plan.worker_crash(1_s, 1_s, 0);
    plan.events.erase(plan.events.begin());  // keep only the recover
    EXPECT_DEATH(plan.validate(2), "matching");
  }
  {
    // Crash whose recover never comes.
    net::DynamicsPlan plan;
    plan.ps_crash(1_s, 1_s);
    plan.events.pop_back();
    EXPECT_DEATH(plan.validate(2), "without a matching recover");
  }
  {
    // A cluster-wide worker crash (no index) is not recoverable.
    net::DynamicsPlan plan;
    plan.worker_crash(1_s, 1_s, 0);
    plan.events[0].worker.reset();
    plan.events[1].worker.reset();
    EXPECT_DEATH(plan.validate(2), "concrete");
  }
  {
    // Loss probability of 1 can never deliver.
    net::DynamicsPlan plan;
    plan.loss_rate(1_s, 1.0);
    EXPECT_DEATH(plan.validate(2), "loss_rate");
  }
}

TEST(DynamicsPlanDeathTest, ValidateRejectsMalformedPlans) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  {
    net::DynamicsPlan plan;
    plan.straggler(1_s, 5, 1.5);
    EXPECT_DEATH(plan.validate(2), "worker index");
  }
  {
    net::DynamicsPlan plan;
    plan.bandwidth_scale(2_s, 0, 0.5).bandwidth_scale(1_s, 0, 2.0);
    EXPECT_DEATH(plan.validate(2), "time-sorted");
  }
  {
    net::DynamicsPlan plan;
    plan.bandwidth_scale(1_s, 0, -0.5);
    EXPECT_DEATH(plan.validate(2), "positive");
  }
  // Non-finite scale factors and rates, which the run would otherwise meet
  // mid-simulation.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  {
    net::DynamicsPlan plan;
    plan.ps_degrade(1_s, kInf);
    EXPECT_DEATH(plan.validate(2), "finite");
  }
  {
    net::DynamicsPlan plan;
    plan.straggler(1_s, 0, kInf);
    EXPECT_DEATH(plan.validate(2), "finite");
  }
  {
    net::DynamicsPlan plan;
    plan.bandwidth_scale(1_s, 0, kNan);
    EXPECT_DEATH(plan.validate(2), "finite");
  }
  {
    net::DynamicsPlan plan;
    net::DynamicsEvent ev;
    ev.at = 1_s;
    ev.type = net::DynamicsEvent::Type::kBandwidthSet;
    ev.bandwidth = Bandwidth::gbps(kNan);
    plan.events.push_back(ev);
    EXPECT_DEATH(plan.validate(2), "bandwidth_gbps");
  }
}

// An empty `link` means "not link-targeted", which would aim the event at
// every worker; the link builders refuse it, as from_trace_csv refuses a
// bare `link:` target.
TEST(DynamicsPlanDeathTest, EmptyLinkNameIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  net::DynamicsPlan plan;
  EXPECT_DEATH(plan.link_outage(100_ms, 300_ms, ""), "link_outage: empty link name");
  EXPECT_DEATH(plan.link_bandwidth_scale(Duration::zero(), "", 0.25),
               "link_bandwidth_scale: empty link name");
}

// A compute_scale row aimed at the PS tier carries no worker index, so
// applying it would slow every worker; validate() points to ps_compute_scale.
TEST(DynamicsPlanDeathTest, ComputeScaleAimedAtThePsIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = ::testing::TempDir() + "/ps_compute_scale_trace.csv";
  for (const char* target : {"ps", "shard:0"}) {
    SCOPED_TRACE(target);
    {
      std::ofstream out{path};
      out << "time_s,event,target,value\n"
          << "0,compute_scale," << target << ",3\n";
    }
    std::string error;
    const auto plan = net::DynamicsPlan::from_trace_csv(path, &error);
    ASSERT_TRUE(plan.has_value()) << error;
    EXPECT_DEATH(plan->validate(2), "compute_scale.*ps_compute_scale");
  }
}

TEST(ClusterConfigDeathTest, ValidateRejectsBadConfigs) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  {
    ps::ClusterConfig cfg;
    cfg.num_workers = 0;
    EXPECT_DEATH(cfg.validate(), "num_workers");
  }
  {
    ps::ClusterConfig cfg;
    cfg.topology.reset();
    EXPECT_DEATH(cfg.validate(), "ClusterConfig::topology");
  }
  {
    ps::ClusterConfig cfg;
    cfg.topology->worker_bandwidth = Bandwidth::zero();
    EXPECT_DEATH(cfg.validate(), "worker_bandwidth");
  }
  {
    ps::ClusterConfig cfg;
    cfg.topology->worker_bandwidth_override.assign(cfg.num_workers + 1,
                                                   Bandwidth::gbps(1));
    EXPECT_DEATH(cfg.validate(), "override");
  }
  {
    ps::ClusterConfig cfg;
    cfg.topology->ps_bandwidth =
        Bandwidth::gbps(std::numeric_limits<double>::quiet_NaN());
    EXPECT_DEATH(cfg.validate(), "ps_bandwidth");
  }
  {
    // num_workers + ps_shards wraps to 0 here; a star's capacity check must
    // not form that sum.
    ps::ClusterConfig cfg;
    cfg.num_workers = std::numeric_limits<std::size_t>::max();
    EXPECT_DEATH(cfg.validate(), "rack capacity cannot hold");
  }
}

// A Prophet run whose default window starts past its last iteration fails
// before the first event with a message naming both fields — not after
// simulating (here the horizon is also too short, which a run that got as
// far as the event loop would report instead).
TEST(ClusterConfigDeathTest, EmptyMeasureWindowFailsBeforeSimulating) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ps::ClusterConfig cfg;
  cfg.iterations = 10;
  cfg.strategy = ps::StrategyConfig::prophet();
  cfg.strategy.prophet_config.profile_iterations = 10;
  cfg.metrics_horizon = 1_s;
  const char* want = "iterations.*strategy\\.prophet_config\\.profile_iterations";
  EXPECT_DEATH((void)ps::run_cluster(cfg), want);
  EXPECT_DEATH((void)ar::run_allreduce(cfg), want);
  cluster::MultiJobConfig mcfg;
  mcfg.topology = net::TopologySpec::star(Bandwidth::gbps(10), Bandwidth::gbps(10));
  mcfg.jobs.push_back({cfg, "job0"});
  mcfg.horizon = 1_s;
  EXPECT_DEATH((void)cluster::run_multi_job(mcfg), want);
}

// --- strategy registry ----------------------------------------------------

TEST(StrategyRegistry, RoundTripsEveryKnownName) {
  for (const auto& name : ps::StrategyConfig::known_names()) {
    const auto strategy = ps::StrategyConfig::from_name(name);
    ASSERT_TRUE(strategy.has_value()) << name;
    const auto again = ps::StrategyConfig::from_name(strategy->name());
    ASSERT_TRUE(again.has_value()) << strategy->name();
    EXPECT_EQ(again->kind, strategy->kind) << name;
    EXPECT_FALSE(ps::StrategyConfig::display_label(name).empty());
  }
}

TEST(StrategyRegistry, AcceptsHistoricalAliasAndRejectsUnknown) {
  const auto fifo = ps::StrategyConfig::from_name("mxnet-fifo");
  ASSERT_TRUE(fifo.has_value());
  EXPECT_EQ(fifo->kind, ps::StrategyConfig::Kind::kFifo);
  EXPECT_EQ(fifo->name(), "mxnet-fifo");
  EXPECT_FALSE(ps::StrategyConfig::from_name("definitely-not-a-strategy").has_value());
}

TEST(StrategyRegistry, AutotuneSpellingSelectsAutotune) {
  const auto bs = ps::StrategyConfig::from_name("bytescheduler-autotune");
  ASSERT_TRUE(bs.has_value());
  EXPECT_EQ(bs->kind, ps::StrategyConfig::Kind::kByteScheduler);
  EXPECT_TRUE(bs->bytescheduler_config.autotune);
}

// --- full-cluster behavior under dynamics ---------------------------------

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

// run_cluster's event loop with one probe: whether the link named `link` is
// up `at` into the run (run_cluster does not expose its fabric mid-run).
bool link_up_at(const ps::ClusterConfig& cfg, const std::string& link, Duration at) {
  sim::Simulator sim;
  net::FlowNetwork network{sim, net::TcpCostModel{cfg.tcp}};
  net::BuiltTopology topology{network, *cfg.topology};
  std::vector<std::unique_ptr<ps::JobRuntime>> jobs;
  jobs.push_back(std::make_unique<ps::JobRuntime>(sim, network, topology, cfg));
  const net::LinkId id = network.find_link(link).value();
  bool up = true;
  sim.schedule_at(TimePoint::origin() + at, [&] { up = network.link_state(id); });
  ps::run_jobs(sim, jobs, cfg.metrics_horizon);
  return up;
}

TEST(ClusterDynamics, SameSeedSamePlanIsBitDeterministic) {
  auto cfg = small_config(ps::StrategyConfig::prophet());
  cfg.dynamics = net::DynamicsPlan::fluctuation(11, 0.5, 100_ms,
                                                Duration::seconds(30), 2);
  const auto a = run_cluster(cfg, 6);
  const auto b = run_cluster(cfg, 6);
  EXPECT_EQ(a.simulated_time.count_nanos(), b.simulated_time.count_nanos());
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_DOUBLE_EQ(a.mean_rate(), b.mean_rate());
}

TEST(ClusterDynamics, OutageSlowsTraining) {
  auto cfg = small_config(ps::StrategyConfig::bytescheduler());
  const auto baseline = run_cluster(cfg, 6);
  // A 300 ms all-worker blackout early in the run: training stalls for its
  // duration and finishes correspondingly later.
  cfg.dynamics.outage(100_ms, 300_ms, std::nullopt);
  const auto faulted = run_cluster(cfg, 6);
  EXPECT_GE(faulted.simulated_time.count_nanos(),
            baseline.simulated_time.count_nanos() +
                Duration{250_ms}.count_nanos());
  for (const auto& w : faulted.workers) {
    EXPECT_EQ(w.iterations_completed, 12u);  // nothing was lost, only delayed
  }
}

TEST(ClusterDynamics, StragglerSlowsTheWholeBspCluster) {
  auto cfg = small_config(ps::StrategyConfig::bytescheduler());
  const auto baseline = run_cluster(cfg, 6);
  cfg.dynamics.straggler(Duration::zero(), 0, 2.0);
  const auto straggled = run_cluster(cfg, 6);
  // BSP: one 2x-slower worker drags every worker's rate down.
  EXPECT_LT(straggled.mean_rate(), 0.8 * baseline.mean_rate());
}

TEST(ClusterDynamics, BandwidthDriftTriggersProphetReplan) {
  auto cfg = small_config(ps::StrategyConfig::prophet());
  cfg.iterations = 24;
  cfg.monitor.sample_period = 20_ms;
  // Quarter every worker NIC after profiling has finished; the monitored
  // bandwidth drifts far past the 10% re-plan threshold.
  cfg.dynamics.bandwidth_scale(150_ms, std::nullopt, 0.25);
  const auto result = run_cluster(cfg, 6);
  std::size_t replans = 0;
  for (const auto& w : result.workers) replans += w.prophet_replans;
  EXPECT_GE(replans, 1u);
}

TEST(ClusterDynamics, StaticNetworkYieldsNoReplans) {
  auto cfg = small_config(ps::StrategyConfig::prophet());
  const auto result = run_cluster(cfg, 6);
  for (const auto& w : result.workers) EXPECT_EQ(w.prophet_replans, 0u);
}

// A worker or PS index and the `link:` name of the same host reach the same
// links in the same order ({tx, rx}, flipped in one rebalance), so the two
// spellings replay identically.
TEST(ClusterDynamics, LinkNameAndIndexTargetsAgree) {
  const std::string path = ::testing::TempDir() + "/link_outage_trace.csv";
  {
    std::ofstream out{path};
    out << "time_s,event,target,value\n"
        << "0.1,outage_start,link:worker1,0\n"
        << "0.4,outage_end,link:worker1,0\n";
  }
  std::string error;
  const auto outage_by_name = net::DynamicsPlan::from_trace_csv(path, &error);
  ASSERT_TRUE(outage_by_name.has_value()) << error;

  struct Spellings {
    net::DynamicsPlan by_index;
    net::DynamicsPlan by_name;
  };
  std::vector<Spellings> pairs(3);
  pairs[0].by_index.outage(100_ms, 300_ms, 1);
  pairs[0].by_name = *outage_by_name;
  pairs[1].by_index.bandwidth_scale(100_ms, 1, 0.5);
  pairs[1].by_name.link_bandwidth_scale(100_ms, "worker1", 0.5);
  pairs[2].by_index.ps_outage(100_ms, 300_ms);
  pairs[2].by_name.link_outage(100_ms, 300_ms, "ps");

  for (const auto& strategy :
       {ps::StrategyConfig::fifo(), ps::StrategyConfig::bytescheduler(),
        ps::StrategyConfig::prophet()}) {
    const auto baseline = run_cluster(small_config(strategy), 6);
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      SCOPED_TRACE(strategy.name() + " pair " + std::to_string(p));
      auto index_cfg = small_config(strategy);
      index_cfg.dynamics = pairs[p].by_index;
      auto name_cfg = small_config(strategy);
      name_cfg.dynamics = pairs[p].by_name;
      const auto by_index = run_cluster(index_cfg, 6);
      const auto by_name = run_cluster(name_cfg, 6);
      EXPECT_EQ(by_index.simulated_time.count_nanos(),
                by_name.simulated_time.count_nanos());
      EXPECT_EQ(by_index.events_fired, by_name.events_fired);
      EXPECT_DOUBLE_EQ(by_index.mean_rate(), by_name.mean_rate());
      // The event reached the fabric at all.
      EXPECT_NE(by_index.simulated_time.count_nanos(),
                baseline.simulated_time.count_nanos());
    }
  }
}

// validate() books every ps_crash/ps_recover against the PS whatever its
// target, so a trace row targeting `*` or a worker index must crash the
// server and take the PS host's links down, exactly as the builder does.
TEST(ClusterDynamics, PsFaultTargetsAlwaysReachThePsTier) {
  auto cfg = small_config(ps::StrategyConfig::bytescheduler());
  cfg.checkpoint_period = 50_ms;
  auto built_cfg = cfg;
  built_cfg.dynamics.ps_crash(120_ms, 80_ms);
  const auto built = run_cluster(built_cfg, 6);
  for (const auto& [crash_target, recover_target] :
       {std::pair{"*", "*"}, std::pair{"*", "ps"}, std::pair{"1", "ps"}}) {
    SCOPED_TRACE(std::string{crash_target} + " / " + recover_target);
    const std::string path = ::testing::TempDir() + "/ps_fault_trace.csv";
    {
      std::ofstream out{path};
      out << "time_s,event,target,value\n"
          << "0.12,ps_crash," << crash_target << ",0\n"
          << "0.2,ps_recover," << recover_target << ",0\n";
    }
    std::string error;
    auto plan = net::DynamicsPlan::from_trace_csv(path, &error);
    ASSERT_TRUE(plan.has_value()) << error;
    auto trace_cfg = cfg;
    trace_cfg.dynamics = *plan;
    const auto traced = run_cluster(trace_cfg, 6);
    EXPECT_EQ(traced.simulated_time.count_nanos(),
              built.simulated_time.count_nanos());
    EXPECT_EQ(traced.events_fired, built.events_fired);
    EXPECT_DOUBLE_EQ(traced.mean_rate(), built.mean_rate());
  }
}

TEST(ClusterDynamics, RackOutageStallsCrossRackTraffic) {
  auto cfg = small_config(ps::StrategyConfig::bytescheduler());
  cfg.num_workers = 4;
  cfg.topology = net::TopologySpec::leaf_spine(2, 3, Bandwidth::gbps(1), 2.0);
  const auto baseline = run_cluster(cfg, 6);
  // The PS and workers 0-1 sit in rack0, workers 2-3 in rack1: taking both
  // rack0 spine links down cuts rack1 off the PS, and BSP stalls everyone.
  cfg.dynamics.link_outage(150_ms, 200_ms, "rack0");
  const auto faulted = run_cluster(cfg, 6);
  EXPECT_GT(faulted.simulated_time.count_nanos(),
            baseline.simulated_time.count_nanos());
  for (const auto& w : faulted.workers) EXPECT_EQ(w.iterations_completed, 12u);
}

// A PS crash inside a PS outage takes a second down-hold on the PS links, so
// its recovery cannot end the outage early.
TEST(ClusterDynamics, PsOutageHoldsThroughPsCrash) {
  auto cfg = small_config(ps::StrategyConfig::fifo());
  cfg.iterations = 14;
  cfg.seed = 1;
  cfg.checkpoint_period = 50_ms;
  auto outage_only = cfg;
  outage_only.dynamics.ps_outage(100_ms, 400_ms);
  cfg.dynamics = outage_only.dynamics;
  cfg.dynamics.ps_crash(200_ms, 50_ms);
  cfg.dynamics.sort();
  EXPECT_FALSE(link_up_at(cfg, "ps.rx", 300_ms));
  const auto alone = run_cluster(outage_only, 6);
  const auto crashed = run_cluster(cfg, 6);
  EXPECT_GE(crashed.simulated_time.count_nanos(), alone.simulated_time.count_nanos());
  for (const auto& w : crashed.workers) EXPECT_EQ(w.iterations_completed, 14u);
}

// Windows under different spellings may overlap on the same links. Each is
// one down-hold, so the run replays a plan of the union windows; a window
// inside another changes nothing but fires its own two events.
TEST(ClusterDynamics, OverlappingOutagesCompose) {
  struct Case {
    net::DynamicsPlan overlapping;
    net::DynamicsPlan unioned;
    std::uint64_t extra_events;
  };
  std::vector<Case> cases(2);
  // `*` [100, 300) and `1` [200, 500): worker 1 is down [100, 500).
  cases[0].overlapping.outage(100_ms, 200_ms, std::nullopt).outage(200_ms, 300_ms, 1);
  cases[0].unioned.outage(100_ms, 200_ms, 0).outage(100_ms, 400_ms, 1);
  cases[0].extra_events = 0;
  // `1` [100, 500) and `link:worker1` [150, 250), the same {tx, rx} links.
  cases[1].overlapping.outage(100_ms, 400_ms, 1).link_outage(150_ms, 100_ms, "worker1");
  cases[1].unioned.outage(100_ms, 400_ms, 1);
  cases[1].extra_events = 2;

  for (const auto& strategy :
       {ps::StrategyConfig::fifo(), ps::StrategyConfig::bytescheduler(),
        ps::StrategyConfig::prophet()}) {
    for (std::size_t c = 0; c < cases.size(); ++c) {
      SCOPED_TRACE(strategy.name() + " case " + std::to_string(c));
      auto overlapping = small_config(strategy);
      overlapping.dynamics = cases[c].overlapping;
      overlapping.dynamics.sort();
      auto unioned = small_config(strategy);
      unioned.dynamics = cases[c].unioned;
      unioned.dynamics.sort();
      const auto got = run_cluster(overlapping, 6);
      const auto want = run_cluster(unioned, 6);
      EXPECT_EQ(got.simulated_time.count_nanos(), want.simulated_time.count_nanos());
      EXPECT_DOUBLE_EQ(got.mean_rate(), want.mean_rate());
      EXPECT_EQ(got.events_fired, want.events_fired + cases[c].extra_events);
    }
  }
}

// validate() pairs outages per target as a trace CSV spells it, so a second
// window opened under the spelling of one still open fails before anything
// is built, naming the target and the time.
TEST(ClusterDynamicsDeathTest, OverlappingOutagesOnOneLinkFailBeforeSimulating) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  {
    auto cfg = small_config(ps::StrategyConfig::fifo());
    cfg.dynamics.outage(100_ms, 200_ms, std::nullopt)
        .outage(200_ms, 300_ms, std::nullopt);
    cfg.dynamics.sort();
    EXPECT_DEATH((void)run_cluster(cfg, 6),
                 "outage_start on target '\\*' at 200\\.000 ms while its outage "
                 "from 100\\.000 ms is open");
  }
  {
    auto cfg = small_config(ps::StrategyConfig::fifo());
    cfg.dynamics.outage(100_ms, 400_ms, 1).outage(150_ms, 100_ms, 1);
    cfg.dynamics.sort();
    EXPECT_DEATH((void)run_cluster(cfg, 6),
                 "outage_start on target '1' at 150\\.000 ms while its outage "
                 "from 100\\.000 ms is open");
  }
  {
    auto cfg = small_config(ps::StrategyConfig::fifo());
    cfg.dynamics.link_outage(100_ms, 400_ms, "worker1")
        .link_outage(150_ms, 100_ms, "worker1");
    cfg.dynamics.sort();
    EXPECT_DEATH((void)run_cluster(cfg, 6),
                 "outage_start on target 'link:worker1' at 150\\.000 ms");
  }
}

TEST(ClusterDynamicsDeathTest, UnpairedOutagesFailBeforeSimulating) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  {
    auto cfg = small_config(ps::StrategyConfig::fifo());
    cfg.dynamics.outage(1_s, 1_s, 0);
    cfg.dynamics.events.pop_back();  // strip the matching outage_end
    EXPECT_DEATH((void)run_cluster(cfg, 6),
                 "outage_start on target '0' at 1\\.000 s without a matching outage_end");
  }
  {
    auto cfg = small_config(ps::StrategyConfig::fifo());
    cfg.dynamics.outage(1_s, 1_s, 0);
    cfg.dynamics.events.erase(cfg.dynamics.events.begin());  // keep only the end
    EXPECT_DEATH((void)run_cluster(cfg, 6),
                 "outage_end on target '0' at 2\\.000 s with no open outage");
  }
  {
    // Ended under another spelling of the same links: `*` opens the window,
    // so `1` has none to close.
    auto cfg = small_config(ps::StrategyConfig::fifo());
    cfg.dynamics.outage(100_ms, 200_ms, std::nullopt);
    cfg.dynamics.events.back().worker = 1;
    EXPECT_DEATH((void)run_cluster(cfg, 6),
                 "outage_end on target '1' at 300\\.000 ms with no open outage");
  }
}

TEST(ClusterDynamicsDeathTest, UnknownLinkNameFailsBeforeSimulating) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto cfg = small_config(ps::StrategyConfig::fifo());
  // Far past the end of training: the name must be rejected when the plan
  // is armed, not when the event would fire.
  cfg.dynamics.link_outage(10_s, 1_s, "rack9.up");
  EXPECT_DEATH((void)run_cluster(cfg, 6), "rack9\\.up");
}

}  // namespace
}  // namespace prophet
