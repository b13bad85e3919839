// Cluster scheduler (placement + interleaving) and the multi-job driver:
// policy unit tests on synthetic fabrics, plus end-to-end determinism and
// locality checks for two jobs sharing one simulator event loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "cluster/multi_job.hpp"
#include "cluster/scheduler.hpp"
#include "dnn/model_zoo.hpp"
#include "net/flow_network.hpp"
#include "net/topology.hpp"
#include "ps/config.hpp"
#include "ps/job_runtime.hpp"
#include "sim/simulator.hpp"

namespace prophet::cluster {
namespace {

JobSpec small_job(std::size_t workers, unsigned seed) {
  JobSpec job;
  job.config.model = dnn::resnet50();
  job.config.batch = 64;
  job.config.num_workers = workers;
  job.config.iterations = 8;
  job.config.seed = seed;
  job.config.strategy = ps::StrategyConfig::fifo();
  return job;
}

MultiJobConfig two_job_config(PlacementPolicy placement,
                              InterleavePolicy interleave) {
  MultiJobConfig cfg;
  // 3 Gbps hosts keep ResNet-50 comm-bound so the spine actually matters.
  cfg.topology = net::TopologySpec::leaf_spine(2, 4, Bandwidth::gbps(3), 4.0);
  cfg.placement = placement;
  cfg.interleave = interleave;
  cfg.jobs.push_back(small_job(3, 42));
  cfg.jobs.push_back(small_job(3, 43));
  return cfg;
}

TEST(PolicyNames, RoundTrip) {
  EXPECT_STREQ(placement_name(PlacementPolicy::kNetworkAware), "network-aware");
  EXPECT_STREQ(interleave_name(InterleavePolicy::kCassini), "cassini");
  EXPECT_EQ(placement_from_name("fifo-stripe"), PlacementPolicy::kFifoStripe);
  EXPECT_EQ(interleave_from_name("none"), InterleavePolicy::kNone);
  EXPECT_FALSE(placement_from_name("bogus").has_value());
  EXPECT_FALSE(interleave_from_name("bogus").has_value());
}

TEST(Placement, NetworkAwarePacksEachJobIntoOneRack) {
  const auto topo = net::TopologySpec::leaf_spine(2, 4, Bandwidth::gbps(10), 4.0);
  const std::vector<JobSpec> jobs = {small_job(3, 1), small_job(3, 2)};
  const auto placements = place_jobs(topo, jobs, PlacementPolicy::kNetworkAware);
  ASSERT_EQ(placements.size(), 2u);
  for (const Placement& p : placements) {
    EXPECT_EQ(p.cross_rack_workers(), 0u);
  }
  // Each job (PS + 3 workers = 4 hosts) fills one rack; the jobs must land
  // in different racks.
  EXPECT_NE(placements[0].ps_rack, placements[1].ps_rack);
}

TEST(Placement, FifoStripeSpreadsWorkersAcrossRacks) {
  const auto topo = net::TopologySpec::leaf_spine(2, 4, Bandwidth::gbps(10), 4.0);
  const std::vector<JobSpec> jobs = {small_job(3, 1), small_job(3, 2)};
  const auto placements = place_jobs(topo, jobs, PlacementPolicy::kFifoStripe);
  ASSERT_EQ(placements.size(), 2u);
  EXPECT_GT(placements[0].cross_rack_workers(), 0u);
}

TEST(Placement, StarFabricYieldsEmptyPlacements) {
  const auto topo =
      net::TopologySpec::star(Bandwidth::gbps(10), Bandwidth::gbps(10));
  const std::vector<JobSpec> jobs = {small_job(3, 1)};
  const auto placements = place_jobs(topo, jobs, PlacementPolicy::kNetworkAware);
  ASSERT_EQ(placements.size(), 1u);
  EXPECT_FALSE(placements[0].ps_rack.has_value());
  EXPECT_TRUE(placements[0].worker_racks.empty());
}

TEST(Placement, AbortsWhenJobsExceedFabricCapacity) {
  const auto topo = net::TopologySpec::leaf_spine(1, 4, Bandwidth::gbps(10), 4.0);
  const std::vector<JobSpec> jobs = {small_job(3, 1), small_job(3, 2)};
  EXPECT_DEATH(place_jobs(topo, jobs, PlacementPolicy::kNetworkAware),
               "more hosts than the fabric");
}

TEST(Interleave, CassiniStaggersOnlySpineSharingJobs) {
  const auto topo = net::TopologySpec::leaf_spine(2, 4, Bandwidth::gbps(10), 4.0);
  const std::vector<JobSpec> jobs = {small_job(3, 1), small_job(3, 2)};
  // FIFO striping round-robins each job's 4 hosts over both racks, so both
  // jobs put gradient traffic on the spine and both are interleave inputs.
  const auto placements = place_jobs(topo, jobs, PlacementPolicy::kFifoStripe);
  const auto offsets =
      interleave_offsets(topo, jobs, placements, InterleavePolicy::kCassini);
  ASSERT_EQ(offsets.size(), 2u);
  EXPECT_EQ(offsets[0].count_nanos(), 0);
  EXPECT_GT(offsets[1].count_nanos(), 0);

  const auto none =
      interleave_offsets(topo, jobs, placements, InterleavePolicy::kNone);
  EXPECT_EQ(none[0].count_nanos(), 0);
  EXPECT_EQ(none[1].count_nanos(), 0);
}

TEST(PhaseEstimation, CrossRackJobPredictsSpineTraffic) {
  const auto topo = net::TopologySpec::leaf_spine(2, 2, Bandwidth::gbps(10), 4.0);
  const std::vector<JobSpec> jobs = {small_job(3, 1)};
  const auto placements = place_jobs(topo, jobs, PlacementPolicy::kFifoStripe);
  const PhaseEstimate est = estimate_phases(topo, jobs[0].config, placements[0]);
  EXPECT_GT(est.compute.count_nanos(), 0);
  EXPECT_GT(est.comm.count_nanos(), 0);
  EXPECT_EQ(est.period.count_nanos(),
            est.compute.count_nanos() + est.comm.count_nanos());
  EXPECT_GT(est.spine_bytes_per_iter, 0);
}

TEST(MultiJob, SameConfigIsBitwiseDeterministic) {
  const auto cfg = two_job_config(PlacementPolicy::kNetworkAware,
                                  InterleavePolicy::kCassini);
  const MultiJobResult a = run_multi_job(cfg);
  const MultiJobResult b = run_multi_job(cfg);
  EXPECT_EQ(a.makespan.count_nanos(), b.makespan.count_nanos());
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.spine_bytes, b.spine_bytes);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    EXPECT_EQ(a.jobs[j].finish_time.count_nanos(),
              b.jobs[j].finish_time.count_nanos());
  }
}

TEST(MultiJob, PackedPlacementTakesTrafficOffTheSpine) {
  const MultiJobResult packed = run_multi_job(two_job_config(
      PlacementPolicy::kNetworkAware, InterleavePolicy::kNone));
  const MultiJobResult striped = run_multi_job(two_job_config(
      PlacementPolicy::kFifoStripe, InterleavePolicy::kNone));
  // Each 4-host job fits a rack exactly: packing leaves the spine silent,
  // striping pushes gradient bytes through it and pays on makespan.
  EXPECT_EQ(packed.spine_bytes, 0);
  EXPECT_GT(striped.spine_bytes, 0);
  EXPECT_LT(packed.makespan.count_nanos(), striped.makespan.count_nanos());
}

TEST(MultiJob, OutcomesCarryPlacementAndOffsets) {
  const MultiJobResult result = run_multi_job(two_job_config(
      PlacementPolicy::kNetworkAware, InterleavePolicy::kCassini));
  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_EQ(result.jobs[0].name, "job0");
  EXPECT_EQ(result.jobs[1].name, "job1");
  for (const JobOutcome& job : result.jobs) {
    ASSERT_EQ(job.placement.worker_racks.size(), 3u);
    EXPECT_GE(job.finish_time.count_nanos(), job.start_offset.count_nanos());
    EXPECT_GT(job.result.events_fired, 0u);
  }
}

// Two 1-worker toy jobs striped over an oversubscribed spine, so both cross
// rack0.up; each job's plan takes its own `link:rack0.up` outage.
MultiJobConfig shared_uplink_config(const net::DynamicsPlan& job0,
                                    const net::DynamicsPlan& job1) {
  MultiJobConfig cfg;
  cfg.topology = net::TopologySpec::leaf_spine(2, 2, Bandwidth::gbps(1), 4.0);
  cfg.placement = PlacementPolicy::kFifoStripe;
  cfg.interleave = InterleavePolicy::kNone;
  for (const net::DynamicsPlan* plan : {&job0, &job1}) {
    JobSpec job;
    job.config.model = dnn::toy_cnn();
    job.config.num_workers = 1;
    job.config.batch = 32;
    job.config.iterations = 14;
    job.config.seed = 1 + cfg.jobs.size();
    job.config.strategy = ps::StrategyConfig::fifo();
    job.config.dynamics = *plan;
    cfg.jobs.push_back(std::move(job));
  }
  return cfg;
}

// run_multi_job's setup and event loop with one probe: whether `link` is up
// `at` into the run. Returns the makespan, which must match run_multi_job's.
Duration run_probing(const MultiJobConfig& cfg, const std::string& link,
                     Duration at, bool* up) {
  sim::Simulator sim;
  net::FlowNetwork network{sim, net::TcpCostModel{cfg.jobs.front().config.tcp}};
  net::BuiltTopology topology{network, cfg.topology};
  const auto placements = place_jobs(cfg.topology, cfg.jobs, cfg.placement);
  std::vector<std::unique_ptr<ps::JobRuntime>> jobs;
  for (std::size_t j = 0; j < cfg.jobs.size(); ++j) {
    ps::ClusterConfig job = cfg.jobs[j].config;
    job.topology = cfg.topology;
    ps::JobOptions opts;
    opts.name_prefix = "job" + std::to_string(j) + ".";
    opts.ps_rack = placements[j].ps_rack;
    opts.worker_racks = placements[j].worker_racks;
    jobs.push_back(std::make_unique<ps::JobRuntime>(sim, network, topology,
                                                    std::move(job), std::move(opts)));
  }
  const net::LinkId id = network.find_link(link).value();
  sim.schedule_at(TimePoint::origin() + at, [&] { *up = network.link_state(id); });
  const auto finish = ps::run_jobs(sim, jobs, cfg.horizon);
  return *std::max_element(finish.begin(), finish.end());
}

// Jobs sharing a fabric each take one down-hold per outage window, so two
// jobs' overlapping outages on one uplink keep it down until the later end.
TEST(MultiJob, SharedLinkOutagesCompose) {
  net::DynamicsPlan job0;
  job0.link_outage(Duration::millis(100), Duration::millis(300), "rack0.up");
  net::DynamicsPlan job1;
  job1.link_outage(Duration::millis(200), Duration::millis(300), "rack0.up");
  const MultiJobConfig both = shared_uplink_config(job0, job1);

  bool up = true;
  const Duration makespan = run_probing(both, "rack0.up", Duration::millis(450), &up);
  EXPECT_FALSE(up);
  const MultiJobResult result = run_multi_job(both);
  EXPECT_EQ(result.makespan.count_nanos(), makespan.count_nanos());
  EXPECT_GT(result.spine_bytes, 0);

  const MultiJobResult later_alone =
      run_multi_job(shared_uplink_config(net::DynamicsPlan{}, job1));
  EXPECT_GT(result.makespan.count_nanos(), later_alone.makespan.count_nanos());
}

}  // namespace
}  // namespace prophet::cluster
