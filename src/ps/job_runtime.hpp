// One training job wired into a (possibly shared) simulator and network:
// the PS, its workers, the BSP auditor and the armed dynamics plan, so
// several jobs can coexist in one event loop on one fabric.
//
// Lifecycle (run_jobs below owns the event loop):
//   construct      — places hosts on the topology, builds server/workers;
//   start()        — kicks off iteration 0 (immediately, or at the
//                    scheduler-chosen start offset) and arms dynamics;
//   ... sim steps ...
//   when done(): recover_crashed(); disarm_faults(); finish_training(now);
//   ... drain ...  finish_audit(); collect(...) — once.
//
// The measurement window [measure_first, iterations) is fixed at
// construction: workers stream their push summaries over it while the job
// runs, so collect() reports that window and no other.
//
// collect() hands the job's logs and series over to the result by moving
// them, so it is single-use: it first detaches the job's throughput trackers
// from the (possibly shared) network, so no tracker pointer outlives the
// series it names, and a second call aborts.
//
// A zero-offset start() calls Worker::start directly (no extra scheduled
// event), so a single job with default JobOptions fires exactly the events
// of a plain step-until-done loop.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "audit/bsp_auditor.hpp"
#include "common/rng.hpp"
#include "common/time_series.hpp"
#include "dnn/iteration_model.hpp"
#include "net/flow_network.hpp"
#include "net/topology.hpp"
#include "ps/cluster.hpp"
#include "ps/config.hpp"
#include "ps/server.hpp"
#include "ps/worker.hpp"
#include "sim/simulator.hpp"

namespace prophet::ps {

// Per-job placement and pacing decisions, made by the cluster scheduler, and
// the job's measurement window.
struct JobOptions {
  // Prepended to node names so jobs sharing one network stay distinguishable
  // ("job0." -> "job0.ps", "job0.worker1").
  std::string name_prefix;
  // Delay before iteration 0 (CASSINI-style communication-phase
  // interleaving staggers jobs sharing an oversubscribed uplink).
  Duration start_offset{};
  // Leaf-spine placement: rack index for the PS / each worker. Unset entries
  // fall back to sequential first-fit; ignored on a star.
  std::optional<std::size_t> ps_rack;
  std::vector<std::size_t> worker_racks;
  // First iteration of the measurement window; unset takes
  // ClusterConfig::default_measure_first(), which aborts on an empty window
  // before anything is built.
  std::optional<std::size_t> measure_first;
};

class JobRuntime {
 public:
  JobRuntime(sim::Simulator& sim, net::FlowNetwork& network,
             net::BuiltTopology& topology, ClusterConfig config,
             JobOptions options = {});
  // Scheduled dynamics callbacks capture `this`.
  JobRuntime(const JobRuntime&) = delete;
  JobRuntime& operator=(const JobRuntime&) = delete;

  // Starts every worker (synchronously for a zero offset) and arms the
  // job's dynamics plan, offset along with the job.
  void start();

  // Every worker crossed its final iteration boundary (residual pulls may
  // still be in flight).
  [[nodiscard]] bool done() const;

  // Training can finish while an already-done worker is still down (its
  // recover event lands past the finish line, where it will be dropped);
  // brings it back so the audit sees a whole cluster.
  void recover_crashed();
  // Stops crash/recovery/loss events of a plan that extends past the finish
  // line from perturbing drained state.
  void disarm_faults() { faults_live_ = false; }
  // Records the training span ending at `now` and closes worker metrics.
  void finish_training(TimePoint now);
  // Final BSP audit over the full run; call after the network drained.
  void finish_audit();

  [[nodiscard]] TimePoint start_time() const {
    return TimePoint::origin() + options_.start_offset;
  }
  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  // First PS host (the whole tier when ps_shards == 1).
  [[nodiscard]] net::NodeId ps_node() const { return ps_nodes_.front(); }
  // One host per PS shard (ps_nodes()[s] serves shard s).
  [[nodiscard]] const std::vector<net::NodeId>& ps_nodes() const {
    return ps_nodes_;
  }
  [[nodiscard]] const std::vector<net::NodeId>& worker_nodes() const {
    return worker_nodes_;
  }

  // Gathers per-worker results over the job's window [measure_first,
  // iterations). An engaged `measure_first` must name that window (aborts
  // otherwise). `events_fired` is the simulator-wide count (jobs sharing a
  // loop share it). Single use: moves the transfer logs, GPU and throughput
  // series into the result.
  [[nodiscard]] ClusterResult collect(std::optional<std::size_t> measure_first,
                                      std::uint64_t events_fired);

 private:
  // A dynamics event's link targets: one group per host it names ({tx, rx})
  // or the links a `link:` name resolves to. An outage or PS fault takes or
  // releases one down-hold on each group's links in one set_link_state call.
  using LinkGroups = std::vector<std::vector<net::LinkId>>;
  // The capacity a bandwidth event gives each of its links, in group order.
  using LinkCaps = std::vector<std::pair<net::LinkId, Bandwidth>>;

  // Resolves a bandwidth, outage or PS-fault event's target (empty for every
  // other event type); aborts, naming the link, on an unknown `link:` name.
  [[nodiscard]] LinkGroups target_links(const net::DynamicsEvent& ev) const;
  void apply_event(const net::DynamicsEvent& ev, const LinkGroups& groups,
                   const LinkCaps& caps);

  sim::Simulator& sim_;
  net::FlowNetwork& network_;
  ClusterConfig config_;
  JobOptions options_;
  std::size_t measure_first_;
  net::TcpCostModel cost_;
  std::vector<net::NodeId> ps_nodes_;
  std::vector<net::NodeId> worker_nodes_;
  std::vector<BinnedSeries> tx_series_;
  std::vector<BinnedSeries> rx_series_;
  std::unique_ptr<dnn::IterationModel> iteration_model_;
  std::unique_ptr<audit::BspAuditor> auditor_;
  std::unique_ptr<Server> server_;
  std::vector<std::unique_ptr<Worker>> workers_;
  bool faults_live_ = true;
  bool collected_ = false;
  Duration training_span_{};
};

// The one event loop behind run_cluster and cluster::run_multi_job: starts
// each job, steps `sim` until all of them crossed their final
// iteration, bounded by `horizon` from the origin, and finalizes each job
// the moment it is done while the others keep running. Then drains residual
// traffic up to the horizon and runs every job's final audit. Returns each
// job's finish time from the origin; aborts if a job misses the horizon.
std::vector<Duration> run_jobs(sim::Simulator& sim,
                               const std::vector<std::unique_ptr<JobRuntime>>& jobs,
                               Duration horizon);

}  // namespace prophet::ps
