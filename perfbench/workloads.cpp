// Workload definitions and the untraced cell runner. Why each workload
// exists, and which layer metrics it is meant to move, is in README.md.
#include <algorithm>
#include <thread>

#include "allreduce/cluster.hpp"
#include "cluster/multi_job.hpp"
#include "dnn/model_zoo.hpp"
#include "net/dynamics.hpp"
#include "perfbench.hpp"
#include "ps/cluster.hpp"
#include "ps/strategy.hpp"

namespace perfbench {

using prophet::Bandwidth;
using prophet::Duration;
namespace cl = prophet::cluster;
namespace dnn = prophet::dnn;

namespace {

// The paper's four contenders (ByteScheduler with its credit auto-tuner).
const std::vector<std::string> kContenders = {"fifo", "p3", "bytescheduler-autotune",
                                              "prophet"};

ps::StrategyConfig strategy(const std::string& name, std::size_t profile_iterations) {
  ps::StrategyConfig s = *ps::StrategyConfig::from_name(name);
  s.prophet_config.profile_iterations = profile_iterations;
  return s;
}

// Every workload sweeps its cells on two threads: twice the samples per run
// of one thread, and each cell's host time is its own thread's CPU time, so
// the second thread does not enter it. Not one thread per core: on a shared
// 4-vCPU machine four threads swung the sweep ±15% pass to pass.
unsigned sweep_threads() {
  return std::min(std::max(1u, std::thread::hardware_concurrency()), 2u);
}

Cell ps_cell(std::string name, std::string strategy_name, std::string group,
             ps::ClusterConfig config) {
  Cell cell;
  cell.name = std::move(name);
  cell.strategy = std::move(strategy_name);
  cell.group = std::move(group);
  cell.config = std::move(config);
  return cell;
}

// ResNet50 b64 on 256 workers behind 10 Gbps NICs and one 100 Gbps PS NIC:
// every push/pull wave is a 256-flow incast on one PS link.
Workload star_incast_256(std::uint64_t seed) {
  Workload w;
  w.name = "star_incast_256";
  w.threads = sweep_threads();
  for (const auto& name : kContenders) {
    ps::ClusterConfig cfg;
    cfg.model = dnn::resnet50();
    cfg.batch = 64;
    cfg.num_workers = 256;
    cfg.iterations = 15;
    cfg.seed = seed;
    cfg.topology = net::TopologySpec::star(Bandwidth::gbps(10), Bandwidth::gbps(100));
    cfg.strategy = strategy(name, 4);
    w.cells.push_back(ps_cell(name, name, "star", std::move(cfg)));
  }
  return w;
}

// The paper's testbed (1 PS + 7 workers, PS NIC 10 Gbps, 40 iterations,
// 8 profiling iterations — the bench::paper_cluster preset) over models x
// worker NIC rates x the four contenders plus a ring all-reduce cell.
Workload paper_grid_7w(std::uint64_t seed) {
  Workload w;
  w.name = "paper_grid_7w";
  w.threads = sweep_threads();
  for (const std::string model : {"resnet50", "resnet152", "inception_v3", "bert_base"}) {
    for (const int gbps : {1, 3, 10}) {
      ps::ClusterConfig cfg;
      cfg.model = dnn::model_by_name(model);
      cfg.batch = 64;
      cfg.num_workers = 7;
      cfg.iterations = 40;
      cfg.seed = seed;
      cfg.topology = net::TopologySpec::star(Bandwidth::gbps(gbps), Bandwidth::gbps(10));
      const std::string group = model + "/" + std::to_string(gbps) + "g";
      for (const auto& name : kContenders) {
        cfg.strategy = strategy(name, 8);
        w.cells.push_back(ps_cell(group + "/" + name, name, group, cfg));
      }
      cfg.strategy = strategy("prophet", 8);
      Cell ring = ps_cell(group + "/ring-prophet", "prophet", group + "/ring", cfg);
      ring.kind = CellKind::kAllReduce;
      w.cells.push_back(std::move(ring));
    }
  }
  return w;
}

// Four 16-worker ResNet50 jobs striped across a 4-rack x 17-host leaf-spine
// (4:1 oversubscribed), CASSINI interleaving, fluctuating worker NICs.
Workload spine_striped_4x16(std::uint64_t seed) {
  Workload w;
  w.name = "spine_striped_4x16";
  w.threads = sweep_threads();
  for (const std::string name : {"prophet", "bytescheduler-autotune"}) {
    Cell cell;
    cell.name = name;
    cell.kind = CellKind::kMultiJob;
    cell.strategy = name;
    cell.group = "spine";
    cell.multi.topology =
        net::TopologySpec::leaf_spine(4, 17, Bandwidth::gbps(10), 4.0);
    cell.multi.placement = cl::PlacementPolicy::kFifoStripe;
    cell.multi.interleave = cl::InterleavePolicy::kCassini;
    for (std::uint64_t j = 0; j < 4; ++j) {
      ps::ClusterConfig cfg;
      cfg.model = dnn::resnet50();
      cfg.batch = 64;
      cfg.num_workers = 16;
      cfg.iterations = 20;
      cfg.seed = seed + j;
      cfg.strategy = strategy(name, 4);
      cfg.dynamics = net::DynamicsPlan::fluctuation(
          seed + j, 0.3, Duration::seconds(2), Duration::seconds(40), cfg.num_workers);
      cell.multi.jobs.push_back({std::move(cfg), "job" + std::to_string(j)});
    }
    w.cells.push_back(std::move(cell));
  }
  return w;
}

Fingerprint fingerprint_of(const ps::ClusterResult& r, Fingerprint fp = {}) {
  for (const auto& worker : r.workers) {
    fp.rates.push_back(worker.rate_samples_per_sec);
    fp.completed.push_back(worker.iterations_completed);
  }
  fp.end_ns = r.simulated_time.count_nanos();
  fp.events = r.events_fired;
  fp.audit_checks += r.audit_checks;
  return fp;
}

// Configured iterations per worker (every worker of every job must reach it).
std::size_t cell_iterations(const Cell& cell) {
  return cell.kind == CellKind::kMultiJob ? cell.multi.jobs.front().config.iterations
                                          : cell.config.iterations;
}

}  // namespace

std::optional<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "star_incast_256") return star_incast_256(seed);
  if (name == "paper_grid_7w") return paper_grid_7w(seed);
  if (name == "spine_striped_4x16") return spine_striped_4x16(seed);
  return std::nullopt;
}

double Fingerprint::mean_rate() const {
  double total = 0.0;
  for (const double r : rates) total += r;
  return rates.empty() ? 0.0 : total / static_cast<double>(rates.size());
}

std::uint64_t Fingerprint::worker_iterations() const {
  std::uint64_t total = 0;
  for (const std::size_t c : completed) total += c;
  return total;
}

std::string check_cell(const Cell& cell, const Fingerprint& fp) {
  if (fp.rates.empty()) return "no workers reported";
  const std::size_t want = cell_iterations(cell);
  for (std::size_t w = 0; w < fp.completed.size(); ++w) {
    if (fp.completed[w] != want) {
      return "worker " + std::to_string(w) + " completed " +
             std::to_string(fp.completed[w]) + " of " + std::to_string(want) +
             " iterations";
    }
    if (!(fp.rates[w] > 0.0)) return "worker " + std::to_string(w) + " has no rate";
  }
  if (cell.kind != CellKind::kAllReduce && fp.audit_checks == 0) {
    return "BSP auditor ran no checks";
  }
  return {};
}

Fingerprint run_untraced(const Cell& cell) {
  switch (cell.kind) {
    case CellKind::kPs:
      return fingerprint_of(ps::run_cluster(cell.config));
    case CellKind::kAllReduce: {
      const auto r = prophet::ar::run_allreduce(cell.config);
      Fingerprint fp;
      for (const auto& worker : r.workers) {
        fp.rates.push_back(worker.rate_samples_per_sec);
        fp.completed.push_back(worker.iterations_completed);
      }
      fp.end_ns = r.simulated_time.count_nanos();
      return fp;
    }
    case CellKind::kMultiJob: {
      const auto r = cl::run_multi_job(cell.multi);
      Fingerprint fp;
      for (const auto& job : r.jobs) fp = fingerprint_of(job.result, std::move(fp));
      fp.end_ns = r.makespan.count_nanos();
      fp.events = r.events_fired;
      return fp;
    }
  }
  return {};
}

}  // namespace perfbench
