// The benchmark's workloads, cell runners and layer probes.
//
// A workload is a fixed list of cells built from the paper's models and
// contenders; the workload seed is the only input that varies. Each cell is
// run through one of the library's public entry points (untraced), or
// re-driven through the same public lifecycle ps::Cluster::run uses with a
// span around every call (traced). Layers are timed from outside: nothing
// here reaches into the library's internals.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/multi_job.hpp"
#include "net/flow_network.hpp"
#include "ps/cluster.hpp"
#include "ps/config.hpp"

namespace perfbench {

namespace ps = prophet::ps;
namespace net = prophet::net;

// Host time of a span: the CPU time of the calling thread. On a shared
// machine wall time also counts the time the thread waits for a core, which
// swung whole runs by up to 1.7x; CPU time does not. Every span, cell run and
// probe runs on a single thread (the library starts no threads of its own).
struct Clock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<Clock>;
  static constexpr bool is_steady = true;

  static time_point now() noexcept {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return time_point{std::chrono::seconds{ts.tv_sec} + std::chrono::nanoseconds{ts.tv_nsec}};
  }
};

// Wall time: run budgets and the sweep span behind exec.busy_share.
using WallClock = std::chrono::steady_clock;

template <typename C, typename D>
double seconds_since(std::chrono::time_point<C, D> t0) {
  return std::chrono::duration<double>(C::now() - t0).count();
}

inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

enum class CellKind { kPs, kAllReduce, kMultiJob };

struct Cell {
  std::string name;
  CellKind kind = CellKind::kPs;
  // Canonical strategy name of every job in the cell.
  std::string strategy;
  // Cells of one group differ only in strategy (the matched pairs behind
  // prophet_vs_bytescheduler).
  std::string group;
  ps::ClusterConfig config;                // kPs, kAllReduce
  prophet::cluster::MultiJobConfig multi;  // kMultiJob
};

struct Workload {
  std::string name;
  std::vector<Cell> cells;
  // exec::run_sweep width for the cell passes.
  unsigned threads = 1;
};

// nullopt for an unknown name.
[[nodiscard]] std::optional<Workload> make_workload(const std::string& name,
                                                    std::uint64_t seed);

// A cell's simulated outputs: what the traced re-drive must reproduce
// exactly and what the recorded reference pins per seed.
struct Fingerprint {
  std::vector<double> rates;           // per worker, jobs concatenated
  std::vector<std::size_t> completed;  // iterations completed per worker
  std::int64_t end_ns = 0;             // simulated time, or makespan
  std::uint64_t events = 0;            // not exposed by ar::run_allreduce
  std::uint64_t audit_checks = 0;      // no auditor in ar::run_allreduce

  bool operator==(const Fingerprint&) const = default;
  [[nodiscard]] double mean_rate() const;
  [[nodiscard]] std::uint64_t worker_iterations() const;
};

// Empty when the cell finished every iteration (and audited, under BSP);
// otherwise a one-line description of what went wrong.
[[nodiscard]] std::string check_cell(const Cell& cell, const Fingerprint& fp);

// Untraced: ps::run_cluster / cluster::run_multi_job / ar::run_allreduce.
[[nodiscard]] Fingerprint run_untraced(const Cell& cell);
// Host seconds to build the cell's clusters up to the first event (validate,
// placement, topology, JobRuntime construction); zero for allreduce cells,
// whose entry point has no separate set-up step.
[[nodiscard]] double time_setup(const Cell& cell);

// One traced re-drive: spans in host seconds, counters as the library
// reports them.
struct TracedCell {
  Fingerprint fp;
  double host = 0.0;       // whole re-drive
  double net_setup = 0.0;  // FlowNetwork + BuiltTopology construction
  double ps_setup = 0.0;   // JobRuntime construction
  double place = 0.0;      // place_jobs + interleave_offsets
  double loop = 0.0;       // start() + step() loop
  double drain = 0.0;      // finish_training + run_until drain
  double audit = 0.0;      // finish_audit
  double collect = 0.0;    // JobRuntime::collect
  double allreduce = 0.0;  // ar::run_allreduce
  net::RebalanceStats rebalance;
  double link_busy_max_s = 0.0;  // simulated
  std::uint64_t transfer_records = 0;
  std::uint64_t replans = 0;
  std::int64_t spine_bytes = 0;
  std::uint64_t series_bytes = 0;
};
[[nodiscard]] TracedCell run_traced(const Cell& cell);

// --- standalone layer probes (medians in host seconds) ---------------------
// One push wave of the workload's shape replayed through start_flow: every
// worker sends its model's gradients back to back to its PS. The tracked
// wave attaches throughput series at the workload's bin/horizon first.
struct WaveProbe {
  double plain_s = 0.0;
  double tracked_s = 0.0;
};
[[nodiscard]] WaveProbe probe_incast_wave(const Workload& w);
struct PlannerProbe {
  double plan_s = 0.0;  // one BlockPlanner::plan
  double refine_moves_per_s = 0.0;
};
[[nodiscard]] PlannerProbe probe_planner(const Workload& w);
// One iteration's gradient stream per contender through ps::make_scheduler.
[[nodiscard]] double probe_sched_tasks_per_s(const Workload& w);
// place_jobs + interleave_offsets per cell (workloads without multi-job
// cells; there the traced span is used instead).
[[nodiscard]] double probe_place(const Workload& w);
// A small ring run of the workload's model (workloads without allreduce
// cells; there the traced span is used instead).
[[nodiscard]] double probe_allreduce(const Workload& w);

}  // namespace perfbench
