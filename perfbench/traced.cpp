// Traced cell re-drive and the standalone layer probes. Every span wraps a
// call into a module's public API; the re-drive follows ps::Cluster::run and
// cluster::run_multi_job step for step, so its simulated outputs must equal
// the untraced entry point's bit for bit (main.cpp checks that).
#include <memory>
#include <stdexcept>

#include "allreduce/cluster.hpp"
#include "cluster/scheduler.hpp"
#include "core/block_planner.hpp"
#include "core/local_search.hpp"
#include "core/perf_model.hpp"
#include "core/prophet_scheduler.hpp"
#include "dnn/iteration_model.hpp"
#include "dnn/stepwise.hpp"
#include "net/topology.hpp"
#include "perfbench.hpp"
#include "ps/job_runtime.hpp"
#include "ps/strategy.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

using prophet::Bandwidth;
using prophet::BinnedSeries;
using prophet::Bytes;
using prophet::Duration;
using prophet::TimePoint;
namespace cl = prophet::cluster;
namespace core = prophet::core;
namespace dnn = prophet::dnn;
namespace sched = prophet::sched;
namespace sim = prophet::sim;

namespace {

// Adds the host time of `fn()` to `*acc` (when non-null) and returns fn().
template <typename Fn>
auto span(double* acc, Fn&& fn) {
  const auto t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    if (acc != nullptr) *acc += seconds_since(t0);
  } else {
    auto result = fn();
    if (acc != nullptr) *acc += seconds_since(t0);
    return result;
  }
}

template <typename Fn>
double median_time(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_since(t0));
  }
  return median(std::move(t));
}

// The clusters of one PS or multi-job cell, built the way ps::Cluster::run
// and cluster::run_multi_job build them, up to (not including) the first
// event. `spans` (optional) receives the place/net/ps set-up spans.
struct Rig {
  Rig(const Cell& cell, TracedCell* spans) {
    double* place = spans ? &spans->place : nullptr;
    double* net_setup = spans ? &spans->net_setup : nullptr;
    double* ps_setup = spans ? &spans->ps_setup : nullptr;
    if (cell.kind == CellKind::kPs) {
      const ps::ClusterConfig& cfg = cell.config;
      cfg.validate();
      span(net_setup, [&] {
        network = std::make_unique<net::FlowNetwork>(sim, net::TcpCostModel{cfg.tcp},
                                                     cfg.rate_rebalance);
        network->set_verify_rates(cfg.verify_rates);
        topology = std::make_unique<net::BuiltTopology>(*network, *cfg.topology);
      });
      span(ps_setup, [&] {
        jobs.push_back(std::make_unique<ps::JobRuntime>(sim, *network, *topology, cfg));
      });
      horizon = TimePoint::origin() + cfg.metrics_horizon;
      return;
    }
    const cl::MultiJobConfig& mj = cell.multi;
    mj.topology.validate();
    std::vector<cl::Placement> placements;
    std::vector<Duration> offsets;
    span(place, [&] {
      placements = cl::place_jobs(mj.topology, mj.jobs, mj.placement);
      offsets = cl::interleave_offsets(mj.topology, mj.jobs, placements, mj.interleave);
    });
    span(net_setup, [&] {
      network = std::make_unique<net::FlowNetwork>(
          sim, net::TcpCostModel{mj.jobs.front().config.tcp}, mj.rate_rebalance);
      network->set_verify_rates(mj.verify_rates);
      topology = std::make_unique<net::BuiltTopology>(*network, mj.topology);
    });
    span(ps_setup, [&] {
      for (std::size_t j = 0; j < mj.jobs.size(); ++j) {
        ps::ClusterConfig cfg = mj.jobs[j].config;
        cfg.topology = mj.topology;
        cfg.validate();
        ps::JobOptions opts;
        opts.name_prefix = mj.jobs[j].name + ".";
        opts.start_offset = offsets[j];
        opts.ps_rack = placements[j].ps_rack;
        opts.worker_racks = placements[j].worker_racks;
        jobs.push_back(std::make_unique<ps::JobRuntime>(sim, *network, *topology,
                                                        std::move(cfg), std::move(opts)));
      }
    });
    horizon = TimePoint::origin() + mj.horizon;
  }

  sim::Simulator sim;
  std::unique_ptr<net::FlowNetwork> network;
  std::unique_ptr<net::BuiltTopology> topology;
  std::vector<std::unique_ptr<ps::JobRuntime>> jobs;
  TimePoint horizon{};
};

// The job's model, gradient profile and planning bandwidth, as Prophet's
// profiler would see them on a noise-free iteration.
struct ModelInputs {
  dnn::IterationTiming nominal;
  core::GradientProfile profile;
  Bandwidth bandwidth;
  net::TcpCostModel cost;
};

ModelInputs model_inputs(const ps::ClusterConfig& cfg) {
  const dnn::IterationModel iteration{cfg.model, cfg.gpu, cfg.batch, cfg.kvstore};
  ModelInputs in{iteration.nominal(), {}, cfg.bandwidth_of_worker(0),
                 net::TcpCostModel{cfg.tcp}};
  in.profile.ready = in.nominal.ready_offset;
  for (const auto& tensor : cfg.model.tensors()) in.profile.sizes.push_back(tensor.bytes);
  in.profile.intervals = dnn::transfer_intervals(in.profile.ready);
  in.profile.iterations_profiled = 1;
  return in;
}

// Every job config in the workload (multi-job cells contribute each job).
std::vector<const ps::ClusterConfig*> job_configs(const Workload& w) {
  std::vector<const ps::ClusterConfig*> out;
  for (const auto& cell : w.cells) {
    if (cell.kind == CellKind::kMultiJob) {
      for (const auto& job : cell.multi.jobs) out.push_back(&job.config);
    } else {
      out.push_back(&cell.config);
    }
  }
  return out;
}

}  // namespace

double time_setup(const Cell& cell) {
  if (cell.kind == CellKind::kAllReduce) return 0.0;
  const auto t0 = Clock::now();
  const Rig rig{cell, nullptr};
  return seconds_since(t0);
}

TracedCell run_traced(const Cell& cell) {
  TracedCell out;
  const auto t0 = Clock::now();
  if (cell.kind == CellKind::kAllReduce) {
    const auto r = span(&out.allreduce, [&] { return prophet::ar::run_allreduce(cell.config); });
    for (const auto& worker : r.workers) {
      out.fp.rates.push_back(worker.rate_samples_per_sec);
      out.fp.completed.push_back(worker.iterations_completed);
    }
    out.fp.end_ns = r.simulated_time.count_nanos();
    out.host = seconds_since(t0);
    return out;
  }

  Rig rig{cell, &out};
  sim::Simulator& sim = rig.sim;
  const std::size_t n = rig.jobs.size();
  std::vector<bool> finished(n, false);
  std::size_t remaining = n;
  Duration makespan{};
  // A job that crossed its final iteration is finalized on the spot, exactly
  // where the library entry points do it.
  auto sweep_finished = [&] {
    for (std::size_t j = 0; j < n; ++j) {
      if (finished[j] || !rig.jobs[j]->done()) continue;
      rig.jobs[j]->recover_crashed();
      rig.jobs[j]->disarm_faults();
      rig.jobs[j]->finish_training(sim.now());
      finished[j] = true;
      makespan = std::max(makespan, sim.now() - TimePoint::origin());
      --remaining;
    }
  };
  span(&out.loop, [&] {
    for (auto& job : rig.jobs) job->start();
    if (cell.kind == CellKind::kPs) {
      // ps::Cluster::run only looks for completion between steps.
      while (!rig.jobs.front()->done() && sim.now() < rig.horizon) {
        if (!sim.step()) break;
      }
      return;
    }
    sweep_finished();
    while (remaining > 0 && sim.now() < rig.horizon) {
      if (!sim.step()) break;
      sweep_finished();
    }
  });
  span(&out.drain, [&] {
    sweep_finished();
    sim.run_until(rig.horizon);
  });
  if (remaining != 0) throw std::runtime_error("traced re-drive: training did not finish");
  span(&out.audit, [&] {
    for (auto& job : rig.jobs) job->finish_audit();
  });
  std::vector<ps::ClusterResult> results;
  span(&out.collect, [&] {
    for (auto& job : rig.jobs) results.push_back(job->collect({}, sim.events_fired()));
  });

  for (const auto& r : results) {
    for (const auto& worker : r.workers) {
      out.fp.rates.push_back(worker.rate_samples_per_sec);
      out.fp.completed.push_back(worker.iterations_completed);
      out.transfer_records += worker.transfers.records().size();
      out.replans += worker.prophet_replans;
      out.series_bytes += (worker.tx_series.bin_count() + worker.rx_series.bin_count() +
                           worker.gpu_series.bin_count()) *
                          sizeof(double);
    }
    out.fp.audit_checks += r.audit_checks;
  }
  out.fp.events = sim.events_fired();
  out.fp.end_ns = cell.kind == CellKind::kPs ? results.front().simulated_time.count_nanos()
                                             : makespan.count_nanos();
  out.rebalance = rig.network->rebalance_stats();
  for (net::LinkId l = 0; l < rig.network->link_count(); ++l) {
    out.link_busy_max_s =
        std::max(out.link_busy_max_s, rig.network->link_busy_time(l).to_seconds());
  }
  out.spine_bytes = rig.topology->spine_bytes();
  out.host = seconds_since(t0);
  return out;
}

WaveProbe probe_incast_wave(const Workload& w) {
  // The workload's fabric and host placement: one (PS, workers) group per
  // job, hosts added PS first as JobRuntime does.
  struct Group {
    std::optional<std::size_t> ps_rack;
    std::vector<std::size_t> worker_racks;
    std::size_t workers = 0;
    Bandwidth ps_bw, worker_bw;
  };
  const Cell& cell = w.cells.front();
  const ps::ClusterConfig& cfg =
      cell.kind == CellKind::kMultiJob ? cell.multi.jobs.front().config : cell.config;
  net::TopologySpec spec;
  std::vector<Group> groups;
  if (cell.kind == CellKind::kMultiJob) {
    spec = cell.multi.topology;
    const auto placements = cl::place_jobs(spec, cell.multi.jobs, cell.multi.placement);
    for (std::size_t j = 0; j < placements.size(); ++j) {
      groups.push_back({placements[j].ps_rack, placements[j].worker_racks,
                        cell.multi.jobs[j].config.num_workers, spec.host_bandwidth,
                        spec.host_bandwidth});
    }
  } else {
    spec = *cfg.topology;
    groups.push_back({{}, {}, cfg.num_workers, spec.ps_bandwidth, spec.worker_bandwidth});
  }
  std::vector<Bytes> sizes;
  for (const auto& tensor : cfg.model.tensors()) sizes.push_back(tensor.bytes);

  // Each worker pushes its gradients in backward order, one flow at a time.
  struct Sender {
    net::FlowNetwork* network;
    net::NodeId src, dst;
    const std::vector<Bytes>* sizes;
    std::size_t next;
    void send() {
      if (next == 0) return;
      --next;
      network->start_flow(src, dst, (*sizes)[next], [this](net::FlowId) { send(); });
    }
  };

  auto once = [&](bool tracked) {
    sim::Simulator sim;
    net::FlowNetwork network{sim, net::TcpCostModel{cfg.tcp}};
    net::BuiltTopology topology{network, spec};
    std::vector<Sender> senders;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const std::string prefix = "job" + std::to_string(g) + ".";
      const net::NodeId ps_node =
          topology.add_host(prefix + "ps", groups[g].ps_bw, groups[g].ps_rack);
      for (std::size_t k = 0; k < groups[g].workers; ++k) {
        std::optional<std::size_t> rack;
        if (k < groups[g].worker_racks.size()) rack = groups[g].worker_racks[k];
        const net::NodeId node = topology.add_host(
            prefix + "worker" + std::to_string(k), groups[g].worker_bw, rack);
        senders.push_back({&network, node, ps_node, &sizes, sizes.size()});
      }
    }
    std::vector<BinnedSeries> series;
    if (tracked) {
      const std::size_t count = 2 * senders.size() + 2 * topology.racks().size();
      series.reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        series.emplace_back(cfg.metrics_bin, cfg.metrics_horizon);
      }
      std::size_t next = 0;
      for (const auto& s : senders) {
        network.attach_tracker(s.src, net::Direction::kTx, &series[next++]);
        network.attach_tracker(s.src, net::Direction::kRx, &series[next++]);
      }
      for (const net::RackId rack : topology.racks()) {
        network.attach_link_tracker(network.rack_link(rack, net::Direction::kTx),
                                    &series[next++]);
        network.attach_link_tracker(network.rack_link(rack, net::Direction::kRx),
                                    &series[next++]);
      }
    }
    const auto t0 = Clock::now();
    for (auto& s : senders) s.send();
    sim.run();
    return seconds_since(t0);
  };
  // Plain and tracked waves alternate after one discarded warm-up wave, so
  // both see the same cache and allocator state.
  (void)once(false);
  std::vector<double> plain;
  std::vector<double> tracked;
  double total = 0.0;
  while (plain.size() < 3 || (total < 0.5 && plain.size() < 50)) {
    plain.push_back(once(false));
    tracked.push_back(once(true));
    total += plain.back() + tracked.back();
  }
  return {median(std::move(plain)), median(std::move(tracked))};
}

PlannerProbe probe_planner(const Workload& w) {
  // One plan + refine per distinct (model, bandwidth) a Prophet job runs.
  std::vector<std::pair<std::string, double>> seen;
  double plan_total = 0.0;
  double refine_s = 0.0;
  std::size_t moves = 0;
  for (const ps::ClusterConfig* cfg : job_configs(w)) {
    if (cfg->strategy.kind != ps::StrategyConfig::Kind::kProphet) continue;
    const std::pair<std::string, double> key{cfg->model.name(),
                                             cfg->bandwidth_of_worker(0).to_gbps()};
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
    seen.push_back(key);
    const ModelInputs in = model_inputs(*cfg);
    const core::BlockPlanner planner{in.cost};
    core::Schedule planned;
    plan_total += median_time(5, [&] { planned = planner.plan(in.profile, in.bandwidth); });
    const core::PerfModel model{in.profile, in.nominal.fwd, in.bandwidth, in.cost};
    const auto t0 = Clock::now();
    moves += core::LocalSearchPlanner{}.refine(planned, model).moves_evaluated;
    refine_s += seconds_since(t0);
  }
  PlannerProbe out;
  if (seen.empty()) return out;
  out.plan_s = plan_total / static_cast<double>(seen.size());
  out.refine_moves_per_s = static_cast<double>(moves) / refine_s;
  return out;
}

double probe_sched_tasks_per_s(const Workload& w) {
  // One scheduler per contender the workload runs, fed 10 iterations of the
  // first matching job's nominal gradient stream. The NIC is modelled as one
  // solo transfer at a time at the worker's line rate.
  std::vector<std::string> seen;
  std::uint64_t tasks = 0;
  double host_s = 0.0;
  for (const ps::ClusterConfig* cfg : job_configs(w)) {
    const std::string name = cfg->strategy.name();
    if (std::find(seen.begin(), seen.end(), name) != seen.end()) continue;
    seen.push_back(name);
    const ModelInputs in = model_inputs(*cfg);
    const std::size_t grads = in.profile.gradient_count();
    std::vector<std::size_t> order(grads);
    for (std::size_t g = 0; g < grads; ++g) order[g] = g;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (in.profile.ready[a] != in.profile.ready[b]) {
        return in.profile.ready[a] < in.profile.ready[b];
      }
      return a > b;
    });
    const auto t0 = Clock::now();
    auto s = ps::make_scheduler(cfg->strategy, sched::TaskKind::kPush, grads,
                                [bw = in.bandwidth] { return bw; }, in.cost);
    if (auto* prophet = dynamic_cast<core::ProphetScheduler*>(s.get())) {
      prophet->set_profile(in.profile);
    }
    TimePoint now = TimePoint::origin();
    for (std::size_t it = 0; it < 10; ++it) {
      s->on_iteration_start(it, now);
      const TimePoint backward_start = now;
      std::size_t next = 0;
      for (std::size_t guard = 0; guard < 100 * grads; ++guard) {
        while (next < grads && backward_start + in.profile.ready[order[next]] <= now) {
          s->enqueue(order[next], in.profile.sizes[order[next]], now);
          ++next;
        }
        if (auto task = s->next_task(now)) {
          const TimePoint started = now;
          now = now + in.cost.duration(task->total_bytes(), in.bandwidth);
          s->on_task_done(*task, started, now);
          now = now + task->post_delay;
          ++tasks;
        } else if (next < grads) {
          now = std::max(now, backward_start + in.profile.ready[order[next]]);
        } else if (s->has_pending()) {
          now = now + Duration::micros(100);
        } else {
          break;
        }
      }
      s->on_iteration_end(it, now);
    }
    host_s += seconds_since(t0);
  }
  return static_cast<double>(tasks) / host_s;
}

double probe_place(const Workload& w) {
  return median_time(5, [&] {
    for (const auto& cell : w.cells) {
      if (cell.kind != CellKind::kPs) continue;
      const std::vector<cl::JobSpec> jobs = {{cell.config, "job0"}};
      const auto placements =
          cl::place_jobs(*cell.config.topology, jobs, cl::PlacementPolicy::kFifoStripe);
      (void)cl::interleave_offsets(*cell.config.topology, jobs, placements,
                                   cl::InterleavePolicy::kCassini);
    }
  });
}

double probe_allreduce(const Workload& w) {
  const Cell& cell = w.cells.front();
  ps::ClusterConfig cfg =
      cell.kind == CellKind::kMultiJob ? cell.multi.jobs.front().config : cell.config;
  const Bandwidth bw = cfg.bandwidth_of_worker(0);
  cfg.topology = net::TopologySpec::star(bw, bw);
  cfg.num_workers = 8;
  cfg.iterations = 12;
  cfg.dynamics = {};
  cfg.strategy = *ps::StrategyConfig::from_name("prophet");
  cfg.strategy.prophet_config.profile_iterations = 4;
  return median_time(3, [&] { (void)prophet::ar::run_allreduce(cfg); });
}

}  // namespace perfbench
