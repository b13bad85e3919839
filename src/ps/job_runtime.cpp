#include "ps/job_runtime.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace prophet::ps {

JobRuntime::JobRuntime(sim::Simulator& sim, net::FlowNetwork& network,
                       net::BuiltTopology& topology, ClusterConfig config,
                       JobOptions options)
    : sim_{sim},
      network_{network},
      config_{std::move(config)},
      options_{std::move(options)},
      measure_first_{options_.measure_first.has_value()
                         ? *options_.measure_first
                         : config_.default_measure_first()},
      cost_{config_.tcp} {
  const ClusterConfig& cfg = config_;
  // Offset jobs still record metrics against the shared origin-based clock,
  // so their series horizon shifts with them.
  const Duration metrics_horizon = cfg.metrics_horizon + options_.start_offset;

  // One host per PS shard. The single-shard tier keeps the historical bare
  // "ps" name (and with it the historical topology and event order); a
  // sharded tier numbers its hosts ps0..psN-1.
  for (std::size_t s = 0; s < cfg.ps_shards; ++s) {
    const std::string name =
        cfg.ps_shards == 1 ? "ps" : "ps" + std::to_string(s);
    ps_nodes_.push_back(topology.add_host(options_.name_prefix + name,
                                          cfg.topology->ps_bandwidth,
                                          options_.ps_rack));
  }
  for (std::size_t w = 0; w < cfg.num_workers; ++w) {
    std::optional<std::size_t> rack;
    if (w < options_.worker_racks.size()) rack = options_.worker_racks[w];
    worker_nodes_.push_back(
        topology.add_host(options_.name_prefix + "worker" + std::to_string(w),
                          cfg.bandwidth_of_worker(w), rack));
  }

  // Per-worker throughput series, attached before any traffic flows.
  tx_series_.assign(cfg.num_workers, BinnedSeries{cfg.metrics_bin, metrics_horizon});
  rx_series_.assign(cfg.num_workers, BinnedSeries{cfg.metrics_bin, metrics_horizon});
  for (std::size_t w = 0; w < cfg.num_workers; ++w) {
    network_.attach_tracker(worker_nodes_[w], net::Direction::kTx, &tx_series_[w]);
    network_.attach_tracker(worker_nodes_[w], net::Direction::kRx, &rx_series_[w]);
  }

  iteration_model_ = std::make_unique<dnn::IterationModel>(
      cfg.model, cfg.gpu, cfg.batch, cfg.kvstore, cfg.jitter_sigma);

  // BSP invariant auditor: passive mirror of the push/pull/round protocol,
  // always on under BSP. Aborts with a diagnostic on the first violated
  // invariant (lost or double-counted gradient, broken barrier, ...).
  if (cfg.sync == SyncMode::kBsp) {
    std::vector<Bytes> key_sizes;
    for (std::size_t k = 0; k < cfg.model.tensor_count(); ++k) {
      key_sizes.push_back(cfg.model.tensor(k).bytes);
    }
    auditor_ = std::make_unique<audit::BspAuditor>(
        cfg.num_workers, std::move(key_sizes), cfg.ps_shards);
  }

  server_ = std::make_unique<Server>(
      sim_, cfg.model, cfg.num_workers, cfg.sync == SyncMode::kAsp,
      cfg.update_fixed, cfg.update_bytes_per_sec,
      [this](std::size_t w, std::size_t key) {
        workers_[w]->on_param_updated(key);
      },
      cfg.serialize_ps_cpu, cfg.ps_shards);
  server_->set_auditor(auditor_.get());
  if (cfg.dynamics.has_ps_crash()) server_->enable_failover(cfg.checkpoint_period);

  Rng root{cfg.seed};
  for (std::size_t w = 0; w < cfg.num_workers; ++w) {
    Worker::Params params;
    params.id = w;
    params.node = worker_nodes_[w];
    params.ps_nodes = ps_nodes_;
    params.iterations = cfg.iterations;
    params.measure_first = measure_first_;
    params.keep_transfer_records = cfg.keep_transfer_records;
    params.iteration_model = iteration_model_.get();
    params.server = server_.get();
    params.strategy = cfg.strategy;
    params.cost = cost_;
    params.monitor = cfg.monitor;
    params.metrics_bin = cfg.metrics_bin;
    params.metrics_horizon = metrics_horizon;
    params.batch = cfg.batch;
    params.retry_budget = cfg.retry_budget;
    params.auditor = auditor_.get();
    workers_.push_back(
        std::make_unique<Worker>(sim_, network_, params, root.fork(w)));
  }
}

void JobRuntime::start() {
  // Zero offset starts workers synchronously — no extra scheduled event, so
  // a solo job replays the pre-JobRuntime event sequence exactly.
  if (options_.start_offset == Duration::zero()) {
    for (auto& worker : workers_) worker->start();
  } else {
    sim_.schedule_at(start_time(), [this] {
      for (auto& worker : workers_) worker->start();
    });
  }

  // Arm the dynamics plan: every event fires at its offset (relative to the
  // job's start) and mutates the live network / workers / server. Its link
  // targets resolve here, once. A bandwidth event's capacities are computed
  // here too, before any event fires, so scales apply to the *configured*
  // rates and never compound. Outage and PS-fault windows need no pairing
  // here: validate() pairs them per target, and FlowNetwork counts each
  // window as one down-hold, so windows that reach the same links through
  // different spellings (or from different jobs) compose.
  using Type = net::DynamicsEvent::Type;
  for (const auto& ev : config_.dynamics.events) {
    LinkGroups groups = target_links(ev);
    LinkCaps caps;
    for (const auto& group : groups) {
      for (const net::LinkId id : group) {
        if (ev.type == Type::kBandwidthScale) {
          caps.emplace_back(id, network_.link_capacity(id) * ev.factor);
        } else if (ev.type == Type::kBandwidthSet) {
          caps.emplace_back(id, ev.bandwidth);
        }
      }
    }
    sim_.schedule_at(start_time() + ev.at,
                     [this, &ev, groups = std::move(groups), caps = std::move(caps)] {
                       apply_event(ev, groups, caps);
                     });
  }
}

JobRuntime::LinkGroups JobRuntime::target_links(const net::DynamicsEvent& ev) const {
  using Type = net::DynamicsEvent::Type;
  LinkGroups groups;
  switch (ev.type) {
    case Type::kBandwidthScale:
    case Type::kBandwidthSet:
    case Type::kOutageStart:
    case Type::kOutageEnd:
    case Type::kPsCrash:
    case Type::kPsRecover:
      break;
    default:
      return groups;
  }
  if (ev.targets_link()) {
    groups.push_back(net::resolve_link_target(network_, ev.link));
    PROPHET_CHECK_MSG(
        !groups.back().empty(),
        ("dynamics event targets an unknown link name '" + ev.link + "'").c_str());
    return groups;
  }
  // One {tx, rx} group per host the event names: the PS shard or worker it
  // indexes, else every host of its tier. A PS fault acts on the PS tier
  // whatever its target says, as the server it crashes does.
  const bool ps = ev.target_ps || ev.type == Type::kPsCrash || ev.type == Type::kPsRecover;
  const std::vector<net::NodeId>& hosts = ps ? ps_nodes_ : worker_nodes_;
  const std::optional<std::size_t> one = ps ? ev.ps_shard : ev.worker;
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    if (one.has_value() && *one != h) continue;
    const auto links = network_.access_links(hosts[h]);
    groups.emplace_back(links.begin(), links.end());
  }
  return groups;
}

void JobRuntime::apply_event(const net::DynamicsEvent& ev, const LinkGroups& groups,
                             const LinkCaps& caps) {
  using Type = net::DynamicsEvent::Type;
  auto set_state = [&](bool up) {
    for (const auto& group : groups) network_.set_link_state(group, up);
  };
  switch (ev.type) {
    case Type::kBandwidthScale:
    case Type::kBandwidthSet:
      for (const auto& [id, cap] : caps) network_.set_link_capacity(id, cap);
      break;
    case Type::kOutageStart:
    case Type::kOutageEnd:
      set_state(ev.type == Type::kOutageEnd);
      break;
    case Type::kComputeScale:
      for (std::size_t w = 0; w < workers_.size(); ++w) {
        if (!ev.worker.has_value() || *ev.worker == w) {
          workers_[w]->set_compute_factor(ev.factor);
        }
      }
      break;
    case Type::kPsComputeScale:
      if (ev.ps_shard.has_value()) {
        server_->set_shard_cpu_factor(*ev.ps_shard, ev.factor);
      } else {
        server_->set_cpu_factor(ev.factor);
      }
      break;
    case Type::kWorkerCrash:
      if (faults_live_) workers_[*ev.worker]->crash();
      break;
    case Type::kWorkerRecover:
      if (faults_live_) workers_[*ev.worker]->recover();
      break;
    case Type::kPsCrash:
      if (!faults_live_) break;
      if (ev.ps_shard.has_value()) {
        // Single failure domain: only this shard's host drops off the fabric
        // and only its keys stop serving.
        server_->crash_shard(*ev.ps_shard);
        set_state(false);
        for (auto& worker : workers_) worker->on_ps_shard_crash(*ev.ps_shard);
      } else {
        server_->crash();
        set_state(false);
        for (auto& worker : workers_) worker->on_ps_crash();
      }
      break;
    case Type::kPsRecover:
      if (!faults_live_) break;
      set_state(true);
      if (ev.ps_shard.has_value()) {
        const std::vector<std::size_t> snapshot =
            server_->recover_shard(*ev.ps_shard);
        for (auto& worker : workers_) worker->rollback_shard(*ev.ps_shard, snapshot);
      } else {
        const std::vector<std::size_t> snapshot = server_->recover();
        for (auto& worker : workers_) worker->rollback(snapshot);
      }
      break;
    case Type::kLossRate:
      if (faults_live_) {
        for (auto& worker : workers_) worker->set_loss_rate(ev.factor);
      }
      break;
  }
}

bool JobRuntime::done() const {
  return std::all_of(workers_.begin(), workers_.end(),
                     [](const auto& w) { return w->done(); });
}

void JobRuntime::recover_crashed() {
  for (auto& worker : workers_) {
    if (worker->crashed()) worker->recover();
  }
}

void JobRuntime::finish_training(TimePoint now) {
  training_span_ = now - start_time();
  for (auto& worker : workers_) worker->finish();
}

void JobRuntime::finish_audit() {
  if (auditor_ != nullptr) auditor_->finish(config_.iterations);
}

ClusterResult JobRuntime::collect(std::optional<std::size_t> measure_first,
                                  std::uint64_t events_fired) {
  PROPHET_CHECK_MSG(!collected_,
                    "JobRuntime::collect() is single-use: it moves the job's "
                    "logs and series into the first result");
  PROPHET_CHECK_MSG(!measure_first.has_value() || *measure_first == measure_first_,
                    ("JobRuntime::collect(): measure_first " +
                     std::to_string(measure_first.value_or(0)) +
                     " differs from the window the job streamed its transfer "
                     "summaries over, which starts at iteration " +
                     std::to_string(measure_first_) +
                     " (fixed at construction: JobOptions::measure_first)")
                        .c_str());
  collected_ = true;
  const ClusterConfig& cfg = config_;
  const std::size_t first = measure_first_;
  const std::size_t last = cfg.iterations;

  // The network may outlive this job (and keeps settling for other jobs on a
  // shared fabric): stop it from crediting series that are about to move.
  for (const net::NodeId node : worker_nodes_) {
    network_.attach_tracker(node, net::Direction::kTx, nullptr);
    network_.attach_tracker(node, net::Direction::kRx, nullptr);
  }

  ClusterResult result;
  result.measure_first = first;
  result.measure_last = last;
  result.simulated_time = training_span_;
  result.events_fired = events_fired;
  result.audit_checks = auditor_ != nullptr ? auditor_->checks_run() : 0;
  result.rebalance = network_.rebalance_stats();
  result.workers.reserve(cfg.num_workers);
  for (std::size_t w = 0; w < cfg.num_workers; ++w) {
    Worker& worker = *workers_[w];
    const auto& tm = worker.training_metrics();
    result.workers.push_back(WorkerResult{
        .id = w,
        .rate_samples_per_sec = tm.rate_samples_per_sec(first, last),
        .gpu_utilization = worker.gpu().utilization(first, last),
        .iterations_completed = worker.current_iteration(),
        .prophet_activated_at = worker.prophet_activated_at(),
        .prophet_replans = worker.prophet_replans(),
        .training = tm,
        .transfers = worker.take_transfers(),
        .gpu_series = worker.gpu().take_series(),
        .gpu_intervals = worker.gpu().take_intervals(),
        .tx_series = std::move(tx_series_[w]),
        .rx_series = std::move(rx_series_[w])});
  }
  return result;
}

std::vector<Duration> run_jobs(sim::Simulator& sim,
                               const std::vector<std::unique_ptr<JobRuntime>>& jobs,
                               Duration horizon) {
  for (const auto& job : jobs) job->start();

  // A job that crosses its final iteration is finalized on the spot (span
  // recorded, metrics closed, late fault events disarmed) while its residual
  // flows drain alongside the still-running jobs.
  const TimePoint end = TimePoint::origin() + horizon;
  std::vector<bool> finished(jobs.size(), false);
  std::vector<Duration> finish_at(jobs.size(), Duration::zero());
  std::size_t remaining = jobs.size();
  auto sweep_finished = [&] {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (finished[j] || !jobs[j]->done()) continue;
      jobs[j]->recover_crashed();
      jobs[j]->disarm_faults();
      jobs[j]->finish_training(sim.now());
      finished[j] = true;
      finish_at[j] = sim.now() - TimePoint::origin();
      --remaining;
    }
  };
  sweep_finished();
  while (remaining > 0 && sim.now() < end) {
    if (!sim.step()) break;
    sweep_finished();
  }
  PROPHET_CHECK_MSG(remaining == 0,
                    "a job did not finish training within the horizon "
                    "(ClusterConfig::metrics_horizon, MultiJobConfig::horizon)");
  // Drain residual traffic (all monitors are stopped, so this converges).
  sim.run_until(end);
  for (const auto& job : jobs) job->finish_audit();
  return finish_at;
}

}  // namespace prophet::ps
