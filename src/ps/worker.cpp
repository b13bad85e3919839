#include "ps/worker.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "common/check.hpp"

namespace prophet::ps {

Worker::Worker(sim::Simulator& sim, net::FlowNetwork& network, Params params, Rng rng)
    : sim_{sim},
      network_{network},
      params_{std::move(params)},
      rng_{rng},
      training_{params_.batch},
      gpu_{params_.metrics_bin, params_.metrics_horizon, params_.keep_transfer_records} {
  PROPHET_CHECK(params_.iteration_model != nullptr);
  PROPHET_CHECK(params_.server != nullptr);
  PROPHET_CHECK_MSG(!params_.ps_nodes.empty(), "worker needs at least one PS endpoint");
  PROPHET_CHECK_MSG(params_.ps_nodes.size() == params_.server->num_shards(),
                    "worker endpoint count must match the server's shard count");
  const std::size_t n = params_.iteration_model->model().tensor_count();
  transfer_log_ = metrics::TransferLog{params_.measure_first, params_.iterations, n,
                                       params_.keep_transfer_records};

  // Each channel owns its own RNG stream: transport loss draws must not
  // shift the compute-jitter sequence (fork draws nothing, so a loss-free
  // run is bit-identical to one without the channels). Shard 0 keeps the
  // historical stream id, so ps_shards=1 replays the single-channel
  // timeline exactly; sibling shards fork disjoint streams.
  for (std::size_t s = 0; s < params_.ps_nodes.size(); ++s) {
    channels_.push_back(std::make_unique<net::ReliableChannel>(
        sim, network, params_.retry_budget, rng.fork(0xfa017 + s)));
  }

  tx_monitor_ = std::make_unique<net::BandwidthMonitor>(
      sim_, network_, params_.node, net::Direction::kTx, params_.monitor);
  rx_monitor_ = std::make_unique<net::BandwidthMonitor>(
      sim_, network_, params_.node, net::Direction::kRx, params_.monitor);

  push_poll_ = sim_.lane_create([this] { pump(sched::TaskKind::kPush); });
  pull_poll_ = sim_.lane_create([this] { pump(sched::TaskKind::kPull); });
  push_sched_ = make_scheduler(params_.strategy, sched::TaskKind::kPush, n,
                               [m = tx_monitor_.get()] { return m->estimate(); },
                               params_.cost);
  pull_sched_ = make_scheduler(params_.strategy, sched::TaskKind::kPull, n,
                               [m = rx_monitor_.get()] { return m->estimate(); },
                               params_.cost);

  pulls_done_.assign(n, 0);
  pull_pending_bytes_.assign(n, 0);
  pull_rounds_claimed_.assign(n, 0);
  push_rounds_done_.assign(n, 0);
  push_round_bytes_.assign(n, 0);
  enqueue_time_push_.assign(n, TimePoint::origin());
  enqueue_time_pull_.assign(n, TimePoint::origin());
  enqueue_iter_push_.assign(n, 0);
  ps_shard_down_.assign(params_.ps_nodes.size(), 0);

  for (auto& channel : channels_) {
    channel->set_fault_handler([this](const net::ChannelFault& fault) {
      transfer_log_.record_fault(
          {metrics::FaultKind::kTransportRetry, sim_.now(), fault.attempt});
      if (params_.auditor != nullptr) {
        params_.auditor->on_transport_retry(params_.id, sim_.now());
      }
    });
  }
}

Worker::~Worker() {
  sim_.lane_destroy(push_poll_);
  sim_.lane_destroy(pull_poll_);
}

sched::CommScheduler& Worker::scheduler(sched::TaskKind kind) {
  return kind == sched::TaskKind::kPush ? *push_sched_ : *pull_sched_;
}

bool Worker::all_ps_down() const {
  return std::all_of(ps_shard_down_.begin(), ps_shard_down_.end(),
                     [](std::uint8_t down) { return down != 0; });
}

bool Worker::any_ps_down() const {
  return std::any_of(ps_shard_down_.begin(), ps_shard_down_.end(),
                     [](std::uint8_t down) { return down != 0; });
}

void Worker::start() { begin_iteration(); }

void Worker::set_compute_factor(double factor) {
  PROPHET_CHECK_MSG(factor > 0.0, "compute factor must be positive");
  compute_factor_ = factor;
}

std::size_t Worker::prophet_replans() const {
  if (const auto* prophet = dynamic_cast<const core::ProphetScheduler*>(
          push_sched_.get())) {
    return prophet->replan_count();
  }
  return 0;
}

void Worker::begin_iteration() {
  if (params_.auditor != nullptr) {
    params_.auditor->on_iteration_start(params_.id, iter_, sim_.now());
  }
  training_.mark_iteration_start(iter_, sim_.now());
  gpu_.mark_iteration(iter_, sim_.now());
  if (done()) return;  // final boundary recorded; no more compute
  timing_ = params_.iteration_model->sample(rng_);
  if (compute_factor_ != 1.0) {
    // Straggler injection: the whole compute timeline stretches, including
    // the gradient-ready offsets the KVStore flushes are pinned to.
    for (auto& d : timing_.fwd) d = d * compute_factor_;
    for (auto& d : timing_.bwd) d = d * compute_factor_;
    for (auto& d : timing_.ready_offset) d = d * compute_factor_;
  }
  fwd_layer_ = 0;
  waiting_for_param_ = false;
  advance_forward();
}

bool Worker::forward_gate_open(std::size_t layer) const {
  return iter_ == 0 || pulls_done_[layer] >= iter_;
}

void Worker::advance_forward() {
  const std::size_t n = pulls_done_.size();
  while (fwd_layer_ < n) {
    if (!forward_gate_open(fwd_layer_)) {
      // Eq. (3): layer fwd blocked until its parameter update is pulled;
      // this idle gap is exactly the (u - p)^+ term of T_wait.
      waiting_for_param_ = true;
      return;
    }
    gpu_.busy_from(sim_.now());
    sim_.schedule_after(timing_.fwd[fwd_layer_], [this, inc = incarnation_] {
      if (inc != incarnation_) return;  // compute died with the crash
      gpu_.idle_from(sim_.now());
      ++fwd_layer_;
      advance_forward();
    });
    return;  // resumes from the completion event
  }
  begin_backward();
}

void Worker::begin_backward() {
  const TimePoint now = sim_.now();
  if (params_.auditor != nullptr) {
    params_.auditor->on_backward_start(params_.id, iter_, now);
  }
  transfer_log_.mark_backward_start(iter_, now);

  // Iteration lifecycle hooks: iteration k-1 "ends" when forward k has
  // fully completed, i.e. right now.
  if (iter_ > 0) {
    push_sched_->on_iteration_end(iter_ - 1, now);
    pull_sched_->on_iteration_end(iter_ - 1, now);
  }
  push_sched_->on_iteration_start(iter_, now);
  pull_sched_->on_iteration_start(iter_, now);

  // Prophet: once the push side finishes profiling, share the profile with
  // the pull side and note the activation iteration (Fig. 13 boundary).
  if (auto* push_prophet = dynamic_cast<core::ProphetScheduler*>(push_sched_.get())) {
    if (push_prophet->profile_ready()) {
      if (!prophet_activated_at_.has_value()) prophet_activated_at_ = iter_;
      if (auto* pull_prophet =
              dynamic_cast<core::ProphetScheduler*>(pull_sched_.get());
          pull_prophet != nullptr && !pull_prophet->profile_ready()) {
        pull_prophet->set_profile(push_prophet->profile());
      }
    }
  }

  // Backward compute occupies the GPU until the final flush.
  gpu_.busy_from(now);

  // Gradient emissions at the KVStore flush instants (stepwise pattern).
  std::map<Duration, std::vector<std::size_t>> events;
  for (std::size_t g = 0; g < timing_.ready_offset.size(); ++g) {
    events[timing_.ready_offset[g]].push_back(g);
  }
  for (const auto& [offset, grads] : events) {
    sim_.schedule_after(offset, [this, grads = grads, inc = incarnation_] {
      if (inc != incarnation_) return;  // flush died with the crash
      for (std::size_t g : grads) {
        if (push_rounds_done_[g] > iter_) {
          // Replayed backward: this key's round already aggregated at the PS
          // before the fault; re-sending it would double-count the gradient.
          push_sched_->on_gradient_skipped(g, sim_.now());
          continue;
        }
        enqueue_time_push_[g] = sim_.now();
        enqueue_iter_push_[g] = iter_;
        push_sched_->enqueue(g, params_.iteration_model->model().tensor(g).bytes,
                             sim_.now());
      }
      pump(sched::TaskKind::kPush);
    });
  }
  sim_.schedule_after(timing_.backward_total(), [this, inc = incarnation_] {
    if (inc != incarnation_) return;  // backward died with the crash
    end_backward();
  });
}

void Worker::end_backward() {
  gpu_.idle_from(sim_.now());
  ++iter_;
  begin_iteration();
}

void Worker::pump(sched::TaskKind kind) {
  if (crashed_ || all_ps_down()) return;  // no endpoint to talk to
  auto& active = kind == sched::TaskKind::kPush ? push_active_ : pull_active_;
  if (active.has_value()) return;  // one task in flight per direction
  const TimePoint hold = kind == sched::TaskKind::kPush ? push_hold_ : pull_hold_;
  if (sim_.now() < hold) return;  // ack window; a pump is scheduled at `hold`
  auto task = scheduler(kind).next_task(sim_.now());
  if (!task.has_value()) {
    // The scheduler may be holding tensors whose release is time-driven;
    // poll again shortly so such work cannot strand.
    const sim::LaneId poll = kind == sched::TaskKind::kPush ? push_poll_ : pull_poll_;
    if (scheduler(kind).has_pending() && !sim_.lane_armed(poll)) {
      sim_.lane_aim(poll, sim_.now() + Duration::millis(1));
    }
    return;
  }
  PROPHET_CHECK(!task->items.empty());

  // Fan the task out into one sub-flow per PS shard. Items addressed to a
  // downed shard are dropped here: the shard's failover rollback clears and
  // re-enqueues its keys' work, so sending would only double it later.
  const std::size_t shards = num_shards();
  std::vector<std::vector<sched::TransferItem>> groups(shards);
  bool dropped = false;
  for (const auto& item : task->items) {
    const std::size_t s = shard_of(item.grad);
    if (ps_shard_down_[s] != 0) {
      dropped = true;
      continue;
    }
    groups[s].push_back(item);
  }
  std::size_t live = 0;
  for (const auto& group : groups) {
    if (!group.empty()) ++live;
  }
  if (live == 0) {
    // The whole task addressed downed shards; it dies like an aborted
    // transfer and the next queued task gets the NIC.
    pump(kind);
    return;
  }

  const TimePoint started = sim_.now();
  active.emplace();
  active->task = std::move(*task);
  active->started = started;
  active->open_subflows = live;
  active->lost_items = dropped;
  active->live_on_shard.assign(shards, 0);
  for (std::size_t s = 0; s < shards; ++s) {
    if (groups[s].empty()) continue;
    active->live_on_shard[s] = 1;
    Bytes flow_bytes = Bytes::zero();
    for (const auto& item : groups[s]) flow_bytes += item.bytes;
    const net::NodeId src =
        kind == sched::TaskKind::kPush ? params_.node : params_.ps_nodes[s];
    const net::NodeId dst =
        kind == sched::TaskKind::kPush ? params_.ps_nodes[s] : params_.node;
    channels_[s]->send(src, dst, flow_bytes,
                       [this, kind, s, items = std::move(groups[s]), started](
                           const net::SendOutcome& outcome) {
                         on_subflow_done(kind, s, items, started, outcome);
                       });
  }
}

void Worker::on_subflow_done(sched::TaskKind kind, std::size_t shard,
                             const std::vector<sched::TransferItem>& items,
                             TimePoint started, const net::SendOutcome& outcome) {
  const TimePoint now = sim_.now();
  auto& active = kind == sched::TaskKind::kPush ? push_active_ : pull_active_;
  PROPHET_CHECK(active.has_value() && active->open_subflows > 0);
  active->live_on_shard[shard] = 0;

  for (const auto& item : items) {
    metrics::TransferRecord rec;
    // Attribute the record to the round the tensor was enqueued in: pushes
    // belong to their backward iteration, pulls to the matching update.
    rec.iteration = kind == sched::TaskKind::kPush ? enqueue_iter_push_[item.grad]
                                                   : pulls_done_[item.grad];
    rec.grad = item.grad;
    rec.kind = kind;
    rec.bytes = item.bytes;
    rec.enqueued = kind == sched::TaskKind::kPush ? enqueue_time_push_[item.grad]
                                                  : enqueue_time_pull_[item.grad];
    rec.started = started;
    rec.finished = now;
    rec.attempts = outcome.attempts;
    transfer_log_.record(rec);

    if (kind == sched::TaskKind::kPush) {
      params_.server->on_push_bytes(params_.id, item.grad, item.bytes);
      const std::int64_t full =
          params_.iteration_model->model().tensor(item.grad).bytes.count();
      push_round_bytes_[item.grad] += item.bytes.count();
      PROPHET_CHECK(push_round_bytes_[item.grad] <= full);
      if (push_round_bytes_[item.grad] == full) {
        push_round_bytes_[item.grad] = 0;
        ++push_rounds_done_[item.grad];
      }
    } else {
      pull_pending_bytes_[item.grad] -= item.bytes.count();
      PROPHET_CHECK(pull_pending_bytes_[item.grad] >= 0);
      if (pull_pending_bytes_[item.grad] == 0) {
        ++pulls_done_[item.grad];
        if (params_.auditor != nullptr) {
          params_.auditor->on_pull_complete(params_.id, item.grad,
                                            pulls_done_[item.grad], now);
        }
        if (waiting_for_param_ && forward_gate_open(fwd_layer_)) {
          waiting_for_param_ = false;
          advance_forward();
        }
      }
    }
  }
  close_subflow(kind);
}

void Worker::close_subflow(sched::TaskKind kind) {
  auto& active = kind == sched::TaskKind::kPush ? push_active_ : pull_active_;
  if (--active->open_subflows > 0) return;
  const TimePoint now = sim_.now();
  const sched::TransferTask task = std::move(active->task);
  const TimePoint started = active->started;
  const bool complete = !active->lost_items;
  active.reset();
  if (!complete) {
    // A sub-flow died with a shard (or items were dropped at send time):
    // the task never fully delivered, so it ends without on_task_done —
    // exactly how a whole-tier abort ends a task. The rollback re-enqueues
    // what the lost items owed.
    pump(kind);
    return;
  }
  scheduler(kind).on_task_done(task, started, now);
  if (task.post_delay > Duration::zero()) {
    // Credit-based flow control: hold the NIC until the window-replenishing
    // acknowledgment returns.
    TimePoint& hold = kind == sched::TaskKind::kPush ? push_hold_ : pull_hold_;
    hold = now + task.post_delay;
    sim_.schedule_after(task.post_delay, [this, kind] { pump(kind); });
  } else {
    pump(kind);
  }
}

void Worker::detach_subflows(std::size_t shard) {
  for (const auto kind : {sched::TaskKind::kPush, sched::TaskKind::kPull}) {
    auto& active = kind == sched::TaskKind::kPush ? push_active_ : pull_active_;
    if (!active.has_value() || active->live_on_shard[shard] == 0) continue;
    // The aborted sub-flow's completion callback never fires; account for it
    // here so the surviving sub-flows can still close the task (silently —
    // part of it was lost).
    active->live_on_shard[shard] = 0;
    active->lost_items = true;
    if (--active->open_subflows == 0) active.reset();
  }
}

void Worker::on_param_updated(std::size_t key) {
  // A crashed (or PS-orphaned) worker misses the announcement; recovery
  // re-derives it from the claimed-vs-version gap.
  if (crashed_ || ps_shard_down_[shard_of(key)] != 0) return;
  if (pull_rounds_claimed_[key] >= params_.server->version(key)) return;
  claim_pull(key);
  pump(sched::TaskKind::kPull);
}

void Worker::claim_pull(std::size_t key) {
  const Bytes size = params_.iteration_model->model().tensor(key).bytes;
  PROPHET_CHECK_MSG(pull_pending_bytes_[key] == 0,
                    "param update claimed while a previous pull is still pending");
  ++pull_rounds_claimed_[key];
  pull_pending_bytes_[key] = size.count();
  enqueue_time_pull_[key] = sim_.now();
  pull_sched_->enqueue(key, size, sim_.now());
}

void Worker::reclaim_missed_pulls() {
  for (std::size_t key = 0; key < pull_rounds_claimed_.size(); ++key) {
    if (pull_rounds_claimed_[key] < params_.server->version(key)) claim_pull(key);
  }
}

void Worker::repush_owed_rounds() {
  if (iter_ == 0) return;
  for (std::size_t g = 0; g < push_rounds_done_.size(); ++g) {
    if (push_rounds_done_[g] >= iter_) continue;
    // The round-k barrier precedes backward k, so the debt is exactly the
    // one round whose transfers were in flight when the fault hit.
    PROPHET_CHECK_MSG(push_rounds_done_[g] + 1 == iter_,
                      "fault recovery found a push debt deeper than one round; "
                      "the BSP barrier should have stopped the worker earlier");
    enqueue_time_push_[g] = sim_.now();
    enqueue_iter_push_[g] = iter_ - 1;
    push_sched_->enqueue(g, params_.iteration_model->model().tensor(g).bytes,
                         sim_.now());
  }
}

void Worker::halt_inflight() {
  ++incarnation_;  // fences every scheduled compute callback
  for (auto& channel : channels_) channel->abort_all();
  push_active_.reset();
  pull_active_.reset();
  sim_.lane_disarm(push_poll_);
  sim_.lane_disarm(pull_poll_);
  push_hold_ = TimePoint::origin();
  pull_hold_ = TimePoint::origin();
  waiting_for_param_ = false;
  std::fill(pull_pending_bytes_.begin(), pull_pending_bytes_.end(), 0);
  std::fill(push_round_bytes_.begin(), push_round_bytes_.end(), 0);
  if (gpu_.is_busy()) gpu_.idle_from(sim_.now());
}

void Worker::replay_iteration() {
  if (done()) return;
  // The interrupted iteration restarts from the top of forward: its start
  // mark is re-recorded and its compute timing is re-sampled.
  training_.rewind_to(iter_);
  begin_iteration();
}

void Worker::crash() {
  PROPHET_CHECK_MSG(!crashed_, "worker crashed while already down");
  crashed_ = true;
  halt_inflight();
  // Announcements delivered while down are lost; recovery re-claims the gap
  // between what the pull pipeline had accepted and the server's version.
  pull_rounds_claimed_ = pulls_done_;
  params_.server->on_worker_crash(params_.id);
  transfer_log_.record_fault({metrics::FaultKind::kWorkerCrash, sim_.now(), 0});
  if (params_.auditor != nullptr) {
    params_.auditor->on_worker_crash(params_.id, sim_.now());
  }
}

void Worker::recover() {
  PROPHET_CHECK_MSG(crashed_, "worker recover without a crash");
  crashed_ = false;
  transfer_log_.record_fault({metrics::FaultKind::kWorkerRecover, sim_.now(), 0});
  if (params_.auditor != nullptr) {
    params_.auditor->on_worker_recover(params_.id, sim_.now());
  }
  // Queued scheduler work refers to the interrupted round; drop it (Prophet
  // re-plans from its surviving profile, the others start clean).
  push_sched_->on_recovery(sim_.now());
  pull_sched_->on_recovery(sim_.now());
  // rollback() restarts the pipeline once the PS is back. A partially-down
  // tier keeps serving: work addressed to the downed shard is dropped at
  // send time and re-enqueued by that shard's rollback.
  if (all_ps_down()) return;
  reclaim_missed_pulls();
  repush_owed_rounds();
  replay_iteration();
  pump(sched::TaskKind::kPush);
  pump(sched::TaskKind::kPull);
}

void Worker::on_ps_crash() {
  PROPHET_CHECK_MSG(!any_ps_down(), "PS crashed while already down");
  std::fill(ps_shard_down_.begin(), ps_shard_down_.end(), std::uint8_t{1});
  halt_inflight();
  // In-flight pull claims died with the PS round state.
  pull_rounds_claimed_ = pulls_done_;
  transfer_log_.record_fault({metrics::FaultKind::kPsCrash, sim_.now(), 0});
}

void Worker::on_ps_shard_crash(std::size_t shard) {
  PROPHET_CHECK(shard < num_shards());
  PROPHET_CHECK_MSG(ps_shard_down_[shard] == 0, "PS shard crashed while already down");
  ps_shard_down_[shard] = 1;
  // Only this shard's endpoint died: abort its channel, detach its sub-flows
  // from the active tasks, and leave compute unfenced — forward stalls only
  // when (and if) it reaches a layer that needs a shard-k pull.
  channels_[shard]->abort_all();
  detach_subflows(shard);
  for (std::size_t key = shard; key < pulls_done_.size(); key += num_shards()) {
    // In-flight pulls of the shard's keys died with its round state, and the
    // server-side crash wiped their open partial pushes; mirror both.
    pull_pending_bytes_[key] = 0;
    pull_rounds_claimed_[key] = pulls_done_[key];
    push_round_bytes_[key] = 0;
  }
  transfer_log_.record_fault({metrics::FaultKind::kPsCrash, sim_.now(), 0});
  if (crashed_ || all_ps_down()) return;
  pump(sched::TaskKind::kPush);
  pump(sched::TaskKind::kPull);
}

void Worker::rollback(const std::vector<std::size_t>& versions) {
  PROPHET_CHECK_MSG(all_ps_down(), "rollback without a PS crash");
  PROPHET_CHECK(versions.size() == pulls_done_.size());
  halt_inflight();
  std::size_t target = params_.iterations;
  for (std::size_t k = 0; k < versions.size(); ++k) {
    // Force a re-pull of the snapshot round: the restored parameter value
    // must reach the worker even if it had pulled that round before.
    pulls_done_[k] = versions[k] > 0 ? versions[k] - 1 : 0;
    pull_rounds_claimed_[k] = pulls_done_[k];
    push_rounds_done_[k] = std::min(push_rounds_done_[k], versions[k]);
    target = std::min(target, versions[k]);
  }
  iter_ = std::min(iter_, target);
  std::fill(ps_shard_down_.begin(), ps_shard_down_.end(), std::uint8_t{0});
  transfer_log_.record_fault({metrics::FaultKind::kPsFailover, sim_.now(), 0});
  push_sched_->on_recovery(sim_.now());
  pull_sched_->on_recovery(sim_.now());
  if (crashed_) return;  // this worker restarts on its own recover()
  reclaim_missed_pulls();
  repush_owed_rounds();
  replay_iteration();
  pump(sched::TaskKind::kPush);
  pump(sched::TaskKind::kPull);
}

void Worker::rollback_shard(std::size_t shard,
                            const std::vector<std::size_t>& versions) {
  PROPHET_CHECK(shard < num_shards());
  PROPHET_CHECK_MSG(ps_shard_down_[shard] != 0, "rollback without a PS crash");
  PROPHET_CHECK(versions.size() == pulls_done_.size());
  // Every direction restarts: the halt aborts in-flight transfers on every
  // shard, so open partial pushes on surviving shards must be discarded
  // server-side too — their rounds re-send whole during replay.
  halt_inflight();
  params_.server->discard_open_pushes(params_.id);
  // Interrupted pull claims (on any shard) are re-derived from the
  // claimed-vs-version gap below.
  pull_rounds_claimed_ = pulls_done_;
  std::size_t target = params_.iterations;
  for (std::size_t key = shard; key < versions.size(); key += num_shards()) {
    // Only the shard's keys roll back; `versions` carries the surviving
    // keys' live versions through verbatim (the server's recover_shard
    // contract, version-fenced by the auditor).
    pulls_done_[key] = versions[key] > 0 ? versions[key] - 1 : 0;
    pull_rounds_claimed_[key] = pulls_done_[key];
    push_rounds_done_[key] = std::min(push_rounds_done_[key], versions[key]);
    target = std::min(target, versions[key]);
  }
  iter_ = std::min(iter_, target);
  ps_shard_down_[shard] = 0;
  transfer_log_.record_fault({metrics::FaultKind::kPsFailover, sim_.now(), 0});
  // Shard-aware schedule repair: strategies learn which keys rolled back
  // (Prophet re-plans immediately from its still-warm bandwidth estimate).
  std::vector<std::uint8_t> affected(versions.size(), 0);
  for (std::size_t key = shard; key < affected.size(); key += num_shards()) {
    affected[key] = 1;
  }
  push_sched_->on_partial_recovery(affected, sim_.now());
  pull_sched_->on_partial_recovery(affected, sim_.now());
  if (crashed_) return;  // this worker restarts on its own recover()
  reclaim_missed_pulls();
  repush_owed_rounds();
  replay_iteration();
  pump(sched::TaskKind::kPush);
  pump(sched::TaskKind::kPull);
}

void Worker::set_loss_rate(double rate) {
  for (auto& channel : channels_) channel->set_loss_rate(rate);
}

void Worker::finish() {
  gpu_.finish(sim_.now());
  training_.finish(sim_.now());
  tx_monitor_->stop();
  rx_monitor_->stop();
}

}  // namespace prophet::ps
