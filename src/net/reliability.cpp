#include "net/reliability.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace prophet::net {

namespace {
// Backoff before the first retry; each further retry doubles it up to
// backoff_cap.
constexpr Duration kFirstBackoff = Duration::millis(2);
}  // namespace

void ReliabilityConfig::validate() const {
  PROPHET_CHECK_MSG(loss_rate >= 0.0 && loss_rate < 1.0,
                    "ReliabilityConfig: loss_rate must be in [0, 1)");
  PROPHET_CHECK_MSG(stall_timeout > Duration::zero(),
                    "ReliabilityConfig: stall_timeout must be > 0");
  PROPHET_CHECK_MSG(backoff_cap >= kFirstBackoff,
                    "ReliabilityConfig: backoff_cap must be >= the 2 ms first "
                    "backoff");
  PROPHET_CHECK_MSG(backoff_jitter >= 0.0 && backoff_jitter <= 1.0,
                    "ReliabilityConfig: backoff_jitter must be in [0, 1]");
  PROPHET_CHECK_MSG(!enabled() || retry_budget >= 1,
                    "ReliabilityConfig: retry budget of zero with loss enabled "
                    "would hang on the first drop; set retry_budget >= 1");
}

ReliableChannel::ReliableChannel(sim::Simulator& sim, FlowNetwork& net,
                                 ReliabilityConfig config, Rng rng)
    : sim_{sim}, net_{net}, config_{config}, rng_{rng} {
  config_.validate();
}

void ReliableChannel::set_loss_rate(double rate) {
  PROPHET_CHECK_MSG(rate >= 0.0 && rate < 1.0,
                    "ReliableChannel: loss rate must be in [0, 1)");
  config_.loss_rate = rate;
  if (config_.enabled()) config_.validate();
}

void ReliableChannel::send(NodeId src, NodeId dst, Bytes size,
                           CompleteFn on_complete) {
  PROPHET_CHECK(on_complete != nullptr);
  const std::uint64_t id = next_id_++;
  Pending& p = sends_[id];
  p.src = src;
  p.dst = dst;
  p.attempt_bytes = size;
  p.on_complete = std::move(on_complete);
  launch(id);
}

void ReliableChannel::launch(std::uint64_t id) {
  Pending& p = sends_.at(id);
  ++p.attempts;
  p.flow = net_.start_flow(p.src, p.dst, p.attempt_bytes,
                           [this, id](FlowId) { on_attempt_complete(id); });
  p.flow_live = true;
  if (!config_.enabled()) return;

  // Doomed attempts are decided up front (one bernoulli per attempt) and the
  // drop lands at a uniform point inside the attempt's ideal serialization
  // window (bytes over the bottleneck line rate). That window lower-bounds
  // the real completion time — congestion only stretches it — so a doomed
  // attempt fails before it can finish no matter how small the transfer is.
  if (rng_.bernoulli(config_.loss_rate)) {
    const Bandwidth line =
        std::min(net_.link_capacity(net_.node_link(p.src, Direction::kTx)),
                 net_.link_capacity(net_.node_link(p.dst, Direction::kRx)));
    const Duration ideal = line.time_to_send(p.attempt_bytes);
    const Duration drop_after =
        std::max(ideal * rng_.next_double(), Duration::nanos(1));
    p.loss_event = sim_.schedule_after(
        drop_after, [this, id] { fail_attempt(id, ChannelFault::Kind::kLoss); });
  }
  p.watchdog_remaining = static_cast<double>(p.attempt_bytes.count());
  p.watchdog =
      sim_.schedule_after(config_.stall_timeout, [this, id] { on_watchdog(id); });
}

void ReliableChannel::on_watchdog(std::uint64_t id) {
  Pending& p = sends_.at(id);
  const double remaining = net_.flow_remaining_bytes(p.flow);
  if (remaining < p.watchdog_remaining) {
    // Bytes moved since the last check: still alive, re-arm.
    p.watchdog_remaining = remaining;
    p.watchdog =
        sim_.schedule_after(config_.stall_timeout, [this, id] { on_watchdog(id); });
    return;
  }
  fail_attempt(id, ChannelFault::Kind::kTimeout);
}

void ReliableChannel::cancel_timers(Pending& p) {
  p.loss_event.cancel();
  p.watchdog.cancel();
  p.retry_event.cancel();
}

Duration ReliableChannel::backoff_for(std::size_t failed_attempts) {
  Duration backoff = kFirstBackoff;
  for (std::size_t i = 1; i < failed_attempts && backoff < config_.backoff_cap;
       ++i) {
    backoff = backoff * std::int64_t{2};
  }
  backoff = std::min(backoff, config_.backoff_cap);
  if (config_.backoff_jitter > 0.0) {
    backoff = backoff * (1.0 - config_.backoff_jitter * rng_.next_double());
  }
  return std::max(backoff, Duration::nanos(1));
}

void ReliableChannel::fail_attempt(std::uint64_t id, ChannelFault::Kind kind) {
  Pending& p = sends_.at(id);
  cancel_timers(p);
  Bytes remaining = p.attempt_bytes;
  if (p.flow_live) {
    remaining = net_.cancel_flow(p.flow);
    p.flow_live = false;
  }
  PROPHET_CHECK_MSG(
      p.attempts <= config_.retry_budget,
      "reliable transfer exhausted its retry budget; raise "
      "ReliabilityConfig::retry_budget or lower loss_rate");
  // Byte-range resume: keep what drained, send only the tail.
  p.attempt_bytes = remaining;
  const Duration backoff = backoff_for(p.attempts);
  if (on_fault_) {
    ChannelFault fault;
    fault.kind = kind;
    fault.attempt = p.attempts;
    fault.backoff = backoff;
    on_fault_(fault);
  }
  p.retry_event = sim_.schedule_after(backoff, [this, id] { launch(id); });
}

void ReliableChannel::on_attempt_complete(std::uint64_t id) {
  Pending& p = sends_.at(id);
  p.flow_live = false;
  cancel_timers(p);
  SendOutcome outcome;
  outcome.attempts = p.attempts;
  CompleteFn done = std::move(p.on_complete);
  sends_.erase(id);
  done(outcome);
}

void ReliableChannel::abort_all() {
  for (auto& [id, p] : sends_) {
    cancel_timers(p);
    if (p.flow_live) {
      net_.cancel_flow(p.flow);
      p.flow_live = false;
    }
  }
  sends_.clear();
}

}  // namespace prophet::net
