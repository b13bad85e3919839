#include "net/reliability.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace prophet::net {

namespace {
// No-progress watchdog: an attempt that drains nothing for this long is
// declared lost (covers both injected losses that stall the stream and flows
// parked behind a link outage). Long transfers keep resetting the watchdog as
// bytes drain, so the timeout does not bound transfer size.
constexpr Duration kStallTimeout = Duration::millis(200);
// Exponential backoff before retry n: kFirstBackoff * 2^(n-1), capped at
// kBackoffCap.
constexpr Duration kFirstBackoff = Duration::millis(2);
constexpr Duration kBackoffCap = Duration::millis(200);
// Fraction of the backoff subtracted uniformly at random (decorrelates retry
// storms after a shared fault).
constexpr double kBackoffJitter = 0.2;
}  // namespace

ReliableChannel::ReliableChannel(sim::Simulator& sim, FlowNetwork& net,
                                 std::size_t retry_budget, Rng rng)
    : sim_{sim}, net_{net}, retry_budget_{retry_budget}, rng_{rng} {}

ReliableChannel::~ReliableChannel() {
  for (const auto& [id, p] : sends_) destroy_lanes(p);
}

void ReliableChannel::set_loss_rate(double rate) {
  PROPHET_CHECK_MSG(rate >= 0.0 && rate < 1.0,
                    "ReliableChannel: loss rate must be in [0, 1)");
  PROPHET_CHECK_MSG(rate <= 0.0 || retry_budget_ >= 1,
                    "ReliableChannel: retry budget of zero with loss enabled "
                    "would hang on the first drop; set retry_budget >= 1");
  loss_rate_ = rate;
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
  if (loss_rate_ <= 0.0) return;
  if (p.timer == sim::kNoLane) {
    p.timer = sim_.lane_create([this, id] {
      if (sends_.at(id).flow_live) {
        fail_attempt(id, ChannelFault::Kind::kLoss);
      } else {
        launch(id);  // the backoff ended
      }
    });
    p.watchdog = sim_.lane_create([this, id] { on_watchdog(id); });
  }

  // Doomed attempts are decided up front (one bernoulli per attempt) and the
  // drop lands at a uniform point inside the attempt's ideal serialization
  // window (bytes over the bottleneck line rate). That window lower-bounds
  // the real completion time — congestion only stretches it — so a doomed
  // attempt fails before it can finish no matter how small the transfer is.
  if (rng_.bernoulli(loss_rate_)) {
    const Bandwidth line =
        std::min(net_.link_capacity(net_.node_link(p.src, Direction::kTx)),
                 net_.link_capacity(net_.node_link(p.dst, Direction::kRx)));
    const Duration ideal = line.time_to_send(p.attempt_bytes);
    const Duration drop_after =
        std::max(ideal * rng_.next_double(), Duration::nanos(1));
    sim_.lane_aim(p.timer, sim_.now() + drop_after);
  }
  p.watchdog_remaining = static_cast<double>(p.attempt_bytes.count());
  sim_.lane_aim(p.watchdog, sim_.now() + kStallTimeout);
}

void ReliableChannel::on_watchdog(std::uint64_t id) {
  Pending& p = sends_.at(id);
  const double remaining = net_.flow_remaining_bytes(p.flow);
  if (remaining < p.watchdog_remaining) {
    // Bytes moved since the last check: still alive, re-arm.
    p.watchdog_remaining = remaining;
    sim_.lane_aim(p.watchdog, sim_.now() + kStallTimeout);
    return;
  }
  fail_attempt(id, ChannelFault::Kind::kTimeout);
}

void ReliableChannel::destroy_lanes(const Pending& p) {
  if (p.timer == sim::kNoLane) return;
  sim_.lane_destroy(p.timer);
  sim_.lane_destroy(p.watchdog);
}

Duration ReliableChannel::backoff_for(std::size_t failed_attempts) {
  Duration backoff = kFirstBackoff;
  for (std::size_t i = 1; i < failed_attempts && backoff < kBackoffCap; ++i) {
    backoff = backoff * std::int64_t{2};
  }
  backoff = std::min(backoff, kBackoffCap);
  backoff = backoff * (1.0 - kBackoffJitter * rng_.next_double());
  return std::max(backoff, Duration::nanos(1));
}

void ReliableChannel::fail_attempt(std::uint64_t id, ChannelFault::Kind kind) {
  Pending& p = sends_.at(id);
  // One of the two lanes is running this callback: disarming it is a no-op.
  sim_.lane_disarm(p.timer);
  sim_.lane_disarm(p.watchdog);
  Bytes remaining = p.attempt_bytes;
  if (p.flow_live) {
    remaining = net_.cancel_flow(p.flow);
    p.flow_live = false;
  }
  PROPHET_CHECK_MSG(p.attempts <= retry_budget_,
                    "reliable transfer exhausted its retry budget; raise "
                    "ClusterConfig::retry_budget or lower the loss rate");
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
  sim_.lane_aim(p.timer, sim_.now() + backoff);
}

void ReliableChannel::on_attempt_complete(std::uint64_t id) {
  Pending& p = sends_.at(id);
  p.flow_live = false;
  destroy_lanes(p);
  SendOutcome outcome;
  outcome.attempts = p.attempts;
  CompleteFn done = std::move(p.on_complete);
  sends_.erase(id);
  done(outcome);
}

void ReliableChannel::abort_all() {
  for (auto& [id, p] : sends_) {
    destroy_lanes(p);
    if (p.flow_live) {
      net_.cancel_flow(p.flow);
      p.flow_live = false;
    }
  }
  sends_.clear();
}

}  // namespace prophet::net
