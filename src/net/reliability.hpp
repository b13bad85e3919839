// Reliable transport over FlowNetwork: the retransmission substrate the
// paper's EC2 runs get from TCP for free, made explicit so its cost under
// loss is measurable.
//
// A ReliableChannel wraps start_flow with per-attempt loss injection (seeded
// via common/rng, so a fixed seed replays the identical fault timeline), a
// per-attempt no-progress watchdog, bounded exponential backoff with jitter
// and a retry budget. A failed attempt resumes from the bytes already drained
// (byte-range resume), so no byte goes over the wire twice.
//
// Pay-for-use: at loss rate 0 (until set_loss_rate) a send is one start_flow
// and zero extra events, lanes or RNG draws — a fault-free run is
// bit-identical to one built without this layer. A send creates its two
// lanes at its first attempt launched with loss on. The channel still tracks
// the live FlowId so a crash can abort in-flight transfers (abort_all).
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "net/flow_network.hpp"

namespace prophet::net {

// Delivered to the sender's completion callback.
struct SendOutcome {
  std::size_t attempts = 1;
};

// Transport-fault notification (a failed attempt that will be retried).
struct ChannelFault {
  enum class Kind {
    kLoss,     // injected in-flight drop
    kTimeout,  // no-progress watchdog expired
  };
  Kind kind = Kind::kLoss;
  std::size_t attempt = 0;  // failed attempt, 1-based
  Duration backoff{};       // wait before the next attempt
};

class ReliableChannel {
 public:
  using CompleteFn = std::function<void(const SendOutcome&)>;
  using FaultFn = std::function<void(const ChannelFault&)>;

  // `retry_budget`: retries per transfer beyond its first attempt.
  ReliableChannel(sim::Simulator& sim, FlowNetwork& net, std::size_t retry_budget,
                  Rng rng);
  // Destroys the lanes of every in-flight send.
  ~ReliableChannel();
  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  // Starts a reliable transfer; `on_complete` fires exactly once, when every
  // byte has drained (after however many attempts that takes).
  void send(NodeId src, NodeId dst, Bytes size, CompleteFn on_complete);

  // Crash support: abandons every in-flight send. Their completion callbacks
  // never fire and their flows are cancelled immediately.
  void abort_all();

  // Per-attempt in-flight loss probability from now on (dynamics `loss_rate`
  // events); must lie in [0, 1), and be 0 under a zero retry budget.
  void set_loss_rate(double rate);

  // Observer for retry events (metrics/trace recording); optional.
  void set_fault_handler(FaultFn fn) { on_fault_ = std::move(fn); }

  [[nodiscard]] std::size_t inflight() const { return sends_.size(); }

 private:
  struct Pending {
    NodeId src = 0;
    NodeId dst = 0;
    Bytes attempt_bytes = Bytes::zero();  // undrained tail the attempt sends
    std::size_t attempts = 0;
    FlowId flow = 0;
    bool flow_live = false;
    double watchdog_remaining = 0.0;  // progress marker at last watchdog check
    CompleteFn on_complete;
    // kNoLane until the first attempt launched with loss on. `timer` aims at
    // a doomed attempt's drop point while its flow is live, and at the end of
    // the backoff between attempts; `watchdog` is the no-progress check.
    sim::LaneId timer = sim::kNoLane;
    sim::LaneId watchdog = sim::kNoLane;
  };

  void launch(std::uint64_t id);
  void on_attempt_complete(std::uint64_t id);
  void on_watchdog(std::uint64_t id);
  void fail_attempt(std::uint64_t id, ChannelFault::Kind kind);
  [[nodiscard]] Duration backoff_for(std::size_t failed_attempts);
  void destroy_lanes(const Pending& p);

  sim::Simulator& sim_;
  FlowNetwork& net_;
  std::size_t retry_budget_;
  double loss_rate_ = 0.0;
  Rng rng_;
  FaultFn on_fault_;
  // Keyed by a monotone id; point lookups plus a deterministic full walk in
  // abort_all, so an ordered map keeps replay exact.
  std::map<std::uint64_t, Pending> sends_;
  std::uint64_t next_id_ = 0;
};

}  // namespace prophet::net
