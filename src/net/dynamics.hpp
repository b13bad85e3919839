// Network-dynamics and fault-injection plans: a time-sorted script of events
// the cluster driver applies to a *running* simulation — per-link bandwidth
// shifts, transient link outages (in-flight transfers stall and resume),
// straggler compute slowdowns and PS CPU degradation.
//
// This is the regime the paper's Sec. 2.2 / Fig. 3(b) argues about: Prophet
// re-plans from *monitored* bandwidth while fixed-credit schedulers keep a
// tuning that no longer matches the network. A plan can be scripted (fluent
// builders), generated from a seeded RNG (`fluctuation`) or loaded from a
// CSV trace (`from_trace_csv`); all three are plain data, so a fixed seed
// always replays the identical timeline.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "common/units.hpp"

namespace prophet::net {

struct DynamicsEvent {
  enum class Type {
    kBandwidthScale,  // re-rate a NIC to factor x its *configured* capacity
    kBandwidthSet,    // re-rate a NIC to an absolute capacity
    kOutageStart,     // link fully down: draining flows park at rate zero
    kOutageEnd,       // link back up: parked flows resume, re-rated
    kComputeScale,    // stretch a worker's compute times by factor (straggler)
    kPsComputeScale,  // stretch the PS's per-update CPU cost by factor
    kWorkerCrash,     // worker process dies: in-flight push/pull state is lost
    kWorkerRecover,   // worker restarts and replays its current iteration
    kPsCrash,         // PS dies; workers stall against a dead endpoint
    kPsRecover,       // PS restores the last checkpoint; workers roll back
    kLossRate,        // re-rate the per-attempt transport loss probability
  };

  Duration at{};  // offset from simulation start
  Type type = Type::kBandwidthScale;
  // Bandwidth/outage target: one worker, every worker (nullopt), or the PS.
  // Compute events ignore `target_ps`; kPsComputeScale ignores both.
  std::optional<std::size_t> worker;
  bool target_ps = false;
  // Narrows a PS-targeted event to one shard of a sharded parameter server
  // (ClusterConfig::ps_shards): a kPsCrash/kPsRecover pair rolls back only
  // that shard's rounds, kPsComputeScale degrades only that shard's CPU, and
  // PS bandwidth/outage events hit only that shard's access links. Unset
  // means the whole PS tier, which on ps_shards=1 is the historical
  // single-server behavior.
  std::optional<std::size_t> ps_shard;
  // Alternative bandwidth/outage target: a named topology link ("rack0.up",
  // "worker1.rx"), a rack name (both spine directions) or a node name (both
  // access links). Non-empty `link` wins over worker/target_ps. Both
  // spellings resolve to links once, when the plan is armed; a node name and
  // its worker/PS index reach the same {tx, rx} links.
  std::string link;
  double factor = 1.0;    // scale events
  Bandwidth bandwidth;    // kBandwidthSet payload

  [[nodiscard]] bool targets_link() const { return !link.empty(); }
};

struct DynamicsPlan {
  std::vector<DynamicsEvent> events;

  [[nodiscard]] bool empty() const { return events.empty(); }

  // --- fluent builders (scripted plans) -----------------------------------
  // Each appends and returns *this; call sort() if events were not added in
  // chronological order (validate() rejects unsorted plans).
  DynamicsPlan& bandwidth_scale(Duration at, std::optional<std::size_t> worker,
                                double factor);
  DynamicsPlan& ps_bandwidth_scale(Duration at, double factor);
  // Link-targeted variants: `link` names a topology link, rack or node (see
  // DynamicsEvent::link); an empty name aborts. Resolution happens when the
  // plan is armed against a built network, so plans stay plain data.
  DynamicsPlan& link_bandwidth_scale(Duration at, std::string link, double factor);
  DynamicsPlan& link_outage(Duration at, Duration duration, std::string link);
  // Appends the outage start *and* its end at `at + duration`.
  DynamicsPlan& outage(Duration at, Duration duration,
                       std::optional<std::size_t> worker);
  DynamicsPlan& ps_outage(Duration at, Duration duration);
  DynamicsPlan& straggler(Duration at, std::size_t worker, double factor);
  DynamicsPlan& ps_degrade(Duration at, double factor);
  // Appends the crash *and* its recovery at `at + downtime`. Worker crashes
  // need a concrete index (a cluster-wide worker wipeout is not a recoverable
  // BSP state); PS crashes roll every worker back to the last checkpoint.
  DynamicsPlan& worker_crash(Duration at, Duration downtime, std::size_t worker);
  DynamicsPlan& ps_crash(Duration at, Duration failover);
  // Per-shard variant for sharded PS tiers: the crash/recover pair carries
  // `ps_shard`, so only that shard's keys roll back while the surviving
  // shards keep serving.
  DynamicsPlan& ps_shard_crash(Duration at, Duration failover, std::size_t shard);
  // Transport loss probability from `at` onward (factor carries the rate;
  // 0 turns injection back off).
  DynamicsPlan& loss_rate(Duration at, double rate);

  // --- generators ---------------------------------------------------------
  // Seeded-random congestion dips: every `period`, each worker NIC is
  // re-scaled to a factor drawn uniformly from [1 - amplitude, 1] (floored
  // at 0.05x), until `horizon` — the configured rate is the line rate, so
  // cross-traffic only subtracts. amplitude 0 yields an empty plan.
  static DynamicsPlan fluctuation(std::uint64_t seed, double amplitude,
                                  Duration period, Duration horizon,
                                  std::size_t num_workers);

  // Trace-driven: CSV rows `time_s,event,target,value` where event is one of
  // bandwidth_scale|bandwidth_gbps|outage_start|outage_end|compute_scale|
  // ps_compute_scale|worker_crash|worker_recover|ps_crash|ps_recover|
  // loss_rate, target is a worker index, `*` (all workers), `ps`, `shard:K`
  // (one PS shard of a sharded tier), or `link:NAME` (a topology
  // link/rack/node name, bandwidth and outage events only), and value
  // carries the factor / Gbit-per-second rate / loss probability
  // (ignored for outages and crash/recover events). Lines starting with `#`
  // or `time_s` are skipped.
  static std::optional<DynamicsPlan> from_trace_csv(const std::string& path,
                                                    std::string* error = nullptr);

  // --- CLI spec parsing (run_experiment's flags) --------------------------
  // "none" | "fluctuate:AMP[:PERIOD_S]" | "step:T_S:FACTOR[:WORKER]" |
  // "trace:PATH". Fluctuation runs to `horizon` over `num_workers` NICs,
  // seeded by `seed`; steps re-rate one worker NIC (or all) permanently.
  static std::optional<DynamicsPlan> from_spec(const std::string& spec,
                                               std::uint64_t seed, Duration horizon,
                                               std::size_t num_workers,
                                               std::string* error = nullptr);
  // "T_S:DUR_S[:WORKER]" — transient link outage (worker omitted: all).
  bool add_outage_spec(const std::string& spec, std::string* error = nullptr);
  // "WORKER:FACTOR[:T_S]" — compute slowdown from T_S (default 0) onward.
  bool add_straggler_spec(const std::string& spec, std::string* error = nullptr);
  // "FACTOR[:T_S]" — PS CPU degradation from T_S (default 0) onward.
  bool add_ps_degrade_spec(const std::string& spec, std::string* error = nullptr);
  // "T_S:DUR_S:WORKER" — worker crash at T_S, restart after DUR_S.
  bool add_worker_crash_spec(const std::string& spec, std::string* error = nullptr);
  // "T_S:DUR_S[:shard:K]" — PS crash at T_S, checkpoint failover completes
  // after DUR_S; the optional `shard:K` suffix confines the crash to PS
  // shard K of a sharded tier.
  bool add_ps_crash_spec(const std::string& spec, std::string* error = nullptr);
  // "RATE[:T_S]" — transport loss probability from T_S (default 0) onward.
  bool add_loss_spec(const std::string& spec, std::string* error = nullptr);

  // Stable-sorts events by time (same-instant events keep insertion order,
  // so a sorted plan replays bit-identically).
  void sort();

  // Aborts with a clear message on a malformed plan: unsorted or negative
  // event times, out-of-range worker indices, non-positive scale factors or
  // bandwidths, compute_scale events aimed at the PS tier, crash events that
  // overlap an active crash of the same node (or recoveries without a
  // crash), worker crashes without a concrete worker index, loss rates
  // outside [0, 1), or link targets on event types other than
  // bandwidth/outage. `ps_shards` bounds per-shard PS targets; whole-PS and
  // per-shard crash windows of the same tier may not overlap (a whole-tier
  // rollback has no well-defined arithmetic while one shard is already
  // mid-failover). Outages pair per target as a trace CSV spells it (`*`,
  // an index, `ps`, `shard:K`, `link:NAME`): an outage_start on a target
  // whose outage is open, an outage_end on a target with none open, or an
  // outage that never ends aborts, naming the target and the time. Windows
  // under different spellings may overlap on the same links (`*` and `1`):
  // net::FlowNetwork counts each as one down-hold, so they compose.
  void validate(std::size_t num_workers, std::size_t ps_shards = 1) const;

  // True if any event is a crash/recover of the given flavor (the cluster
  // driver uses these to arm checkpointing only when needed).
  [[nodiscard]] bool has_ps_crash() const;
  [[nodiscard]] bool has_worker_crash() const;
  [[nodiscard]] bool has_loss() const;
};

}  // namespace prophet::net
