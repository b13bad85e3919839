// The parameter server: aggregates each key's gradient pushes across
// workers, applies the update, and announces updated parameters.
//
// BSP: key k updates once every worker's push for the current round arrived;
// all workers are then notified (their pull schedulers can fetch it).
// ASP: each worker's push triggers an immediate update visible to that
// worker alone — the paper's future-work extension.
//
// The key space may be striped across several PS shards (ShardMap): each
// shard is an independent failure domain with its own CPU pipeline, epoch
// fence, checkpoint log, and crash/recover lifecycle. One Server object
// still owns every key — the sharding shows up as per-shard state plus
// shard-scoped crash()/recover() arithmetic — while the fabric-level
// fan-out (one node and one reliable channel per shard) lives in
// JobRuntime/Worker. ps_shards=1 is bit-identical to the historical
// single-server behavior.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "audit/bsp_auditor.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "dnn/tensor.hpp"
#include "ps/shard_map.hpp"
#include "sim/simulator.hpp"

namespace prophet::ps {

class Server {
 public:
  // `on_updated(worker, key)` fires when `key`'s new value becomes pullable
  // by `worker`.
  using UpdateCallback = std::function<void(std::size_t worker, std::size_t key)>;

  // `serialize_cpu` models the PS's aggregation/optimizer work as a single
  // serialized resource (the classic CPU-bound parameter server): concurrent
  // key updates queue instead of proceeding in parallel — per shard, since
  // each shard is its own process on its own host.
  Server(sim::Simulator& sim, const dnn::ModelSpec& model, std::size_t num_workers,
         bool asp, Duration update_fixed, double update_bytes_per_sec,
         UpdateCallback on_updated, bool serialize_cpu = false,
         std::size_t ps_shards = 1);

  // All bytes of `key` from `worker` for the current round have arrived.
  void on_push_bytes(std::size_t worker, std::size_t key, Bytes bytes);

  // Number of completed update rounds for `key`.
  [[nodiscard]] std::size_t version(std::size_t key) const;

  [[nodiscard]] const ShardMap& shard_map() const { return shard_map_; }
  [[nodiscard]] std::size_t num_shards() const { return shard_map_.num_shards(); }

  // Dynamics hooks: stretch every subsequent update's CPU cost by `factor`
  // (PS CPU degradation injection; factor > 1 slows the PS down) — on every
  // shard, or on one shard of a sharded tier.
  void set_cpu_factor(double factor);
  void set_shard_cpu_factor(std::size_t shard, double factor);

  // --- crash / checkpoint failover (BSP only) ------------------------------
  // Optional passive invariant checker; never perturbs the timeline.
  void set_auditor(audit::BspAuditor* auditor) { auditor_ = auditor; }

  // Arms checkpointing: recover() restores key versions to the state at the
  // last multiple of `period` before the crash. Purely passive — completed
  // rounds are logged as they happen; no snapshot events enter the timeline.
  void enable_failover(Duration period);

  // PS process dies: the open round's partial contributions are lost and
  // updates already in the CPU pipeline never announce. The whole-tier
  // spelling crashes every shard; the shard spelling is a single failure
  // domain — the surviving shards keep aggregating and announcing.
  void crash();
  void crash_shard(std::size_t shard);
  // Failover completes: restores the last checkpoint and returns the
  // per-key versions workers must roll back to. Requires enable_failover.
  // recover_shard restores only shard k's keys and returns the full-length
  // version vector (surviving keys carry their live versions), so callers —
  // and the auditor's version-fencing — always see whole-model context.
  std::vector<std::size_t> recover();
  [[nodiscard]] std::vector<std::size_t> recover_shard(std::size_t shard);
  [[nodiscard]] bool crashed() const;
  [[nodiscard]] bool shard_crashed(std::size_t shard) const;

  // The per-key versions a failover hitting each shard *right now* would
  // restore (the last checkpoint boundary at or before the current instant).
  // Status API: callers must consume the result — it is the only way to see
  // checkpoint progress without injecting a crash.
  [[nodiscard]] std::vector<std::size_t> checkpoint_versions() const;

  // Worker `worker` died: its partial (incomplete) contributions to the open
  // round are discarded; fully delivered contributions stand.
  void on_worker_crash(std::size_t worker);
  // Same wipe, shared with per-shard failover rollback: a worker whose
  // in-flight transfers were aborted discards its open partial pushes (on
  // every shard) and re-sends those rounds whole during replay.
  void discard_open_pushes(std::size_t worker);

 private:
  void complete_round(std::size_t key);
  // Schedules an update of `cost` on `shard`'s CPU, honoring serialization;
  // `done` runs at the update's completion instant.
  void schedule_update(std::size_t shard, Duration cost, std::function<void()> done);

  sim::Simulator& sim_;
  std::size_t num_workers_;
  bool asp_;
  Duration update_fixed_;
  double update_bytes_per_sec_;
  UpdateCallback on_updated_;
  bool serialize_cpu_;
  ShardMap shard_map_;
  audit::BspAuditor* auditor_ = nullptr;
  bool failover_enabled_ = false;
  Duration failover_period_{};

  // Passive checkpoint source: every completed round in order, per shard.
  // recover_shard() counts entries up to the snapshot instant and truncates
  // the rest.
  struct RoundEntry {
    TimePoint at;
    std::size_t key;
  };
  // One failure domain per shard: its own CPU queue, degrade factor, epoch
  // fence (updates scheduled before a crash capture the epoch and no-op if
  // it moved — the pre-crash pipeline never announces), and round log.
  struct ShardState {
    double cpu_factor = 1.0;
    TimePoint cpu_free{};
    bool crashed = false;
    std::uint64_t epoch = 0;
    TimePoint crash_time{};
    std::vector<RoundEntry> round_log;
  };
  std::vector<ShardState> shards_;

  struct KeyState {
    Bytes size;
    std::vector<std::int64_t> received;  // bytes received per worker this round
    std::size_t arrived = 0;             // workers fully received this round
    std::size_t versions = 0;
  };
  std::vector<KeyState> keys_;
};

}  // namespace prophet::ps
