// BSP invariant auditor: an always-on, purely passive checker that mirrors
// the protocol state the PS layer claims to maintain and aborts with a
// diagnostic the moment the two disagree.
//
// The invariants it enforces are the correctness claims crash recovery and
// reliable transport must not break:
//   * exactly one gradient contribution per tensor per worker per round —
//     a round completes only when every worker delivered the key's full
//     byte count exactly once (retries and replayed iterations included);
//   * bytes are conserved: per-round delivered bytes never exceed the key
//     size, nothing is left partially delivered when training ends, and —
//     per PS shard — every byte ever pushed was either aggregated into a
//     completed round or explicitly discarded by a crash;
//   * simulation time is monotone across every audited event;
//   * the BSP barrier holds: no worker finishes forward propagation of
//     iteration k (= starts backward k) before it pulled round-k updates of
//     every key, and no round k+1 completes before round k. The barrier is
//     whole-model even under a sharded PS: sharding changes which rounds a
//     failover rolls back, never which rounds an iteration needs;
//   * version fencing: a rollback of PS shard k may move only shard-k keys'
//     versions — surviving shards' versions must pass through untouched.
//
// The auditor is fed by hooks in Server / Worker / the cluster driver; it
// never schedules events, draws random numbers, or mutates the simulation,
// so wiring it in cannot perturb a timeline (pay-for-use determinism). In
// ASP mode there is no barrier to audit and the cluster runs without one.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "common/units.hpp"

namespace prophet::audit {

class BspAuditor {
 public:
  // `key_sizes[k]` is the full byte count of tensor k; keys are striped
  // across `ps_shards` failure domains (key k on shard k % ps_shards, the
  // same ShardMap arithmetic the PS layer uses).
  BspAuditor(std::size_t num_workers, std::vector<Bytes> key_sizes,
             std::size_t ps_shards = 1);

  // --- server-side hooks ---------------------------------------------------
  // Worker `w` delivered `bytes` of `key` toward the currently open round.
  void on_push_delivered(std::size_t w, std::size_t key, Bytes bytes,
                         TimePoint now);
  // The server found `key`'s round complete (all workers fully delivered).
  void on_round_complete(std::size_t key, TimePoint now);
  // A worker crash wiped its partial (incomplete) contributions.
  void on_push_discarded(std::size_t w, std::size_t key, Bytes bytes,
                         TimePoint now);
  // PS shard `shard` died: its keys' open-round bytes are wiped (and counted
  // as discarded for the shard's byte-conservation ledger); other shards
  // keep serving.
  void on_ps_crash(std::size_t shard, TimePoint now);
  // PS shard `shard`'s failover restored the snapshot `versions` (full
  // length: surviving keys carry their live versions); every worker is
  // rolled back with it (partial deliveries are void, pulls must redo the
  // snapshot round for the shard's keys). Entries outside the shard are
  // version-fenced: they must match the mirror exactly.
  void on_rollback(std::size_t shard, const std::vector<std::size_t>& versions,
                   TimePoint now);

  // --- worker-side hooks ---------------------------------------------------
  // Worker `w` completed its pull of `key`, bringing it to `round` pulls.
  void on_pull_complete(std::size_t w, std::size_t key, std::size_t round,
                        TimePoint now);
  // Worker `w` started (forward of) iteration `iter`; fired for the final
  // boundary too (iter == total iterations).
  void on_iteration_start(std::size_t w, std::size_t iter, TimePoint now);
  // Worker `w` finished forward `iter` and starts backward — the instant the
  // per-worker side of the round-`iter` barrier must already hold.
  void on_backward_start(std::size_t w, std::size_t iter, TimePoint now);
  void on_worker_crash(std::size_t w, TimePoint now);
  void on_worker_recover(std::size_t w, TimePoint now);
  // A reliable-transport attempt failed and will be retried.
  void on_transport_retry(std::size_t w, TimePoint now);

  // End-of-run audit: every key at version `expected_iterations`, every
  // worker across its final boundary, no node down, no partial bytes.
  void finish(std::size_t expected_iterations) const;

  [[nodiscard]] std::uint64_t checks_run() const { return checks_; }

 private:
  // Advances the monotone clock (every hook routes through here).
  void tick(TimePoint now);
  void check(bool ok, const char* what) const;

  [[nodiscard]] std::size_t shard_of(std::size_t key) const {
    return key % ps_shards_;
  }

  std::size_t num_workers_;
  std::vector<Bytes> key_sizes_;
  std::size_t ps_shards_;
  // Mirror of the protocol state, indexed [worker][key] where 2-D.
  std::vector<std::vector<std::int64_t>> delivered_;   // bytes, open round
  std::vector<std::vector<std::size_t>> pushed_;       // completed push rounds
  std::vector<std::vector<std::size_t>> pulls_;        // completed pull rounds
  std::vector<std::size_t> versions_;                  // completed rounds per key
  std::vector<std::int64_t> worker_iter_;              // last started iteration
  std::vector<std::uint8_t> down_;
  std::vector<std::uint8_t> replay_ok_;  // recovery/rollback licenses a replay
  std::vector<std::uint8_t> ps_shard_down_;
  // Per-shard cumulative byte ledger: every delivered byte must end up
  // aggregated (a completed round consumed it) or discarded (a crash wiped
  // it) by the time training finishes.
  std::vector<std::int64_t> pushed_bytes_;
  std::vector<std::int64_t> aggregated_bytes_;
  std::vector<std::int64_t> discarded_bytes_;
  TimePoint last_event_{};
  mutable std::uint64_t checks_ = 0;
};

}  // namespace prophet::audit
