#include "audit/bsp_auditor.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/check.hpp"

namespace prophet::audit {

BspAuditor::BspAuditor(std::size_t num_workers, std::vector<Bytes> key_sizes,
                       std::size_t ps_shards)
    : num_workers_{num_workers},
      key_sizes_{std::move(key_sizes)},
      ps_shards_{ps_shards} {
  PROPHET_CHECK(num_workers_ > 0);
  PROPHET_CHECK(!key_sizes_.empty());
  PROPHET_CHECK(ps_shards_ > 0 && ps_shards_ <= key_sizes_.size());
  const std::size_t keys = key_sizes_.size();
  delivered_.assign(num_workers_, std::vector<std::int64_t>(keys, 0));
  pushed_.assign(num_workers_, std::vector<std::size_t>(keys, 0));
  pulls_.assign(num_workers_, std::vector<std::size_t>(keys, 0));
  versions_.assign(keys, 0);
  worker_iter_.assign(num_workers_, -1);
  down_.assign(num_workers_, 0);
  replay_ok_.assign(num_workers_, 0);
  ps_shard_down_.assign(ps_shards_, 0);
  pushed_bytes_.assign(ps_shards_, 0);
  aggregated_bytes_.assign(ps_shards_, 0);
  discarded_bytes_.assign(ps_shards_, 0);
}

void BspAuditor::check(bool ok, const char* what) const {
  ++checks_;
  if (ok) return;
  std::fprintf(stderr, "BSP audit violation: %s\n", what);
  std::abort();
}

void BspAuditor::tick(TimePoint now) {
  check(now >= last_event_, "simulation time ran backwards across audited events");
  last_event_ = now;
}

void BspAuditor::on_push_delivered(std::size_t w, std::size_t key, Bytes bytes,
                                   TimePoint now) {
  tick(now);
  check(w < num_workers_ && key < key_sizes_.size(), "push outside the cluster");
  check(down_[w] == 0, "push delivered from a crashed worker");
  check(ps_shard_down_[shard_of(key)] == 0,
        "push delivered to a crashed parameter-server shard");
  pushed_bytes_[shard_of(key)] += bytes.count();
  delivered_[w][key] += bytes.count();
  check(delivered_[w][key] <= key_sizes_[key].count(),
        "worker delivered more bytes of a key than one round holds — a "
        "duplicate gradient or a retry that failed to conserve bytes");
  if (delivered_[w][key] == key_sizes_[key].count()) {
    ++pushed_[w][key];
    check(pushed_[w][key] <= versions_[key] + 1,
          "worker contributed to a round beyond the one currently open");
  }
}

void BspAuditor::on_round_complete(std::size_t key, TimePoint now) {
  tick(now);
  check(key < key_sizes_.size(), "round completion outside the model");
  check(ps_shard_down_[shard_of(key)] == 0,
        "round completed on a crashed parameter-server shard");
  aggregated_bytes_[shard_of(key)] +=
      key_sizes_[key].count() * static_cast<std::int64_t>(num_workers_);
  ++versions_[key];
  for (std::size_t w = 0; w < num_workers_; ++w) {
    check(delivered_[w][key] == key_sizes_[key].count(),
          "round completed without every worker's full contribution");
    check(pushed_[w][key] == versions_[key],
          "round completed with a worker's contribution count off by one — "
          "not exactly one gradient per tensor per worker per round");
    delivered_[w][key] = 0;
  }
}

void BspAuditor::on_push_discarded(std::size_t w, std::size_t key, Bytes bytes,
                                   TimePoint now) {
  tick(now);
  check(w < num_workers_ && key < key_sizes_.size(), "discard outside the cluster");
  check(delivered_[w][key] == bytes.count(),
        "crash wiped a different partial byte count than was delivered");
  check(bytes.count() < key_sizes_[key].count(),
        "crash wiped a full contribution (only partial rounds may be discarded)");
  discarded_bytes_[shard_of(key)] += bytes.count();
  delivered_[w][key] = 0;
}

void BspAuditor::on_pull_complete(std::size_t w, std::size_t key, std::size_t round,
                                  TimePoint now) {
  tick(now);
  check(w < num_workers_ && key < key_sizes_.size(), "pull outside the cluster");
  check(down_[w] == 0, "pull completed on a crashed worker");
  check(round == pulls_[w][key] + 1, "pull rounds must advance one at a time");
  check(round <= versions_[key], "worker pulled a round the PS has not completed");
  pulls_[w][key] = round;
}

void BspAuditor::on_iteration_start(std::size_t w, std::size_t iter, TimePoint now) {
  tick(now);
  check(w < num_workers_, "iteration start outside the cluster");
  check(down_[w] == 0, "iteration started on a crashed worker");
  const auto it = static_cast<std::int64_t>(iter);
  if (replay_ok_[w] != 0) {
    check(it <= worker_iter_[w] + 1, "recovery replay jumped an iteration forward");
    replay_ok_[w] = 0;
  } else {
    check(it == worker_iter_[w] + 1,
          "iteration started out of order without a recovery to license it");
  }
  worker_iter_[w] = it;
}

void BspAuditor::on_backward_start(std::size_t w, std::size_t iter, TimePoint now) {
  tick(now);
  check(w < num_workers_, "backward start outside the cluster");
  check(down_[w] == 0, "backward started on a crashed worker");
  check(static_cast<std::int64_t>(iter) == worker_iter_[w],
        "backward started for an iteration the worker is not in");
  if (iter == 0) return;
  for (std::size_t key = 0; key < key_sizes_.size(); ++key) {
    // The BSP barrier, per worker: finishing forward `iter` takes round-iter
    // parameters of every key, which in turn takes round `iter` complete.
    check(pulls_[w][key] >= iter,
          "worker crossed into backward before pulling every round-k update — "
          "the BSP barrier was breached");
  }
}

void BspAuditor::on_worker_crash(std::size_t w, TimePoint now) {
  tick(now);
  check(w < num_workers_, "crash outside the cluster");
  check(down_[w] == 0, "worker crashed while already down");
  down_[w] = 1;
}

void BspAuditor::on_worker_recover(std::size_t w, TimePoint now) {
  tick(now);
  check(w < num_workers_, "recover outside the cluster");
  check(down_[w] != 0, "worker recovered without having crashed");
  for (std::size_t key = 0; key < key_sizes_.size(); ++key) {
    // The crash must have wiped partial contributions; full ones stand (the
    // worker may die having fully contributed to a round another worker has
    // not finished yet).
    check(delivered_[w][key] == 0 ||
              delivered_[w][key] == key_sizes_[key].count(),
          "worker recovered with partial push bytes still on the books");
  }
  down_[w] = 0;
  replay_ok_[w] = 1;
}

void BspAuditor::on_ps_crash(std::size_t shard, TimePoint now) {
  tick(now);
  check(shard < ps_shards_, "PS crash outside the shard set");
  check(ps_shard_down_[shard] == 0, "PS shard crashed while already down");
  ps_shard_down_[shard] = 1;
  // The crash wipes the open round's state on this shard's keys server-side;
  // the wiped bytes (partial and full contributions alike) will never
  // aggregate, so they move to the shard's discarded ledger. Other shards'
  // keys are untouched — they keep serving.
  for (auto& per_worker : delivered_) {
    for (std::size_t key = shard; key < per_worker.size(); key += ps_shards_) {
      discarded_bytes_[shard] += per_worker[key];
      per_worker[key] = 0;
    }
  }
}

void BspAuditor::on_rollback(std::size_t shard,
                             const std::vector<std::size_t>& versions,
                             TimePoint now) {
  tick(now);
  check(shard < ps_shards_, "rollback outside the shard set");
  check(ps_shard_down_[shard] != 0, "rollback without a PS crash");
  check(versions.size() == key_sizes_.size(), "rollback snapshot shape mismatch");
  for (std::size_t key = 0; key < versions.size(); ++key) {
    if (shard_of(key) != shard) {
      // Version fencing: a shard failover must not move another shard's
      // versions — the whole-model snapshot it reports carries the survivors
      // through verbatim.
      check(versions[key] == versions_[key],
            "rollback of one PS shard moved a surviving shard's version");
      continue;
    }
    check(versions[key] <= versions_[key],
          "rollback restored a snapshot from the future");
    versions_[key] = versions[key];
    for (std::size_t w = 0; w < num_workers_; ++w) {
      pushed_[w][key] = std::min(pushed_[w][key], versions[key]);
      // Failover forces a re-pull of the snapshot round.
      pulls_[w][key] = versions[key] > 0 ? versions[key] - 1 : 0;
    }
  }
  for (std::size_t w = 0; w < num_workers_; ++w) replay_ok_[w] = 1;
  ps_shard_down_[shard] = 0;
}

void BspAuditor::on_transport_retry(std::size_t w, TimePoint now) {
  tick(now);
  check(w < num_workers_, "retry outside the cluster");
}

void BspAuditor::finish(std::size_t expected_iterations) const {
  for (std::size_t s = 0; s < ps_shards_; ++s) {
    check(ps_shard_down_[s] == 0, "training ended with a PS shard down");
    // Per-shard byte conservation: every byte ever pushed to the shard was
    // either aggregated into a completed round or discarded by a crash.
    check(pushed_bytes_[s] == aggregated_bytes_[s] + discarded_bytes_[s],
          "a PS shard's cumulative pushed bytes do not equal its aggregated "
          "plus discarded bytes — per-shard byte conservation broken");
  }
  for (std::size_t w = 0; w < num_workers_; ++w) {
    check(down_[w] == 0, "training ended with a worker down");
    check(worker_iter_[w] == static_cast<std::int64_t>(expected_iterations),
          "a worker never crossed its final iteration boundary");
  }
  for (std::size_t key = 0; key < key_sizes_.size(); ++key) {
    check(versions_[key] == expected_iterations,
          "a key's completed rounds do not match the iteration count — "
          "gradients were lost or double-counted across faults");
    for (std::size_t w = 0; w < num_workers_; ++w) {
      check(delivered_[w][key] == 0,
            "training ended with partially delivered bytes — bytes were not "
            "conserved across retries");
    }
  }
}

}  // namespace prophet::audit
