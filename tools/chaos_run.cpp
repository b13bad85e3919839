// Deterministic chaos harness: runs every scheduling strategy under
// seed-derived randomized fault plans (transport loss, a worker crash, and
// periodically a PS failover) with the BSP invariant auditor always on, and
// replays each configuration to prove the fault timeline is bit-identical
// per seed.
//
// Exit status is the contract: 0 means every run finished all iterations,
// no BSP invariant tripped (the auditor aborts the process on violation),
// every run observed its injected faults, and every replay fingerprint
// matched. A second block of cells runs two jobs on one shared
// oversubscribed leaf-spine fabric and holds the combined run to the same
// replay-fingerprint bar. A third, the outage block, overlaps link-down
// windows: a single-PS cell whose PS outage encloses a PS crash, and a
// two-job cell whose jobs both take outages on the shared rack uplink. Each
// window is one down-hold on its links, so neither the crash's recovery nor
// the first job's outage end may bring a link up early. Wired into ctest
// under the `chaos` label.
//
// Every (strategy × seed) and multijob cell is independent, so the matrix
// fans out across cores through exec::parallel_for_index; each cell buffers
// its own output and the buffers are emitted in canonical cell order after
// the barrier, so stdout/stderr and the exit status are byte-identical at
// any --threads value. Unlike the old serial loop, a failing cell no longer
// short-circuits the matrix: every failure is reported.
//
// Usage: chaos_run [--seeds N] [--iterations N] [--threads N] [--verbose]
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/multi_job.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "dnn/model_zoo.hpp"
#include "exec/executor.hpp"
#include "metrics/transfer_log.hpp"
#include "ps/cluster.hpp"

namespace prophet {
namespace {

using namespace prophet::literals;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}
constexpr std::uint64_t kFnvSeed = 14695981039346656037ull;

// Collapses a run into one value: simulation totals plus every per-worker
// iteration start, transfer record and fault event. Two runs of the same
// config must produce the same fingerprint or determinism is broken.
std::uint64_t fingerprint(const ps::ClusterResult& result) {
  std::uint64_t h = kFnvSeed;
  h = fnv1a(h, static_cast<std::uint64_t>(result.simulated_time.count_nanos()));
  h = fnv1a(h, result.events_fired);
  h = fnv1a(h, result.audit_checks);
  for (const auto& w : result.workers) {
    h = fnv1a(h, w.iterations_completed);
    for (std::size_t i = 0; i < w.training.iterations_started(); ++i) {
      h = fnv1a(h, static_cast<std::uint64_t>(
                       w.training.iteration_start(i).count_nanos()));
    }
    h = fnv1a(h, w.transfers.records().size());
    for (const auto& rec : w.transfers.records()) {
      h = fnv1a(h, static_cast<std::uint64_t>(rec.finished.count_nanos()));
      h = fnv1a(h, rec.attempts);
    }
    for (const auto& fault : w.transfers.faults()) {
      h = fnv1a(h, static_cast<std::uint64_t>(fault.kind));
      h = fnv1a(h, static_cast<std::uint64_t>(fault.at.count_nanos()));
    }
  }
  return h;
}

std::size_t total_faults(const ps::ClusterResult& result) {
  std::size_t n = 0;
  for (const auto& w : result.workers) n += w.transfers.faults().size();
  return n;
}

std::size_t total_retries(const ps::ClusterResult& result) {
  std::size_t n = 0;
  for (const auto& w : result.workers) {
    for (const auto& fault : w.transfers.faults()) {
      if (fault.kind == metrics::FaultKind::kTransportRetry) ++n;
    }
  }
  return n;
}

// printf into a std::string, appending.
void appendf(std::string& s, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void appendf(std::string& s, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (n > 0) s.append(buf, static_cast<std::size_t>(n));
}

// The small 2-worker toy_cnn job every single-job cell runs.
ps::ClusterConfig base_config(const ps::StrategyConfig& strategy,
                              std::uint64_t seed, std::size_t iterations) {
  ps::ClusterConfig cfg;
  cfg.model = dnn::toy_cnn();
  cfg.num_workers = 2;
  cfg.batch = 32;
  cfg.iterations = iterations;
  cfg.seed = seed;
  cfg.topology = net::TopologySpec::star(Bandwidth::gbps(1), Bandwidth::gbps(1));
  cfg.strategy = strategy;
  cfg.strategy.prophet_config.profile_iterations = 4;
  cfg.retry_budget = 64;
  cfg.checkpoint_period = 40_ms;
  cfg.keep_transfer_records = true;  // the fingerprint hashes every record
  return cfg;
}

// One strategy x seed cell: a small 2-worker toy_cnn job with a fault plan
// drawn from the seed. All fault instants stay under ~200 ms so they land
// mid-training for every strategy (the fastest finishes in ~260 ms). The
// shard count also derives from the seed, so the matrix sweeps single-PS,
// 2-shard and 3-shard tiers; sharded cells lose one randomly chosen shard
// (partial rollback), single-PS cells periodically lose the whole tier.
ps::ClusterConfig chaos_config(const ps::StrategyConfig& strategy,
                               std::uint64_t seed, std::size_t iterations) {
  ps::ClusterConfig cfg = base_config(strategy, seed, iterations);
  cfg.ps_shards = 1 + seed % 3;

  // The plan RNG is independent of the simulation seed stream on purpose:
  // the same seed must drive both the fault plan and the run.
  Rng plan{seed ^ 0xc4a05u};
  cfg.dynamics.loss_rate(Duration::millis(plan.uniform_int(5, 40)),
                         plan.uniform(0.02, 0.12));
  cfg.dynamics.worker_crash(
      Duration::millis(plan.uniform_int(50, 110)),
      Duration::millis(plan.uniform_int(10, 40)),
      static_cast<std::size_t>(plan.uniform_int(0, 1)));
  if (cfg.ps_shards == 1) {
    cfg.dynamics.ps_crash(Duration::millis(plan.uniform_int(160, 190)),
                          Duration::millis(plan.uniform_int(15, 35)));
  } else {
    cfg.dynamics.ps_shard_crash(
        Duration::millis(plan.uniform_int(160, 190)),
        Duration::millis(plan.uniform_int(15, 35)),
        static_cast<std::size_t>(
            plan.uniform_int(0, static_cast<std::int64_t>(cfg.ps_shards) - 1)));
  }
  return cfg;
}

// Outage-block PS cell: a single-PS tier whose PS outage window encloses a
// PS crash and its failover, so the PS links stay down from the outage start
// to its end whatever the crash does in between.
ps::ClusterConfig ps_outage_config(const ps::StrategyConfig& strategy,
                                   std::uint64_t seed, std::size_t iterations) {
  ps::ClusterConfig cfg = base_config(strategy, seed, iterations);
  Rng plan{seed ^ 0x0a7a6eu};
  const Duration outage_at = Duration::millis(plan.uniform_int(60, 120));
  const Duration crash_at = outage_at + Duration::millis(plan.uniform_int(10, 60));
  const Duration failover = Duration::millis(plan.uniform_int(15, 35));
  const Duration outage_end =
      crash_at + failover + Duration::millis(plan.uniform_int(10, 80));
  cfg.dynamics.ps_outage(outage_at, outage_end - outage_at);
  cfg.dynamics.ps_crash(crash_at, failover);
  cfg.dynamics.sort();
  return cfg;
}

// What one cell hands back to the merge step: buffered stdout/stderr text
// plus the aggregates the matrix-level checks need.
struct ChaosCell {
  std::string out;
  std::string err;
  bool ok = true;
  std::size_t retries = 0;
};

// One single-job cell: `label` names it in diagnostics and --verbose lines.
ChaosCell run_cluster_cell(const std::string& label, const ps::ClusterConfig& cfg,
                           bool verbose) {
  ChaosCell cell;
  const std::uint64_t seed = cfg.seed;
  const std::size_t iterations = cfg.iterations;
  const auto first = ps::run_cluster(cfg, 1);
  const auto replay = ps::run_cluster(cfg, 1);
  const std::uint64_t fp = fingerprint(first);
  if (fp != fingerprint(replay)) {
    appendf(cell.err, "chaos_run: REPLAY DIVERGED strategy=%s seed=%llu\n",
            label.c_str(), static_cast<unsigned long long>(seed));
    cell.ok = false;
    return cell;
  }
  for (const auto& w : first.workers) {
    if (w.iterations_completed != iterations) {
      appendf(cell.err,
              "chaos_run: INCOMPLETE strategy=%s seed=%llu worker=%zu "
              "finished %zu/%zu iterations\n",
              label.c_str(), static_cast<unsigned long long>(seed),
              w.id, w.iterations_completed, iterations);
      cell.ok = false;
      return cell;
    }
  }
  // Every plan contains at least one crash; a run that recorded no
  // fault means the injection silently missed the training window.
  if (total_faults(first) == 0) {
    appendf(cell.err, "chaos_run: NO FAULTS LANDED strategy=%s seed=%llu\n",
            label.c_str(), static_cast<unsigned long long>(seed));
    cell.ok = false;
    return cell;
  }
  if (cfg.dynamics.has_ps_crash()) {
    for (const auto& w : first.workers) {
      std::size_t failovers = 0;
      for (const auto& fault : w.transfers.faults()) {
        if (fault.kind == metrics::FaultKind::kPsFailover) ++failovers;
      }
      if (failovers != 1) {
        appendf(cell.err,
                "chaos_run: PS FAILOVER MISSED strategy=%s seed=%llu "
                "worker=%zu saw %zu failovers\n",
                label.c_str(), static_cast<unsigned long long>(seed),
                w.id, failovers);
        cell.ok = false;
        return cell;
      }
    }
  }
  cell.retries = total_retries(first);
  if (verbose) {
    appendf(cell.out,
            "%-14s seed=%-3llu time=%.3fs faults=%zu retries=%zu "
            "audit_checks=%zu fp=%016llx\n",
            label.c_str(), static_cast<unsigned long long>(seed),
            first.simulated_time.to_seconds(), total_faults(first),
            total_retries(first), first.audit_checks,
            static_cast<unsigned long long>(fp));
  }
  return cell;
}

// Multi-job cell: two toy_cnn jobs sharing one oversubscribed leaf-spine
// spine inside a single event loop, run twice per seed and fingerprint-
// compared — cross-job contention through the shared fabric must replay
// bit-identically just like the single-job faults above.
std::uint64_t multijob_fingerprint(const cluster::MultiJobResult& result) {
  std::uint64_t h = kFnvSeed;
  h = fnv1a(h, static_cast<std::uint64_t>(result.makespan.count_nanos()));
  h = fnv1a(h, result.events_fired);
  h = fnv1a(h, static_cast<std::uint64_t>(result.spine_bytes));
  for (const auto& job : result.jobs) {
    h = fnv1a(h, static_cast<std::uint64_t>(job.finish_time.count_nanos()));
    h = fnv1a(h, static_cast<std::uint64_t>(job.start_offset.count_nanos()));
    h = fnv1a(h, fingerprint(job.result));
  }
  return h;
}

cluster::MultiJobConfig multijob_config(std::uint64_t seed, std::size_t iterations) {
  cluster::MultiJobConfig cfg;
  cfg.topology = net::TopologySpec::leaf_spine(
      /*racks=*/2, /*hosts_per_rack=*/2, Bandwidth::gbps(1),
      /*oversubscription=*/4.0);
  // FIFO striping forces both jobs across the 500 Mbps spine: the cell
  // exercises cross-job link contention, not placement quality.
  cfg.placement = cluster::PlacementPolicy::kFifoStripe;
  cfg.interleave = cluster::InterleavePolicy::kNone;
  for (std::size_t j = 0; j < 2; ++j) {
    cluster::JobSpec job;
    job.config.model = dnn::toy_cnn();
    job.config.num_workers = 1;
    job.config.batch = 32;
    job.config.iterations = iterations;
    job.config.seed = seed + j;
    job.config.strategy = ps::StrategyConfig::fifo();
    job.config.keep_transfer_records = true;
    cfg.jobs.push_back(std::move(job));
  }
  return cfg;
}

// Outage-block two-job cell: each job takes an outage on rack0.up, which
// both jobs' PS-to-worker pulls cross, and the second window opens inside
// the first, so the uplink holds two down-holds while they overlap.
cluster::MultiJobConfig multijob_outage_config(std::uint64_t seed,
                                               std::size_t iterations) {
  cluster::MultiJobConfig cfg = multijob_config(seed, iterations);
  Rng plan{seed ^ 0x5b1ce0u};
  const Duration first_at = Duration::millis(plan.uniform_int(50, 120));
  const Duration first_len = Duration::millis(plan.uniform_int(100, 200));
  const Duration second_at = first_at + Duration::millis(plan.uniform_int(20, 90));
  const Duration second_len = Duration::millis(plan.uniform_int(50, 200));
  cfg.jobs[0].config.dynamics.link_outage(first_at, first_len, "rack0.up");
  cfg.jobs[1].config.dynamics.link_outage(second_at, second_len, "rack0.up");
  return cfg;
}

// One multi-job cell: `label` names it in diagnostics and --verbose lines.
ChaosCell run_multijob_cell(const std::string& label,
                            const cluster::MultiJobConfig& cfg, bool verbose) {
  ChaosCell cell;
  const std::uint64_t seed = cfg.jobs.front().config.seed;
  const auto first = cluster::run_multi_job(cfg);
  const auto replay = cluster::run_multi_job(cfg);
  const std::uint64_t fp = multijob_fingerprint(first);
  if (fp != multijob_fingerprint(replay)) {
    appendf(cell.err, "chaos_run: MULTIJOB REPLAY DIVERGED seed=%llu\n",
            static_cast<unsigned long long>(seed));
    cell.ok = false;
    return cell;
  }
  for (std::size_t j = 0; j < first.jobs.size(); ++j) {
    const std::size_t iterations = cfg.jobs[j].config.iterations;
    for (const auto& w : first.jobs[j].result.workers) {
      if (w.iterations_completed != iterations) {
        appendf(cell.err,
                "chaos_run: INCOMPLETE %s seed=%llu job=%zu worker=%zu "
                "finished %zu/%zu iterations\n",
                label.c_str(), static_cast<unsigned long long>(seed), j, w.id,
                w.iterations_completed, iterations);
        cell.ok = false;
        return cell;
      }
    }
  }
  if (first.spine_bytes == 0) {
    appendf(cell.err,
            "chaos_run: MULTIJOB cell put no traffic on the spine "
            "seed=%llu\n",
            static_cast<unsigned long long>(seed));
    cell.ok = false;
    return cell;
  }
  if (verbose) {
    appendf(cell.out,
            "%-14s seed=%-3llu makespan=%.3fs spine=%lld fp=%016llx\n",
            label.c_str(), static_cast<unsigned long long>(seed),
            first.makespan.to_seconds(),
            static_cast<long long>(first.spine_bytes),
            static_cast<unsigned long long>(fp));
  }
  return cell;
}

int run_chaos(std::size_t seeds, std::size_t iterations, unsigned threads,
              bool verbose) {
  const std::vector<ps::StrategyConfig> strategies{
      ps::StrategyConfig::fifo(), ps::StrategyConfig::p3(),
      ps::StrategyConfig::bytescheduler(), ps::StrategyConfig::prophet()};

  // Canonical cell order (the serial-loop order): strategy-major matrix
  // cells, then the multijob block, then the outage block (per seed, its PS
  // cell, which rotates through the strategies, then its two-job cell).
  const std::size_t matrix_cells = strategies.size() * seeds;
  const std::size_t outage_first = matrix_cells + seeds;
  const std::size_t n_cells = outage_first + 2 * seeds;
  std::vector<ChaosCell> cells(n_cells);
  exec::parallel_for_index(
      n_cells,
      [&](std::size_t i) {
        if (i < matrix_cells) {
          const auto& strategy = strategies[i / seeds];
          const std::uint64_t seed = 1 + i % seeds;
          cells[i] = run_cluster_cell(
              strategy.name(), chaos_config(strategy, seed, iterations), verbose);
        } else if (i < outage_first) {
          const std::uint64_t seed = 1 + (i - matrix_cells);
          cells[i] =
              run_multijob_cell("multijob", multijob_config(seed, iterations), verbose);
        } else {
          const std::uint64_t seed = 1 + (i - outage_first) / 2;
          if ((i - outage_first) % 2 == 0) {
            const auto& strategy = strategies[(seed - 1) % strategies.size()];
            cells[i] = run_cluster_cell(
                "outage/" + strategy.name(),
                ps_outage_config(strategy, seed, iterations), verbose);
          } else {
            cells[i] = run_multijob_cell(
                "outage/2jobs", multijob_outage_config(seed, iterations), verbose);
          }
        }
      },
      threads);

  // Deterministic merge: emit buffered output in cell order, then the
  // matrix-level summaries, exactly as the serial loops printed them.
  std::size_t failures = 0;
  std::size_t retries_total = 0;
  for (std::size_t i = 0; i < n_cells; ++i) {
    const ChaosCell& cell = cells[i];
    if (!cell.out.empty()) std::fputs(cell.out.c_str(), stdout);
    if (!cell.err.empty()) std::fputs(cell.err.c_str(), stderr);
    if (!cell.ok) ++failures;
    if (i < matrix_cells) retries_total += cell.retries;
  }
  if (failures != 0) return 1;
  // Across the whole matrix the loss injection must have bitten somewhere;
  // zero retries overall means the loss model regressed to a no-op.
  if (retries_total == 0) {
    std::fprintf(stderr, "chaos_run: loss injection produced zero retries\n");
    return 1;
  }
  std::printf("chaos_run: %zu runs x2 replays clean (%zu transport retries)\n",
              matrix_cells, retries_total);
  std::printf("chaos_run: %zu multijob cells x2 replays clean\n", seeds);
  std::printf("chaos_run: %zu outage cells x2 replays clean\n", 2 * seeds);
  return 0;
}

}  // namespace
}  // namespace prophet

int main(int argc, char** argv) {
  std::string error;
  const auto flags = prophet::Flags::parse(
      argc, argv, {"seeds", "iterations", "threads", "verbose"}, &error);
  if (!flags) {
    std::fprintf(stderr, "chaos_run: %s\n", error.c_str());
    return 1;
  }
  // A negative count would wrap to a huge unsigned value below.
  for (const char* count : {"seeds", "iterations", "threads"}) {
    if (flags->get(count, std::int64_t{0}) < 0) {
      std::fprintf(stderr, "chaos_run: --%s must be non-negative\n", count);
      return 1;
    }
  }
  const auto seeds = static_cast<std::size_t>(flags->get("seeds", std::int64_t{20}));
  const auto iterations =
      static_cast<std::size_t>(flags->get("iterations", std::int64_t{14}));
  const auto threads =
      static_cast<unsigned>(flags->get("threads", std::int64_t{0}));
  const bool verbose = flags->get("verbose", false);
  return prophet::run_chaos(seeds, iterations, threads, verbose);
}
