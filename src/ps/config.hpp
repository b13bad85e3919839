// Full configuration of a simulated DDNN training cluster (Sec. 5.1 setup:
// up to 8 g3.8xlarge instances, 1 PS + N workers, 1-10 Gbps networks).
#pragma once

#include <cstdint>
#include <optional>

#include "common/time.hpp"
#include "common/units.hpp"
#include "dnn/gpu.hpp"
#include "dnn/iteration_model.hpp"
#include "dnn/model_zoo.hpp"
#include "net/cost_model.hpp"
#include "net/dynamics.hpp"
#include "net/monitor.hpp"
#include "net/topology.hpp"
#include "ps/strategy.hpp"

namespace prophet::ps {

enum class SyncMode {
  kBsp,  // Bulk Synchronous Parallel (the paper's setting)
  kAsp,  // Asynchronous Parallel (paper's future-work extension)
};

struct ClusterConfig {
  std::size_t num_workers = 3;
  dnn::ModelSpec model = dnn::resnet50();
  int batch = 64;
  std::size_t iterations = 30;
  std::uint64_t seed = 42;
  // Per-layer compute time jitter (lognormal sigma).
  double jitter_sigma = 0.02;

  dnn::GpuSpec gpu = dnn::tesla_m60_pair();
  dnn::KvStoreConfig kvstore;
  net::TcpCostParams tcp;
  net::BandwidthMonitorConfig monitor;
  SyncMode sync = SyncMode::kBsp;
  StrategyConfig strategy = StrategyConfig::prophet();

  // Network-dynamics / fault-injection timeline applied at event time while
  // the cluster runs (bandwidth shifts, outages, stragglers, PS slowdown,
  // worker/PS crashes, transport loss). Empty by default: a static network.
  net::DynamicsPlan dynamics;

  // Retries per worker<->PS transfer beyond its first attempt once a dynamics
  // `loss_rate` event turns transport loss on; exhausting it aborts the run
  // loudly (the simulation models a training job that would hang, not one
  // that silently drops a gradient).
  std::size_t retry_budget = 16;

  // PS checkpoint period: a `ps_crash` failover restores key versions to the
  // last multiple of this before the crash. Only consulted when the dynamics
  // plan contains a ps_crash event.
  Duration checkpoint_period = Duration::seconds(2);

  // Number of parameter-server shards the key space is striped across
  // (ShardMap: key k lives on shard k % ps_shards). Each shard is its own
  // fabric node with its own reliable channel per worker, checkpoints
  // independently, and a `ps_crash` targeted at `shard:K` rolls back only
  // that shard's rounds while the others keep serving. 1 (the default) is
  // bit-identical to the historical single-PS cluster.
  std::size_t ps_shards = 1;

  // Network fabric the cluster runs on: TopologySpec::star(worker_bw, ps_bw
  // [, per-worker overrides]) or TopologySpec::leaf_spine(...). Defaults to
  // the 10/10 Gbps star. Always engaged — validate() rejects an empty value.
  std::optional<net::TopologySpec> topology = net::TopologySpec{};

  // Rate-rebalance engine for the shared FlowNetwork: kIncremental (default)
  // rebalances only the contention component a change touches; kFull re-runs
  // the original whole-network recompute (kept as the reference baseline —
  // bench/scale measures one against the other). `verify_rates` makes every
  // incremental rebalance differential-check its rates bit-for-bit against a
  // full recompute; test-only, it aborts on divergence.
  net::RebalanceMode rate_rebalance = net::RebalanceMode::kIncremental;
  bool verify_rates = false;

  // PS-side aggregation + optimizer step applied per updated key: the PS is
  // CPU-bound (sums W gradient copies and runs the optimizer), a well-known
  // parameter-server bottleneck.
  Duration update_fixed = Duration::micros(200);
  double update_bytes_per_sec = 4e9;
  // Model the PS CPU as a serialized resource (updates queue) instead of
  // independent per-key delays.
  bool serialize_ps_cpu = false;

  // Each worker's TransferLog streams its push summaries (overall() and
  // per_gradient()) over the run's measurement window and counts every
  // record; it keeps the raw TransferRecords — 64 bytes per tensor,
  // direction and iteration — only when this is set. The same switch keeps
  // each worker's raw GPU busy intervals (WorkerResult::gpu_intervals, PS
  // and ring runs alike); utilization and the GPU series never need them.
  // Readers of records() or gpu_intervals opt in: run_experiment --trace
  // (the Chrome trace export), trace_explorer and chaos_run.
  bool keep_transfer_records = false;

  // Utilization / throughput series resolution and horizon.
  Duration metrics_bin = Duration::millis(250);
  Duration metrics_horizon = Duration::seconds(900);

  // Worker w's NIC rate: its star override entry, else the star's uniform
  // worker rate; a leaf-spine host's rate.
  [[nodiscard]] Bandwidth bandwidth_of_worker(std::size_t w) const {
    const net::TopologySpec& t = *topology;
    if (t.kind == net::TopologySpec::Kind::kLeafSpine) return t.host_bandwidth;
    if (w < t.worker_bandwidth_override.size() &&
        !t.worker_bandwidth_override[w].is_zero()) {
      return t.worker_bandwidth_override[w];
    }
    return t.worker_bandwidth;
  }

  // First iteration of the default measurement window [warmup, iterations):
  // past Prophet's profiling phase plus three iterations of slack (three for
  // every other strategy), so strategies compare at steady state. Aborts,
  // naming the fields, when fewer than two iterations would remain.
  // The JobRuntime constructor (under run_cluster and run_multi_job) and
  // ar::run_allreduce call it before the first event unless given an
  // explicit window.
  [[nodiscard]] std::size_t default_measure_first() const;

  // Single validation entry point, called by run_cluster, run_multi_job (per
  // job) and ar::run_allreduce before they build anything: aborts with a
  // clear message on a misconfiguration (zero workers, too few iterations,
  // non-positive bandwidths or update rate, an override vector longer than
  // the cluster, a malformed dynamics plan, ...) instead of silently
  // simulating nonsense.
  void validate() const;
};

}  // namespace prophet::ps
