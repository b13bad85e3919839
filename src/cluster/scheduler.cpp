#include "cluster/scheduler.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "dnn/iteration_model.hpp"

namespace prophet::cluster {

const char* placement_name(PlacementPolicy p) {
  switch (p) {
    case PlacementPolicy::kFifoStripe: return "fifo-stripe";
    case PlacementPolicy::kNetworkAware: return "network-aware";
  }
  return "?";
}

const char* interleave_name(InterleavePolicy p) {
  switch (p) {
    case InterleavePolicy::kNone: return "none";
    case InterleavePolicy::kCassini: return "cassini";
  }
  return "?";
}

std::optional<PlacementPolicy> placement_from_name(const std::string& name) {
  if (name == "fifo-stripe") return PlacementPolicy::kFifoStripe;
  if (name == "network-aware") return PlacementPolicy::kNetworkAware;
  return std::nullopt;
}

std::optional<InterleavePolicy> interleave_from_name(const std::string& name) {
  if (name == "none") return InterleavePolicy::kNone;
  if (name == "cassini") return InterleavePolicy::kCassini;
  return std::nullopt;
}

std::size_t Placement::cross_rack_workers() const {
  if (!ps_rack.has_value()) return 0;
  std::size_t n = 0;
  for (const std::size_t r : worker_racks) {
    if (r != *ps_rack) ++n;
  }
  return n;
}

namespace {

std::int64_t model_bytes(const ps::ClusterConfig& cfg) {
  std::int64_t total = 0;
  for (std::size_t k = 0; k < cfg.model.tensor_count(); ++k) {
    total += cfg.model.tensor(k).bytes.count();
  }
  return total;
}

}  // namespace

std::vector<Placement> place_jobs(const net::TopologySpec& topology,
                                  const std::vector<JobSpec>& jobs,
                                  PlacementPolicy policy) {
  std::vector<Placement> placements(jobs.size());
  if (topology.kind == net::TopologySpec::Kind::kStar) return placements;

  std::size_t need = 0;
  for (const JobSpec& job : jobs) need += job.config.num_workers + 1;
  PROPHET_CHECK_MSG(need <= topology.host_capacity(),
                    "cluster scheduler: jobs need more hosts than the fabric has");

  std::vector<std::size_t> free(topology.racks, topology.hosts_per_rack);
  std::size_t cursor = 0;  // fifo-stripe round-robin position
  auto take_striped = [&] {
    while (free[cursor % topology.racks] == 0) ++cursor;
    const std::size_t r = cursor % topology.racks;
    --free[r];
    ++cursor;
    return r;
  };

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::size_t hosts = jobs[j].config.num_workers + 1;
    Placement& p = placements[j];
    if (policy == PlacementPolicy::kFifoStripe) {
      // Naive baseline: hosts land round-robin across racks in submission
      // order, so every job straddles the spine.
      p.ps_rack = take_striped();
      for (std::size_t w = 0; w < jobs[j].config.num_workers; ++w) {
        p.worker_racks.push_back(take_striped());
      }
      continue;
    }
    // Network-aware: best-fit pack. Prefer the fullest rack that still holds
    // the whole job (locality with minimal fragmentation); otherwise spill
    // greedily from the emptiest rack so the spill spans as few racks as
    // possible.
    std::vector<std::size_t> assigned;
    std::size_t best = topology.racks;
    for (std::size_t r = 0; r < topology.racks; ++r) {
      if (free[r] >= hosts && (best == topology.racks || free[r] < free[best])) {
        best = r;
      }
    }
    if (best != topology.racks) {
      assigned.assign(hosts, best);
      free[best] -= hosts;
    } else {
      std::size_t left = hosts;
      while (left > 0) {
        std::size_t widest = 0;
        for (std::size_t r = 1; r < topology.racks; ++r) {
          if (free[r] > free[widest]) widest = r;
        }
        const std::size_t take = std::min(left, free[widest]);
        PROPHET_CHECK(take > 0);
        assigned.insert(assigned.end(), take, widest);
        free[widest] -= take;
        left -= take;
      }
    }
    // PS goes where most of the job sits (the first, widest chunk).
    p.ps_rack = assigned.front();
    p.worker_racks.assign(assigned.begin() + 1, assigned.end());
  }
  return placements;
}

PhaseEstimate estimate_phases(const net::TopologySpec& topology,
                              const ps::ClusterConfig& config,
                              const Placement& placement) {
  PhaseEstimate est;
  const dnn::IterationModel model{config.model, config.gpu, config.batch,
                                  config.kvstore, config.jitter_sigma};
  const dnn::IterationTiming nominal = model.nominal();
  est.compute = nominal.forward_total() + nominal.backward_total();

  const std::int64_t bytes = model_bytes(config);
  const double workers = static_cast<double>(config.num_workers);
  // The PS NIC serializes every worker's push (incast); it bounds the comm
  // phase even with a quiet spine.
  const Bandwidth ps_nic = topology.kind == net::TopologySpec::Kind::kStar
                               ? topology.ps_bandwidth
                               : topology.host_bandwidth;
  Duration comm = Duration::from_seconds(
      workers * static_cast<double>(bytes) / ps_nic.bytes_per_second());
  const std::size_t cross = placement.cross_rack_workers();
  if (cross > 0) {
    est.spine_bytes_per_iter = static_cast<std::int64_t>(cross) * bytes;
    // Cross-rack gradients cross the PS rack's (oversubscribed) links.
    const Duration spine = Duration::from_seconds(
        static_cast<double>(est.spine_bytes_per_iter) /
        topology.uplink_bandwidth().bytes_per_second());
    comm = std::max(comm, spine);
  }
  est.comm = comm;
  est.period = est.compute + est.comm;
  return est;
}

std::vector<Duration> interleave_offsets(const net::TopologySpec& topology,
                                         const std::vector<JobSpec>& jobs,
                                         const std::vector<Placement>& placements,
                                         InterleavePolicy policy) {
  PROPHET_CHECK(jobs.size() == placements.size());
  std::vector<Duration> offsets(jobs.size(), Duration::zero());
  if (policy == InterleavePolicy::kNone) return offsets;
  // Greedy CASSINI-style stagger: each spine-using job starts after the
  // accumulated predicted comm phases of the spine-using jobs before it, so
  // first (and, via BSP self-clocking, subsequent) comm bursts tile the
  // shared links instead of colliding. The stagger wraps at the shortest
  // predicted period — past one period the tiling repeats anyway.
  Duration accumulated = Duration::zero();
  Duration min_period = Duration::zero();
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const PhaseEstimate est =
        estimate_phases(topology, jobs[j].config, placements[j]);
    if (est.spine_bytes_per_iter == 0) continue;
    if (min_period == Duration::zero() || est.period < min_period) {
      min_period = est.period;
    }
    Duration offset = accumulated;
    while (offset >= min_period) offset = offset - min_period;
    offsets[j] = offset;
    accumulated = accumulated + est.comm;
  }
  return offsets;
}

}  // namespace prophet::cluster
