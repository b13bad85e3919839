// Driver for all-reduce training runs: W workers in a ring, a collective
// Coordinator running one of the communication strategies, and the result
// schema the PS engine reports — so the two dominant DDNN architectures can
// be compared under identical workloads.
#pragma once

#include <optional>

#include "ps/cluster.hpp"
#include "ps/config.hpp"

namespace prophet::ar {

// Runs `config` (model / batch / fabric / strategy / iterations) as a ring.
// The ring members are hosts on `*config.topology`, so on a leaf-spine the
// ring crosses the spine between racks. PS-only fields (ps_bandwidth,
// update costs, checkpoints) are ignored. The config is validated, and what
// the ring does not model — dynamics, ps_shards > 1, ASP, transport loss —
// is rejected before the first event, as is a default window with no
// iterations to measure.
//
// Each worker reports its rate, GPU utilization, training metrics and GPU
// series; `transfers`, `tx_series` and `rx_series` stay empty because the
// ring attaches no trackers, and `audit_checks` is 0 (there is no auditor).
ps::ClusterResult run_allreduce(const ps::ClusterConfig& config,
                                std::optional<std::size_t> measure_first = {});

}  // namespace prophet::ar
