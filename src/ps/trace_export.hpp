// Exports a finished training run as a Chrome trace (chrome://tracing /
// Perfetto): one process per worker with GPU-compute, gradient-push and
// parameter-pull lanes. GPU gaps in the viewer are exactly the T_wait the
// paper's scheduling minimizes.
//
// Phases emitted per worker process:
//   GPU compute lane   — "compute" spans (ph "X"), gaps are parameter waits;
//   gradient push lane — one span per push transfer, sized by bytes;
//   parameter pull lane— one span per pull transfer;
//   faults lane        — instant markers (ph "i"): "retry" (a reliable-
//     transport attempt failed and backed off), "worker_crash" /
//     "worker_recover" (process loss and restart), "ps_crash" /
//     "ps_failover" (parameter-server loss and checkpoint restore).
//
// The GPU lane replays the raw busy intervals and the push and pull lanes
// the raw transfer records; both are kept only under
// ClusterConfig::keep_transfer_records. A result whose logs counted records
// they did not keep, or whose trained workers kept no busy interval (a ring
// run counts no records), aborts before the file is opened.
#pragma once

#include <string>

#include "ps/cluster.hpp"

namespace prophet::ps {

void export_chrome_trace(const ClusterResult& result, const std::string& path);

}  // namespace prophet::ps
