#include "ps/trace_export.hpp"

#include <cstdio>

#include "common/check.hpp"
#include "metrics/chrome_trace.hpp"

namespace prophet::ps {

namespace {
constexpr int kGpuLane = 0;
constexpr int kPushLane = 1;
constexpr int kPullLane = 2;
constexpr int kFaultLane = 3;
}  // namespace

void export_chrome_trace(const ClusterResult& result, const std::string& path) {
  for (const auto& worker : result.workers) {
    PROPHET_CHECK_MSG(worker.transfers.records().size() == worker.transfers.count(),
                      ("export_chrome_trace: worker " + std::to_string(worker.id) +
                       " counted " + std::to_string(worker.transfers.count()) +
                       " transfer records but kept " +
                       std::to_string(worker.transfers.records().size()) +
                       "; run with ClusterConfig::keep_transfer_records = true")
                          .c_str());
    // A ring result counts no records, so its GPU lane is the tell.
    PROPHET_CHECK_MSG(worker.iterations_completed == 0 || !worker.gpu_intervals.empty(),
                      ("export_chrome_trace: worker " + std::to_string(worker.id) +
                       " trained but kept no GPU busy intervals; run with "
                       "ClusterConfig::keep_transfer_records = true")
                          .c_str());
  }
  metrics::ChromeTraceWriter trace{path};
  for (const auto& worker : result.workers) {
    const int pid = static_cast<int>(worker.id);
    trace.name_process(pid, "worker" + std::to_string(worker.id));
    trace.name_thread(pid, kGpuLane, "GPU compute");
    trace.name_thread(pid, kPushLane, "gradient push");
    trace.name_thread(pid, kPullLane, "parameter pull");

    // GPU busy spans are exported whole; the viewer shows waits as gaps.
    for (const auto& [begin, end] : worker.gpu_intervals) {
      trace.add_span("compute", "gpu", pid, kGpuLane, begin, end - begin);
    }
    for (const auto& rec : worker.transfers.records()) {
      const int lane = rec.kind == sched::TaskKind::kPush ? kPushLane : kPullLane;
      char name[64];
      std::snprintf(name, sizeof name, "g%zu (%s)", rec.grad,
                    format_bytes(rec.bytes).c_str());
      trace.add_span(name, sched::to_string(rec.kind), pid, lane, rec.started,
                     rec.transfer());
    }
    if (!worker.transfers.faults().empty()) {
      trace.name_thread(pid, kFaultLane, "faults");
      for (const auto& fault : worker.transfers.faults()) {
        trace.add_instant(metrics::fault_name(fault.kind), "fault", pid,
                          kFaultLane, fault.at);
      }
    }
  }
  trace.close();
}

}  // namespace prophet::ps
