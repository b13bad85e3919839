// Fig. 5 — the illustrative example: how default MXNet, P3, ByteScheduler
// and Prophet schedule a 3-gradient backward pass. Gradient 2 (1 partition)
// is generated first, gradient 1 (3 partitions) at 10 ms, and the critical
// gradient 0 at 30 ms. The schedulers are the real implementations driven
// over a single serialized NIC; the Gantt rows below correspond to the
// paper's timeline sketch — Prophet sends exactly the two partitions of
// gradient 1 that fit before gradient 0 appears, so gradient 0 never queues.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/prophet_scheduler.hpp"
#include "sched/bytescheduler.hpp"
#include "sched/fifo.hpp"
#include "testing_profiles_fig5.hpp"

namespace prophet::bench {
namespace {

using sched::CommScheduler;
using sched::TaskKind;

struct Arrival {
  Duration at;
  std::size_t grad;
  Bytes bytes;
};

struct GanttRow {
  Duration start;
  Duration end;
  std::string what;
  std::size_t priority;
};

// Drives `scheduler` over one serialized NIC: arrivals enqueue gradients,
// the NIC runs one task at a time, costs follow the shared cost model.
std::vector<GanttRow> drive(CommScheduler& scheduler, std::vector<Arrival> arrivals,
                            const net::TcpCostModel& cost, Bandwidth bandwidth) {
  std::vector<GanttRow> rows;
  TimePoint now = TimePoint::origin();
  TimePoint nic_free = now;
  std::size_t next_arrival = 0;
  scheduler.on_iteration_start(0, now);
  for (;;) {
    // Deliver everything generated up to `now`.
    while (next_arrival < arrivals.size() &&
           TimePoint::origin() + arrivals[next_arrival].at <= now) {
      const auto& a = arrivals[next_arrival++];
      scheduler.enqueue(a.grad, a.bytes, TimePoint::origin() + a.at);
    }
    if (now < nic_free) {
      now = nic_free;
      continue;
    }
    auto task = scheduler.next_task(now);
    if (!task.has_value()) {
      if (next_arrival == arrivals.size()) break;  // drained
      now = TimePoint::origin() + arrivals[next_arrival].at;  // idle until next event
      continue;
    }
    const Duration dur = cost.duration(task->total_bytes(), bandwidth);
    std::string what;
    for (const auto& item : task->items) {
      if (!what.empty()) what += " + ";
      what += "g" + std::to_string(item.grad);
      if (item.bytes < Bytes::mib(3) && item.offset > Bytes::zero()) {
        what += "[part " + std::to_string(item.offset.count() / (1 << 20) + 1) + "]";
      } else if (!item.last_slice || item.offset > Bytes::zero()) {
        what += "[part " + std::to_string(item.offset.count() / (1 << 20) + 1) +
                (item.last_slice ? "*" : "") + "]";
      }
      what += " (" + format_bytes(item.bytes) + ")";
    }
    rows.push_back(GanttRow{now - TimePoint::origin(),
                            now + dur - TimePoint::origin(), what,
                            task->priority()});
    scheduler.on_task_done(*task, now, now + dur);
    nic_free = now + dur + task->post_delay;
    now = nic_free;
  }
  return rows;
}

void show(const std::string& label, const std::vector<GanttRow>& rows) {
  std::printf("\n%s\n", label.c_str());
  Duration g0_done = Duration::zero();
  for (const auto& row : rows) {
    std::printf("  [%6.1f - %6.1f ms]  %s\n", row.start.to_millis(),
                row.end.to_millis(), row.what.c_str());
    if (row.priority == 0) g0_done = std::max(g0_done, row.end);
  }
  std::printf("  -> gradient 0 pushed by %.1f ms; makespan %.1f ms\n",
              g0_done.to_millis(), rows.back().end.to_millis());
}

int run() {
  banner("Fig. 5 — illustrative example, four scheduling strategies",
         "g2 (1 MiB) at 0 ms, g1 (3 MiB) at 10 ms, g0 (1 MiB) at 30 ms; "
         "~100 MiB/s with 1 ms per-task overhead");

  net::TcpCostParams params;
  params.per_task_overhead = Duration::millis(1);
  params.slow_start = false;
  const net::TcpCostModel cost{params};
  const Bandwidth bw = Bandwidth::bytes_per_sec(100.0 * 1024 * 1024);

  const std::vector<Arrival> arrivals{
      {Duration::zero(), 2, Bytes::mib(1)},
      {Duration::millis(10), 1, Bytes::mib(3)},
      {Duration::millis(30), 0, Bytes::mib(1)},
  };

  {
    sched::FifoScheduler fifo{TaskKind::kPush, Duration::millis(1)};
    show("Default MXNet (FIFO): g1 blocks g0 even though g0 is critical",
         drive(fifo, arrivals, cost, bw));
  }
  {
    sched::ByteSchedulerScheduler p3{
        TaskKind::kPush,
        sched::ByteSchedulerConfig::p3(Bytes::mib(1), Duration::millis(1))};
    show("P3: 1 MiB partitions, strict priority, one blocking call each",
         drive(p3, arrivals, cost, bw));
  }
  {
    sched::ByteSchedulerConfig bs_cfg;
    bs_cfg.partition_bytes = Bytes::mib(1);
    bs_cfg.credit_bytes = Bytes::mib(3);  // the paper's "3 partitions" credit
    sched::ByteSchedulerScheduler bs{TaskKind::kPush, bs_cfg};
    show("ByteScheduler: credit-sized groups (3 partitions)",
         drive(bs, arrivals, cost, bw));
  }
  {
    core::ProphetConfig cfg;
    cfg.budget_margin = 0.0;
    cfg.min_block = Bytes::of(1);
    cfg.forward_group_max = Bytes::mib(8);
    core::ProphetScheduler prophet{TaskKind::kPush, 3, [bw] { return bw; },
                                   cost, cfg};
    prophet.set_profile(fig5_profile());
    show("Prophet: sends the partitions that fit each interval; g0 preempts "
         "instantly",
         drive(prophet, arrivals, cost, bw));
  }

  std::printf("\nProphet's gradient-0 completion is the earliest: forward "
              "propagation of the next iteration starts first (the paper's "
              "core mechanism).\n");
  return 0;
}

}  // namespace
}  // namespace prophet::bench

int main() { return prophet::bench::run(); }
