// perfbench: runs one workload for a fixed wall-time budget and
// prints one JSON line with the cells' simulated outputs and the metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --workload NAME --seed N --record
//   perfbench --workload NAME --seed N --setup-only
//
// --trace 0 measures the end-to-end metrics through the library's entry
// points; --trace 1 re-drives every cell with spans around each layer call
// and reports the per-layer metrics; --record runs every cell once and
// prints only the simulated outputs (run.py stores them as references);
// --setup-only times the clusters' set-up alone.
// run.py builds this binary, checks the outputs against the references and
// prints the benchmark's result line.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "exec/executor.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Per-cell outcome over every pass of a run.
struct CellOutcome {
  Fingerprint fp;  // first pass
  std::string error;
  std::size_t failed_runs = 0;
};

// Records one run of `cell`: the first pass sets the fingerprint, later
// passes must reproduce it bit for bit.
void record_run(const Cell& cell, CellOutcome& out, const Fingerprint& fp,
                std::string error, bool first) {
  if (first) out.fp = fp;
  if (error.empty()) error = check_cell(cell, fp);
  if (error.empty() && !first && !(fp == out.fp)) {
    error = "simulated outputs differ between passes of one run";
  }
  if (error.empty()) return;
  ++out.failed_runs;
  if (out.error.empty()) out.error = std::move(error);
}

struct Report {
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<double> pass_walls;
  std::size_t attempted = 0;

  void add(std::string name, double value) { metrics.emplace_back(std::move(name), value); }
};

void print_report(const Workload& w, std::uint64_t seed, const Report& report,
                  const std::vector<CellOutcome>& cells) {
  std::size_t failed = 0;
  for (const auto& c : cells) failed += c.failed_runs;
  std::ostringstream out;
  out << "{\"workload\": " << json_string(w.name) << ", \"seed\": " << seed
      << ", \"passes\": " << report.pass_walls.size() << ", \"pass_s\": [";
  for (std::size_t i = 0; i < report.pass_walls.size(); ++i) {
    out << (i ? ", " : "") << json_number(report.pass_walls[i]);
  }
  out << "], \"attempted\": " << report.attempted
      << ", \"failed\": " << failed << ", \"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Fingerprint& fp = cells[i].fp;
    double lo = 0.0;
    double hi = 0.0;
    if (!fp.rates.empty()) {
      const auto [mn, mx] = std::minmax_element(fp.rates.begin(), fp.rates.end());
      lo = *mn;
      hi = *mx;
    }
    out << (i ? ", " : "") << "{\"name\": " << json_string(w.cells[i].name)
        << ", \"end_ns\": " << fp.end_ns << ", \"rate_mean\": " << json_number(fp.mean_rate())
        << ", \"rate_min\": " << json_number(lo) << ", \"rate_max\": " << json_number(hi)
        << ", \"events\": " << fp.events << ", \"failed_runs\": " << cells[i].failed_runs
        << ", \"error\": " << json_string(cells[i].error) << "}";
  }
  out << "], \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    out << (i ? ", " : "") << json_string(report.metrics[i].first) << ": "
        << json_number(report.metrics[i].second);
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
}

std::uint64_t worker_iterations(const std::vector<CellOutcome>& cells) {
  std::uint64_t total = 0;
  for (const auto& c : cells) total += c.fp.worker_iterations();
  return total;
}

// Mean Prophet rate over mean ByteScheduler-autotune rate, across the groups
// where both ran.
double prophet_vs_bytescheduler(const Workload& w, const std::vector<CellOutcome>& cells) {
  std::map<std::string, std::pair<double, double>> groups;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = w.cells[i];
    if (cell.kind == CellKind::kAllReduce) continue;
    if (cell.strategy == "prophet") groups[cell.group].first = cells[i].fp.mean_rate();
    if (cell.strategy == "bytescheduler-autotune") {
      groups[cell.group].second = cells[i].fp.mean_rate();
    }
  }
  double prophet = 0.0;
  double bytescheduler = 0.0;
  for (const auto& [group, rates] : groups) {
    if (rates.first <= 0.0 || rates.second <= 0.0) continue;
    prophet += rates.first;
    bytescheduler += rates.second;
  }
  return bytescheduler > 0.0 ? prophet / bytescheduler : 0.0;
}

void run_record(const Workload& w, std::uint64_t seed) {
  std::vector<CellOutcome> cells(w.cells.size());
  std::ostringstream sink;
  prophet::exec::run_sweep(
      w.cells.size(),
      [&](std::size_t i) {
        std::string error;
        Fingerprint fp;
        try {
          fp = run_untraced(w.cells[i]);
        } catch (const std::exception& e) {
          error = e.what();
        }
        record_run(w.cells[i], cells[i], fp, std::move(error), true);
        return prophet::exec::CellResult{};
      },
      sink, w.threads);
  Report report;
  report.attempted = cells.size();
  print_report(w, seed, report, cells);
}

// Set-up is milliseconds per workload and varies more between processes
// than within one, so run.py takes the median over several processes of
// this in-process median.
void run_setup_mode(const Workload& w) {
  std::vector<double> setups;
  double spent = 0.0;
  while (setups.size() < 5 || spent < 0.2) {
    double total = 0.0;
    for (const auto& cell : w.cells) total += time_setup(cell);
    setups.push_back(total);
    spent += total;
  }
  std::printf("{\"setup_s\": %s}\n", json_number(median(setups)).c_str());
}

// End-to-end metrics: whole passes over the cells through the library entry
// points until the budget is spent.
void run_untraced_mode(const Workload& w, std::uint64_t seed, double budget_s) {
  const auto t_start = WallClock::now();
  std::vector<CellOutcome> cells(w.cells.size());
  // Host (CPU) seconds of each cell, one entry per pass.
  std::vector<std::vector<double>> cell_s(w.cells.size());
  Report report;
  std::vector<double>& pass_walls = report.pass_walls;
  std::ostringstream sink;
  do {
    const bool first = pass_walls.empty();
    std::vector<Fingerprint> fps(w.cells.size());
    std::vector<std::string> errors(w.cells.size());
    const auto t0 = WallClock::now();
    prophet::exec::run_sweep(
        w.cells.size(),
        [&](std::size_t i) {
          const auto c0 = Clock::now();
          try {
            fps[i] = run_untraced(w.cells[i]);
          } catch (const std::exception& e) {
            errors[i] = e.what();
          }
          cell_s[i].push_back(seconds_since(c0));
          return prophet::exec::CellResult{};
        },
        sink, w.threads);
    pass_walls.push_back(seconds_since(t0));
    for (std::size_t i = 0; i < cells.size(); ++i) {
      record_run(w.cells[i], cells[i], fps[i], std::move(errors[i]), first);
    }
    report.attempted += cells.size();
  } while (seconds_since(t_start) + pass_walls.back() <= budget_s);

  // Each cell's median over the passes. A cell run includes its clusters'
  // set-up, which is under 0.1% of it.
  double host_s = 0.0;
  for (const auto& s : cell_s) host_s += median(s);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  report.add("worker_iters_per_s", static_cast<double>(worker_iterations(cells)) / host_s);
  report.add("peak_rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0);
  report.add("prophet_vs_bytescheduler", prophet_vs_bytescheduler(w, cells));
  print_report(w, seed, report, cells);
}

// Counters of one traced pass that depend only on the code and the seed:
// identical on every pass or the run fails.
struct ExactCounters {
  std::uint64_t events = 0, rebalances = 0, component_flows = 0, flows_settled = 0,
                group_forms = 0, group_dissolves = 0, group_fast_events = 0,
                transfer_records = 0, audit_checks = 0, replans = 0, series_bytes = 0;
  std::int64_t spine_bytes = 0;
  double link_busy_max_s = 0;

  bool operator==(const ExactCounters&) const = default;
};

// Sums of one traced pass (spans in seconds).
struct PassTotals {
  double untraced_s = 0, traced_s = 0, sweep_wall = 0;
  double net_setup = 0, ps_setup = 0, place = 0, loop = 0, drain = 0, audit = 0,
         collect = 0, allreduce = 0;
  ExactCounters exact;

  void add(const TracedCell& t, double untraced) {
    untraced_s += untraced;
    traced_s += t.host;
    net_setup += t.net_setup;
    ps_setup += t.ps_setup;
    place += t.place;
    loop += t.loop;
    drain += t.drain;
    audit += t.audit;
    collect += t.collect;
    allreduce += t.allreduce;
    ExactCounters& c = exact;
    c.events += t.fp.events;
    c.rebalances += t.rebalance.rebalances;
    c.component_flows += t.rebalance.component_flows;
    c.flows_settled += t.rebalance.flows_settled;
    c.group_forms += t.rebalance.group_forms;
    c.group_dissolves += t.rebalance.group_dissolves;
    c.group_fast_events += t.rebalance.group_fast_events;
    c.transfer_records += t.transfer_records;
    c.audit_checks += t.fp.audit_checks;
    c.replans += t.replans;
    c.series_bytes += t.series_bytes;
    c.spine_bytes += t.spine_bytes;
    c.link_busy_max_s = std::max(c.link_busy_max_s, t.link_busy_max_s);
  }
};

// Per-layer metrics: probes, then passes in which every cell runs through
// its entry point and is re-driven traced; the two must agree exactly.
void run_traced_mode(const Workload& w, std::uint64_t seed, double budget_s) {
  const auto t_start = WallClock::now();
  const bool has_multi = std::any_of(w.cells.begin(), w.cells.end(), [](const Cell& c) {
    return c.kind == CellKind::kMultiJob;
  });
  const bool has_ring = std::any_of(w.cells.begin(), w.cells.end(), [](const Cell& c) {
    return c.kind == CellKind::kAllReduce;
  });
  const WaveProbe wave = probe_incast_wave(w);
  const PlannerProbe planner = probe_planner(w);
  const double tasks_per_s = probe_sched_tasks_per_s(w);
  const double place_probe = has_multi ? 0.0 : probe_place(w);
  const double ring_probe = has_ring ? 0.0 : probe_allreduce(w);

  std::vector<CellOutcome> cells(w.cells.size());
  std::vector<PassTotals> passes;
  Report report;
  std::ostringstream sink;
  do {
    const bool first = passes.empty();
    std::vector<TracedCell> traced(w.cells.size());
    std::vector<Fingerprint> untraced(w.cells.size());
    std::vector<double> untraced_s(w.cells.size());
    std::vector<std::string> errors(w.cells.size());
    const auto t0 = WallClock::now();
    prophet::exec::run_sweep(
        w.cells.size(),
        [&](std::size_t i) {
          try {
            const auto c0 = Clock::now();
            untraced[i] = run_untraced(w.cells[i]);
            untraced_s[i] = seconds_since(c0);
            traced[i] = run_traced(w.cells[i]);
            if (!(traced[i].fp == untraced[i])) {
              errors[i] = "entry-point identity: traced re-drive differs from the entry point";
            }
          } catch (const std::exception& e) {
            errors[i] = e.what();
          }
          return prophet::exec::CellResult{};
        },
        sink, w.threads);
    PassTotals totals;
    totals.sweep_wall = seconds_since(t0);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      totals.add(traced[i], untraced_s[i]);
      record_run(w.cells[i], cells[i], untraced[i], std::move(errors[i]), first);
    }
    if (!first && !(totals.exact == passes.front().exact)) {
      cells.front().error = "exact counters differ between passes of one run";
      ++cells.front().failed_runs;
    }
    passes.push_back(totals);
    report.pass_walls.push_back(totals.sweep_wall);
    report.attempted += cells.size();
  } while (seconds_since(t_start) + passes.back().sweep_wall <= budget_s);

  auto med = [&](auto field) {
    std::vector<double> v;
    for (const auto& p : passes) v.push_back(field(p));
    return median(v);
  };
  const ExactCounters& c = passes.front().exact;
  const auto events = static_cast<double>(c.events);
  const double loop_s = med([](const PassTotals& p) { return p.loop; });
  const double worker_iters = static_cast<double>(worker_iterations(cells));

  report.add("sim.events", events);
  report.add("sim.loop_ms", loop_s * 1e3);
  report.add("sim.ns_per_event", loop_s * 1e9 / events);
  report.add("sim.drain_ms", med([](const PassTotals& p) { return p.drain; }) * 1e3);
  report.add("net.setup_ms", med([](const PassTotals& p) { return p.net_setup; }) * 1e3);
  report.add("net.rebalances", static_cast<double>(c.rebalances));
  report.add("net.component_flows", static_cast<double>(c.component_flows));
  report.add("net.flows_settled", static_cast<double>(c.flows_settled));
  report.add("net.settled_per_event", static_cast<double>(c.flows_settled) / events);
  report.add("net.group_forms", static_cast<double>(c.group_forms));
  report.add("net.group_dissolves", static_cast<double>(c.group_dissolves));
  const double fast = static_cast<double>(c.group_fast_events);
  report.add("net.group_fast_share", fast / (fast + static_cast<double>(c.rebalances)));
  report.add("net.link_busy_max", c.link_busy_max_s);
  report.add("net.incast_wave_ms", wave.plain_s * 1e3);
  report.add("metrics.collect_ms", med([](const PassTotals& p) { return p.collect; }) * 1e3);
  report.add("metrics.tracker_wave_ms", (wave.tracked_s - wave.plain_s) * 1e3);
  report.add("metrics.series_bytes", static_cast<double>(c.series_bytes));
  report.add("ps.setup_ms", med([](const PassTotals& p) { return p.ps_setup; }) * 1e3);
  report.add("ps.transfer_records", static_cast<double>(c.transfer_records));
  report.add("audit.finish_ms", med([](const PassTotals& p) { return p.audit; }) * 1e3);
  report.add("audit.checks", static_cast<double>(c.audit_checks));
  report.add("core.replans", static_cast<double>(c.replans));
  report.add("core.plan_us", planner.plan_s * 1e6);
  report.add("core.refine_moves_per_s", planner.refine_moves_per_s);
  report.add("sched.tasks_per_s", tasks_per_s);
  report.add("cluster.place_us",
             (has_multi ? med([](const PassTotals& p) { return p.place; }) : place_probe) *
                 1e6);
  report.add("cluster.spine_bytes", static_cast<double>(c.spine_bytes));
  report.add("exec.busy_share", med([&](const PassTotals& p) {
               return (p.untraced_s + p.traced_s) /
                      (static_cast<double>(w.threads) * p.sweep_wall);
             }));
  report.add("exec.cells", static_cast<double>(w.cells.size()));
  report.add("allreduce.run_ms",
             (has_ring ? med([](const PassTotals& p) { return p.allreduce; }) : ring_probe) *
                 1e3);
  const double traced_rate =
      worker_iters / med([](const PassTotals& p) { return p.traced_s; });
  const double untraced_rate =
      worker_iters / med([](const PassTotals& p) { return p.untraced_s; });
  report.add("trace.worker_iters_per_s", traced_rate);
  report.add("trace.untraced_worker_iters_per_s", untraced_rate);
  report.add("trace.overhead_share", 1.0 - traced_rate / untraced_rate);
  print_report(w, seed, report, cells);
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "(--seconds S --trace 0|1 | --record | --setup-only)\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  bool record = false;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--record" || arg == "--setup-only") {
      (arg == "--record" ? record : setup_only) = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        seed = std::stoull(value);
      } else if (arg == "--seconds") {
        seconds = std::stod(value);
      } else if (arg == "--trace") {
        trace = std::stoi(value);
      } else {
        return usage(("unknown flag " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  const auto w = make_workload(workload, seed);
  if (!w) return usage(("unknown workload '" + workload + "'").c_str());
  if (record) {
    run_record(*w, seed);
    return 0;
  }
  if (setup_only) {
    run_setup_mode(*w);
    return 0;
  }
  if (seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return usage("--seconds must be positive and --trace 0 or 1");
  }
  if (trace == 0) {
    run_untraced_mode(*w, seed, seconds);
  } else {
    run_traced_mode(*w, seed, seconds);
  }
  return 0;
}
