// Speedup ratchet for the engine-scaling bench (bench/scale.cpp).
//
// Compares a freshly produced BENCH_scale_smoke.json against the committed
// baseline (bench_results/BENCH_scale_smoke_baseline.json) and fails when any
// bench cell's full/incremental speedup drops below MIN_RATIO x its baseline
// value. The speedup is a CPU-time *ratio of two arms run alternately on the
// same machine*, so it is paired against machine speed — a CI runner that
// is uniformly 3x slower reports the same ratio, while a regression that
// pushes the incremental engine off its rate-group fast path (speedup
// collapsing toward 1.0x) trips the gate regardless of the runner.
//
// Each of those cells must also reproduce the baseline's deterministic
// counters exactly (simulated events and both arms' RebalanceStats). They do
// not depend on the machine, so any change means the engine took a different
// path: a fall off the rate-group fast path shows up as fewer group events
// and more slow-path rebalances even when host noise hides it in the ratio.
// A change that moves them on purpose recaptures the baseline.
//
// Beside each ratio it prints both arms' baseline and current times
// (full_ms, incremental_ms). They are not gated, since they are not paired
// against the machine, but they say which arm moved: a change that speeds
// up the full reference arm more than the incremental one lowers the ratio
// without any regression.
//
// Only cells carrying both "workers" and "speedup" participate: the "sweep"
// section's executor speedup depends on the runner's core count, and
// incremental-only cells (star_4096) have no full arm to ratio against. A
// baseline cell missing from the current run is a failure too — a silently
// dropped cell must not pass the gate.
//
// Usage: scale_ratchet BASELINE.json CURRENT.json [MIN_RATIO]
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using prophet::bench::BenchJson;
  if (argc < 3 || argc > 4) {
    std::fprintf(stderr,
                 "usage: scale_ratchet BASELINE.json CURRENT.json [MIN_RATIO]\n");
    return 2;
  }
  const std::string baseline_path = argv[1];
  const std::string current_path = argv[2];
  const double min_ratio = argc == 4 ? std::strtod(argv[3], nullptr) : 0.9;
  if (!(min_ratio > 0.0)) {
    std::fprintf(stderr, "scale_ratchet: bad MIN_RATIO\n");
    return 2;
  }

  const BenchJson baseline{baseline_path};
  const BenchJson current{current_path};
  constexpr std::array<const char*, 9> kCounters = {
      "events",           "rebalances",         "component_flows", "flows_settled",
      "full_rebalances",  "full_flows_settled", "group_forms",     "group_dissolves",
      "group_fast_events"};

  bool ok = true;
  int cells = 0;
  std::printf("  %-16s %10s %10s %8s  %-19s %-19s\n", "", "", "", "",
              "full_ms", "incremental_ms");
  std::printf("  %-16s %10s %10s %8s  %9s %9s %9s %9s\n", "cell", "baseline",
              "current", "ratio", "baseline", "current", "baseline", "current");
  for (const std::string& cell : baseline.section_names()) {
    const double base = baseline.get(cell, "speedup");
    if (std::isnan(baseline.get(cell, "workers")) || std::isnan(base)) continue;
    ++cells;
    const double cur = current.get(cell, "speedup");
    if (std::isnan(cur)) {
      std::printf("  %-16s %9.2fx %10s %8s  FAIL (cell missing)\n",
                  cell.c_str(), base, "-", "-");
      ok = false;
      continue;
    }
    const double ratio = cur / base;
    const bool pass = ratio >= min_ratio;
    std::printf("  %-16s %9.2fx %9.2fx %8.2f  %9.2f %9.2f %9.2f %9.2f  %s\n",
                cell.c_str(), base, cur, ratio, baseline.get(cell, "full_ms"),
                current.get(cell, "full_ms"), baseline.get(cell, "incremental_ms"),
                current.get(cell, "incremental_ms"), pass ? "ok" : "FAIL");
    if (!pass) ok = false;
    for (const char* counter : kCounters) {
      const double want = baseline.get(cell, counter);
      const double got = current.get(cell, counter);
      if (got == want) continue;  // NaN (missing on either side) fails too
      std::printf("  %-16s %-20s baseline %.0f current %.0f  FAIL (counter)\n",
                  cell.c_str(), counter, want, got);
      ok = false;
    }
  }
  if (cells == 0) {
    std::fprintf(stderr, "scale_ratchet: no ratchetable cells in %s\n",
                 baseline_path.c_str());
    return 2;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "scale_ratchet: a speedup regressed below %.2fx of, or a "
                 "deterministic counter differs from, the committed baseline "
                 "(%s)\n",
                 min_ratio, baseline_path.c_str());
  }
  return ok ? 0 : 1;
}
