#include "core/block_planner.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace prophet::core {

namespace {
// Safety margin subtracted from every block budget to absorb profile jitter
// (plan a block slightly smaller than the interval it must fit).
constexpr double kBudgetMargin = 0.05;
}  // namespace

Schedule BlockPlanner::plan(const GradientProfile& profile, Bandwidth bandwidth) const {
  PROPHET_CHECK(!bandwidth.is_zero());
  const std::size_t n = profile.gradient_count();
  PROPHET_CHECK(n > 0);

  // Generation events in time order, as one flat (ready, gradient) array —
  // runs of equal `ready` are the steps of the stepwise pattern. Profiles
  // arrive priority-ordered (gradient n-1 is generated first), so this is a
  // nearly-reversed sequence; sorting it is the only O(n log n) step and the
  // planning loop below allocates no per-gradient nodes.
  std::vector<std::pair<Duration, std::size_t>> order(n);
  for (std::size_t g = 0; g < n; ++g) order[g] = {profile.ready[g], g};
  std::sort(order.begin(), order.end());

  Schedule schedule;
  // Released-but-untransferred gradients, kept sorted ascending (== priority
  // order). Insertions go near the front (later-generated gradients have
  // higher priority); the greedy pass consumes a prefix.
  std::vector<std::size_t> ready;
  ready.reserve(n);
  Duration nic_free{};  // Constraint (8): single transfer at a time

  std::size_t ev = 0;
  while (ev < n) {
    const Duration now = order[ev].first;
    for (; ev < n && order[ev].first == now; ++ev) {
      const std::size_t g = order[ev].second;
      ready.insert(std::lower_bound(ready.begin(), ready.end(), g), g);
    }
    if (ev == n) break;  // gradient 0's event: switch to forward phase

    // Budget: everything assembled now must finish before the next
    // generation event, so high-priority gradients are never blocked.
    const Duration next_gen = order[ev].first;
    const Duration start = std::max(now, nic_free);
    const Duration budget = (next_gen - start) * (1.0 - kBudgetMargin);
    if (budget <= Duration::zero()) continue;

    // Greedy assembly (Alg. 1 lines 6-11): take ready gradients in priority
    // order while the block still fits. The first setup charge pays the
    // per-task overhead; members add pure serialization time (that is the
    // point of blocks).
    ScheduledTask task;
    task.start = start;
    Bytes block_bytes{};
    std::size_t consumed = 0;
    while (consumed < ready.size()) {
      const Bytes candidate = block_bytes + profile.sizes[ready[consumed]];
      if (cost_.duration(candidate, bandwidth) <= budget) {
        block_bytes = candidate;
        task.grads.push_back(ready[consumed]);
        ++consumed;
      } else {
        // Strict priority: never skip ahead of a gradient that does not fit.
        break;
      }
    }
    ready.erase(ready.begin(), ready.begin() + static_cast<std::ptrdiff_t>(consumed));
    if (!task.grads.empty()) {
      nic_free = task.start + cost_.duration(block_bytes, bandwidth);
      schedule.tasks.push_back(std::move(task));
    }
  }

  // Forward phase (Alg. 1 lines 13-18): gradient 0 goes first, at its
  // generation time if the NIC is idle; the leftovers follow one by one in
  // priority order.
  for (std::size_t g : ready) {
    ScheduledTask task;
    task.start = std::max(profile.ready[g], nic_free);
    task.grads.push_back(g);
    nic_free = task.start + cost_.duration(profile.sizes[g], bandwidth);
    schedule.tasks.push_back(std::move(task));
  }
  return schedule;
}

}  // namespace prophet::core
