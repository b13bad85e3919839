// Algorithm 1 — Prophet's communication scheduling strategy, offline form.
//
// Given the profiled generation times c^(i), sizes s^(i) and the monitored
// bandwidth B, the planner walks the stepwise generation timeline and
// greedily assembles gradient blocks that fit inside the expected transfer
// interval A^(i) (time until the next higher-priority gradient appears),
// so that no block ever delays a more urgent gradient (Constraint (11)).
// Gradient 0 starts at its generation time c^(0) (line 17); whatever is left
// after backward ends transfers one gradient at a time in priority order
// (lines 13-14, Constraint (9)).
#pragma once

#include "common/units.hpp"
#include "core/perf_model.hpp"
#include "core/profile.hpp"
#include "net/cost_model.hpp"

namespace prophet::core {

class BlockPlanner {
 public:
  explicit BlockPlanner(net::TcpCostModel cost) : cost_{cost} {}

  // Plans one iteration's gradient transfers. The returned schedule is
  // feasible under PerfModel::check_constraints by construction.
  [[nodiscard]] Schedule plan(const GradientProfile& profile, Bandwidth bandwidth) const;

 private:
  net::TcpCostModel cost_;
};

}  // namespace prophet::core
