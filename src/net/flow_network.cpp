#include "net/flow_network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace prophet::net {

namespace {
// A flow is "done" when its remaining byte count falls below this; avoids
// rescheduling completions for sub-byte floating-point residue.
constexpr double kDrainEpsilon = 1e-6;
}  // namespace

FlowNetwork::FlowNetwork(sim::Simulator& sim, TcpCostModel cost_model,
                         RebalanceMode mode)
    : sim_{sim}, cost_model_{cost_model}, mode_{mode} {}

LinkId FlowNetwork::add_link(std::string name, Bandwidth cap) {
  PROPHET_CHECK(!cap.is_zero());
  links_.push_back(Link{std::move(name), cap});
  fill_.emplace_back();
  link_flows_.emplace_back();
  link_epoch_.push_back(0);
  return static_cast<LinkId>(links_.size() - 1);
}

NodeId FlowNetwork::add_node(std::string name, Bandwidth egress, Bandwidth ingress) {
  PROPHET_CHECK(!egress.is_zero() && !ingress.is_zero());
  const LinkId tx = add_link(name + ".tx", egress);
  const LinkId rx = add_link(name + ".rx", ingress);
  nodes_.push_back(Node{std::move(name), tx, rx});
  return static_cast<NodeId>(nodes_.size() - 1);
}

RackId FlowNetwork::add_rack(std::string name, Bandwidth uplink, Bandwidth downlink) {
  const LinkId up = add_link(name + ".up", uplink);
  const LinkId down = add_link(name + ".down", downlink);
  racks_.push_back(Rack{std::move(name), up, down});
  return static_cast<RackId>(racks_.size() - 1);
}

void FlowNetwork::assign_rack(NodeId node, RackId rack) {
  PROPHET_CHECK(node < nodes_.size());
  PROPHET_CHECK(rack < racks_.size() || rack == kNoRack);
  nodes_[node].rack = rack;
}

RackId FlowNetwork::rack_of(NodeId node) const {
  PROPHET_CHECK(node < nodes_.size());
  return nodes_[node].rack;
}

const std::string& FlowNetwork::rack_name(RackId id) const {
  PROPHET_CHECK(id < racks_.size());
  return racks_[id].name;
}

LinkId FlowNetwork::rack_link(RackId id, Direction dir) const {
  PROPHET_CHECK(id < racks_.size());
  return dir == Direction::kTx ? racks_[id].up : racks_[id].down;
}

const std::string& FlowNetwork::node_name(NodeId id) const {
  PROPHET_CHECK(id < nodes_.size());
  return nodes_[id].name;
}

const std::string& FlowNetwork::link_name(LinkId id) const {
  PROPHET_CHECK(id < links_.size());
  return links_[id].name;
}

std::optional<LinkId> FlowNetwork::find_link(std::string_view name) const {
  for (std::size_t l = 0; l < links_.size(); ++l) {
    if (links_[l].name == name) return static_cast<LinkId>(l);
  }
  return std::nullopt;
}

LinkId FlowNetwork::node_link(NodeId id, Direction dir) const {
  PROPHET_CHECK(id < nodes_.size());
  return dir == Direction::kTx ? nodes_[id].tx : nodes_[id].rx;
}

std::array<LinkId, 2> FlowNetwork::access_links(NodeId id) const {
  PROPHET_CHECK(id < nodes_.size());
  return {nodes_[id].tx, nodes_[id].rx};
}

FlowNetwork::Link& FlowNetwork::link(LinkId id) {
  PROPHET_CHECK(id < links_.size());
  return links_[id];
}

const FlowNetwork::Link& FlowNetwork::link(LinkId id) const {
  PROPHET_CHECK(id < links_.size());
  return links_[id];
}

std::ptrdiff_t FlowNetwork::find_slot(FlowId id) const {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return -1;
  const FlowSlot& s = slots_[slot];
  if (!s.occupied || s.generation != generation) return -1;
  return static_cast<std::ptrdiff_t>(slot);
}

void FlowNetwork::set_link_capacity(LinkId id, Bandwidth cap) {
  PROPHET_CHECK(!cap.is_zero());
  if (mode_ == RebalanceMode::kFull) {
    advance_to_now();
    link(id).cap = cap;
    reassign_rates();
    return;
  }
  // Settlement credits bytes at the rates in force before the change, which
  // are stored per flow (or in the group's rate history) — safe to mutate
  // the capacity first.
  link(id).cap = cap;
  const std::uint32_t gid = group_of_link(id);
  if (gid != kNoGroup && group_capacity_change(gid, id)) return;
  const LinkId seeds[1] = {id};
  rebalance_from(seeds, 1);
}

Bandwidth FlowNetwork::link_capacity(LinkId id) const { return link(id).cap; }

void FlowNetwork::set_link_state(std::span<const LinkId> ids, bool up) {
  bool flipped = false;  // a link flips on its first hold or its last release
  for (const LinkId id : ids) {
    Link& l = link(id);
    PROPHET_CHECK_MSG(!up || l.down_holds > 0,
                      ("FlowNetwork::set_link_state: link '" + l.name +
                       "' brought up at " +
                       format_duration(sim_.now() - TimePoint::origin()) +
                       " with no down-hold to release")
                          .c_str());
    flipped |= up ? --l.down_holds == 0 : l.down_holds++ == 0;
  }
  if (!flipped) return;
  if (mode_ == RebalanceMode::kFull) {
    advance_to_now();  // settles at the pre-flip rates; it never reads holds
    reassign_rates();
    return;
  }
  // One rebalance over the union of the links' components (a host's tx and
  // rx components are usually disjoint — tx carries sends, rx receives).
  rebalance_from(ids.data(), ids.size());
}

bool FlowNetwork::link_state(LinkId id) const { return link(id).up(); }

std::int64_t FlowNetwork::link_total_bytes(LinkId id) {
  if (mode_ == RebalanceMode::kFull) {
    advance_to_now();
    return static_cast<std::int64_t>(link(id).total_bytes);
  }
  const TimePoint now = sim_.now();
  // Settling only this link's flows suffices for its byte/busy counters (the
  // rest of the component keeps draining at unchanged rates).
  comp_flows_.assign(link_flows_[id].begin(), link_flows_[id].end());
  std::sort(comp_flows_.begin(), comp_flows_.end(), by_admission());
  for (const std::uint32_t slot : comp_flows_) settle_flow(slot, now);
  settle_link_busy(id, now);
  return static_cast<std::int64_t>(link(id).total_bytes);
}

Duration FlowNetwork::link_busy_time(LinkId id) {
  if (mode_ == RebalanceMode::kFull) {
    advance_to_now();
  } else {
    settle_link_busy(id, sim_.now());
  }
  return link(id).busy;
}

void FlowNetwork::attach_link_tracker(LinkId id, BinnedSeries* series) {
  link(id).tracker = series;
}

std::uint8_t FlowNetwork::compute_path(
    NodeId src, NodeId dst, std::array<LinkId, kMaxPathLinks>& out) const {
  std::uint8_t n = 0;
  out[n++] = nodes_[src].tx;
  const RackId sr = nodes_[src].rack;
  const RackId dr = nodes_[dst].rack;
  if (sr != dr) {
    // Different racks — or one endpoint on the spine: traffic leaves the
    // source rack through its uplink and enters the destination rack through
    // its downlink; whichever endpoint is unracked sits at the spine and
    // contributes no shared link.
    if (sr != kNoRack) out[n++] = racks_[sr].up;
    if (dr != kNoRack) out[n++] = racks_[dr].down;
  }
  out[n++] = nodes_[dst].rx;
  return n;
}

std::vector<LinkId> FlowNetwork::route(NodeId src, NodeId dst) const {
  PROPHET_CHECK(src < nodes_.size() && dst < nodes_.size());
  std::array<LinkId, kMaxPathLinks> path{};
  const std::uint8_t n = compute_path(src, dst, path);
  return std::vector<LinkId>{path.begin(), path.begin() + n};
}

FlowId FlowNetwork::start_flow(NodeId src, NodeId dst, Bytes size,
                               std::function<void(FlowId)> on_complete) {
  PROPHET_CHECK(src < nodes_.size() && dst < nodes_.size());
  PROPHET_CHECK_MSG(src != dst, "loopback flows are not modeled");
  PROPHET_CHECK(size.count() >= 0);
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    slot_epoch_.push_back(0);
    // The lane serves every later tenant of this slot, so it names the
    // flow by the slot's generation when it fires.
    slots_.back().completion = sim_.lane_create(
        [this, slot] { complete_flow(make_id(slots_[slot].generation, slot)); });
  }
  FlowSlot& s = slots_[slot];
  s.occupied = true;
  s.flow.src = src;
  s.flow.dst = dst;
  s.flow.remaining = static_cast<double>(size.count());
  s.flow.draining = false;
  s.flow.rate = 0.0;
  s.flow.path_len = compute_path(src, dst, s.flow.path);
  s.flow.admission = next_admission_++;
  s.flow.last_settled = sim_.now();
  s.flow.on_complete = std::move(on_complete);
  s.active_pos = static_cast<std::uint32_t>(active_.size());
  active_.push_back(slot);
  const FlowId id = make_id(s.generation, slot);

  // The setup ramp is computed against the path's solo line rate: the best
  // the congestion window could hope for, matching how slow start probes.
  Bandwidth line_rate = links_[s.flow.path[0]].cap;
  for (std::uint8_t i = 1; i < s.flow.path_len; ++i) {
    line_rate = std::min(line_rate, links_[s.flow.path[i]].cap);
  }
  const Duration setup = cost_model_.setup_delay(size, line_rate);
  sim_.schedule_after(setup, [this, id] { enter_drain(id); });
  return id;
}

Bandwidth FlowNetwork::flow_rate(FlowId id) const {
  const std::ptrdiff_t slot = find_slot(id);
  PROPHET_CHECK_MSG(slot >= 0, "flow_rate on unknown flow");
  const Flow& f = slots_[static_cast<std::size_t>(slot)].flow;
  // A grouped member's own rate field is lazily maintained; the group holds
  // the live share.
  if (f.group != kNoGroup) return Bandwidth::bytes_per_sec(groups_[f.group].rate);
  return Bandwidth::bytes_per_sec(f.rate);
}

void FlowNetwork::attach_tracker(NodeId id, Direction dir, BinnedSeries* series) {
  attach_link_tracker(node_link(id, dir), series);
}

// --- incremental engine -----------------------------------------------------

void FlowNetwork::graph_insert(std::uint32_t slot) {
  Flow& f = slots_[slot].flow;
  for (std::uint8_t i = 0; i < f.path_len; ++i) {
    std::vector<std::uint32_t>& flows = link_flows_[f.path[i]];
    f.link_pos[i] = static_cast<std::uint32_t>(flows.size());
    flows.push_back(slot);
  }
}

void FlowNetwork::graph_remove(std::uint32_t slot) {
  Flow& f = slots_[slot].flow;
  for (std::uint8_t i = 0; i < f.path_len; ++i) {
    const LinkId l = f.path[i];
    std::vector<std::uint32_t>& flows = link_flows_[l];
    const std::uint32_t pos = f.link_pos[i];
    const std::uint32_t moved = flows.back();
    flows[pos] = moved;
    flows.pop_back();
    if (moved != slot) {
      Flow& mf = slots_[moved].flow;
      for (std::uint8_t j = 0; j < mf.path_len; ++j) {
        if (mf.path[j] == l) {
          mf.link_pos[j] = pos;
          break;
        }
      }
    }
  }
}

void FlowNetwork::ungrouped_insert(std::uint32_t slot) {
  // Arrivals are nearly always among the newest draining flows (admission is
  // start order; only setup delays reorder it), so scan back from the end.
  const std::uint64_t admission = slots_[slot].flow.admission;
  auto pos = ungrouped_.end();
  while (pos != ungrouped_.begin() && slots_[*(pos - 1)].flow.admission > admission) {
    --pos;
  }
  ungrouped_.insert(pos, slot);
}

void FlowNetwork::ungrouped_erase(std::uint32_t slot) {
  const auto pos =
      std::lower_bound(ungrouped_.begin(), ungrouped_.end(), slot, by_admission());
  PROPHET_CHECK(pos != ungrouped_.end() && *pos == slot);
  ungrouped_.erase(pos);
}

void FlowNetwork::collect_component(const LinkId* seeds, std::size_t n_seeds) {
  ++epoch_;
  comp_links_.clear();
  std::size_t reached = 0;
  for (std::size_t i = 0; i < n_seeds; ++i) {
    const LinkId l = seeds[i];
    if (link_epoch_[l] == epoch_) continue;
    link_epoch_[l] = epoch_;
    comp_links_.push_back(l);
  }
  // Frontier expansion: a link pulls in its draining flows, a flow pulls in
  // every link on its path.
  for (std::size_t i = 0; i < comp_links_.size(); ++i) {
    const LinkId l = comp_links_[i];
    for (const std::uint32_t slot : link_flows_[l]) {
      if (slot_epoch_[slot] == epoch_) continue;
      slot_epoch_[slot] = epoch_;
      ++reached;
      // A slow-path walk reaching any member dissolves its whole rate group:
      // the walk is about to re-derive the component's rates from scratch,
      // and every member shares this flow's anchor so the BFS covers them.
      if (slots_[slot].flow.group != kNoGroup) dissolve_group(slots_[slot].flow.group);
      const Flow& f = slots_[slot].flow;
      for (std::uint8_t p = 0; p < f.path_len; ++p) {
        const LinkId pl = f.path[p];
        if (link_epoch_[pl] == epoch_) continue;
        link_epoch_[pl] = epoch_;
        comp_links_.push_back(pl);
      }
    }
  }
  // Admission order is the deterministic walk order everywhere (it is what
  // the full algorithm uses), independent of discovery order. Every flow the
  // walk reached is ungrouped now (it dissolved any group it met), so the
  // component is ungrouped_ itself or the entries this walk stamped.
  if (reached == ungrouped_.size()) {
    comp_flows_.assign(ungrouped_.begin(), ungrouped_.end());
    return;
  }
  comp_flows_.clear();
  for (const std::uint32_t slot : ungrouped_) {
    if (slot_epoch_[slot] == epoch_) comp_flows_.push_back(slot);
  }
}

void FlowNetwork::settle_flow(std::uint32_t slot, TimePoint now) {
  Flow& f = slots_[slot].flow;
  if (f.group != kNoGroup) {
    settle_group_flow(slot, now);
    return;
  }
  if (f.last_settled == now) return;
  if (f.draining && f.rate > 0.0) {
    ++stats_.flows_settled;
    const double elapsed_s = (now - f.last_settled).to_seconds();
    const double drained = std::min(f.remaining, f.rate * elapsed_s);
    f.remaining -= drained;
    for (std::uint8_t i = 0; i < f.path_len; ++i) {
      Link& l = links_[f.path[i]];
      l.total_bytes += drained;
      if (l.tracker != nullptr) {
        // The rate is constant over [last_settled, now] (rate changes always
        // settle first), so one uniform spread is exact.
        l.tracker->add_amount_spread(f.last_settled, now, drained);
      }
    }
  }
  f.last_settled = now;
}

void FlowNetwork::settle_link_busy(LinkId id, TimePoint now) {
  Link& l = links_[id];
  if (l.busy_active) l.busy += now - l.busy_mark;
  l.busy_mark = now;
}

void FlowNetwork::settle_component(TimePoint now) {
  for (const std::uint32_t slot : comp_flows_) settle_flow(slot, now);
  for (const LinkId l : comp_links_) settle_link_busy(l, now);
}

void FlowNetwork::rebalance_from(const LinkId* seeds, std::size_t n_seeds) {
  collect_component(seeds, n_seeds);
  settle_component(sim_.now());
  refill_component();
}

template <typename SetRate>
void FlowNetwork::progressive_fill(const std::vector<std::uint32_t>& flow_slots,
                                   SetRate&& set_rate) {
  // Progressive filling: repeatedly saturate the link with the smallest fair
  // share, freeze its flows at that rate, remove the consumed capacity. Only
  // links that carry a draining flow participate; everything runs out of
  // persistent scratch, so steady-state reassignment allocates nothing.
  unfrozen_.clear();
  active_links_.clear();
  for (const std::uint32_t slot : flow_slots) {
    const Flow& flow = slots_[slot].flow;
    set_rate(slot, 0.0);
    unfrozen_.push_back(slot);
    for (std::uint8_t i = 0; i < flow.path_len; ++i) {
      const LinkId l = flow.path[i];
      if (fill_[l].unfrozen == 0) {
        // First draining flow on this link: (re)load its capacity. A down
        // link offers no capacity: its flows freeze at rate zero below.
        fill_[l].cap = links_[l].up() ? links_[l].cap.bytes_per_second() : 0.0;
        active_links_.push_back(l);
      }
      ++fill_[l].unfrozen;
    }
  }

  std::size_t remaining = unfrozen_.size();
  while (remaining > 0) {
    // Find the tightest link among those with unfrozen flows.
    double min_share = std::numeric_limits<double>::infinity();
    for (const LinkId l : active_links_) {
      if (fill_[l].unfrozen > 0) {
        min_share = std::min(min_share, fill_[l].cap / fill_[l].unfrozen);
      }
    }
    PROPHET_CHECK(min_share < std::numeric_limits<double>::infinity());
    // Floating-point residue in the capacity subtractions can push a nearly
    // exhausted link's share epsilon-negative; clamp so no flow ever gets a
    // negative rate.
    min_share = std::max(min_share, 0.0);
    // Freeze every flow touching a link whose fair share equals the minimum.
    const auto is_tight = [&](const Flow& f) {
      for (std::uint8_t i = 0; i < f.path_len; ++i) {
        const LinkFill& fl = fill_[f.path[i]];
        if (fl.cap / fl.unfrozen <= min_share * (1.0 + 1e-12)) return true;
      }
      return false;
    };
    bool froze_any = false;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < remaining; ++i) {
      const std::uint32_t slot = unfrozen_[i];
      const Flow& f = slots_[slot].flow;
      if (is_tight(f)) {
        set_rate(slot, min_share);
        for (std::uint8_t p = 0; p < f.path_len; ++p) {
          fill_[f.path[p]].cap -= min_share;
          --fill_[f.path[p]].unfrozen;
        }
        froze_any = true;
      } else {
        unfrozen_[kept++] = slot;
      }
    }
    remaining = kept;
    PROPHET_CHECK_MSG(froze_any, "progressive filling made no progress");
  }
}

void FlowNetwork::reschedule_completion(std::uint32_t slot) {
  const FlowSlot& s = slots_[slot];
  const TimePoint now = sim_.now();
  if (s.flow.remaining <= kDrainEpsilon) {
    sim_.lane_aim(s.completion, now);
  } else if (s.flow.rate > 0.0) {
    sim_.lane_aim(s.completion,
                  now + Duration::from_seconds(s.flow.remaining / s.flow.rate));
  } else {
    // rate == 0 (fully starved link) parks the flow until the next
    // rebalance; set_capacity / flow departures will wake it.
    sim_.lane_disarm(s.completion);
  }
}

void FlowNetwork::refill_component() {
  // A departure between collect and refill leaves a freed (or no longer
  // draining) slot in the buffer; compact it out before filling.
  std::size_t kept = 0;
  for (const std::uint32_t slot : comp_flows_) {
    if (slots_[slot].occupied && slots_[slot].flow.draining) {
      comp_flows_[kept++] = slot;
    }
  }
  comp_flows_.resize(kept);
  ++stats_.rebalances;
  stats_.component_flows += comp_flows_.size();

  progressive_fill(comp_flows_,
                   [&](std::uint32_t slot, double r) { slots_[slot].flow.rate = r; });

  // Busy flags: a component link is busy while any of its draining flows has
  // a positive rate (marks were just settled to now by settle_component).
  for (const LinkId l : comp_links_) {
    bool active = false;
    for (const std::uint32_t slot : link_flows_[l]) {
      if (slots_[slot].flow.rate > 0.0) {
        active = true;
        break;
      }
    }
    links_[l].busy_active = active;
  }

  // Reschedule completions at the new rates (admission order, so same-instant
  // completions keep their deterministic tie-break).
  for (const std::uint32_t slot : comp_flows_) reschedule_completion(slot);

  if (verify_rates_) verify_against_full();

  // If the refreshed component is a single-bottleneck incast, promote it to
  // a rate group so subsequent events stay off this slow path entirely.
  maybe_form_group();
}

void FlowNetwork::gather_draining_by_admission(std::vector<std::uint32_t>& out) const {
  out.clear();
  for (const std::uint32_t slot : active_) {
    if (slots_[slot].flow.draining) out.push_back(slot);
  }
  std::sort(out.begin(), out.end(), [&](std::uint32_t a, std::uint32_t b) {
    return slots_[a].flow.admission < slots_[b].flow.admission;
  });
}

void FlowNetwork::verify_against_full() {
  ++stats_.verify_checks;
  gather_draining_by_admission(all_draining_);
  verify_rate_.assign(slots_.size(), 0.0);
  progressive_fill(all_draining_,
                   [&](std::uint32_t slot, double r) { verify_rate_[slot] = r; });
  for (const std::uint32_t slot : all_draining_) {
    const Flow& f = slots_[slot].flow;
    PROPHET_CHECK_MSG(f.rate == verify_rate_[slot],
                      "incremental rebalance diverged from full recompute");
  }
  // The walk order collect_component reads: ungrouped_ must be exactly the
  // ungrouped draining flows, in admission order.
  const auto describe = [&](std::size_t i) {
    if (i >= ungrouped_.size()) return std::string{"its end"};
    const std::uint32_t slot = ungrouped_[i];
    return "slot " + std::to_string(slot) + " (admission " +
           std::to_string(slots_[slot].flow.admission) + ")";
  };
  std::size_t i = 0;
  for (const std::uint32_t slot : all_draining_) {
    if (slots_[slot].flow.group != kNoGroup) continue;
    PROPHET_CHECK_MSG(i < ungrouped_.size() && ungrouped_[i] == slot,
                      ("ungrouped admission list diverged at index " + std::to_string(i) +
                       ": expected slot " + std::to_string(slot) + " (admission " +
                       std::to_string(slots_[slot].flow.admission) + "), found " +
                       describe(i))
                          .c_str());
    ++i;
  }
  PROPHET_CHECK_MSG(i == ungrouped_.size(),
                    ("ungrouped admission list holds " + describe(i) +
                     " past its last ungrouped draining flow, at index " +
                     std::to_string(i))
                        .c_str());
}

// --- rate-group engine ------------------------------------------------------
//
// Exactness contract: a group never invents new floating-point operations
// on the simulated state. The group rate is the same cap/int-count division
// progressive filling evaluates; member settlement replays the same
// per-boundary rate*elapsed chunks (with the same min-clamp and link credits)
// the eager engine applied; and the lane is aimed with the same
// remaining/rate -> Duration::from_seconds rounding as
// reschedule_completion. That is what keeps verify mode and the cross-mode
// byte identities bit-for-bit. Tracker bins are metrics only: a replay sums
// the chunks that fall inside one bin before writing them, so they equal
// the eager spreads up to summation order. See DESIGN.md §4d.

namespace {
// "later" ordering for the next-finisher heap: std:: heap helpers keep the
// smallest (vfinish, admission) pair at the front.
constexpr auto kGroupEntryLater = [](const auto& a, const auto& b) {
  if (a.vfinish != b.vfinish) return a.vfinish > b.vfinish;
  return a.admission > b.admission;
};

// One replay's tracker credits on one link. Chunks arrive in time order and
// never overlap; consecutive chunks inside one bin are summed and written
// with a single add_amount, and a chunk crossing a bin edge is spread as the
// eager engine spreads it. Call flush() once the replay is done.
class TrackerRun {
 public:
  TrackerRun() = default;
  explicit TrackerRun(BinnedSeries* series) : series_{series} {}

  void credit(TimePoint begin, TimePoint end, double bytes) {
    if (end <= bin_end_) {
      bytes_ += bytes;
    } else {
      start(begin, end, bytes);
    }
  }
  void flush() {
    if (bin_end_ == TimePoint::origin()) return;
    series_->add_amount(at_, bytes_);
    bin_end_ = TimePoint::origin();
  }

 private:
  // The chunk leaves the open run's bin: write the run, then open one at
  // this chunk's bin or spread the chunk across the edges it crosses. Kept
  // out of line so the replay loop around credit() stays in registers.
  [[gnu::noinline]] void start(TimePoint begin, TimePoint end, double bytes) {
    flush();
    if (series_->bin_count() == 0) return;  // an empty series records nothing
    const Duration width = series_->bin_width();
    const TimePoint bin_end =
        TimePoint::origin() + width * (begin.count_nanos() / width.count_nanos() + 1);
    if (end <= bin_end) {
      at_ = begin;
      bin_end_ = bin_end;
      bytes_ = bytes;
    } else {
      series_->add_amount_spread(begin, end, bytes);
    }
  }

  BinnedSeries* series_ = nullptr;
  TimePoint at_{};
  TimePoint bin_end_{};  // end of the open run's bin; origin: no run open
  double bytes_ = 0.0;
};
}  // namespace

std::uint32_t FlowNetwork::group_of_link(LinkId id) const {
  // All draining flows on a link belong to one component, and a group always
  // spans its whole component — any one of them knows the membership.
  if (link_flows_[id].empty()) return kNoGroup;
  return slots_[link_flows_[id][0]].flow.group;
}

void FlowNetwork::group_heap_push(RateGroup& g, const GroupEntry& e) {
  g.heap.push_back(e);
  std::push_heap(g.heap.begin(), g.heap.end(), kGroupEntryLater);
}

void FlowNetwork::group_heap_pop(RateGroup& g) {
  std::pop_heap(g.heap.begin(), g.heap.end(), kGroupEntryLater);
  g.heap.pop_back();
}

std::ptrdiff_t FlowNetwork::group_heap_head(std::uint32_t gid) {
  RateGroup& g = groups_[gid];
  while (!g.heap.empty()) {
    const GroupEntry& top = g.heap.front();
    const FlowSlot& s = slots_[top.slot];
    if (s.occupied && s.flow.draining && s.flow.group == gid &&
        s.flow.admission == top.admission) {
      return static_cast<std::ptrdiff_t>(top.slot);
    }
    group_heap_pop(g);  // lazily deleted (cancelled member / recycled slot)
  }
  return -1;
}

void FlowNetwork::group_advance(RateGroup& g, TimePoint now) {
  if (now > g.last_boundary) {
    g.virtual_work += g.rate * (now - g.last_boundary).to_seconds();
    g.last_boundary = now;
  }
}

void FlowNetwork::group_set_rate(RateGroup& g, double rate, TimePoint now) {
  group_advance(g, now);
  g.rate = rate;
  if (g.history.back().start == now) {
    // A second boundary in the same instant: the zero-length segment
    // collapses, so replays only ever see rates that were in force.
    g.history.back().rate = rate;
  } else {
    g.history.push_back(GroupSegment{now, rate});
  }
}

void FlowNetwork::settle_group_flow(std::uint32_t slot, TimePoint now) {
  Flow& f = slots_[slot].flow;
  if (f.last_settled >= now) return;
  const RateGroup& g = groups_[f.group];
  ++stats_.flows_settled;
  // Replay the group's piecewise-constant rate history from the flow's last
  // settlement point. Each chunk applies the identical rate*elapsed product
  // (same min-clamp, same link credits over the same interval) the eager
  // engine applied at that boundary, so byte accounting stays bit-identical
  // no matter when settlement actually happens. The replay runs on locals:
  // the remainder, one running total per path slot (the same additions in
  // the same order; slots past the path add up unused, which keeps every
  // total in a register) and one tracker run per tracked link, so tracker
  // writes cost one per bin touched, not one per chunk.
  std::array<double, kMaxPathLinks> totals{};
  std::array<TrackerRun, kMaxPathLinks> runs{};
  std::size_t n_runs = 0;
  for (std::uint8_t i = 0; i < f.path_len; ++i) {
    const Link& l = links_[f.path[i]];
    totals[i] = l.total_bytes;
    if (l.tracker != nullptr) runs[n_runs++] = TrackerRun{l.tracker};
  }
  double remaining = f.remaining;
  TimePoint settled = f.last_settled;
  std::size_t k = f.group_hist;
  const std::size_t nseg = g.history.size();
  for (;;) {
    const TimePoint seg_end = (k + 1 < nseg) ? g.history[k + 1].start : now;
    const TimePoint end = seg_end < now ? seg_end : now;
    if (end > settled) {
      const double rate = g.history[k].rate;
      if (rate > 0.0) {
        const double elapsed_s = (end - settled).to_seconds();
        const double drained = std::min(remaining, rate * elapsed_s);
        remaining -= drained;
        for (double& total : totals) total += drained;
        for (std::size_t r = 0; r < n_runs; ++r) runs[r].credit(settled, end, drained);
      }
      settled = end;
    }
    if (seg_end >= now || k + 1 >= nseg) break;
    ++k;
  }
  for (std::uint8_t i = 0; i < f.path_len; ++i) links_[f.path[i]].total_bytes = totals[i];
  for (std::size_t r = 0; r < n_runs; ++r) runs[r].flush();
  f.remaining = remaining;
  f.group_hist = static_cast<std::uint32_t>(k);
  f.last_settled = now;
}

void FlowNetwork::maybe_form_group() {
  if (comp_flows_.size() < kMinGroupFlows) return;
  const double rate = slots_[comp_flows_[0]].flow.rate;
  if (rate <= 0.0) return;
  for (const std::uint32_t slot : comp_flows_) {
    if (slots_[slot].flow.rate != rate) return;
  }
  // Anchor: a component link carrying every flow whose fair share is the
  // common rate bit-for-bit; every other populated link must keep a share
  // at or above it (true for any max-min allocation, but checked so a
  // numerically marginal component never gets promoted).
  const std::size_t n = comp_flows_.size();
  bool have_anchor = false;
  LinkId anchor = 0;
  double min_other = std::numeric_limits<double>::infinity();
  for (const LinkId l : comp_links_) {
    const std::size_t cnt = link_flows_[l].size();
    if (cnt == 0) continue;  // a seed link that carries no draining flow
    const double share = (links_[l].up() ? links_[l].cap.bytes_per_second() : 0.0) /
                         static_cast<double>(cnt);
    if (!have_anchor && cnt == n && share == rate) {
      have_anchor = true;
      anchor = l;
    } else {
      if (share < rate) return;
      min_other = std::min(min_other, share);
    }
  }
  if (!have_anchor) return;

  const TimePoint now = sim_.now();
  std::uint32_t gid;
  if (!free_groups_.empty()) {
    gid = free_groups_.back();
    free_groups_.pop_back();
  } else {
    gid = static_cast<std::uint32_t>(groups_.size());
    groups_.emplace_back();
  }
  RateGroup& g = groups_[gid];
  g.anchor = anchor;
  g.n = static_cast<std::uint32_t>(n);
  g.rate = rate;
  g.min_other_share = min_other;
  g.virtual_work = 0.0;
  g.last_boundary = now;  // every member was just settled to now
  g.history.clear();
  g.history.push_back(GroupSegment{now, rate});
  g.heap.clear();
  g.heap.reserve(n);
  for (const std::uint32_t slot : comp_flows_) {
    Flow& f = slots_[slot].flow;
    f.group = gid;
    f.group_hist = 0;
    // The group's lane supersedes the member's own from here on.
    sim_.lane_disarm(slots_[slot].completion);
    g.heap.push_back(GroupEntry{f.remaining, f.admission, slot});
  }
  std::make_heap(g.heap.begin(), g.heap.end(), kGroupEntryLater);
  // The members leave the slow path's list: all of it when the component was
  // every ungrouped flow (the incast shape).
  if (n == ungrouped_.size()) {
    ungrouped_.clear();
  } else {
    std::erase_if(ungrouped_, [&](std::uint32_t slot) {
      return slots_[slot].flow.group != kNoGroup;
    });
  }
  g.live = true;
  ++groups_live_;
  g.lane = sim_.lane_create([this, gid] { group_lane_fire(gid); });
  ++stats_.group_forms;
  group_rearm(gid, now);
}

void FlowNetwork::group_rearm(std::uint32_t gid, TimePoint now) {
  RateGroup& g = groups_[gid];
  const std::ptrdiff_t head = group_heap_head(gid);
  if (head < 0) {
    sim_.lane_disarm(g.lane);
    return;
  }
  const auto slot = static_cast<std::uint32_t>(head);
  // Settling the head at every boundary keeps the aim below on the identical
  // remaining/rate floating-point chain reschedule_completion would use.
  settle_flow(slot, now);
  const Flow& f = slots_[slot].flow;
  if (f.remaining <= kDrainEpsilon) {
    sim_.lane_aim(g.lane, now);
  } else {
    sim_.lane_aim(g.lane, now + Duration::from_seconds(f.remaining / g.rate));
  }
}

void FlowNetwork::group_lane_fire(std::uint32_t gid) {
  const TimePoint now = sim_.now();
  RateGroup& g = groups_[gid];
  const std::ptrdiff_t head = group_heap_head(gid);
  PROPHET_CHECK_MSG(head >= 0, "group lane fired with no live member");
  const auto slot = static_cast<std::uint32_t>(head);
  settle_flow(slot, now);  // the final chunk drains the member dry
  FlowSlot& s = slots_[slot];
  PROPHET_CHECK_MSG(s.flow.remaining <= 1.0,
                    "flow completion fired with bytes still pending");
  const FlowId fid = make_id(s.generation, slot);
  auto on_complete = std::move(s.flow.on_complete);
  group_heap_pop(g);
  group_remove_member(gid, slot, now);
  if (on_complete) on_complete(fid);
}

void FlowNetwork::group_remove_member(std::uint32_t gid, std::uint32_t slot,
                                      TimePoint now) {
  RateGroup& g = groups_[gid];
  Flow& f = slots_[slot].flow;
  f.group = kNoGroup;
  f.group_hist = 0;
  graph_remove(slot);
  // A link losing its last draining flow stops accruing busy time; the
  // anchor (and any link still shared with another member) stays busy.
  for (std::uint8_t i = 0; i < f.path_len; ++i) {
    const LinkId l = f.path[i];
    if (link_flows_[l].empty()) {
      settle_link_busy(l, now);
      links_[l].busy_active = false;
    }
  }
  release_slot(slot);
  PROPHET_CHECK(g.n > 0);
  g.n -= 1;
  if (g.n == 0) {
    ++stats_.group_fast_events;
    group_advance(g, now);
    group_destroy(gid);
    return;
  }
  // The survivors' share, via the same cap/int-count division progressive
  // filling evaluates for the anchor's round.
  const double new_rate =
      links_[g.anchor].cap.bytes_per_second() / static_cast<double>(g.n);
  if (new_rate > g.min_other_share) {
    // The bottleneck may move off the anchor: dissolve and pay one full
    // component rebalance (which re-forms a group with a fresh bound when
    // the shape still qualifies).
    const LinkId anchor = g.anchor;
    dissolve_group(gid);
    const LinkId seeds[1] = {anchor};
    rebalance_from(seeds, 1);
    return;
  }
  ++stats_.group_fast_events;
  group_set_rate(g, new_rate, now);
  group_rearm(gid, now);
  if (verify_rates_) group_verify(gid);
}

bool FlowNetwork::group_try_admit(std::uint32_t slot, TimePoint now) {
  Flow& f = slots_[slot].flow;
  // The arrival qualifies iff its path touches exactly one group, includes
  // that group's anchor, crosses only up links, and leaves every non-anchor
  // path link with a fair share at or above the group's post-arrival rate.
  std::uint32_t gid = kNoGroup;
  for (std::uint8_t i = 0; i < f.path_len; ++i) {
    const LinkId l = f.path[i];
    if (!links_[l].up()) return false;
    if (link_flows_[l].empty()) continue;
    const std::uint32_t lg = slots_[link_flows_[l][0]].flow.group;
    if (lg == kNoGroup) return false;  // touches an ungrouped component
    if (gid == kNoGroup) {
      gid = lg;
    } else if (gid != lg) {
      return false;  // would merge two groups
    }
  }
  if (gid == kNoGroup) return false;  // isolated arrival — slow path is O(1)
  RateGroup& g = groups_[gid];
  bool on_anchor = false;
  for (std::uint8_t i = 0; i < f.path_len; ++i) on_anchor |= f.path[i] == g.anchor;
  if (!on_anchor) return false;  // bridges into the group off its bottleneck
  const double new_rate =
      links_[g.anchor].cap.bytes_per_second() / static_cast<double>(g.n + 1);
  double min_other = g.min_other_share;
  for (std::uint8_t i = 0; i < f.path_len; ++i) {
    const LinkId l = f.path[i];
    if (l == g.anchor) continue;
    const double share = links_[l].cap.bytes_per_second() /
                         static_cast<double>(link_flows_[l].size() + 1);
    if (share < new_rate) return false;  // the arrival moves the bottleneck
    min_other = std::min(min_other, share);
  }
  // Commit: one boundary, one heap push, one lane re-aim.
  group_set_rate(g, new_rate, now);
  f.draining = true;
  f.last_settled = now;
  f.group = gid;
  f.group_hist = static_cast<std::uint32_t>(g.history.size() - 1);
  graph_insert(slot);
  g.n += 1;
  g.min_other_share = min_other;
  for (std::uint8_t i = 0; i < f.path_len; ++i) {
    Link& l = links_[f.path[i]];
    if (!l.busy_active) {
      settle_link_busy(f.path[i], now);
      l.busy_active = true;
    }
  }
  group_heap_push(g, GroupEntry{g.virtual_work + f.remaining, f.admission, slot});
  ++stats_.group_fast_events;
  group_rearm(gid, now);
  if (verify_rates_) group_verify(gid);
  return true;
}

bool FlowNetwork::group_capacity_change(std::uint32_t gid, LinkId id) {
  RateGroup& g = groups_[gid];
  const TimePoint now = sim_.now();
  if (id != g.anchor) {
    // A non-anchor member link: the group survives while the link's new fair
    // share still clears the group rate. No member's rate changes, so no
    // boundary is recorded.
    const double share = links_[id].cap.bytes_per_second() /
                         static_cast<double>(link_flows_[id].size());
    if (share < g.rate) return false;
    g.min_other_share = std::min(g.min_other_share, share);
    ++stats_.group_fast_events;
    if (verify_rates_) group_verify(gid);
    return true;
  }
  const double new_rate =
      links_[id].cap.bytes_per_second() / static_cast<double>(g.n);
  if (new_rate > g.min_other_share) return false;
  ++stats_.group_fast_events;
  group_set_rate(g, new_rate, now);
  group_rearm(gid, now);
  if (verify_rates_) group_verify(gid);
  return true;
}

void FlowNetwork::dissolve_group(std::uint32_t gid) {
  RateGroup& g = groups_[gid];
  const TimePoint now = sim_.now();
  // Settle every member exactly (they all sit on the anchor), hand its rate
  // back to the per-flow field, and let the caller's slow-path rebalance
  // re-rate them and re-aim their completion lanes.
  const std::vector<std::uint32_t>& members = link_flows_[g.anchor];
  for (const std::uint32_t slot : members) {
    settle_flow(slot, now);
    Flow& f = slots_[slot].flow;
    f.rate = g.rate;
    f.group = kNoGroup;
    f.group_hist = 0;
  }
  // The members rejoin the slow path's list: sorted once, then merged in.
  const auto joined = static_cast<std::ptrdiff_t>(ungrouped_.size());
  ungrouped_.insert(ungrouped_.end(), members.begin(), members.end());
  std::sort(ungrouped_.begin() + joined, ungrouped_.end(), by_admission());
  std::inplace_merge(ungrouped_.begin(), ungrouped_.begin() + joined, ungrouped_.end(),
                     by_admission());
  group_advance(g, now);
  ++stats_.group_dissolves;
  group_destroy(gid);
}

void FlowNetwork::group_destroy(std::uint32_t gid) {
  RateGroup& g = groups_[gid];
  sim_.lane_destroy(g.lane);
  g.lane = sim::kNoLane;
  g.history.clear();
  g.heap.clear();
  g.live = false;
  g.n = 0;
  PROPHET_CHECK(groups_live_ > 0);
  --groups_live_;
  free_groups_.push_back(gid);
}

void FlowNetwork::group_verify(std::uint32_t gid) {
  RateGroup& g = groups_[gid];
  // verify_against_full reads per-flow rate fields; refresh the members'
  // lazily-maintained copies first. Every group op in verify mode does this,
  // so the global check always sees current rates everywhere.
  for (const std::uint32_t slot : link_flows_[g.anchor]) {
    slots_[slot].flow.rate = g.rate;
  }
  verify_against_full();
}

void FlowNetwork::remove_active(std::uint32_t slot) {
  const std::uint32_t pos = slots_[slot].active_pos;
  const std::uint32_t moved = active_.back();
  active_[pos] = moved;
  active_.pop_back();
  if (moved != slot) slots_[moved].active_pos = pos;
}

void FlowNetwork::release_slot(std::uint32_t slot) {
  FlowSlot& s = slots_[slot];
  sim_.lane_disarm(s.completion);
  s.flow.on_complete = nullptr;
  s.flow.draining = false;
  s.occupied = false;
  ++s.generation;
  free_slots_.push_back(slot);
  remove_active(slot);
}

// --- original full-recompute path -------------------------------------------

void FlowNetwork::advance_to_now() {
  const TimePoint now = sim_.now();
  if (now == last_update_) return;
  const double elapsed_s = (now - last_update_).to_seconds();
  gather_draining_by_admission(all_draining_);
  for (const std::uint32_t slot : all_draining_) {
    Flow& flow = slots_[slot].flow;
    flow.last_settled = now;
    if (flow.rate <= 0.0) continue;
    ++stats_.flows_settled;
    const double drained = std::min(flow.remaining, flow.rate * elapsed_s);
    flow.remaining -= drained;
    for (std::uint8_t i = 0; i < flow.path_len; ++i) {
      Link& l = links_[flow.path[i]];
      l.total_bytes += drained;
      if (l.tracker != nullptr) l.tracker->add_amount_spread(last_update_, now, drained);
    }
  }
  const Duration elapsed = now - last_update_;
  for (Link& l : links_) {
    if (l.busy_active) l.busy += elapsed;
    l.busy_mark = now;
  }
  last_update_ = now;
}

void FlowNetwork::reassign_rates() {
  gather_draining_by_admission(all_draining_);
  ++stats_.rebalances;
  stats_.component_flows += all_draining_.size();
  progressive_fill(all_draining_,
                   [&](std::uint32_t slot, double r) { slots_[slot].flow.rate = r; });
  for (Link& l : links_) l.busy_active = false;
  for (const std::uint32_t slot : all_draining_) {
    const Flow& flow = slots_[slot].flow;
    if (flow.rate <= 0.0) continue;
    for (std::uint8_t i = 0; i < flow.path_len; ++i) {
      links_[flow.path[i]].busy_active = true;
    }
  }
  // Reschedule completions at the new rates.
  for (const std::uint32_t slot : all_draining_) reschedule_completion(slot);
}

void FlowNetwork::enter_drain(FlowId id) {
  const std::ptrdiff_t found = find_slot(id);
  // The flow may have been cancelled while still in setup; its ramp event
  // then fires against a stale id and must be inert.
  if (found < 0) return;
  const auto slot = static_cast<std::uint32_t>(found);
  if (mode_ == RebalanceMode::kFull) {
    advance_to_now();
    slots_[slot].flow.draining = true;
    graph_insert(slot);
    reassign_rates();
    return;
  }
  const TimePoint now = sim_.now();
  // An arrival that lands squarely on one rate group's bottleneck joins it
  // in O(log n) without touching the rest of the component.
  if (group_try_admit(slot, now)) return;
  Flow& f = slots_[slot].flow;
  // The arrival may bridge previously independent components; its whole path
  // seeds the frontier.
  std::array<LinkId, kMaxPathLinks> seeds = f.path;
  collect_component(seeds.data(), f.path_len);
  settle_component(now);
  f.draining = true;
  f.last_settled = now;
  graph_insert(slot);
  ungrouped_insert(slot);
  const auto at =
      std::upper_bound(comp_flows_.begin(), comp_flows_.end(), slot, by_admission());
  comp_flows_.insert(at, slot);
  refill_component();
}

Bytes FlowNetwork::cancel_flow(FlowId id) {
  const std::ptrdiff_t found = find_slot(id);
  if (found < 0) return Bytes::zero();
  const auto slot = static_cast<std::uint32_t>(found);
  if (mode_ == RebalanceMode::kFull) {
    advance_to_now();
    FlowSlot& s = slots_[slot];
    const auto remaining =
        static_cast<std::int64_t>(std::ceil(s.flow.remaining - kDrainEpsilon));
    if (s.flow.draining) graph_remove(slot);
    release_slot(slot);
    reassign_rates();
    return Bytes::of(std::max<std::int64_t>(remaining, 0));
  }
  const TimePoint now = sim_.now();
  FlowSlot& s = slots_[slot];
  if (s.flow.draining && s.flow.group != kNoGroup) {
    // Fast-path abort of a grouped member (crash teardown mid-incast):
    // settle it exactly, then detach — the group re-rates in O(log n) or
    // dissolves if the departure moves the bottleneck.
    settle_flow(slot, now);
    const auto remaining =
        static_cast<std::int64_t>(std::ceil(s.flow.remaining - kDrainEpsilon));
    group_remove_member(s.flow.group, slot, now);
    return Bytes::of(std::max<std::int64_t>(remaining, 0));
  }
  if (s.flow.draining) {
    std::array<LinkId, kMaxPathLinks> seeds = s.flow.path;
    const std::uint8_t n_seeds = s.flow.path_len;
    collect_component(seeds.data(), n_seeds);
    settle_component(now);
    const auto remaining =
        static_cast<std::int64_t>(std::ceil(s.flow.remaining - kDrainEpsilon));
    graph_remove(slot);
    ungrouped_erase(slot);
    release_slot(slot);
    refill_component();
    return Bytes::of(std::max<std::int64_t>(remaining, 0));
  }
  // Still in setup: the flow held no capacity, so no rates change.
  const auto remaining =
      static_cast<std::int64_t>(std::ceil(s.flow.remaining - kDrainEpsilon));
  release_slot(slot);
  return Bytes::of(std::max<std::int64_t>(remaining, 0));
}

double FlowNetwork::flow_remaining_bytes(FlowId id) {
  const std::ptrdiff_t slot = find_slot(id);
  if (slot < 0) return 0.0;
  if (mode_ == RebalanceMode::kFull) {
    advance_to_now();
  } else {
    settle_flow(static_cast<std::uint32_t>(slot), sim_.now());
  }
  return slots_[static_cast<std::size_t>(slot)].flow.remaining;
}

void FlowNetwork::complete_flow(FlowId id) {
  const std::ptrdiff_t found = find_slot(id);
  // release_slot disarms the lane, so only a live flow's lane can fire.
  PROPHET_CHECK_MSG(found >= 0, "completion lane fired for a free flow slot");
  const auto slot = static_cast<std::uint32_t>(found);
  if (mode_ == RebalanceMode::kFull) {
    advance_to_now();
    FlowSlot& s = slots_[slot];
    PROPHET_CHECK_MSG(s.flow.remaining <= 1.0,
                      "flow completion fired with bytes still pending");
    auto on_complete = std::move(s.flow.on_complete);
    if (s.flow.draining) graph_remove(slot);
    release_slot(slot);
    reassign_rates();
    if (on_complete) on_complete(id);
    return;
  }
  const TimePoint now = sim_.now();
  FlowSlot& s = slots_[slot];
  std::array<LinkId, kMaxPathLinks> seeds = s.flow.path;
  const std::uint8_t n_seeds = s.flow.path_len;
  collect_component(seeds.data(), n_seeds);
  settle_component(now);
  PROPHET_CHECK_MSG(s.flow.remaining <= 1.0,
                    "flow completion fired with bytes still pending");
  auto on_complete = std::move(s.flow.on_complete);
  graph_remove(slot);
  ungrouped_erase(slot);
  release_slot(slot);
  refill_component();
  if (on_complete) on_complete(id);
}

}  // namespace prophet::net
