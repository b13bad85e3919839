// Flow-level network model: a set of nodes exchanging flows whose rates are
// assigned by progressive filling (max-min fairness) — the standard fluid
// approximation of TCP sharing a bottleneck.
//
// Capacity lives in *links*, the unit of contention. Every node owns two
// access links (egress and ingress — the NIC ports of the original
// star-topology model), and the network can additionally hold shared links:
// per-rack leaf-spine uplinks with a configurable capacity, which is where
// oversubscription and cross-job contention live. Each flow traverses a
// deterministic path of links:
//
//   intra-rack / star:  [src.tx, dst.rx]
//   cross-rack:         [src.tx, srcrack.up, dstrack.down, dst.rx]
//
// (a node not assigned to any rack attaches directly to the spine, so only
// its own access links appear on its paths). Progressive filling runs over
// whatever links carry draining flows, so an oversubscribed uplink shared by
// two jobs caps their aggregate rate without any scheduler involvement. A
// star network — no racks — reduces exactly to the original two-port model,
// bit for bit.
//
// This is the substrate under the PS architecture: worker->PS pushes share
// the PS ingress (incast), PS->worker pulls share the PS egress, and
// per-worker limits model heterogeneous clusters (Sec. 5.3).
//
// A flow passes through two phases:
//   1. setup  — latency-bound (per-task overhead + TCP slow-start ramp from
//               TcpCostModel); consumes no link capacity;
//   2. drain  — its bytes drain at the max-min fair rate; rates are
//               recomputed whenever a flow enters/leaves drain or a link
//               capacity changes.
//
// Flows live in a slab: each admitted flow occupies a reusable slot and its
// FlowId encodes {generation, slot}, so admission allocates nothing in
// steady state and stale ids are recognized cheaply.
//
// Rate maintenance is *incremental*: the network keeps the flow<->link
// contention graph explicit (per-link lists of draining flows), and a flow
// arrival/departure or a link capacity/state change rebalances only the
// connected component of that graph reachable from the dirty links. Flows in
// other components keep their rates, their byte accounting (settled lazily,
// per flow, against piecewise-constant rates) and their already-aimed
// completion lanes. Max-min allocations are component-local, so the rates
// are the ones a full recompute would produce — a property the differential
// verification mode (`set_verify_rates`) checks bit-for-bit against the
// retained full algorithm after every rebalance. `RebalanceMode::kFull`
// keeps the original whole-network path alive as the reference baseline
// (bench/scale measures incremental speedup against it).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"
#include "common/time_series.hpp"
#include "common/units.hpp"
#include "net/cost_model.hpp"
#include "sim/simulator.hpp"

namespace prophet::net {

using NodeId = std::uint32_t;
using LinkId = std::uint32_t;
using RackId = std::uint32_t;
using FlowId = std::uint64_t;

// A node outside any rack attaches straight to the spine.
inline constexpr RackId kNoRack = 0xffffffffu;

enum class Direction { kTx, kRx };

// How rate reassignment reacts to a contention change. kIncremental walks
// only the affected connected component of the flow<->link graph;
// kFull re-runs progressive filling over the whole network on every change
// (the original algorithm, kept as the reference/bench baseline).
enum class RebalanceMode { kIncremental, kFull };

// Rebalance-engine observability counters, cumulative over the network's
// lifetime. Cheap enough to maintain unconditionally; surfaced through
// ClusterResult / MultiJobResult and the BENCH_scale.json writer so perf
// regressions can be triaged from recorded artifacts instead of reruns.
struct RebalanceStats {
  // Slow-path component rebalances (collect + settle + progressive fill).
  std::uint64_t rebalances = 0;
  // Flows walked by those slow-path rebalances (settled + re-rated + their
  // completions rescheduled); rebalances/flows give the mean component size.
  std::uint64_t component_flows = 0;
  // Per-flow settlement chunks applied (each one rate*elapsed credit).
  std::uint64_t flows_settled = 0;
  // Rate-group lifecycle: formations, dissolutions back to the slow path,
  // and events (completion/admission/cancel/capacity change) absorbed by a
  // group in O(log n) without a component rebalance.
  std::uint64_t group_forms = 0;
  std::uint64_t group_dissolves = 0;
  std::uint64_t group_fast_events = 0;
  // Differential verification (set_verify_rates): full-recompute comparisons
  // run. A rate mismatch aborts the run.
  std::uint64_t verify_checks = 0;
};

class FlowNetwork {
 public:
  // Longest possible path: access tx, rack uplink, rack downlink, access rx.
  static constexpr std::size_t kMaxPathLinks = 4;

  FlowNetwork(sim::Simulator& sim, TcpCostModel cost_model,
              RebalanceMode mode = RebalanceMode::kIncremental);
  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  // When enabled (tests), every incremental rebalance is followed by a full
  // progressive-filling recompute over the whole network and each draining
  // flow's rate is checked bit-identical against it; aborts on divergence.
  void set_verify_rates(bool on) { verify_rates_ = on; }

  NodeId add_node(std::string name, Bandwidth egress, Bandwidth ingress);
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const std::string& node_name(NodeId id) const;

  // --- topology: racks and shared links -----------------------------------
  // Adds a rack whose hosts reach the spine through a pair of directed
  // shared links ("<name>.up" / "<name>.down"). Oversubscription is simply
  // uplink < sum of member access rates.
  RackId add_rack(std::string name, Bandwidth uplink, Bandwidth downlink);
  // Places a node in a rack; flows between nodes of different racks (or
  // between a racked and an unracked node) traverse the rack uplinks.
  void assign_rack(NodeId node, RackId rack);
  [[nodiscard]] RackId rack_of(NodeId node) const;
  [[nodiscard]] std::size_t rack_count() const { return racks_.size(); }
  [[nodiscard]] const std::string& rack_name(RackId id) const;
  // kTx: the rack's uplink (toward the spine); kRx: its downlink.
  [[nodiscard]] LinkId rack_link(RackId id, Direction dir) const;

  // --- link-level API ------------------------------------------------------
  // Access links are named "<node>.tx" / "<node>.rx", rack links
  // "<rack>.up" / "<rack>.down".
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] const std::string& link_name(LinkId id) const;
  [[nodiscard]] std::optional<LinkId> find_link(std::string_view name) const;
  [[nodiscard]] LinkId node_link(NodeId id, Direction dir) const;
  // A node's two access links, {tx, rx}.
  [[nodiscard]] std::array<LinkId, 2> access_links(NodeId id) const;
  // Takes effect immediately; in-flight flows are re-rated. Models the
  // varying-bandwidth experiments of Sec. 5.3.
  void set_link_capacity(LinkId id, Bandwidth cap);
  [[nodiscard]] Bandwidth link_capacity(LinkId id) const;
  // The one writer of link state: `false` takes a down-hold on each of `ids`
  // (one per outage or fault window), `true` releases one, and a link is up
  // only while it holds none, so overlapping windows compose. Releasing a
  // hold nobody took aborts, naming the link and the time. Links that flip do
  // so in one rebalance seeded with all of `ids`. A down link contributes zero
  // capacity: its draining flows park at rate zero without losing progress
  // and resume, re-rated, when it comes back up; link_capacity() keeps the
  // configured rate, and setup delays of started flows still elapse.
  void set_link_state(std::span<const LinkId> ids, bool up);
  [[nodiscard]] bool link_state(LinkId id) const;
  // Bytes moved through the link up to the current simulation time. Not
  // const: in-flight flows are settled up to now() before reading.
  [[nodiscard]] std::int64_t link_total_bytes(LinkId id);
  // Cumulative time the link had at least one draining flow, to now().
  [[nodiscard]] Duration link_busy_time(LinkId id);
  void attach_link_tracker(LinkId id, BinnedSeries* series);

  // The deterministic link path a flow from `src` to `dst` traverses now.
  [[nodiscard]] std::vector<LinkId> route(NodeId src, NodeId dst) const;

  // Starts a flow of `size` bytes from `src` to `dst`. `on_complete` fires
  // (once) when the last byte drains. Zero-size flows complete after setup.
  FlowId start_flow(NodeId src, NodeId dst, Bytes size,
                    std::function<void(FlowId)> on_complete);

  // Aborts a flow without firing its completion callback (transport loss or
  // a crashed endpoint). Returns the bytes that had not yet drained, rounded
  // up — what a byte-range-resuming retry would still have to send. Stale
  // ids are a no-op returning zero.
  Bytes cancel_flow(FlowId id);
  // Bytes not yet drained, settled to now(); zero for stale ids. Kept as the
  // raw fractional count so progress watchdogs see sub-byte movement.
  [[nodiscard]] double flow_remaining_bytes(FlowId id);

  [[nodiscard]] bool flow_active(FlowId id) const { return find_slot(id) >= 0; }
  [[nodiscard]] std::size_t active_flow_count() const { return active_.size(); }
  // Current drain rate; zero while in setup.
  [[nodiscard]] Bandwidth flow_rate(FlowId id) const;

  // --- observability ------------------------------------------------------
  // Optional per-node throughput series (bytes credited as flows drain) on
  // one of the node's access links.
  void attach_tracker(NodeId id, Direction dir, BinnedSeries* series);
  [[nodiscard]] const RebalanceStats& rebalance_stats() const { return stats_; }
  // Live rate groups (see the RateGroup comment below); exposed for tests.
  [[nodiscard]] std::size_t rate_group_count() const { return groups_live_; }

 private:
  // The unit of capacity and contention (an access port or a shared rack
  // uplink). `down_holds` is per-link so a rack uplink can fail independently
  // of the hosts behind it. `busy_active`/`busy_mark` accrue busy time
  // exactly between contention changes (a link is busy while it carries at
  // least one positive-rate draining flow).
  struct Link {
    std::string name;
    Bandwidth cap;
    std::uint32_t down_holds = 0;  // see set_link_state
    bool busy_active = false;
    double total_bytes = 0.0;
    Duration busy{};
    TimePoint busy_mark{};
    BinnedSeries* tracker = nullptr;
    [[nodiscard]] bool up() const { return down_holds == 0; }
  };
  struct Node {
    std::string name;
    LinkId tx;
    LinkId rx;
    RackId rack = kNoRack;
  };
  struct Rack {
    std::string name;
    LinkId up;
    LinkId down;
  };
  struct Flow {
    NodeId src;
    NodeId dst;
    double remaining;  // bytes left to drain, settled to `last_settled`
    bool draining = false;
    double rate = 0.0;  // bytes/s, valid while draining
    // The link path, fixed at admission (src.tx first, dst.rx last).
    std::array<LinkId, kMaxPathLinks> path;
    std::uint8_t path_len = 0;
    // This flow's index inside link_flows_[path[i]] while draining, so the
    // contention graph supports O(1) swap-and-pop removal.
    std::array<std::uint32_t, kMaxPathLinks> link_pos;
    // Admission order, the deterministic tie-break every walk uses.
    std::uint64_t admission = 0;
    // Byte accounting is lazy: remaining/link totals are settled per flow
    // from its piecewise-constant rate when its component is next touched.
    TimePoint last_settled{};
    // Rate-group membership (kIncremental only): while grouped, `rate` may be
    // stale — the live rate is the group's — and settlement replays the
    // group's rate history from segment `group_hist` onward.
    std::uint32_t group = kNoGroup;
    std::uint32_t group_hist = 0;
    std::function<void(FlowId)> on_complete;
  };
  // One slab entry; `generation` advances when the slot is recycled so stale
  // FlowIds stop resolving. `active_pos` is the slot's index in active_
  // (swap-and-pop slot->index map). `completion` is the slot's simulator
  // lane, created when the slab grows and kept across tenants: it is aimed
  // at an ungrouped draining flow's ETA and disarmed whenever the slot's
  // flow has no completion of its own to fire (setup, parked at rate zero,
  // grouped, or gone), so a recycled slot never fires its last tenant's aim.
  struct FlowSlot {
    Flow flow;
    std::uint32_t generation = 1;
    std::uint32_t active_pos = 0;
    sim::LaneId completion = sim::kNoLane;
    bool occupied = false;
  };
  // Per-link scratch for progressive filling (persistent across calls).
  struct LinkFill {
    double cap = 0.0;
    int unfrozen = 0;
  };

  // --- rate groups (kIncremental fast path) --------------------------------
  // When one link is the common bottleneck of an entire component — the PS
  // incast shape — progressive filling gives every flow the identical share
  // cap/n. Such a component is promoted to a *rate group*: members' own
  // completion lanes are disarmed and they stop per-event settlement; instead
  // the group keeps (a) a next-finisher heap ordered by virtual finish work
  // (drained work at join + remaining bytes at join), (b) a piecewise-
  // constant rate history so a member settles lazily by replaying exactly
  // the per-boundary chunks the eager engine would have applied (bit-
  // identical byte/tracker accounting), and (c) one simulator lane aimed at
  // the head's completion. A completion/admission/cancel then costs O(log n)
  // heap work plus O(1) boundary bookkeeping; anything that can change the
  // bottleneck structure (a BFS reaching the group, a link going down, the
  // risen share crossing another link's) dissolves the group back to the
  // slow path, which re-forms it if the shape still qualifies.
  struct GroupSegment {
    TimePoint start;
    double rate;  // in force from `start` until the next segment's start
  };
  // Next-finisher heap entry; lazy deletion (an entry is live while its slot
  // still holds the same admission and membership).
  struct GroupEntry {
    double vfinish;
    std::uint64_t admission;
    std::uint32_t slot;
  };
  struct RateGroup {
    LinkId anchor = 0;
    std::uint32_t n = 0;  // live members
    double rate = 0.0;    // current per-member share, bit-equal to fill's cap/n
    // Conservative lower bound on every non-anchor member-link fair share;
    // the group stays valid while its rate never exceeds this.
    double min_other_share = 0.0;
    // Cumulative per-member drained bytes since formation (one product per
    // boundary); orders the heap, never used for byte accounting.
    double virtual_work = 0.0;
    TimePoint last_boundary{};
    sim::LaneId lane = sim::kNoLane;
    std::vector<GroupSegment> history;
    std::vector<GroupEntry> heap;  // binary min-heap on (vfinish, admission)
    bool live = false;
  };
  static constexpr std::uint32_t kNoGroup = 0xffffffffu;
  // Components below this size stay on the slow path: tiny refills are cheap
  // and the small pinned-golden scenarios keep their exact event sequences.
  static constexpr std::size_t kMinGroupFlows = 8;

  static constexpr FlowId make_id(std::uint32_t generation, std::uint32_t slot) {
    return (static_cast<FlowId>(generation) << 32) | slot;
  }
  // Slot index for a live id, or -1 if the id is stale/unknown.
  [[nodiscard]] std::ptrdiff_t find_slot(FlowId id) const;

  LinkId add_link(std::string name, Bandwidth cap);
  Link& link(LinkId id);
  [[nodiscard]] const Link& link(LinkId id) const;
  // Writes the current path into `out`, returns its length.
  std::uint8_t compute_path(NodeId src, NodeId dst,
                            std::array<LinkId, kMaxPathLinks>& out) const;

  // --- incremental engine --------------------------------------------------
  // Contention-graph maintenance (draining flows only).
  void graph_insert(std::uint32_t slot);
  void graph_remove(std::uint32_t slot);
  // BFS over the contention graph from `seeds` into comp_links_/comp_flows_
  // (flows in admission order, read off ungrouped_). Seeds are always
  // included in comp_links_.
  void collect_component(const LinkId* seeds, std::size_t n_seeds);
  // ungrouped_ upkeep where a slow-path flow starts or stops draining.
  void ungrouped_insert(std::uint32_t slot);
  void ungrouped_erase(std::uint32_t slot);
  // Orders flow slots by admission, the tie-break every walk uses.
  [[nodiscard]] auto by_admission() const {
    return [this](std::uint32_t a, std::uint32_t b) {
      return slots_[a].flow.admission < slots_[b].flow.admission;
    };
  }
  // Credits the flow's drained bytes to its links for [last_settled, now].
  void settle_flow(std::uint32_t slot, TimePoint now);
  // Accrues the link's busy time to `now`.
  void settle_link_busy(LinkId id, TimePoint now);
  // Settles every flow and link of the component already in comp_* buffers.
  void settle_component(TimePoint now);
  // Settles + re-runs progressive filling + reschedules completions for the
  // component reachable from `seeds` (call after mutating caps/link state;
  // for arrivals/departures, mutate the graph between collect and fill — see
  // enter_drain / complete_flow).
  void rebalance_from(const LinkId* seeds, std::size_t n_seeds);
  // Progressive filling over `flow_slots` (admission-sorted, draining);
  // set_rate(slot, rate) receives every assignment. Uses fill_/scratch.
  template <typename SetRate>
  void progressive_fill(const std::vector<std::uint32_t>& flow_slots,
                        SetRate&& set_rate);
  // Filling + busy-flag refresh + completion rescheduling for comp_flows_.
  void refill_component();
  // Re-aims (or, at rate zero, disarms) one draining flow's completion lane.
  void reschedule_completion(std::uint32_t slot);
  // Asserts every draining flow's rate matches a full recompute bit-for-bit,
  // and that ungrouped_ is exactly the ungrouped draining flows in order.
  void verify_against_full();

  // --- rate-group engine ---------------------------------------------------
  // The group (if any) owning link `id`'s draining flows.
  [[nodiscard]] std::uint32_t group_of_link(LinkId id) const;
  // Promotes comp_flows_/comp_links_ to a rate group when the shape
  // qualifies; called at the end of every slow-path refill.
  void maybe_form_group();
  // Settles a grouped flow by replaying the group's rate history (the exact
  // chunk sequence the eager engine would have applied).
  void settle_group_flow(std::uint32_t slot, TimePoint now);
  // Advances the group's virtual-work clock to `now`.
  void group_advance(RateGroup& g, TimePoint now);
  // Boundary: advance virtual work, then switch the group to `rate`.
  void group_set_rate(RateGroup& g, double rate, TimePoint now);
  void group_heap_push(RateGroup& g, const GroupEntry& e);
  void group_heap_pop(RateGroup& g);
  // Drops stale heap entries; returns the live head slot or -1 if empty.
  std::ptrdiff_t group_heap_head(std::uint32_t gid);
  // Settles the head to `now` and re-aims the group's lane at its finish.
  void group_rearm(std::uint32_t gid, TimePoint now);
  // Fast-path admission of a settled, not-yet-draining flow; returns false
  // (leaving all state untouched) when the arrival must take the slow path.
  bool group_try_admit(std::uint32_t slot, TimePoint now);
  // Fast-path member removal (completion and cancellation): detaches the
  // member, then re-rates, dissolves, or destroys the group as needed.
  void group_remove_member(std::uint32_t gid, std::uint32_t slot, TimePoint now);
  // Fast-path capacity change on a group link; false -> caller rebalances.
  bool group_capacity_change(std::uint32_t gid, LinkId id);
  // Settles every member to now, hands per-flow rates back to the eager
  // engine, and frees the group (members keep draining; the caller must
  // follow with a slow-path rebalance covering them, which re-aims their
  // completion lanes).
  void dissolve_group(std::uint32_t gid);
  void group_destroy(std::uint32_t gid);
  // Verify mode: refresh member rates, then run the full differential check.
  void group_verify(std::uint32_t gid);
  // Lane callback: the group head finished.
  void group_lane_fire(std::uint32_t gid);
  // All draining flow slots, in admission order (full/verify paths).
  void gather_draining_by_admission(std::vector<std::uint32_t>& out) const;
  void remove_active(std::uint32_t slot);

  // --- original full-recompute path (RebalanceMode::kFull) -----------------
  // Credits drained bytes / busy time for [last_update_, now] at current
  // rates for every flow, then sets last_update_ = now.
  void advance_to_now();
  // Recomputes max-min fair rates and re-aims completion lanes for the
  // whole network.
  void reassign_rates();

  void enter_drain(FlowId id);
  // Completion-lane callback of the flow holding `id`.
  void complete_flow(FlowId id);
  void release_slot(std::uint32_t slot);

  sim::Simulator& sim_;
  TcpCostModel cost_model_;
  RebalanceMode mode_;
  bool verify_rates_ = false;
  std::vector<Node> nodes_;
  std::vector<Rack> racks_;
  std::vector<Link> links_;
  std::vector<FlowSlot> slots_;
  std::vector<std::uint32_t> free_slots_;
  // Slots of admitted flows, unordered (swap-and-pop via FlowSlot::active_pos;
  // deterministic walks sort by Flow::admission instead).
  std::vector<std::uint32_t> active_;
  std::uint64_t next_admission_ = 0;
  // Full-recompute mode's global settlement clock.
  TimePoint last_update_{};

  // The explicit contention graph: draining flows on each link.
  std::vector<std::vector<std::uint32_t>> link_flows_;

  // Persistent scratch (sized to the link/flow counts, reused every call).
  std::vector<LinkFill> fill_;
  std::vector<std::uint32_t> unfrozen_;
  std::vector<LinkId> active_links_;
  // Component-BFS scratch: visited stamps + the collected component.
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> link_epoch_;
  std::vector<std::uint64_t> slot_epoch_;
  std::vector<LinkId> comp_links_;
  std::vector<std::uint32_t> comp_flows_;
  // kIncremental only: every draining flow outside a rate group, in admission
  // order, so a component walk filters it instead of sorting. Only the slow
  // path maintains it: enter_drain inserts, complete_flow/cancel_flow erase,
  // maybe_form_group drops new members and dissolve_group merges them back.
  std::vector<std::uint32_t> ungrouped_;
  // Full/verify-path scratch.
  std::vector<std::uint32_t> all_draining_;
  std::vector<double> verify_rate_;
  // Rate-group slab (freed groups keep their vector capacity for reuse).
  std::vector<RateGroup> groups_;
  std::vector<std::uint32_t> free_groups_;
  std::size_t groups_live_ = 0;
  RebalanceStats stats_;
};

}  // namespace prophet::net
