// Discrete-event simulation engine.
//
// Single-threaded and deterministic: events fire in (time, insertion-seq)
// order, so two events scheduled for the same instant run in the order they
// were scheduled. Handlers may schedule further events freely.
//
// Determinism is a feature, not a simplification — every paired
// scheduler-vs-scheduler experiment in the benches relies on replaying the
// identical compute/network random draws under a different communication
// schedule.
//
// A plain scheduled event is one-shot and cannot be withdrawn: its callback
// waits in a reusable slot (no per-event heap allocation) until it fires.
// Anything that may need to withdraw or move an instant uses a *lane*
// instead, and a lane removes its own heap record when disarmed, so every
// record in the heap is live.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/check.hpp"
#include "common/time.hpp"

namespace prophet::sim {

// Identifier of an event *lane*: a persistent, re-aimable sentinel event.
// Where a plain scheduled event is one-shot (slot acquired, fired, released),
// a lane keeps its callback and identity across arbitrarily many re-aims, so
// a subsystem that repeatedly reschedules "the next interesting instant" for
// one thing (a FlowNetwork flow's completion, a rate group's next finisher,
// a retry timer) moves the lane's single heap record in place — no slot
// churn, no callback moves, and no stale record left behind for the loop to
// pop.
using LaneId = std::uint32_t;
inline constexpr LaneId kNoLane = 0xffffffffu;

class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] TimePoint now() const { return now_; }

  // Schedules `cb` to run at `at` (>= now). A plain event cannot be
  // withdrawn; use a lane for an instant that may be.
  void schedule_at(TimePoint at, Callback cb);
  // Schedules `cb` to run `delay` from now.
  void schedule_after(Duration delay, Callback cb);

  // Runs until the queue drains. Returns the number of events fired.
  std::uint64_t run();
  // Runs until the queue drains or simulated time would pass `deadline`;
  // events at exactly `deadline` still fire.
  std::uint64_t run_until(TimePoint deadline);
  // Fires exactly one event if any is pending. Returns false on empty queue.
  bool step();

  // --- event lanes ---------------------------------------------------------
  // Creates a lane owning `cb`. The lane starts disarmed; `lane_aim` arms it
  // (or moves an armed lane's target). When the lane's target instant is
  // reached it disarms itself and runs `cb` — the callback may re-aim the
  // lane, schedule events, or destroy the lane. An armed lane owns exactly
  // one heap record, which it tracks by index: re-aiming rewrites that
  // record and sifts it in place, and disarming or destroying removes it.
  LaneId lane_create(Callback cb);
  // Destroys the lane, removing its aim if armed; the id may be recycled.
  // Safe to call from inside the lane's own callback. An owner that destroys
  // its lanes on teardown must be destroyed before the simulator.
  void lane_destroy(LaneId id);
  // Arms the lane to fire at `at` (>= now), superseding any previous aim.
  // Every aim takes a fresh sequence number, exactly as scheduling a plain
  // event would, so a re-aimed lane ranks after every event already
  // scheduled for the same instant.
  void lane_aim(LaneId id, TimePoint at);
  // Un-arms the lane without destroying it (a no-op on a disarmed lane,
  // including one running its own callback); a later lane_aim re-arms.
  void lane_disarm(LaneId id);
  [[nodiscard]] bool lane_armed(LaneId id) const;
  // Live (created, not destroyed) lanes; exposed for the slab-reuse tests.
  [[nodiscard]] std::size_t lane_count() const { return lanes_live_; }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  // Scheduled, not-yet-fired events, armed lanes included: every heap
  // record is live.
  [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }
  // Event slot capacity (high-water mark of concurrently pending plain
  // events); exposed for the slab-reuse tests.
  [[nodiscard]] std::size_t event_slot_count() const { return slots_.size(); }

 private:
  // Trivially copyable, 16 bytes — the callback lives in slots_, so heap
  // sifts shuffle small PODs instead of dragging a std::function through
  // every swap, and four records share a cache line. seq is 32-bit:
  // next_seq() fails loudly if a single simulator ever issues 2^32 events.
  struct Record {
    TimePoint at;
    std::uint32_t seq;
    std::uint32_t slot;
  };
  // Heap records for lanes reuse the Record layout with the top bit of `slot`
  // set (schedule_at checks that plain slots never reach it).
  static constexpr std::uint32_t kLaneTag = 0x80000000u;
  // Lane::heap_pos of a disarmed lane.
  static constexpr std::uint32_t kNotQueued = 0xffffffffu;
  static bool earlier(const Record& a, const Record& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }
  struct Lane {
    Callback cb;
    // Index of the lane's record in heap_ while armed, else kNotQueued.
    std::uint32_t heap_pos = kNotQueued;
    bool alive = false;
  };

  std::uint32_t next_seq();
  // Heap maintenance. Every record move goes through place(), which keeps
  // a lane's heap_pos current; sift_up/sift_down drop `rec` into the hole
  // at `i` and move it toward the root or the leaves.
  void place(std::size_t i, const Record& rec);
  void sift_up(std::size_t i, const Record& rec);
  void sift_down(std::size_t i, const Record& rec);
  // Inserts into / pops the earliest record off / removes record `i` from
  // heap_.
  void heap_push(const Record& rec);
  Record pop_front();
  void remove_at(std::size_t i);
  // Runs a popped record's callback (plain event or lane).
  void fire(const Record& rec);

  // Plain events' callbacks, by slot; a slot returns to the free list as its
  // event fires.
  std::vector<Callback> slots_;
  std::vector<std::uint32_t> free_slots_;
  // 4-ary implicit min-heap on (at, seq). Versus a binary heap this halves
  // the sift depth and keeps a node's children in adjacent cache lines, which
  // is what dominates dispatch cost once the queue outgrows L2.
  std::vector<Record> heap_;
  // Lane slab (ids recycled through the free list; a lane's record leaves
  // the heap before its id is freed, so no generation counter is needed).
  std::vector<Lane> lanes_;
  std::vector<std::uint32_t> lane_free_;
  std::size_t lanes_live_ = 0;
  TimePoint now_{};
  std::uint32_t next_seq_{0};
  std::uint64_t fired_{0};
};

}  // namespace prophet::sim
