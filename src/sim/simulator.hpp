// Discrete-event simulation engine.
//
// Single-threaded and deterministic: events fire in (time, insertion-seq)
// order, so two events scheduled for the same instant run in the order they
// were scheduled. Handlers may schedule or cancel further events freely.
//
// Determinism is a feature, not a simplification — every paired
// scheduler-vs-scheduler experiment in the benches relies on replaying the
// identical compute/network random draws under a different communication
// schedule.
//
// Event lifecycle state lives in a slab-allocated pool: each scheduled event
// occupies one reusable slot addressed by a {slot, generation} handle, so
// scheduling performs no per-event heap allocation (the old design paid two
// shared_ptr control blocks per event). The generation counter makes stale
// handles inert after a slot is recycled (no ABA): a handle only matches
// while its own event still owns the slot. The pool itself is shared between
// the simulator and outstanding handles, so a handle may safely outlive the
// simulator.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "common/time.hpp"

namespace prophet::sim {

class Simulator;

// Identifier of an event *lane*: a persistent, re-aimable sentinel event.
// Where a plain scheduled event is one-shot (slot acquired, fired, released),
// a lane keeps its callback and identity across arbitrarily many re-aims, so
// a subsystem that repeatedly reschedules "the next interesting instant" for
// one thing (a FlowNetwork flow's completion, a rate group's next finisher)
// moves the lane's single heap record in place — no slot churn, no callback
// moves, and no stale record left behind for the loop to pop.
using LaneId = std::uint32_t;
inline constexpr LaneId kNoLane = 0xffffffffu;

namespace detail {

// Slab of per-event lifecycle slots. `done` flips when the event fires or is
// cancelled; `generation` advances each time the slot is recycled. The slot
// also owns the event's callback, which keeps the priority-heap records
// trivially copyable — heap sifts move 24-byte PODs, never a std::function.
struct EventPool {
  struct Slot {
    std::function<void()> cb;
    std::uint32_t generation = 0;
    bool done = true;
    // Whether cancelling this event must decrement `live` (periodic-chain
    // slots never hold a queue entry, so they do not count as live events).
    bool counts_live = false;
  };
  std::vector<Slot> slots;
  std::vector<std::uint32_t> free_list;
  // Scheduled, not-yet-fired, not-cancelled events.
  std::size_t live = 0;

  [[nodiscard]] bool matches(std::uint32_t slot, std::uint32_t generation) const {
    return slot < slots.size() && slots[slot].generation == generation;
  }
  [[nodiscard]] bool pending(std::uint32_t slot, std::uint32_t generation) const {
    return matches(slot, generation) && !slots[slot].done;
  }

  std::uint32_t acquire(bool counts_live) {
    std::uint32_t slot;
    if (!free_list.empty()) {
      slot = free_list.back();
      free_list.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots.size());
      slots.emplace_back();
    }
    slots[slot].done = false;
    slots[slot].counts_live = counts_live;
    if (counts_live) ++live;
    return slot;
  }

  // Marks the event done (idempotent); used by both cancel and fire.
  void finish(std::uint32_t slot) {
    Slot& s = slots[slot];
    if (s.done) return;
    s.done = true;
    if (s.counts_live && live > 0) --live;
  }

  // Returns the slot to the free list; stale handles stop matching and the
  // callback (with whatever it captured) is dropped.
  void release(std::uint32_t slot) {
    slots[slot].cb = nullptr;
    ++slots[slot].generation;
    free_list.push_back(slot);
  }
};

}  // namespace detail

// Cancellation handle for a scheduled event. Default-constructed handles are
// inert. Cancelling an already-fired or already-cancelled event is a no-op.
class EventHandle {
 public:
  EventHandle() = default;

  void cancel() {
    if (pool_ && pool_->pending(slot_, generation_)) pool_->finish(slot_);
  }
  [[nodiscard]] bool pending() const {
    return pool_ && pool_->pending(slot_, generation_);
  }

 private:
  friend class Simulator;
  EventHandle(std::shared_ptr<detail::EventPool> pool, std::uint32_t slot,
              std::uint32_t generation)
      : pool_{std::move(pool)}, slot_{slot}, generation_{generation} {}
  std::shared_ptr<detail::EventPool> pool_;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() : pool_{std::make_shared<detail::EventPool>()} {}
  // Undelivered events die with the simulator: outstanding handles see them
  // as no longer pending, and their callbacks (with captures) are dropped.
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] TimePoint now() const { return now_; }

  // Schedules `cb` to run at `at` (>= now).
  EventHandle schedule_at(TimePoint at, Callback cb);
  // Schedules `cb` to run `delay` from now.
  EventHandle schedule_after(Duration delay, Callback cb);
  // Schedules `cb` every `period`, starting at now + period. The returned
  // handle cancels the whole chain (a tick already in the queue when the
  // chain is cancelled fires as a no-op). The chain state is owned by the
  // simulator — no reference cycle keeps it alive once cancelled.
  EventHandle schedule_periodic(Duration period, std::function<void(TimePoint)> cb);

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
  // Safe to call from inside the lane's own callback.
  void lane_destroy(LaneId id);
  // Arms the lane to fire at `at` (>= now), superseding any previous aim.
  // Every aim takes a fresh sequence number, exactly as cancelling and
  // rescheduling a plain event would, so a re-aimed lane ranks after every
  // event already scheduled for the same instant.
  void lane_aim(LaneId id, TimePoint at);
  // Un-arms the lane without destroying it; a later lane_aim re-arms.
  void lane_disarm(LaneId id);
  [[nodiscard]] bool lane_armed(LaneId id) const;
  // Live (created, not destroyed) lanes; exposed for the slab-reuse tests.
  [[nodiscard]] std::size_t lane_count() const { return lanes_live_; }

  [[nodiscard]] bool empty() const { return pool_->live == 0 && lanes_armed_ == 0; }
  // Scheduled, not-yet-fired, not-cancelled events (armed lanes included).
  [[nodiscard]] std::size_t pending_events() const { return pool_->live + lanes_armed_; }
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }
  // Pool capacity (high-water mark of concurrently tracked events); exposed
  // for the slab-reuse tests.
  [[nodiscard]] std::size_t event_slot_count() const { return pool_->slots.size(); }
  // Records in the event heap: pending events plus cancelled plain events
  // not yet popped (lanes never leave one behind); exposed for the heap
  // tests.
  [[nodiscard]] std::size_t queued_records() const { return heap_.size(); }

 private:
  // Trivially copyable, 16 bytes — the callback lives in the pool slot, so
  // heap sifts shuffle small PODs instead of dragging a std::function
  // through every swap, and four records share a cache line. A queued record
  // owns its pool slot until popped, so no generation tag is needed here
  // (only external handles can go stale). seq is 32-bit: schedule_at fails
  // loudly if a single simulator ever issues 2^32 events.
  struct Record {
    TimePoint at;
    std::uint32_t seq;
    std::uint32_t slot;
  };
  // Heap records for lanes reuse the Record layout with the top bit of `slot`
  // set (the pool would need 2^31 concurrent events to collide, checked at
  // acquire). A lane's record is always live: it is rewritten in place on a
  // re-aim and removed on disarm or destroy.
  static constexpr std::uint32_t kLaneTag = 0x80000000u;
  // Lane::heap_pos of a disarmed lane.
  static constexpr std::uint32_t kNotQueued = 0xffffffffu;
  static bool earlier(const Record& a, const Record& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }
  struct PeriodicChain {
    Duration period;
    std::function<void(TimePoint)> cb;
  };
  struct Lane {
    Callback cb;
    // Index of the lane's record in heap_ while armed, else kNotQueued.
    std::uint32_t heap_pos = kNotQueued;
    bool alive = false;
  };

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
  // Fires `rec`; assumes it is live.
  void fire(Record rec);
  // Routes a popped record (event or lane) to its callback; returns whether
  // anything fired (false for cancelled events).
  bool dispatch(const Record& rec);
  void periodic_tick(std::uint32_t slot, std::uint32_t generation);

  std::shared_ptr<detail::EventPool> pool_;
  // 4-ary implicit min-heap on (at, seq). Versus a binary heap this halves
  // the sift depth and keeps a node's children in adjacent cache lines, which
  // is what dominates dispatch cost once the queue outgrows L2.
  std::vector<Record> heap_;
  // Periodic-chain state, keyed by the chain's pool slot.
  std::unordered_map<std::uint32_t, PeriodicChain> chains_;
  // Lane slab (ids recycled through the free list; a lane's record leaves
  // the heap before its id is freed, so no generation counter is needed).
  std::vector<Lane> lanes_;
  std::vector<std::uint32_t> lane_free_;
  std::size_t lanes_live_ = 0;
  std::size_t lanes_armed_ = 0;
  TimePoint now_{};
  std::uint32_t next_seq_{0};
  std::uint64_t fired_{0};
};

}  // namespace prophet::sim
