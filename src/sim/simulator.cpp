#include "sim/simulator.hpp"

#include <algorithm>
#include <limits>

namespace prophet::sim {

std::uint32_t Simulator::next_seq() {
  PROPHET_CHECK_MSG(next_seq_ != std::numeric_limits<std::uint32_t>::max(),
                    "event sequence counter exhausted");
  return next_seq_++;
}

void Simulator::schedule_at(TimePoint at, Callback cb) {
  PROPHET_CHECK_MSG(at >= now_, "scheduling into the past");
  PROPHET_CHECK(cb != nullptr);
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    PROPHET_CHECK_MSG(slot < kLaneTag, "event slots exhausted the slot space");
    slots_.emplace_back();
  }
  slots_[slot] = std::move(cb);
  heap_push(Record{at, next_seq(), slot});
}

void Simulator::schedule_after(Duration delay, Callback cb) {
  PROPHET_CHECK_MSG(delay >= Duration::zero(), "negative delay");
  schedule_at(now_ + delay, std::move(cb));
}

LaneId Simulator::lane_create(Callback cb) {
  PROPHET_CHECK(cb != nullptr);
  LaneId id;
  if (!lane_free_.empty()) {
    id = lane_free_.back();
    lane_free_.pop_back();
  } else {
    id = static_cast<LaneId>(lanes_.size());
    PROPHET_CHECK_MSG(id < kLaneTag, "lane slab exhausted the slot space");
    lanes_.emplace_back();
  }
  Lane& ln = lanes_[id];
  ln.cb = std::move(cb);
  ln.alive = true;
  ++lanes_live_;
  return id;
}

void Simulator::lane_destroy(LaneId id) {
  lane_disarm(id);
  Lane& ln = lanes_[id];
  ln.alive = false;
  ln.cb = nullptr;  // no-op if destroyed mid-fire: fire() holds the cb
  --lanes_live_;
  lane_free_.push_back(id);
}

void Simulator::lane_aim(LaneId id, TimePoint at) {
  PROPHET_CHECK(id < lanes_.size() && lanes_[id].alive);
  PROPHET_CHECK_MSG(at >= now_, "aiming a lane into the past");
  const Record rec{at, next_seq(), id | kLaneTag};
  const std::uint32_t pos = lanes_[id].heap_pos;
  if (pos == kNotQueued) {
    heap_push(rec);
  } else if (earlier(rec, heap_[pos])) {
    sift_up(pos, rec);
  } else {
    sift_down(pos, rec);
  }
}

void Simulator::lane_disarm(LaneId id) {
  PROPHET_CHECK(id < lanes_.size() && lanes_[id].alive);
  const std::uint32_t pos = lanes_[id].heap_pos;
  if (pos != kNotQueued) remove_at(pos);
}

bool Simulator::lane_armed(LaneId id) const {
  PROPHET_CHECK(id < lanes_.size() && lanes_[id].alive);
  return lanes_[id].heap_pos != kNotQueued;
}

void Simulator::place(std::size_t i, const Record& rec) {
  heap_[i] = rec;
  if ((rec.slot & kLaneTag) != 0) {
    lanes_[rec.slot & ~kLaneTag].heap_pos = static_cast<std::uint32_t>(i);
  }
}

void Simulator::sift_up(std::size_t i, const Record& rec) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(rec, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, rec);
}

void Simulator::sift_down(std::size_t i, const Record& rec) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], rec)) break;
    place(i, heap_[best]);
    i = best;
  }
  place(i, rec);
}

void Simulator::heap_push(const Record& rec) {
  heap_.push_back(rec);
  sift_up(heap_.size() - 1, rec);
}

void Simulator::remove_at(std::size_t i) {
  const Record gone = heap_[i];
  if ((gone.slot & kLaneTag) != 0) lanes_[gone.slot & ~kLaneTag].heap_pos = kNotQueued;
  const Record last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  // Every ancestor of `i` ranks before `gone`, and every descendant after
  // it, so `last` only has to move one way.
  if (earlier(last, gone)) {
    sift_up(i, last);
  } else {
    sift_down(i, last);
  }
}

Simulator::Record Simulator::pop_front() {
  const Record top = heap_.front();
  remove_at(0);
  // Warm the next event's slot while the popped event's callback runs — the
  // slot access pattern is random, and this hides most of the resulting
  // cache miss. (Lane records live in lanes_, not slots_.)
  if (!heap_.empty() && (heap_[0].slot & kLaneTag) == 0) {
    __builtin_prefetch(&slots_[heap_[0].slot]);
  }
  return top;
}

void Simulator::fire(const Record& rec) {
  PROPHET_CHECK(rec.at >= now_);
  now_ = rec.at;
  ++fired_;
  if ((rec.slot & kLaneTag) == 0) {
    // Move the callback out and free the slot first: the callback itself
    // may schedule new events that reuse this very slot.
    Callback cb = std::move(slots_[rec.slot]);
    free_slots_.push_back(rec.slot);
    cb();
    return;
  }
  // pop_front() cleared the lane's heap_pos: it runs disarmed. Run the
  // callback from a local: it may re-aim this lane, destroy it, or even
  // recycle the id for a fresh lane — destroying the std::function we are
  // executing would be UB. Restore it only if the slot still wants it.
  const LaneId id = rec.slot & ~kLaneTag;
  Callback cb = std::move(lanes_[id].cb);
  cb();
  Lane& after = lanes_[id];
  if (after.alive && !after.cb) after.cb = std::move(cb);
}

std::uint64_t Simulator::run() {
  std::uint64_t fired = 0;
  for (; !heap_.empty(); ++fired) fire(pop_front());
  return fired;
}

std::uint64_t Simulator::run_until(TimePoint deadline) {
  std::uint64_t fired = 0;
  for (; !heap_.empty() && heap_.front().at <= deadline; ++fired) fire(pop_front());
  return fired;
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  fire(pop_front());
  return true;
}

}  // namespace prophet::sim
