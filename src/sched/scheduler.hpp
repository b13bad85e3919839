// The communication-scheduler interface: the seam where the paper's four
// strategies plug into the training loop.
//
// Protocol, per worker and per direction (push / pull are independent
// instances because a full-duplex NIC carries them concurrently):
//
//   1. The training engine calls enqueue() when a tensor becomes
//      transferable (gradient aggregated by the KVStore, or parameter
//      updated at the PS).
//   2. Whenever its NIC is idle the engine calls next_task(); the scheduler
//      returns the next network operation or nullopt to stay idle.
//   3. on_task_done() reports completion (BytePS's reportFinish); none of
//      the four strategies learns from it, so it defaults to a no-op.
//
// Constraint (8) of the paper — no concurrent gradient transfers — is the
// engine's side of the contract: it never has more than one task in flight
// per direction. Preemption granularity therefore equals task granularity,
// exactly the knob the four strategies differ on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/time.hpp"
#include "common/units.hpp"
#include "sched/task.hpp"

namespace prophet::sched {

// Blocking-call acknowledgment charged per task by the MXNet-FIFO, P3 and
// TicTac baselines (server turnaround of their synchronous send paths).
inline constexpr Duration kBlockingAck = Duration::micros(1500);

class CommScheduler {
 public:
  explicit CommScheduler(TaskKind kind) : kind_{kind} {}
  virtual ~CommScheduler() = default;

  // Direction this instance serves; tasks it emits carry this kind.
  [[nodiscard]] TaskKind kind() const { return kind_; }

  // Tensor `grad` (full size `bytes`) became available for transfer.
  virtual void enqueue(std::size_t grad, Bytes bytes, TimePoint now) = 0;
  // NIC is idle; return the next operation, or nullopt if nothing to send.
  virtual std::optional<TransferTask> next_task(TimePoint now) = 0;
  // A previously returned task finished its network transfer; default no-op.
  virtual void on_task_done(const TransferTask& task, TimePoint started,
                            TimePoint finished);

  // Iteration lifecycle hints (re-planning, auto-tuning epochs).
  virtual void on_iteration_start(std::size_t iteration, TimePoint now);
  virtual void on_iteration_end(std::size_t iteration, TimePoint now);

  // Crash recovery: queued work was lost with the worker's in-flight state;
  // drop it and expect the engine to re-enqueue while replaying the
  // iteration. Strategies that planned from profiled state re-plan from
  // whatever survives (Prophet); fixed-order strategies just clear.
  virtual void on_recovery(TimePoint now);
  // Per-shard PS failover: only the keys with `affected_keys[key] != 0`
  // rolled back; the rest of the fabric (and the flows it carried) never
  // stopped serving. The engine still clears and re-enqueues the replayed
  // work, so schedulers must drop queued tasks like on_recovery — but a
  // strategy that plans from a bandwidth estimate may repair its plan
  // shard-aware instead of discarding it (Prophet re-plans immediately from
  // the still-warm monitored estimate). Default: indistinguishable from a
  // full recovery.
  virtual void on_partial_recovery(const std::vector<std::uint8_t>& affected_keys,
                                   TimePoint now);
  // During a replayed iteration the engine skips tensors the PS already
  // aggregated for this round; strategies tracking per-iteration arrival
  // state (Prophet's readiness map) record the skip so planning stays
  // consistent. Most strategies ignore it.
  virtual void on_gradient_skipped(std::size_t grad, TimePoint now);

  // True if the scheduler still holds queued work.
  [[nodiscard]] virtual bool has_pending() const = 0;

 private:
  TaskKind kind_;
};

inline void CommScheduler::on_task_done(const TransferTask&, TimePoint, TimePoint) {}
inline void CommScheduler::on_iteration_start(std::size_t, TimePoint) {}
inline void CommScheduler::on_iteration_end(std::size_t, TimePoint) {}
inline void CommScheduler::on_recovery(TimePoint) {}
inline void CommScheduler::on_partial_recovery(
    const std::vector<std::uint8_t>& /*affected_keys*/, TimePoint now) {
  on_recovery(now);
}
inline void CommScheduler::on_gradient_skipped(std::size_t, TimePoint) {}

}  // namespace prophet::sched
