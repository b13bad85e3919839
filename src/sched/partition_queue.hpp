// Priority-ordered queue of tensor partitions, shared by the ByteScheduler
// baselines (P3 and TicTac among them) and Prophet: tensors are sliced into
// fixed-size partitions on arrival and popped most-urgent-first (smallest
// gradient index, then ascending offset within a tensor).
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "sched/task.hpp"

namespace prophet::sched {

class PartitionQueue {
 public:
  explicit PartitionQueue(Bytes partition_bytes);

  // Slices tensor `grad` of `bytes` into partitions and enqueues them.
  void add(std::size_t grad, Bytes bytes);

  [[nodiscard]] bool empty() const { return partitions_.empty(); }
  [[nodiscard]] std::size_t partition_count() const { return partitions_.size(); }
  [[nodiscard]] Bytes partition_bytes() const { return partition_bytes_; }
  // Total bytes currently queued.
  [[nodiscard]] Bytes queued_bytes() const { return queued_; }

  // Size of the most urgent queued partition.
  [[nodiscard]] std::optional<Bytes> peek_bytes() const;

  // Pops partitions in priority order until `budget` is exhausted. Always
  // pops at least one partition when non-empty (a budget smaller than one
  // partition still makes progress, mirroring credit semantics).
  std::vector<TransferItem> pop(Bytes budget);

  // Drops everything queued (crash recovery: the engine re-enqueues what the
  // replayed iteration still needs).
  void clear() {
    partitions_.clear();
    queued_ = Bytes::zero();
  }

 private:
  struct Slice {
    Bytes bytes;
    bool last;
  };
  Bytes partition_bytes_;
  Bytes queued_{};
  // Key (grad, offset) sorts by priority then position.
  std::map<std::pair<std::size_t, std::int64_t>, Slice> partitions_;
};

}  // namespace prophet::sched
