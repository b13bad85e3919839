// Compute-side worker for the all-reduce architecture: runs the same
// forward/backward loop as the PS worker, but gradients go to the collective
// Coordinator and forward layers gate on completed reductions instead of
// pulls.
#pragma once

#include <vector>

#include "allreduce/coordinator.hpp"
#include "common/rng.hpp"
#include "dnn/iteration_model.hpp"
#include "metrics/gpu_tracker.hpp"
#include "metrics/training_metrics.hpp"
#include "sim/simulator.hpp"

namespace prophet::ar {

class Worker {
 public:
  // `keep_gpu_intervals` keeps the raw GPU busy intervals
  // (ClusterConfig::keep_transfer_records).
  Worker(sim::Simulator& sim, std::size_t id, std::size_t iterations,
         const dnn::IterationModel* iteration_model, Coordinator* coordinator,
         int batch, Duration metrics_bin, Duration metrics_horizon,
         bool keep_gpu_intervals, Rng rng);
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  void start();
  // Coordinator callback: `key`'s all-reduce completed.
  void on_reduced(std::size_t key);
  void finish();

  [[nodiscard]] bool done() const { return iter_ >= iterations_; }
  [[nodiscard]] std::size_t current_iteration() const { return iter_; }
  [[nodiscard]] const metrics::TrainingMetrics& training_metrics() const {
    return training_;
  }
  // Result hand-off (run_allreduce moves the GPU timeline out).
  [[nodiscard]] metrics::GpuTracker& gpu() { return gpu_; }

 private:
  void begin_iteration();
  void advance_forward();
  void begin_backward();
  void end_backward();
  [[nodiscard]] bool forward_gate_open(std::size_t layer) const;

  sim::Simulator& sim_;
  std::size_t id_;
  std::size_t iterations_;
  const dnn::IterationModel* iteration_model_;
  Coordinator* coordinator_;
  Rng rng_;

  metrics::TrainingMetrics training_;
  metrics::GpuTracker gpu_;

  std::size_t iter_{0};
  std::size_t fwd_layer_{0};
  bool waiting_for_reduction_{false};
  dnn::IterationTiming timing_;
  std::vector<std::size_t> reduced_;  // completed reductions per key
};

}  // namespace prophet::ar
