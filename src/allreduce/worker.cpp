#include "allreduce/worker.hpp"

#include <map>

#include "common/check.hpp"

namespace prophet::ar {

Worker::Worker(sim::Simulator& sim, std::size_t id, std::size_t iterations,
               const dnn::IterationModel* iteration_model, Coordinator* coordinator,
               int batch, Duration metrics_bin, Duration metrics_horizon,
               bool keep_gpu_intervals, Rng rng)
    : sim_{sim},
      id_{id},
      iterations_{iterations},
      iteration_model_{iteration_model},
      coordinator_{coordinator},
      rng_{rng},
      training_{batch},
      gpu_{metrics_bin, metrics_horizon, keep_gpu_intervals} {
  PROPHET_CHECK(iteration_model_ != nullptr);
  PROPHET_CHECK(coordinator_ != nullptr);
  reduced_.assign(iteration_model_->model().tensor_count(), 0);
}

void Worker::start() { begin_iteration(); }

void Worker::begin_iteration() {
  training_.mark_iteration_start(iter_, sim_.now());
  gpu_.mark_iteration(iter_, sim_.now());
  if (done()) return;
  timing_ = iteration_model_->sample(rng_);
  fwd_layer_ = 0;
  waiting_for_reduction_ = false;
  advance_forward();
}

bool Worker::forward_gate_open(std::size_t layer) const {
  // Layer `layer` of iteration k needs its k-th reduction; the coordinator
  // notifies all workers together, so the local counter mirrors it.
  return iter_ == 0 || reduced_[layer] >= iter_;
}

void Worker::advance_forward() {
  const std::size_t n = reduced_.size();
  if (fwd_layer_ == n) {
    begin_backward();
    return;
  }
  if (!forward_gate_open(fwd_layer_)) {
    waiting_for_reduction_ = true;
    return;
  }
  gpu_.busy_from(sim_.now());
  sim_.schedule_after(timing_.fwd[fwd_layer_], [this] {
    gpu_.idle_from(sim_.now());
    ++fwd_layer_;
    advance_forward();
  });
}

void Worker::begin_backward() {
  const TimePoint now = sim_.now();
  // Worker 0 drives the scheduler's iteration lifecycle (BSP keeps the
  // workers within jitter of each other).
  if (id_ == 0) {
    if (iter_ > 0) coordinator_->on_iteration_end(iter_ - 1, now);
    coordinator_->on_iteration_start(iter_, now);
  }
  gpu_.busy_from(now);
  std::map<Duration, std::vector<std::size_t>> events;
  for (std::size_t g = 0; g < timing_.ready_offset.size(); ++g) {
    events[timing_.ready_offset[g]].push_back(g);
  }
  for (const auto& [offset, grads] : events) {
    sim_.schedule_after(offset, [this, grads = grads] {
      for (std::size_t g : grads) coordinator_->on_gradient_ready(id_, g);
    });
  }
  sim_.schedule_after(timing_.backward_total(), [this] { end_backward(); });
}

void Worker::end_backward() {
  gpu_.idle_from(sim_.now());
  ++iter_;
  begin_iteration();
}

void Worker::on_reduced(std::size_t key) {
  PROPHET_CHECK(key < reduced_.size());
  ++reduced_[key];
  if (waiting_for_reduction_ && fwd_layer_ < reduced_.size() &&
      forward_gate_open(fwd_layer_)) {
    waiting_for_reduction_ = false;
    advance_forward();
  }
}

void Worker::finish() {
  gpu_.finish(sim_.now());
  training_.finish(sim_.now());
}

}  // namespace prophet::ar
