#include "allreduce/coordinator.hpp"

#include "common/check.hpp"

namespace prophet::ar {

Coordinator::Coordinator(sim::Simulator& sim, net::FlowNetwork& network,
                         std::vector<net::NodeId> nodes, const dnn::ModelSpec& model,
                         std::unique_ptr<sched::CommScheduler> scheduler,
                         ReducedCallback on_reduced)
    : sim_{sim},
      num_workers_{nodes.size()},
      scheduler_{std::move(scheduler)},
      on_reduced_{std::move(on_reduced)},
      ring_{sim, network, std::move(nodes)},
      poll_{sim.lane_create([this] { pump(); })} {
  PROPHET_CHECK(scheduler_ != nullptr);
  PROPHET_CHECK(on_reduced_ != nullptr);
  keys_.resize(model.tensor_count());
  for (std::size_t k = 0; k < keys_.size(); ++k) {
    keys_[k].size = model.tensor(k).bytes;
  }
}

void Coordinator::on_gradient_ready(std::size_t worker, std::size_t key) {
  PROPHET_CHECK(key < keys_.size());
  PROPHET_CHECK(worker < num_workers_);
  KeyState& state = keys_[key];
  ++state.arrived;
  PROPHET_CHECK_MSG(state.arrived <= num_workers_,
                    "gradient readiness over-reported");
  if (state.arrived == num_workers_) {
    state.arrived = 0;
    scheduler_->enqueue(key, state.size, sim_.now());
    pump();
  }
}

void Coordinator::on_iteration_start(std::size_t iteration, TimePoint now) {
  scheduler_->on_iteration_start(iteration, now);
}

void Coordinator::on_iteration_end(std::size_t iteration, TimePoint now) {
  scheduler_->on_iteration_end(iteration, now);
}

std::size_t Coordinator::reductions_completed(std::size_t key) const {
  PROPHET_CHECK(key < keys_.size());
  return keys_[key].versions;
}

void Coordinator::pump() {
  if (ring_.busy()) return;
  auto task = scheduler_->next_task(sim_.now());
  if (!task.has_value()) {
    if (scheduler_->has_pending() && !sim_.lane_armed(poll_)) {
      sim_.lane_aim(poll_, sim_.now() + Duration::millis(1));
    }
    return;
  }
  PROPHET_CHECK(!task->items.empty());
  const TimePoint started = sim_.now();
  const Bytes fused = task->total_bytes();
  ring_.run(fused, [this, t = std::move(*task), started] {
    scheduler_->on_task_done(t, started, sim_.now());
    on_collective_done(t);
  });
}

void Coordinator::on_collective_done(const sched::TransferTask& task) {
  for (const auto& item : task.items) {
    KeyState& state = keys_[item.grad];
    state.reduced += item.bytes.count();
    PROPHET_CHECK(state.reduced <= state.size.count());
    if (state.reduced == state.size.count()) {
      state.reduced = 0;
      ++state.versions;
      for (std::size_t w = 0; w < num_workers_; ++w) on_reduced_(w, item.grad);
    }
  }
  pump();
}

}  // namespace prophet::ar
