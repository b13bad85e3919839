#include "sched/bytescheduler.hpp"

#include "common/check.hpp"

namespace prophet::sched {

namespace {
// Credit search range explored by the tuner (Fig. 3(b): ~3 MB to 13 MB).
constexpr Bytes kCreditMin = Bytes::mib(1);
constexpr Bytes kCreditMax = Bytes::mib(16);
// Seed of the tuner's own RNG stream (acquisition tie breaks and probe
// jitter), fixed so a tuned run replays identically.
constexpr std::uint64_t kTunerSeed = 0x5eed;
}  // namespace

ByteSchedulerScheduler::ByteSchedulerScheduler(TaskKind kind, ByteSchedulerConfig config)
    : CommScheduler{kind},
      config_{config},
      queue_{config.partition_bytes},
      credit_{config.credit_bytes},
      tuner_rng_{kTunerSeed} {
  PROPHET_CHECK_MSG(config_.credit_bytes.count() > 0,
                    "ByteSchedulerConfig::credit_bytes must be positive");
  if (config_.autotune) {
    tuner_ = std::make_unique<BayesOpt1D>(static_cast<double>(kCreditMin.count()),
                                          static_cast<double>(kCreditMax.count()));
  }
}

void ByteSchedulerScheduler::enqueue(std::size_t grad, Bytes bytes, TimePoint) {
  queue_.add(grad, bytes);
}

std::optional<TransferTask> ByteSchedulerScheduler::next_task(TimePoint) {
  if (queue_.empty()) return std::nullopt;
  TransferTask task;
  task.kind = kind();
  task.items = queue_.pop(credit_);
  task.post_delay = config_.credit_ack_delay;
  return task;
}

void ByteSchedulerScheduler::on_iteration_end(std::size_t, TimePoint now) {
  if (!config_.autotune) return;
  if (!episode_start_.has_value()) {
    episode_start_ = now;
    return;
  }
  ++episode_iters_;
  if (episode_iters_ >= config_.tune_interval_iters) finish_tuning_episode(now);
}

void ByteSchedulerScheduler::finish_tuning_episode(TimePoint now) {
  const Duration elapsed = now - *episode_start_;
  if (elapsed > Duration::zero()) {
    // Iterations per second is a monotone proxy for samples/s.
    const double rate =
        // prophet-lint: allow(R1): autotuner reward is a float throughput rate by design; never fed back into time arithmetic
        static_cast<double>(episode_iters_) / elapsed.to_seconds();
    tuner_->observe(static_cast<double>(credit_.count()), rate);
    const double next = tuner_->suggest(tuner_rng_);
    credit_ = std::max(config_.partition_bytes,
                       Bytes::of(static_cast<std::int64_t>(next)));
  }
  episode_iters_ = 0;
  episode_start_ = now;
}

}  // namespace prophet::sched
