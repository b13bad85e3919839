#include "net/monitor.hpp"

#include "common/check.hpp"

namespace prophet::net {

namespace {
// EWMA weight of the newest sample.
constexpr double kEwmaAlpha = 0.3;
// Samples with less busy time than this are discarded as noise.
constexpr Duration kMinBusyTime = Duration::millis(5);
}  // namespace

BandwidthMonitor::BandwidthMonitor(sim::Simulator& sim, FlowNetwork& network,
                                   NodeId node, Direction dir,
                                   BandwidthMonitorConfig config)
    : sim_{sim},
      network_{network},
      link_{network.node_link(node, dir)},
      ewma_{kEwmaAlpha} {
  PROPHET_CHECK(config.sample_period > Duration::zero());
  timer_ = sim_.lane_create([this, period = config.sample_period] {
    if (stopped_) return;
    sample_now();
    sim_.lane_aim(timer_, sim_.now() + period);
  });
  sim_.lane_aim(timer_, sim_.now() + config.sample_period);
}

void BandwidthMonitor::sample_now() {
  const auto bytes = static_cast<double>(network_.link_total_bytes(link_));
  const Duration busy = network_.link_busy_time(link_);
  const double delta_bytes = bytes - last_bytes_;
  const Duration delta_busy = busy - last_busy_;
  last_bytes_ = bytes;
  last_busy_ = busy;
  ++samples_;
  if (delta_busy < kMinBusyTime || delta_bytes <= 0.0) return;
  ewma_.add(delta_bytes / delta_busy.to_seconds());
}

Bandwidth BandwidthMonitor::estimate() const {
  if (ewma_.has_value()) return Bandwidth::bytes_per_sec(ewma_.value());
  return network_.link_capacity(link_);
}

}  // namespace prophet::net
