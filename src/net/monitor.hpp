// Network Bandwidth Monitor — the runtime component the paper's prototype
// runs every ~5 seconds to feed the current available bandwidth B of a
// worker into Algorithm 1 (Sec. 4.2, Fig. 7).
//
// Estimation: achieved goodput while the port was busy, i.e.
// (bytes since last sample) / (busy time since last sample), smoothed with an
// EWMA. With the scheduler serializing transfers (Constraint (8)), busy-time
// goodput is precisely the bandwidth a solo gradient transfer attains, which
// is what E^(i) = s^(i)/B needs. Before any traffic is observed, the port
// capacity serves as the prior.
#pragma once

#include "common/stats.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "net/flow_network.hpp"
#include "sim/simulator.hpp"

namespace prophet::net {

struct BandwidthMonitorConfig {
  Duration sample_period = Duration::seconds(5);
};

class BandwidthMonitor {
 public:
  // Monitors `node`'s `dir` access link. Starts its periodic sampling
  // immediately, on a lane of `sim` that the destructor destroys.
  BandwidthMonitor(sim::Simulator& sim, FlowNetwork& network, NodeId node,
                   Direction dir, BandwidthMonitorConfig config = {});
  ~BandwidthMonitor() { sim_.lane_destroy(timer_); }
  BandwidthMonitor(const BandwidthMonitor&) = delete;
  BandwidthMonitor& operator=(const BandwidthMonitor&) = delete;

  // Current best estimate of the bandwidth available to one transfer.
  [[nodiscard]] Bandwidth estimate() const;
  [[nodiscard]] bool has_measurement() const { return ewma_.has_value(); }
  [[nodiscard]] std::size_t samples_taken() const { return samples_; }

  // Takes one sample immediately (also called by the periodic timer).
  void sample_now();

  // Ends the periodic sampling (lets the simulation drain at shutdown). The
  // tick already aimed still lands, as a no-op.
  void stop() { stopped_ = true; }

 private:
  sim::Simulator& sim_;
  FlowNetwork& network_;
  LinkId link_;
  Ewma ewma_;
  double last_bytes_{0.0};
  Duration last_busy_{};
  std::size_t samples_{0};
  sim::LaneId timer_{sim::kNoLane};
  bool stopped_{false};
};

}  // namespace prophet::net
