// Byte counts and network bandwidth as strong types.
//
// Bandwidth is stored as bytes per second (double): transfer-time arithmetic
// mixes sizes and durations multiplicatively, so a rational representation
// buys nothing, and the quantity is an *estimate* everywhere it is used
// (monitored bandwidth, Eq. (5) E^(i) = s^(i)/B^(i)).
#pragma once

#include <cstdint>
#include <string>

#include "common/check.hpp"
#include "common/time.hpp"

namespace prophet {

class Bytes {
 public:
  constexpr Bytes() = default;
  static constexpr Bytes of(std::int64_t b) { return Bytes{b}; }
  static constexpr Bytes kib(std::int64_t k) { return Bytes{k * 1024}; }
  static constexpr Bytes mib(std::int64_t m) { return Bytes{m * 1024 * 1024}; }
  static constexpr Bytes zero() { return Bytes{0}; }

  [[nodiscard]] constexpr std::int64_t count() const { return b_; }
  [[nodiscard]] constexpr double to_mib() const {
    return static_cast<double>(b_) / (1024.0 * 1024.0);
  }

  friend constexpr auto operator<=>(Bytes, Bytes) = default;
  friend constexpr Bytes operator+(Bytes a, Bytes b) { return Bytes{a.b_ + b.b_}; }
  friend constexpr Bytes operator-(Bytes a, Bytes b) { return Bytes{a.b_ - b.b_}; }
  friend constexpr Bytes operator*(Bytes a, std::int64_t k) { return Bytes{a.b_ * k}; }
  constexpr Bytes& operator+=(Bytes o) { b_ += o.b_; return *this; }
  constexpr Bytes& operator-=(Bytes o) { b_ -= o.b_; return *this; }

 private:
  constexpr explicit Bytes(std::int64_t b) : b_{b} {}
  std::int64_t b_{0};
};

class Bandwidth {
 public:
  constexpr Bandwidth() = default;
  static constexpr Bandwidth bytes_per_sec(double bps) { return Bandwidth{bps}; }
  // Network convention: megabits / gigabits per second (10^6 / 10^9 bits).
  static constexpr Bandwidth mbps(double m) { return Bandwidth{m * 1e6 / 8.0}; }
  static constexpr Bandwidth gbps(double g) { return Bandwidth{g * 1e9 / 8.0}; }
  static constexpr Bandwidth zero() { return Bandwidth{0.0}; }

  [[nodiscard]] constexpr double bytes_per_second() const { return bps_; }
  [[nodiscard]] constexpr double to_mbps() const { return bps_ * 8.0 / 1e6; }
  [[nodiscard]] constexpr double to_gbps() const { return bps_ * 8.0 / 1e9; }
  // True for any rate that is not positive, NaN included, so a NaN fails
  // every positive-bandwidth check.
  [[nodiscard]] constexpr bool is_zero() const { return !(bps_ > 0.0); }

  // Serialization time of `s` bytes at this rate.
  [[nodiscard]] Duration time_to_send(Bytes s) const {
    PROPHET_CHECK_MSG(bps_ > 0.0, "time_to_send on zero bandwidth");
    return Duration::from_seconds(static_cast<double>(s.count()) / bps_);
  }
  // Bytes transferable within `d` at this rate.
  [[nodiscard]] Bytes bytes_in(Duration d) const {
    return Bytes::of(static_cast<std::int64_t>(bps_ * d.to_seconds()));
  }

  friend constexpr auto operator<=>(Bandwidth, Bandwidth) = default;
  friend constexpr Bandwidth operator*(Bandwidth b, double k) { return Bandwidth{b.bps_ * k}; }
  friend constexpr Bandwidth operator*(double k, Bandwidth b) { return Bandwidth{b.bps_ * k}; }
  friend constexpr Bandwidth operator+(Bandwidth a, Bandwidth b) {
    return Bandwidth{a.bps_ + b.bps_};
  }
  friend constexpr double operator/(Bandwidth a, Bandwidth b) { return a.bps_ / b.bps_; }

 private:
  constexpr explicit Bandwidth(double bps) : bps_{bps} {}
  double bps_{0.0};
};

inline std::string format_bytes(Bytes b) {
  char buf[64];
  const double v = static_cast<double>(b.count());
  if (v >= 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof buf, "%.2f MiB", v / (1024.0 * 1024.0));
  } else if (v >= 1024.0) {
    std::snprintf(buf, sizeof buf, "%.1f KiB", v / 1024.0);
  } else {
    std::snprintf(buf, sizeof buf, "%lld B", static_cast<long long>(b.count()));
  }
  return buf;
}

inline std::string format_bandwidth(Bandwidth b) {
  char buf[64];
  if (b.to_gbps() >= 1.0) {
    std::snprintf(buf, sizeof buf, "%.2f Gbps", b.to_gbps());
  } else {
    std::snprintf(buf, sizeof buf, "%.1f Mbps", b.to_mbps());
  }
  return buf;
}

}  // namespace prophet
