#include <gtest/gtest.h>

#include <limits>

#include "common/time.hpp"
#include "common/units.hpp"

namespace prophet {
namespace {

using namespace prophet::literals;

TEST(Duration, ConstructionAndConversion) {
  EXPECT_EQ(Duration::seconds(2).count_nanos(), 2'000'000'000);
  EXPECT_EQ(Duration::millis(3).count_nanos(), 3'000'000);
  EXPECT_EQ(Duration::micros(5).count_nanos(), 5'000);
  EXPECT_DOUBLE_EQ(Duration::seconds(2).to_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(Duration::millis(1500).to_seconds(), 1.5);
  EXPECT_DOUBLE_EQ(Duration::micros(250).to_millis(), 0.25);
}

TEST(Duration, FromSecondsRoundsToNearestNanosecond) {
  EXPECT_EQ(Duration::from_seconds(1e-9).count_nanos(), 1);
  EXPECT_EQ(Duration::from_seconds(1.4e-9).count_nanos(), 1);
  EXPECT_EQ(Duration::from_seconds(1.6e-9).count_nanos(), 2);
  EXPECT_EQ(Duration::from_seconds(-1.6e-9).count_nanos(), -2);
}

TEST(Duration, FitsSecondsBoundsTheNanosecondCast) {
  EXPECT_TRUE(Duration::fits_seconds(0.0));
  EXPECT_TRUE(Duration::fits_seconds(9.2e9));  // ~292 years of nanoseconds
  EXPECT_TRUE(Duration::fits_seconds(-9.2e9));
  for (double s : {9.3e9, -9.3e9, 1e300, std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_FALSE(Duration::fits_seconds(s)) << s;
  }
}

TEST(Duration, Arithmetic) {
  const Duration a = 100_ms;
  const Duration b = 50_ms;
  EXPECT_EQ((a + b).to_millis(), 150.0);
  EXPECT_EQ((a - b).to_millis(), 50.0);
  EXPECT_EQ((a * std::int64_t{3}).to_millis(), 300.0);
  EXPECT_DOUBLE_EQ(a / b, 2.0);
  EXPECT_EQ((a / std::int64_t{4}).to_millis(), 25.0);
  EXPECT_EQ((-a).count_nanos(), -a.count_nanos());
}

TEST(Duration, ScalarDoubleMultiply) {
  EXPECT_NEAR((100_ms * 0.5).to_millis(), 50.0, 1e-9);
  EXPECT_NEAR((1_s * 0.95).to_millis(), 950.0, 1e-6);
}

TEST(Duration, Ordering) {
  EXPECT_LT(1_ms, 2_ms);
  EXPECT_GT(1_s, 999_ms);
  EXPECT_EQ(1000_us, 1_ms);
  EXPECT_LE(Duration::zero(), 0_ns);
}

TEST(Duration, PositivePart) {
  EXPECT_EQ(positive_part(5_ms), 5_ms);
  EXPECT_EQ(positive_part(Duration::zero()), Duration::zero());
  EXPECT_EQ(positive_part(Duration::zero() - 5_ms), Duration::zero());
}

TEST(TimePoint, ArithmeticAndOrdering) {
  const TimePoint t0 = TimePoint::origin();
  const TimePoint t1 = t0 + 10_ms;
  EXPECT_EQ((t1 - t0).to_millis(), 10.0);
  EXPECT_LT(t0, t1);
  EXPECT_EQ(t1 - 10_ms, t0);
  TimePoint t = t0;
  t += 3_s;
  EXPECT_DOUBLE_EQ(t.to_seconds(), 3.0);
}

TEST(FormatDuration, PicksSensibleUnits) {
  EXPECT_EQ(format_duration(2_s), "2.000 s");
  EXPECT_EQ(format_duration(15_ms), "15.000 ms");
  EXPECT_EQ(format_duration(120_us), "120.0 us");
}

TEST(Bytes, ConstructionAndArithmetic) {
  EXPECT_EQ(Bytes::kib(4).count(), 4096);
  EXPECT_EQ(Bytes::mib(2).count(), 2 * 1024 * 1024);
  EXPECT_EQ((Bytes::mib(1) + Bytes::mib(1)).count(), Bytes::mib(2).count());
  EXPECT_EQ((Bytes::mib(3) - Bytes::mib(1)).count(), Bytes::mib(2).count());
  EXPECT_DOUBLE_EQ(Bytes::mib(5).to_mib(), 5.0);
}

TEST(Bandwidth, UnitConversions) {
  EXPECT_DOUBLE_EQ(Bandwidth::gbps(1).bytes_per_second(), 1e9 / 8.0);
  EXPECT_DOUBLE_EQ(Bandwidth::mbps(500).to_gbps(), 0.5);
  EXPECT_DOUBLE_EQ(Bandwidth::gbps(10).to_mbps(), 10'000.0);
}

TEST(Bandwidth, TimeToSendAndBytesIn) {
  const Bandwidth b = Bandwidth::bytes_per_sec(1e6);  // 1 MB/s
  EXPECT_NEAR(b.time_to_send(Bytes::of(500'000)).to_seconds(), 0.5, 1e-9);
  EXPECT_EQ(b.bytes_in(Duration::seconds(2)).count(), 2'000'000);
}

TEST(Bandwidth, ZeroDetection) {
  EXPECT_TRUE(Bandwidth::zero().is_zero());
  EXPECT_FALSE(Bandwidth::gbps(1).is_zero());
  // NaN is no positive rate, so every positive-bandwidth check rejects it.
  EXPECT_TRUE(Bandwidth::gbps(std::numeric_limits<double>::quiet_NaN()).is_zero());
}

TEST(Formatters, BytesAndBandwidth) {
  EXPECT_EQ(format_bytes(Bytes::mib(3)), "3.00 MiB");
  EXPECT_EQ(format_bytes(Bytes::kib(2)), "2.0 KiB");
  EXPECT_EQ(format_bytes(Bytes::of(100)), "100 B");
  EXPECT_EQ(format_bandwidth(Bandwidth::gbps(3)), "3.00 Gbps");
  EXPECT_EQ(format_bandwidth(Bandwidth::mbps(500)), "500.0 Mbps");
}

}  // namespace
}  // namespace prophet
