#include <gtest/gtest.h>

#include <utility>

#include "common/time_series.hpp"

namespace prophet {
namespace {

using namespace prophet::literals;

TEST(BinnedSeries, BinCountCoversHorizon) {
  BinnedSeries s{100_ms, 1_s};
  EXPECT_EQ(s.bin_count(), 10u);
  BinnedSeries ragged{300_ms, 1_s};
  EXPECT_EQ(ragged.bin_count(), 4u);  // ceil(1000/300)
}

TEST(BinnedSeries, AddAmountLandsInCorrectBin) {
  BinnedSeries s{100_ms, 1_s};
  s.add_amount(TimePoint::origin() + 250_ms, 5.0);
  EXPECT_DOUBLE_EQ(s.bin_amount(2), 5.0);
  EXPECT_DOUBLE_EQ(s.bin_amount(1), 0.0);
  EXPECT_DOUBLE_EQ(s.bin_amount(3), 0.0);
}

TEST(BinnedSeries, AmountPastHorizonIsDropped) {
  BinnedSeries s{100_ms, 1_s};
  s.add_amount(TimePoint::origin() + 5_s, 3.0);
  for (std::size_t i = 0; i < s.bin_count(); ++i) EXPECT_DOUBLE_EQ(s.bin_amount(i), 0.0);
}

TEST(BinnedSeries, AddIntervalSplitsAcrossBins) {
  BinnedSeries s{100_ms, 1_s};
  // Busy from 150 ms to 350 ms: 50 ms in bin 1, 100 ms in bin 2, 50 ms in bin 3.
  s.add_interval(TimePoint::origin() + 150_ms, TimePoint::origin() + 350_ms);
  EXPECT_NEAR(s.bin_amount(1), 0.050, 1e-12);
  EXPECT_NEAR(s.bin_amount(2), 0.100, 1e-12);
  EXPECT_NEAR(s.bin_amount(3), 0.050, 1e-12);
  // Utilization fractions.
  EXPECT_NEAR(s.bin_rate(2), 1.0, 1e-12);
  EXPECT_NEAR(s.bin_rate(1), 0.5, 1e-12);
}

TEST(BinnedSeries, AddIntervalEmptyOrReversedIsNoop) {
  BinnedSeries s{100_ms, 1_s};
  s.add_interval(TimePoint::origin() + 200_ms, TimePoint::origin() + 200_ms);
  s.add_interval(TimePoint::origin() + 300_ms, TimePoint::origin() + 200_ms);
  for (std::size_t i = 0; i < s.bin_count(); ++i) EXPECT_DOUBLE_EQ(s.bin_amount(i), 0.0);
}

TEST(BinnedSeries, AddAmountSpreadProRataAcrossBins) {
  BinnedSeries s{100_ms, 1_s};
  // 300 bytes spread over [50 ms, 350 ms): bins get 50/300, 100/300, 100/300, 50/300.
  s.add_amount_spread(TimePoint::origin() + 50_ms, TimePoint::origin() + 350_ms, 300.0);
  EXPECT_NEAR(s.bin_amount(0), 50.0, 1e-9);
  EXPECT_NEAR(s.bin_amount(1), 100.0, 1e-9);
  EXPECT_NEAR(s.bin_amount(2), 100.0, 1e-9);
  EXPECT_NEAR(s.bin_amount(3), 50.0, 1e-9);
}

TEST(BinnedSeries, SpreadWithZeroSpanFallsBackToPoint) {
  BinnedSeries s{100_ms, 1_s};
  s.add_amount_spread(TimePoint::origin() + 120_ms, TimePoint::origin() + 120_ms, 7.0);
  EXPECT_DOUBLE_EQ(s.bin_amount(1), 7.0);
}

TEST(BinnedSeries, RateDividesByBinWidth) {
  BinnedSeries s{500_ms, 2_s};
  s.add_amount(TimePoint::origin() + 600_ms, 100.0);
  EXPECT_DOUBLE_EQ(s.bin_rate(1), 200.0);  // 100 units / 0.5 s
}

TEST(BinnedSeries, MeanRateOverWindow) {
  BinnedSeries s{100_ms, 1_s};
  s.add_amount(TimePoint::origin() + 50_ms, 10.0);   // bin 0 -> rate 100
  s.add_amount(TimePoint::origin() + 150_ms, 30.0);  // bin 1 -> rate 300
  EXPECT_DOUBLE_EQ(s.mean_rate(0, 2), 200.0);
  EXPECT_DOUBLE_EQ(s.mean_rate(0, 1), 100.0);
  EXPECT_DOUBLE_EQ(s.mean_rate(5, 5), 0.0);
}

TEST(BinnedSeries, BinStart) {
  BinnedSeries s{250_ms, 1_s};
  EXPECT_EQ(s.bin_start(0), TimePoint::origin());
  EXPECT_EQ(s.bin_start(3), TimePoint::origin() + 750_ms);
}

// Storage grows only to the last bin written; readers still see the whole
// horizon, with unwritten bins reading zero.
TEST(BinnedSeries, StorageGrowsLazilyToLastWrittenBin) {
  BinnedSeries s{100_ms, 1_s};
  EXPECT_EQ(s.bin_count(), 10u);
  EXPECT_EQ(s.stored_bins(), 0u);
  for (std::size_t i = 0; i < s.bin_count(); ++i) EXPECT_DOUBLE_EQ(s.bin_amount(i), 0.0);

  s.add_amount(TimePoint::origin() + 250_ms, 5.0);
  EXPECT_EQ(s.stored_bins(), 3u);
  s.add_amount_spread(TimePoint::origin() + 320_ms, TimePoint::origin() + 480_ms, 8.0);
  EXPECT_EQ(s.stored_bins(), 5u);
  s.add_interval(TimePoint::origin() + 50_ms, TimePoint::origin() + 150_ms);
  EXPECT_EQ(s.stored_bins(), 5u);  // earlier bins are already stored
  EXPECT_EQ(s.bin_count(), 10u);

  EXPECT_DOUBLE_EQ(s.bin_amount(2), 5.0);
  EXPECT_NEAR(s.bin_amount(3), 4.0, 1e-12);
  EXPECT_NEAR(s.bin_amount(4), 4.0, 1e-12);
  for (std::size_t i = 5; i < s.bin_count(); ++i) EXPECT_DOUBLE_EQ(s.bin_amount(i), 0.0);
  EXPECT_DOUBLE_EQ(s.bin_rate(9), 0.0);
  EXPECT_EQ(s.bin_start(9), TimePoint::origin() + 900_ms);
  // The mean still runs over the whole horizon: 13.1 units over ten bins.
  EXPECT_NEAR(s.mean_rate(), 13.1 / 0.1 / 10.0, 1e-9);
}

TEST(BinnedSeries, WritesPastHorizonDoNotGrowStorage) {
  BinnedSeries s{100_ms, 1_s};
  s.add_amount(TimePoint::origin() + 150_ms, 1.0);
  s.add_amount(TimePoint::origin() + 1_s, 3.0);
  s.add_amount(TimePoint::origin() + 5_s, 3.0);
  s.add_amount_spread(TimePoint::origin() + 2_s, TimePoint::origin() + 3_s, 9.0);
  s.add_interval(TimePoint::origin() + 1_s, TimePoint::origin() + 4_s);
  EXPECT_EQ(s.stored_bins(), 2u);
  EXPECT_EQ(s.bin_count(), 10u);
  // A spread straddling the horizon keeps its in-horizon share only.
  s.add_amount_spread(TimePoint::origin() + 950_ms, TimePoint::origin() + 1050_ms, 2.0);
  EXPECT_EQ(s.stored_bins(), 10u);
  EXPECT_NEAR(s.bin_amount(9), 1.0, 1e-12);
}

TEST(BinnedSeries, MovedSeriesKeepsItsValues) {
  BinnedSeries s{100_ms, 1_s};
  s.add_amount(TimePoint::origin() + 450_ms, 7.0);
  const BinnedSeries moved = std::move(s);
  EXPECT_EQ(moved.bin_count(), 10u);
  EXPECT_EQ(moved.stored_bins(), 5u);
  EXPECT_DOUBLE_EQ(moved.bin_amount(4), 7.0);
  EXPECT_DOUBLE_EQ(moved.bin_amount(8), 0.0);
  EXPECT_EQ(moved.bin_width(), 100_ms);
}

}  // namespace
}  // namespace prophet
