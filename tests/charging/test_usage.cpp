#include "charging/usage.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace tlc::charging {
namespace {

constexpr std::uint64_t kMax = ~std::uint64_t{0};

TEST(ChargedVolume, CEqualsZeroChargesReceivedOnly) {
  EXPECT_EQ(charged_volume(Bytes{1000}, Bytes{800}, 0.0), Bytes{800});
  EXPECT_EQ(charged_volume(Bytes{kMax}, Bytes{0}, 0.0), Bytes{0});
  EXPECT_EQ(charged_volume(Bytes{kMax}, Bytes{kMax - 1}, 0.0),
            Bytes{kMax - 1});
}

TEST(ChargedVolume, CEqualsOneChargesAllSent) {
  EXPECT_EQ(charged_volume(Bytes{1000}, Bytes{800}, 1.0), Bytes{1000});
  EXPECT_EQ(charged_volume(Bytes{kMax}, Bytes{0}, 1.0), Bytes{kMax});
}

TEST(ChargedVolume, MidpointAtHalf) {
  EXPECT_EQ(charged_volume(Bytes{1000}, Bytes{800}, 0.5), Bytes{900});
  // An odd gap is a tie, and ties round up.
  EXPECT_EQ(charged_volume(Bytes{1001}, Bytes{1000}, 0.5), Bytes{1001});
  EXPECT_EQ(charged_volume(Bytes{0}, Bytes{kMax}, 0.5),
            Bytes{std::uint64_t{1} << 63});
}

TEST(ChargedVolume, RoundsTheExactBinaryValueOfC) {
  // The double nearest 0.3 lies below 0.3, so 5·c is just under 1.5: not
  // a tie, and it rounds down.
  EXPECT_EQ(charged_volume(Bytes{5}, Bytes{0}, 0.3), Bytes{1});
  // The smallest subnormal c is far below half a byte of any u64 gap.
  EXPECT_EQ(charged_volume(Bytes{0}, Bytes{kMax}, 5e-324), Bytes{0});
}

TEST(ChargedVolume, SymmetricInArguments) {
  // Line 8 of Algorithm 1 handles either ordering of the claims.
  EXPECT_EQ(charged_volume(Bytes{800}, Bytes{1000}, 0.25),
            charged_volume(Bytes{1000}, Bytes{800}, 0.25));
}

TEST(ChargedVolume, EqualClaimsAreFixedPoint) {
  for (std::uint64_t v : {std::uint64_t{500}, (std::uint64_t{1} << 53) + 1,
                          kMax}) {
    for (double c : {0.0, 0.3, 1.0}) {
      EXPECT_EQ(charged_volume(Bytes{v}, Bytes{v}, c), Bytes{v});
    }
  }
}

TEST(ChargedVolume, ZeroVolumes) {
  EXPECT_EQ(charged_volume(Bytes{0}, Bytes{0}, 0.5), Bytes{0});
}

TEST(ChargedVolume, RejectsInvalidWeight) {
  EXPECT_THROW((void)charged_volume(Bytes{1}, Bytes{1}, -0.1),
               std::invalid_argument);
  EXPECT_THROW((void)charged_volume(Bytes{1}, Bytes{1}, 1.1),
               std::invalid_argument);
  EXPECT_THROW((void)charged_volume(Bytes{1}, Bytes{1},
                                    std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

class ChargedVolumeSweep
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t,
                                                 std::uint64_t>> {};

TEST_P(ChargedVolumeSweep, AlwaysBetweenClaims) {
  const auto [c, a, b] = GetParam();
  const Bytes x = charged_volume(Bytes{a}, Bytes{b}, c);
  EXPECT_GE(x, std::min(Bytes{a}, Bytes{b}));
  EXPECT_LE(x, std::max(Bytes{a}, Bytes{b}));
}

TEST_P(ChargedVolumeSweep, MonotoneInBothClaims) {
  const auto [c, a, b] = GetParam();
  const Bytes x = charged_volume(Bytes{a}, Bytes{b}, c);
  const Bytes x_more = charged_volume(Bytes{a + 1'000'000}, Bytes{b}, c);
  EXPECT_GE(x_more, x);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ChargedVolumeSweep,
    ::testing::Combine(::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0),
                       // The largest claim is 2^64 − 2'000'000, because
                       // MonotoneInBothClaims adds 1'000'000 to the first.
                       ::testing::Values(0ull, 1'000ull, 777'000'000ull,
                                         (1ull << 53) + 1,
                                         (1ull << 63) + (1ull << 62),
                                         kMax - 1'999'999),
                       ::testing::Values(0ull, 900ull, 800'000'000ull,
                                         (1ull << 53) + 1,
                                         (1ull << 63) + (1ull << 62),
                                         kMax - 1'999'999)));

TEST(CorrectCharge, UsesGroundTruth) {
  GroundTruth t{Bytes{1000}, Bytes{600}};
  EXPECT_EQ(correct_charge(t, 0.5), Bytes{800});
  EXPECT_EQ(t.lost(), Bytes{400});
  EXPECT_DOUBLE_EQ(t.loss_fraction(), 0.4);
}

TEST(CorrectCharge, NoTrafficHasZeroLossFraction) {
  GroundTruth t{};
  EXPECT_DOUBLE_EQ(t.loss_fraction(), 0.0);
}

TEST(GapMetrics, AbsoluteAndRatio) {
  const GapMetrics m = gap_metrics(Bytes{900}, Bytes{1000});
  EXPECT_DOUBLE_EQ(m.absolute_bytes, 100.0);
  EXPECT_DOUBLE_EQ(m.ratio, 0.1);
}

TEST(GapMetrics, OverChargeAlsoPositive) {
  const GapMetrics m = gap_metrics(Bytes{1100}, Bytes{1000});
  EXPECT_DOUBLE_EQ(m.absolute_bytes, 100.0);
}

TEST(GapMetrics, ZeroCorrectGivesZeroRatio) {
  const GapMetrics m = gap_metrics(Bytes{500}, Bytes{0});
  EXPECT_DOUBLE_EQ(m.ratio, 0.0);
  EXPECT_DOUBLE_EQ(m.absolute_bytes, 500.0);
}

TEST(UsageRecord, TotalsAndDirection) {
  UsageRecord r{Bytes{10}, Bytes{20}};
  EXPECT_EQ(r.total(), Bytes{30});
  EXPECT_EQ(r.in(Direction::kUplink), Bytes{10});
  EXPECT_EQ(r.in(Direction::kDownlink), Bytes{20});
}

TEST(UsageRecord, Addition) {
  UsageRecord a{Bytes{1}, Bytes{2}};
  const UsageRecord b{Bytes{10}, Bytes{20}};
  a += b;
  EXPECT_EQ(a, (UsageRecord{Bytes{11}, Bytes{22}}));
  EXPECT_EQ(a + b, (UsageRecord{Bytes{21}, Bytes{42}}));
}

TEST(DataPlan, ValidateRejectsBadWeight) {
  DataPlan plan;
  plan.loss_weight = 1.5;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.loss_weight = -0.1;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.loss_weight = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(DataPlan, ValidateRejectsZeroCycle) {
  DataPlan plan;
  plan.cycle_length = Duration::zero();
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(DataPlan, CycleAtBucketsCorrectly) {
  DataPlan plan;
  plan.cycle_length = std::chrono::hours{1};
  EXPECT_EQ(plan.cycle_at(kTimeZero).index, 0u);
  EXPECT_EQ(plan.cycle_at(kTimeZero + std::chrono::minutes{59}).index, 0u);
  EXPECT_EQ(plan.cycle_at(kTimeZero + std::chrono::minutes{60}).index, 1u);
  EXPECT_EQ(plan.cycle_at(kTimeZero + std::chrono::hours{25}).index, 25u);
}

TEST(DataPlan, CycleAtClampsNegativeLocalTimes) {
  DataPlan plan;
  const TimePoint before_epoch{-std::chrono::seconds{30}};
  EXPECT_EQ(plan.cycle_at(before_epoch).index, 0u);
}

TEST(DataPlan, CycleBoundaries) {
  DataPlan plan;
  plan.cycle_length = std::chrono::seconds{300};
  const ChargingCycle c = plan.cycle_at(kTimeZero + std::chrono::seconds{750});
  EXPECT_EQ(c.index, 2u);
  EXPECT_EQ(c.start, kTimeZero + std::chrono::seconds{600});
  EXPECT_EQ(c.end(), kTimeZero + std::chrono::seconds{900});
}

TEST(Direction, ToString) {
  EXPECT_STREQ(to_string(Direction::kUplink), "uplink");
  EXPECT_STREQ(to_string(Direction::kDownlink), "downlink");
}

}  // namespace
}  // namespace tlc::charging
