// Tests for capacity traces and the synthetic 5G generators.
#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/gen5g.hpp"
#include "trace/trace.hpp"

namespace hvc::trace {
namespace {

using sim::milliseconds;
using sim::seconds;

TEST(CapacityTrace, ConstantRateSpacing) {
  const auto t = CapacityTrace::constant(sim::mbps(12));  // 1 ms per MTU
  EXPECT_EQ(t.next_opportunity(0), milliseconds(1));
  EXPECT_EQ(t.next_opportunity(milliseconds(1)), milliseconds(2));
  EXPECT_NEAR(t.average_rate_bps(), 12e6, 12e6 * 0.01);
}

TEST(CapacityTrace, LoopsAcrossPeriod) {
  const auto t = CapacityTrace::constant(sim::mbps(12), seconds(1));
  // Near the end of the first period, the next opportunity wraps.
  const sim::Time late = seconds(1) - 1;
  const sim::Time next = t.next_opportunity(late);
  EXPECT_GE(next, seconds(1));
  EXPECT_LT(next, seconds(1) + milliseconds(2));
  // Far future queries work too.
  const sim::Time far = seconds(100) + milliseconds(500);
  EXPECT_GT(t.next_opportunity(far), far);
}

TEST(CapacityTrace, NextOpportunityStrictlyAfter) {
  const auto t = CapacityTrace::constant(sim::mbps(12));
  const sim::Time opp = t.next_opportunity(0);
  EXPECT_GT(t.next_opportunity(opp), opp);
}

TEST(CapacityTrace, OpportunitiesInCounts) {
  const auto t = CapacityTrace::constant(sim::mbps(12), seconds(1));
  // 12 Mbps / (1500 B * 8) = 1000 opportunities per second.
  EXPECT_EQ(t.opportunities_in(0, seconds(1)), 1000);
  EXPECT_EQ(t.opportunities_in(0, seconds(10)), 10000);
  EXPECT_EQ(t.opportunities_in(seconds(5), seconds(5)), 0);
}

TEST(CapacityTrace, FromOpportunitiesValidates) {
  EXPECT_THROW(
      CapacityTrace::from_opportunities({seconds(2)}, seconds(1)),
      std::invalid_argument);
  EXPECT_THROW(CapacityTrace::from_opportunities({}, 0),
               std::invalid_argument);
  EXPECT_NO_THROW(
      CapacityTrace::from_opportunities({0, milliseconds(5)}, seconds(1)));
}

TEST(CapacityTrace, FromOpportunitiesSortsUnsortedInput) {
  const auto t = CapacityTrace::from_opportunities(
      {milliseconds(7), 0, milliseconds(3), milliseconds(3)}, seconds(1));
  const std::vector<sim::Time> sorted = {0, milliseconds(3), milliseconds(3),
                                         milliseconds(7)};
  EXPECT_EQ(t.opportunities(), sorted);
  EXPECT_EQ(t.next_opportunity(0), milliseconds(3));
  EXPECT_EQ(t.opportunities_in(0, milliseconds(5)), 2);
  // Range validation sees the sorted extremes, not the input's ends.
  EXPECT_THROW(CapacityTrace::from_opportunities(
                   {milliseconds(1), seconds(1), 0}, seconds(1)),
               std::invalid_argument);
}

TEST(CapacityTrace, EmptyTraceNeverDelivers) {
  const auto t = CapacityTrace::from_opportunities({}, seconds(1));
  EXPECT_EQ(t.next_opportunity(0), sim::kTimeNever);
  EXPECT_DOUBLE_EQ(t.average_rate_bps(), 0.0);
}

TEST(Mahimahi, ParsesAndRoundTrips) {
  const std::string text = "1\n2\n2\n5\n";
  const auto t = CapacityTrace::parse_mahimahi(text);
  EXPECT_EQ(t.opportunities_per_period(), 4u);
  EXPECT_EQ(t.period(), milliseconds(6));  // last ts + 1 ms
  EXPECT_EQ(t.to_mahimahi(), text);
}

TEST(Mahimahi, RejectsMalformedInput) {
  EXPECT_THROW(CapacityTrace::parse_mahimahi(""), std::invalid_argument);
  EXPECT_THROW(CapacityTrace::parse_mahimahi("5\n3\n"),
               std::invalid_argument);
}

// The message parse_mahimahi rejects `text` with; fails the test if it
// accepts the text or throws anything but std::invalid_argument.
std::string mahimahi_error(const std::string& text) {
  try {
    (void)CapacityTrace::parse_mahimahi(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "accepted: " << text;
  return "";
}

TEST(Mahimahi, RejectsBadLinesWithTheirLineNumber) {
  // Trailing garbage after the number.
  EXPECT_EQ(mahimahi_error("1\n12abc\n"),
            "mahimahi trace: line 2: trailing characters: '12abc'");
  // Not a number at all; comment lines still count toward the line number.
  EXPECT_EQ(mahimahi_error("# header\n1\nabc\n"),
            "mahimahi trace: line 3: not a number: 'abc'");
  // Too long for int64: must stay inside the invalid_argument contract.
  EXPECT_EQ(mahimahi_error("99999999999999999999\n"),
            "mahimahi trace: line 1: timestamp out of range: "
            "'99999999999999999999'");
  // Fits int64 but not as nanoseconds (>= 2^63 / 1e6 ms).
  EXPECT_EQ(mahimahi_error("1\n9223372036854\n"),
            "mahimahi trace: line 2: timestamp out of range: "
            "'9223372036854'");
  EXPECT_EQ(mahimahi_error("-4\n"), "mahimahi trace: line 1: negative time");
  EXPECT_EQ(mahimahi_error("5\n\n3\n"),
            "mahimahi trace: line 3: non-monotonic timestamps");
}

TEST(Mahimahi, AcceptsLargestRepresentableTimestampAndTrailingSpace) {
  // The largest timestamp whose period, (ms + 1) ms, fits in sim::Time.
  const auto t = CapacityTrace::parse_mahimahi("0\n9223372036853\n");
  EXPECT_EQ(t.period(), milliseconds(9223372036854));
  // CRLF line endings and trailing blanks are whitespace, not garbage.
  EXPECT_EQ(CapacityTrace::parse_mahimahi("1 \r\n2\t\n")
                .opportunities_per_period(),
            2u);
}

TEST(Mahimahi, SkipsComments) {
  const auto t = CapacityTrace::parse_mahimahi("# header\n1\n2\n");
  EXPECT_EQ(t.opportunities_per_period(), 2u);
}

TEST(MarkovGen, DeterministicInSeed) {
  const auto a = make_5g_trace(FiveGProfile::kLowbandDriving, seconds(10), 42);
  const auto b = make_5g_trace(FiveGProfile::kLowbandDriving, seconds(10), 42);
  EXPECT_EQ(a.opportunities(), b.opportunities());
}

TEST(MarkovGen, DifferentSeedsDiffer) {
  const auto a = make_5g_trace(FiveGProfile::kLowbandDriving, seconds(10), 1);
  const auto b = make_5g_trace(FiveGProfile::kLowbandDriving, seconds(10), 2);
  EXPECT_NE(a.opportunities(), b.opportunities());
}

TEST(MarkovGen, ValidatesModel) {
  MarkovRateModel m;
  EXPECT_THROW(generate_markov_trace(m, seconds(1), 1),
               std::invalid_argument);
  m.states = {{"a", sim::mbps(1), 0.0, milliseconds(100), 0, {}}};
  EXPECT_THROW(generate_markov_trace(m, seconds(1), 1),
               std::invalid_argument);  // bad transition row
}

struct ProfileCase {
  FiveGProfile profile;
  double min_avg_mbps;
  double max_avg_mbps;
};

// Deterministic rendering for the test listing: gtest's default prints the
// raw bytes of the struct, padding included.
void PrintTo(const ProfileCase& pc, std::ostream* os) {
  *os << to_string(pc.profile);
}

class FiveGProfileTest : public ::testing::TestWithParam<ProfileCase> {};

TEST_P(FiveGProfileTest, AverageRateInCalibratedBand) {
  const auto& pc = GetParam();
  const auto t = make_5g_trace(pc.profile, seconds(60), 7);
  const double avg = sim::to_mbps(
      static_cast<sim::RateBps>(t.average_rate_bps()));
  EXPECT_GE(avg, pc.min_avg_mbps) << to_string(pc.profile);
  EXPECT_LE(avg, pc.max_avg_mbps) << to_string(pc.profile);
}

TEST_P(FiveGProfileTest, TraceCoversRequestedDuration) {
  const auto& pc = GetParam();
  const auto t = make_5g_trace(pc.profile, seconds(30), 3);
  EXPECT_EQ(t.period(), seconds(30));
  EXPECT_GT(t.opportunities_per_period(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, FiveGProfileTest,
    ::testing::Values(
        ProfileCase{FiveGProfile::kLowbandStationary, 35.0, 70.0},
        ProfileCase{FiveGProfile::kLowbandDriving, 12.0, 55.0},
        ProfileCase{FiveGProfile::kMmWaveDriving, 80.0, 600.0}),
    [](const ::testing::TestParamInfo<ProfileCase>& param_info) {
      // "lowband-driving" -> "LowbandDriving"
      std::string name;
      bool upper = true;
      for (const char* c = to_string(param_info.param.profile); *c != '\0';
           ++c) {
        if (*c == '-') {
          upper = true;
        } else {
          name += upper ? static_cast<char>(std::toupper(*c)) : *c;
          upper = false;
        }
      }
      return name;
    });

TEST(FiveGProfiles, DrivingHasOutages) {
  // The driving profile must contain windows where throughput collapses —
  // that is what produces the paper's latency tails.
  const auto t =
      make_5g_trace(FiveGProfile::kLowbandDriving, seconds(120), 11);
  const double worst = t.min_windowed_rate_bps(milliseconds(400));
  EXPECT_LT(worst, 2e6);
}

TEST(FiveGProfiles, StationaryHasNoDeepOutages) {
  const auto t =
      make_5g_trace(FiveGProfile::kLowbandStationary, seconds(120), 11);
  const double worst = t.min_windowed_rate_bps(milliseconds(400));
  EXPECT_GT(worst, 5e6);
}

TEST(FiveGProfiles, MmWaveHasMultiSecondBlockages) {
  const auto t = make_5g_trace(FiveGProfile::kMmWaveDriving, seconds(180), 5);
  // Look for at least one ~1.5 s window with nearly zero capacity.
  double worst = t.min_windowed_rate_bps(milliseconds(1500));
  EXPECT_LT(worst, 1e6);
}

TEST(FiveGProfiles, BaseOwdMatchesPaperSetup) {
  EXPECT_EQ(embb_base_owd(FiveGProfile::kLowbandDriving), milliseconds(25));
  EXPECT_EQ(embb_base_owd(FiveGProfile::kMmWaveDriving), milliseconds(15));
}

}  // namespace
}  // namespace hvc::trace
