// Tests for capacity traces and the synthetic 5G generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "channel/profile.hpp"
#include "sim/rng.hpp"
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
  EXPECT_EQ(t.expand(), sorted);
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

TEST(CapacityTrace, MinWindowedRateFinishesOnNanosecondWindows) {
  // window / 4 is 0 for windows under 4 ns; the scan still advances.
  const auto t = CapacityTrace::constant(sim::mbps(12), seconds(1));
  for (const sim::Duration w : {1, 2, 3}) {
    EXPECT_DOUBLE_EQ(t.min_windowed_rate_bps(w), 0.0) << w;
  }
  // Opportunities 1 ns apart: every 1 ns window holds exactly one.
  const auto dense =
      CapacityTrace::from_opportunities({0, 1, 2, 3, 4, 5, 6, 7}, 8);
  EXPECT_DOUBLE_EQ(dense.min_windowed_rate_bps(1), 1500.0 * 8.0 / 1e-9);
  EXPECT_DOUBLE_EQ(dense.min_windowed_rate_bps(3), 1500.0 * 8.0 / 1e-9);
}

TEST(CapacityTrace, MinWindowedRateMatchesFullGridScan) {
  // The scan skips grid points; the oracle visits every one of them.
  // Zero to three opportunities at each nanosecond: counts vary from one
  // grid point to the next.
  sim::Rng rng(31);
  std::vector<sim::Time> opps;
  for (sim::Time at = 0; at < 1000; ++at) {
    for (std::int64_t k = rng.uniform_int(0, 3); k > 0; --k) {
      opps.push_back(at);
    }
  }
  const auto t = CapacityTrace::from_opportunities(opps, 1000);
  for (sim::Duration w = 1; w <= 1200; w += w < 64 ? 1 : 37) {
    const sim::Duration grid = std::max<sim::Duration>(w / 4, 1);
    std::int64_t min_count = INT64_MAX;
    for (sim::Time start = 0; start < 1000; start += grid) {
      min_count = std::min(min_count, t.opportunities_in(start, start + w));
    }
    EXPECT_DOUBLE_EQ(t.min_windowed_rate_bps(w),
                     static_cast<double>(min_count) * 1500.0 * 8.0 /
                         sim::to_seconds(w))
        << "window " << w;
  }
}

TEST(SteppedTrace, FromStepCountsValidates) {
  EXPECT_THROW(CapacityTrace::from_step_counts(0, {1}, 10),
               std::invalid_argument);
  EXPECT_THROW(CapacityTrace::from_step_counts(10, {1}, 0),
               std::invalid_argument);
  // The counts must cover ceil(period / step) steps exactly.
  EXPECT_THROW(CapacityTrace::from_step_counts(10, {1, 1}, 10),
               std::invalid_argument);
  EXPECT_THROW(CapacityTrace::from_step_counts(10, {1}, 11),
               std::invalid_argument);
  EXPECT_THROW(CapacityTrace::from_step_counts(10, {-1}, 10),
               std::invalid_argument);
  // step * (n + 1) must fit in int64.
  EXPECT_THROW(CapacityTrace::from_step_counts(
                   seconds(1), {std::int64_t{1} << 40}, seconds(1)),
               std::invalid_argument);
  const auto t = CapacityTrace::from_step_counts(10, {1, 0, 3}, 25);
  EXPECT_TRUE(t.stepped());
  // Step 0: 5. Step 2: 22 and 25, 27 (past the period, dropped).
  EXPECT_EQ(t.expand(), (std::vector<sim::Time>{5, 22}));
  EXPECT_EQ(t.opportunities_per_period(), 2u);
  EXPECT_EQ(t.next_opportunity(5), 22);
  EXPECT_EQ(t.next_opportunity(22), 25 + 5);
}

/// Asserts that every query gives the same answer on `stepped` and on an
/// explicit trace of its expanded times, at random nondecreasing query
/// times: steps inside one step, bursts at one instant, period wraps and
/// idle gaps longer than the period.
void expect_forms_agree(const CapacityTrace& stepped, std::uint64_t seed) {
  ASSERT_TRUE(stepped.stepped());
  const sim::Duration period = stepped.period();
  const auto expl = CapacityTrace::from_opportunities(stepped.expand(), period,
                                                      stepped.mtu_bytes());
  ASSERT_FALSE(expl.stepped());
  EXPECT_EQ(stepped.opportunities_per_period(),
            expl.opportunities_per_period());
  EXPECT_DOUBLE_EQ(stepped.average_rate_bps(), expl.average_rate_bps());
  EXPECT_EQ(stepped.to_mahimahi(), expl.to_mahimahi());
  for (const sim::Duration w :
       {sim::Duration{1}, sim::Duration{3}, period / 7 + 1, period}) {
    EXPECT_DOUBLE_EQ(stepped.min_windowed_rate_bps(w),
                     expl.min_windowed_rate_bps(w))
        << "window " << w;
  }

  sim::Rng rng(seed);
  // Short moves: a few thousandths of the period (at least 1 ns).
  const sim::Duration fine = std::max<sim::Duration>(period / 1000, 1);
  TraceCursor s_service, s_count, e_service, e_count;
  TraceCursor s_mixed;  // both queries on one cursor
  sim::Time prev = -2;
  sim::Time t = -2;
  for (int i = 0; i < 4000; ++i) {
    const double u = rng.uniform();
    if (u < 0.5) {
      t += rng.uniform_int(1, 3 * fine);
    } else if (u < 0.8) {
      t += rng.uniform_int(1, period);  // often wraps
    } else if (u < 0.9) {
      t += rng.uniform_int(period + 1, 4 * period);  // idle gap
    }  // else: another query at the same instant
    const sim::Time next = expl.next_opportunity(t);
    const std::int64_t count = expl.count_upto(t);
    ASSERT_EQ(stepped.next_opportunity(t), next) << "at " << t;
    ASSERT_EQ(stepped.count_upto(t), count) << "at " << t;
    ASSERT_EQ(stepped.opportunities_in(prev, t), expl.opportunities_in(prev, t))
        << "in (" << prev << ", " << t << "]";
    ASSERT_EQ(stepped.opportunities_in(t - fine, t),
              expl.opportunities_in(t - fine, t))
        << "at " << t;
    if (expl.opportunities_per_period() > 0) {
      ASSERT_EQ(stepped.opportunity_at(count), next) << "at " << t;
      ASSERT_EQ(expl.opportunity_at(count), next) << "at " << t;
    }
    ASSERT_EQ(s_service.next_after(stepped, t), next) << "at " << t;
    ASSERT_EQ(e_service.next_after(expl, t), next) << "at " << t;
    ASSERT_EQ(s_count.count_upto(stepped, t), count) << "at " << t;
    ASSERT_EQ(e_count.count_upto(expl, t), count) << "at " << t;
    if (u < 0.5) {
      ASSERT_EQ(s_mixed.count_upto(stepped, t), count) << "at " << t;
    }
    ASSERT_EQ(s_mixed.next_after(stepped, t), next) << "at " << t;
    prev = t;
  }
}

TEST(SteppedTrace, MatchesExpandedFormOnRandomQueries) {
  // The generator's own output: dense mmWave with multi-second blockages.
  expect_forms_agree(
      make_5g_trace(FiveGProfile::kMmWaveDriving, seconds(12), 5), 1);
  // Hand-built steps of 7 ns: more opportunities than nanoseconds in a
  // step (duplicate times), runs of empty steps, and a period that cuts
  // the last step short.
  sim::Rng rng(77);
  std::vector<std::int64_t> counts(60);
  for (auto& n : counts) {
    n = rng.uniform() < 0.4 ? 0 : rng.uniform_int(1, 20);
  }
  counts.back() = 20;
  expect_forms_agree(CapacityTrace::from_step_counts(7, counts, 7 * 59 + 3),
                     2);
  // Distinct times in a last step cut short: 22 and 25 kept, 27 dropped.
  expect_forms_agree(CapacityTrace::from_step_counts(10, {3, 0, 3}, 26), 4);
  // Leading and trailing empty steps, and one busy step in the middle.
  expect_forms_agree(
      CapacityTrace::from_step_counts(milliseconds(10), {0, 0, 4, 0, 0},
                                      milliseconds(50)),
      3);
}

TEST(SteppedTrace, AllEmptyStepsNeverDeliver) {
  const auto t =
      CapacityTrace::from_step_counts(milliseconds(10), {0, 0},
                                      milliseconds(20));
  EXPECT_EQ(t.opportunities_per_period(), 0u);
  EXPECT_EQ(t.next_opportunity(0), sim::kTimeNever);
  EXPECT_EQ(t.count_upto(seconds(5)), 0);
  TraceCursor c;
  EXPECT_EQ(c.next_after(t, milliseconds(3)), sim::kTimeNever);
  EXPECT_DOUBLE_EQ(t.min_windowed_rate_bps(milliseconds(5)), 0.0);
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
  EXPECT_EQ(a.expand(), b.expand());
}

TEST(MarkovGen, DifferentSeedsDiffer) {
  const auto a = make_5g_trace(FiveGProfile::kLowbandDriving, seconds(10), 1);
  const auto b = make_5g_trace(FiveGProfile::kLowbandDriving, seconds(10), 2);
  EXPECT_NE(a.expand(), b.expand());
}

/// FNV-1a over each time's eight bytes, least significant first.
std::uint64_t digest(const std::vector<sim::Time>& times) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const sim::Time t : times) {
    const auto u = static_cast<std::uint64_t>(t);
    for (int b = 0; b < 8; ++b) {
      h ^= (u >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

TEST(MarkovGen, ScheduleDigestsArePinned) {
  // The exact 90 s delivery schedules behind Fig. 2 / Table 1 (the three
  // 5G profiles, down and up) and the LEO model, at the default and the
  // held-out seed. A change in the RNG walk, the per-step counts or the
  // layout of times inside a step changes these.
  struct Pin {
    const char* model;
    std::uint64_t seed;
    std::size_t down_count;
    std::uint64_t down;
    std::size_t up_count;
    std::uint64_t up;
  };
  const Pin pins[] = {
      {"lowband-stationary", 42, 419938, 0xbd6a67130dc87557ULL, 105403,
       0x01e60d2f69f61d58ULL},
      {"lowband-driving", 42, 255122, 0x91746eede1f7bbc3ULL, 64156,
       0x07db11f98fa864d2ULL},
      {"mmwave-driving", 42, 2801571, 0x176590ea250be482ULL, 600425,
       0x91ec8c27130ea2a1ULL},
      {"leo", 42, 1321189, 0xb71a6de00f17e555ULL, 1321649,
       0x59260f1b158e3f4cULL},
      {"lowband-stationary", 7, 427705, 0x3aabe9e8882cfa5dULL, 105489,
       0x04c81021e581b6b4ULL},
      {"lowband-driving", 7, 273765, 0xb560b5c0dfc82863ULL, 62088,
       0x6f2332b4bd94e53eULL},
      {"mmwave-driving", 7, 2959320, 0x18167a0efbcdb749ULL, 759550,
       0x496b9a9a3c64aa20ULL},
      {"leo", 7, 1280625, 0x6f9fd7a6c29aa2abULL, 1320496,
       0x9484b16fdc4dd6bfULL},
  };
  for (const Pin& pin : pins) {
    const std::string model = pin.model;
    channel::ChannelProfile p;
    if (model == "leo") {
      p = channel::leo_profile(pin.seed, seconds(90));
    } else {
      FiveGProfile profile = FiveGProfile::kLowbandStationary;
      if (model == "lowband-driving") profile = FiveGProfile::kLowbandDriving;
      if (model == "mmwave-driving") profile = FiveGProfile::kMmWaveDriving;
      p = channel::embb_trace_profile(profile, seconds(90), pin.seed);
    }
    EXPECT_EQ(p.capacity_down.opportunities_per_period(), pin.down_count)
        << model << " seed " << pin.seed;
    EXPECT_EQ(digest(p.capacity_down.expand()), pin.down)
        << model << " seed " << pin.seed << " down";
    EXPECT_EQ(p.capacity_up.opportunities_per_period(), pin.up_count)
        << model << " seed " << pin.seed;
    EXPECT_EQ(digest(p.capacity_up.expand()), pin.up)
        << model << " seed " << pin.seed << " up";
  }
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
