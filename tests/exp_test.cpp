// Tests for the scenario engine (src/exp): spec parsing/validation and
// round-trip, sweep grid expansion, engine-vs-core equivalence, CSV/JSONL
// aggregation, and the isolation machinery that makes concurrent sweeps
// deterministic. The concurrency/determinism suites are named ExpSweep*
// so the tsan stage of scripts/check.sh can select exactly them.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>

#include "core/scenario.hpp"
#include "exp/results.hpp"
#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "exp/sweep.hpp"
#include "net/node.hpp"
#include "obs/metrics.hpp"
#include "sim/units.hpp"

namespace hvc {
namespace {

// ---- Spec parsing and validation ----

TEST(ExpSpec, DefaultsApplyWhenFieldsOmitted) {
  const auto s = exp::ScenarioSpec::from_json_text("{}");
  EXPECT_EQ(s.workload, "web");
  EXPECT_EQ(s.cca, "cubic");
  EXPECT_EQ(s.seed, 42u);
  EXPECT_DOUBLE_EQ(s.duration_s, 60.0);
  // The default channel set is the paper's standard pair.
  ASSERT_EQ(s.channels.size(), 2u);
  EXPECT_EQ(s.channels[0].type, "embb");
  EXPECT_EQ(s.channels[1].type, "urllc");
  EXPECT_EQ(s.up_policy.name, "dchannel");
  EXPECT_EQ(s.down_policy.name, "dchannel");
}

TEST(ExpSpec, ParsesFullScenario) {
  const auto s = exp::ScenarioSpec::from_json_text(R"({
    "name": "t", "workload": "video", "duration_s": 90, "seed": 7,
    "channels": [
      {"type": "5g", "profile": "mmwave-driving", "duration_s": 120},
      {"type": "urllc", "rate_mbps": 4}
    ],
    "policy": {"name": "dchannel", "preset": "web-tuned",
               "use_flow_priority": true},
    "down_policy": "msg-priority",
    "video": {"duration_s": 60, "layer_kbps": [400, 4100, 7500]}
  })");
  EXPECT_EQ(s.name, "t");
  EXPECT_EQ(s.seed, 7u);
  ASSERT_EQ(s.channels.size(), 2u);
  EXPECT_EQ(s.channels[0].profile, "mmwave-driving");
  EXPECT_DOUBLE_EQ(s.channels[0].duration_s, 120.0);
  EXPECT_DOUBLE_EQ(s.channels[1].rate_mbps, 4.0);
  // "policy" sets both directions; "down_policy" then overrides down.
  EXPECT_EQ(s.up_policy.name, "dchannel");
  EXPECT_EQ(s.up_policy.preset, "web-tuned");
  EXPECT_EQ(s.up_policy.label(), "dchannel+prio");
  EXPECT_EQ(s.down_policy.name, "msg-priority");
  EXPECT_DOUBLE_EQ(s.video.duration_s, 60.0);
}

TEST(ExpSpec, RoundTripsThroughToJson) {
  const auto s = exp::ScenarioSpec::from_json_text(R"({
    "name": "rt", "workload": "bulk", "duration_s": 12.5, "seed": 3,
    "cca": "bbr",
    "channels": [{"type": "cisp", "rtt_ms": 9}, {"type": "leo", "seed": 5}],
    "up_policy": {"name": "dchannel", "cost_factor": 2.5},
    "down_policy": "min-delay",
    "resequence_hold_ms": 40
  })");
  const std::string json = s.to_json();
  const auto s2 = exp::ScenarioSpec::from_json_text(json);
  EXPECT_EQ(s2.to_json(), json);
  EXPECT_EQ(s2.cca, "bbr");
  EXPECT_DOUBLE_EQ(s2.channels[0].rtt_ms, 9.0);
  EXPECT_EQ(s2.channels[1].seed, 5);
  EXPECT_DOUBLE_EQ(s2.up_policy.cost_factor, 2.5);
  EXPECT_DOUBLE_EQ(s2.resequence_hold_ms, 40.0);
}

TEST(ExpSpec, RejectsMalformedInput) {
  // Syntax error.
  EXPECT_THROW((void)exp::ScenarioSpec::from_json_text("{\"name\": }"),
               exp::SpecError);
  // Top-level must be an object.
  EXPECT_THROW((void)exp::ScenarioSpec::from_json_text("[1, 2]"),
               exp::SpecError);
  // Unknown top-level key.
  EXPECT_THROW((void)exp::ScenarioSpec::from_json_text("{\"wrkload\": \"web\"}"),
               exp::SpecError);
  // Unknown workload / cca / policy / channel type.
  EXPECT_THROW((void)exp::ScenarioSpec::from_json_text(
                   "{\"workload\": \"batch\"}"),
               exp::SpecError);
  EXPECT_THROW((void)exp::ScenarioSpec::from_json_text("{\"cca\": \"reno\"}"),
               exp::SpecError);
  EXPECT_THROW((void)exp::ScenarioSpec::from_json_text(
                   "{\"policy\": \"fastest\"}"),
               exp::SpecError);
  EXPECT_THROW((void)exp::ScenarioSpec::from_json_text(
                   "{\"channels\": [{\"type\": \"6g\"}]}"),
               exp::SpecError);
  // 5g channels require a known profile.
  EXPECT_THROW((void)exp::ScenarioSpec::from_json_text(
                   "{\"channels\": [{\"type\": \"5g\"}]}"),
               exp::SpecError);
  // Profile is only meaningful on 5g channels.
  EXPECT_THROW(
      (void)exp::ScenarioSpec::from_json_text(
          "{\"channels\": [{\"type\": \"embb\", \"profile\": \"x\"}]}"),
      exp::SpecError);
  // Wrong types and out-of-range values.
  EXPECT_THROW((void)exp::ScenarioSpec::from_json_text(
                   "{\"duration_s\": \"ten\"}"),
               exp::SpecError);
  EXPECT_THROW((void)exp::ScenarioSpec::from_json_text("{\"duration_s\": 0}"),
               exp::SpecError);
  EXPECT_THROW((void)exp::ScenarioSpec::from_json_text("{\"seed\": -1}"),
               exp::SpecError);
  EXPECT_THROW((void)exp::ScenarioSpec::from_json_text("{\"seed\": 1.5}"),
               exp::SpecError);
  // Channel rates: zero, negative (not a request for the default),
  // non-finite and above the cap are rejected at their JSON path.
  for (const char* rate : {"0", "-5", "1e400", "-1e400", "10000.5", "1e7"}) {
    try {
      (void)exp::ScenarioSpec::from_json_text(
          std::string("{\"channels\": [{\"type\": \"urllc\"}, "
                      "{\"type\": \"embb\", \"rate_mbps\": ") +
          rate + "}]}");
      ADD_FAILURE() << "accepted rate_mbps " << rate;
    } catch (const exp::SpecError& e) {
      EXPECT_EQ(std::string(e.what()).rfind("channels.1.rate_mbps: ", 0), 0u)
          << rate << ": " << e.what();
    }
  }
  EXPECT_NO_THROW((void)exp::ScenarioSpec::from_json_text(
      "{\"channels\": [{\"type\": \"embb\", \"rate_mbps\": 10000}]}"));
  // Negative RTTs (not a request for the default) and RTT/rate overrides
  // on the trace-driven types, which would be ignored, fail the same way.
  const std::pair<const char*, const char*> kIgnoredOverrides[] = {
      {R"({"type": "embb", "rtt_ms": -5})", "rtt_ms"},
      {R"({"type": "urllc", "rtt_ms": -80})", "rtt_ms"},
      {R"({"type": "tsn", "rtt_ms": -1e400})", "rtt_ms"},
      {R"({"type": "5g", "profile": "mmwave-driving", "rtt_ms": 20})",
       "rtt_ms"},
      {R"({"type": "5g", "profile": "lowband-driving", "rate_mbps": 50})",
       "rate_mbps"},
      {R"({"type": "leo", "rtt_ms": 30})", "rtt_ms"},
      {R"({"type": "leo", "rate_mbps": 100})", "rate_mbps"},
  };
  for (const auto& [channel, key] : kIgnoredOverrides) {
    try {
      (void)exp::ScenarioSpec::from_json_text(
          std::string(R"({"channels": [{"type": "urllc"}, )") + channel +
          "]}");
      ADD_FAILURE() << "accepted " << channel;
    } catch (const exp::SpecError& e) {
      EXPECT_EQ(std::string(e.what()).rfind(
                    std::string("channels.1.") + key + ": ", 0),
                0u)
          << channel << ": " << e.what();
    }
  }
  EXPECT_NO_THROW((void)exp::ScenarioSpec::from_json_text(
      "{\"channels\": [{\"type\": \"embb\", \"rtt_ms\": 0}]}"));
  // DChannel knobs on a non-dchannel policy.
  EXPECT_THROW((void)exp::ScenarioSpec::from_json_text(
                   "{\"policy\": {\"name\": \"min-delay\", "
                   "\"cost_factor\": 2}}"),
               exp::SpecError);
}

TEST(ExpSpec, ErrorsCarryJsonPaths) {
  try {
    (void)exp::ScenarioSpec::from_json_text(
        "{\"channels\": [{\"type\": \"urllc\"}, {\"type\": \"5g\"}]}");
    FAIL() << "expected SpecError";
  } catch (const exp::SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("channels.1.profile"),
              std::string::npos)
        << e.what();
  }
  try {
    (void)exp::ScenarioSpec::from_json_text("{\"web\": {\"pages\": 0}}");
    FAIL() << "expected SpecError";
  } catch (const exp::SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("web.pages"), std::string::npos)
        << e.what();
  }
}

TEST(ExpSpec, RejectsNestingDeeperThanTheParserCap) {
  // Far past obs::json::Parser::kMaxDepth: rejected as malformed JSON, for
  // scenarios and sweeps alike, instead of overflowing the parser's stack.
  const std::string deep(200000, '[');
  EXPECT_THROW((void)exp::ScenarioSpec::from_json_text(deep), exp::SpecError);
  EXPECT_THROW((void)exp::SweepSpec::from_json_text(deep), exp::SpecError);
  const std::string nested_objects = [] {
    std::string s;
    for (int i = 0; i < 200000; ++i) s += "{\"a\":";
    return s;
  }();
  EXPECT_THROW((void)exp::ScenarioSpec::from_json_text(nested_objects),
               exp::SpecError);
}

std::string spec_error(const std::string& json) {
  try {
    (void)exp::ScenarioSpec::from_json_text(json);
  } catch (const exp::SpecError& e) {
    return e.what();
  }
  return "";
}

TEST(ExpSpec, RejectsDurationsTheSimulatedClockCannotHold) {
  // 1e309 parses as +inf; 1e12 s is 1e21 ns, past int64. Converting either
  // to sim::Duration would overflow into a garbage, often zero-length, run.
  EXPECT_NE(spec_error(R"({"duration_s": 1e309})").find("duration_s: must be "
                                                          "a finite number"),
            std::string::npos);
  EXPECT_NE(spec_error(R"({"duration_s": 1e12})").find("duration_s: out of "
                                                         "range"),
            std::string::npos);
  EXPECT_NE(spec_error(R"({"workload": "bulk", "bulk": {"duration_s": 1e12}})")
                .find("bulk.duration_s: out of range"),
            std::string::npos);
  EXPECT_NE(
      spec_error(R"({"channels": [{"type": "urllc", "rtt_ms": 1e13}]})")
          .find("channels.0.rtt_ms: out of range"),
      std::string::npos);
  EXPECT_NE(spec_error(R"({"telemetry": {"period_ms": -1e309}})")
                .find("telemetry.period_ms: must be a finite number"),
            std::string::npos);
  // Each bound fits but the episode end (start + duration) does not.
  EXPECT_NE(spec_error(R"({"faults": [{"kind": "outage", "channel": 0,
                         "start_s": 5e9, "duration_s": 5e9}]})")
                .find("faults.0.duration_s: out of range"),
            std::string::npos);
  // Integers outside int64 are rejected before the (undefined) cast.
  EXPECT_NE(spec_error(R"({"seed": 1e30})").find("seed"), std::string::npos);
  // The largest whole-second duration that fits still parses.
  EXPECT_EQ(spec_error(R"({"duration_s": 9e9})"), "");
}

TEST(ExpSpec, FromFileReportsPathAndMissingFiles) {
  EXPECT_THROW((void)exp::ScenarioSpec::from_file("/nonexistent/x.json"),
               exp::SpecError);
  EXPECT_THROW((void)exp::read_file("/nonexistent/x.json"), exp::SpecError);
}

// ---- Sweep expansion ----

exp::SweepSpec make_sweep(const std::string& axes_json) {
  return exp::SweepSpec::from_json_text(
      R"({"name": "s", "base": {"workload": "bulk", "duration_s": 1},
          "axes": )" +
      axes_json + "}");
}

TEST(ExpSweepSpec, ExpandsGridWithSortedAxesLastFastest) {
  const auto sweep = make_sweep(
      R"({"seed": {"range": [0, 3]}, "cca": ["cubic", "bbr"]})");
  EXPECT_EQ(sweep.run_count(), 6u);
  const auto runs = exp::expand(sweep);
  ASSERT_EQ(runs.size(), 6u);
  // Axes sort by path ("cca" < "seed"), so seed spins fastest.
  EXPECT_EQ(runs[0].params.at("cca"), "cubic");
  EXPECT_EQ(runs[0].params.at("seed"), "0");
  EXPECT_EQ(runs[1].params.at("seed"), "1");
  EXPECT_EQ(runs[2].params.at("seed"), "2");
  EXPECT_EQ(runs[3].params.at("cca"), "bbr");
  EXPECT_EQ(runs[3].params.at("seed"), "0");
  EXPECT_EQ(runs[3].spec.cca, "bbr");
  EXPECT_EQ(runs[5].spec.seed, 2u);
}

TEST(ExpSweepSpec, RangeSupportsStepAndRejectsBadBounds) {
  const auto sweep = make_sweep(R"({"seed": {"range": [0, 10, 4]}})");
  const auto runs = exp::expand(sweep);
  ASSERT_EQ(runs.size(), 3u);  // 0, 4, 8
  EXPECT_EQ(runs[2].spec.seed, 8u);
  EXPECT_THROW(make_sweep(R"({"seed": {"range": [5, 1]}})"), exp::SpecError);
  EXPECT_THROW(make_sweep(R"({"seed": {"range": [0, 4, 0]}})"),
               exp::SpecError);
  EXPECT_THROW(make_sweep(R"({"seed": {"range": [0]}})"), exp::SpecError);
  EXPECT_THROW(make_sweep(R"({"seed": {"span": [0, 4]}})"), exp::SpecError);
  EXPECT_THROW(make_sweep(R"({"seed": []})"), exp::SpecError);
}

TEST(ExpSweepSpec, AxisPathsReachIntoArraysAndObjects) {
  const auto sweep = exp::SweepSpec::from_json_text(R"({
    "base": {
      "workload": "web", "duration_s": 1,
      "channels": [{"type": "5g", "profile": "lowband-stationary"},
                   {"type": "urllc"}]
    },
    "axes": {
      "channels.0.profile": ["lowband-stationary", "lowband-driving"],
      "web.pages": [1, 2]
    }
  })");
  const auto runs = exp::expand(sweep);
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_EQ(runs[0].spec.channels[0].profile, "lowband-stationary");
  EXPECT_EQ(runs[3].spec.channels[0].profile, "lowband-driving");
  EXPECT_EQ(runs[3].spec.web.pages, 2);
  // Out-of-range array index is an error, not a silent append.
  EXPECT_THROW(
      (void)exp::expand(exp::SweepSpec::from_json_text(
          R"({"base": {"workload": "bulk", "duration_s": 1},
              "axes": {"channels.7.seed": [1]}})")),
      exp::SpecError);
}

TEST(ExpSweepSpec, PolicyAxisObjectsRenderAsSchemeLabels) {
  const auto sweep = make_sweep(
      R"({"policy": ["embb-only",
                     {"name": "dchannel", "preset": "web-tuned",
                      "use_flow_priority": true}]})");
  const auto runs = exp::expand(sweep);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].params.at("policy"), "embb-only");
  EXPECT_EQ(runs[1].params.at("policy"), "dchannel+prio");
  EXPECT_TRUE(runs[1].spec.up_policy.use_flow_priority > 0);
}

TEST(ExpSweepSpec, InvalidCombinationsFailAtExpandTime) {
  // The axis splices an invalid policy into an otherwise valid base.
  const auto sweep = make_sweep(R"({"policy": ["embb-only", "warp-speed"]})");
  EXPECT_THROW((void)exp::expand(sweep), exp::SpecError);
  // Sweep files are strict about their own keys too.
  EXPECT_THROW((void)exp::SweepSpec::from_json_text(
                   R"({"base": {}, "axis": {}})"),
               exp::SpecError);
  EXPECT_THROW((void)exp::SweepSpec::from_json_text(R"({"name": "x"})"),
               exp::SpecError);
}

// ---- Engine vs direct core run: equivalence ----

TEST(ExpRunner, MatchesDirectCoreRun) {
  // Small bulk run through the engine...
  const auto spec = exp::ScenarioSpec::from_json_text(R"({
    "workload": "bulk", "duration_s": 5, "seed": 11,
    "channels": [{"type": "embb"}, {"type": "urllc"}],
    "policy": "dchannel"
  })");
  const auto result = exp::run_scenario(spec);
  ASSERT_TRUE(result.error.empty()) << result.error;

  // ...must equal the same experiment built directly on src/core.
  net::IdScope ids;
  const auto cfg = exp::build_scenario_config(spec);
  const auto direct = core::run_bulk(cfg, "cubic", sim::seconds(5));
  EXPECT_DOUBLE_EQ(result.metrics.at("bulk.goodput_mbps"),
                   direct.goodput_bps / 1e6);
  EXPECT_DOUBLE_EQ(result.metrics.at("bulk.retransmissions"),
                   static_cast<double>(direct.retransmissions));
}

TEST(ExpRunner, TraceStorageIsSharedFromProfileToLink) {
  // A 5G trace travels profile → ScenarioConfig → HvcSet → Channel →
  // LinkConfig → Link. Every hop must share the one schedule, never
  // deep-copy it.
  const auto spec = exp::ScenarioSpec::from_json_text(R"({
    "workload": "video", "duration_s": 5, "seed": 3,
    "channels": [{"type": "5g", "profile": "lowband-driving"},
                 {"type": "urllc"}],
    "policy": "dchannel"
  })");
  const auto cfg = exp::build_scenario_config(spec);
  core::Scenario scenario(cfg);
  auto& ch = scenario.network().channels().at(0);
  const trace::CapacityTrace& profile_down = cfg.channels.at(0).capacity_down;
  const trace::CapacityTrace& profile_up = cfg.channels.at(0).capacity_up;
  ASSERT_GT(profile_down.opportunities_per_period(), 0u);
  EXPECT_TRUE(profile_down.stepped());
  EXPECT_TRUE(
      ch.downlink().config().capacity.shares_storage_with(profile_down));
  EXPECT_TRUE(ch.profile().capacity_down.shares_storage_with(profile_down));
  EXPECT_TRUE(ch.uplink().config().capacity.shares_storage_with(profile_up));
  EXPECT_TRUE(ch.profile().capacity_up.shares_storage_with(profile_up));
  // The check can fail: an equal schedule built separately is not shared.
  const auto rebuilt = exp::build_scenario_config(spec);
  EXPECT_EQ(rebuilt.channels.at(0).capacity_down.expand(),
            profile_down.expand());
  EXPECT_FALSE(
      rebuilt.channels.at(0).capacity_down.shares_storage_with(profile_down));
}

TEST(ExpRunner, CapturesRunErrorsInsteadOfThrowing) {
  // Bypass the parser (which would reject this) to exercise the capture
  // path: an unknown CCA makes transport::make_cca throw mid-run.
  exp::ScenarioSpec spec;
  spec.workload = "bulk";
  spec.duration_s = 1;
  exp::ChannelSpec embb;
  embb.type = "embb";
  exp::ChannelSpec urllc;
  urllc.type = "urllc";
  spec.channels = {embb, urllc};
  spec.cca = "reno";
  const auto result = exp::run_scenario(spec);
  EXPECT_NE(result.error.find("unknown CCA"), std::string::npos)
      << result.error;
  EXPECT_TRUE(result.metrics.empty());
}

// ---- Aggregated output ----

TEST(ExpResults, CsvHasSortedUnionColumnsAndEscaping) {
  exp::RunResult a;
  a.index = 0;
  a.name = "has,comma";
  a.params = {{"policy", "embb-only"}};
  a.metrics = {{"m.b", 1.5}, {"m.a", 2.0}};
  exp::RunResult b;
  b.index = 1;
  b.name = "plain";
  b.params = {{"policy", "say \"hi\""}};
  b.metrics = {{"m.c", 3.0}};
  const std::string csv = exp::to_csv({a, b});
  EXPECT_EQ(csv,
            "run,name,policy,m.a,m.b,m.c,error\n"
            "0,\"has,comma\",embb-only,2,1.5,,\n"
            "1,plain,\"say \"\"hi\"\"\",,,3,\n");
}

TEST(ExpResults, JsonlRowsParseBackAndOmitWallClock) {
  exp::RunResult a;
  a.index = 3;
  a.name = "r";
  a.params = {{"seed", "4"}};
  a.metrics = {{"web.plt_ms.mean", 123.5}};
  a.obs = {{"node.client.unroutable", 0.0}};
  a.wall_ms = 9999.0;  // must not appear in the output
  const std::string jsonl = exp::to_jsonl({a});
  EXPECT_EQ(jsonl.find("wall"), std::string::npos);
  obs::json::Value v;
  ASSERT_TRUE(obs::json::parse(
      std::string_view(jsonl).substr(0, jsonl.size() - 1), &v));
  EXPECT_DOUBLE_EQ(v.number_or("run", -1), 3.0);
  EXPECT_DOUBLE_EQ(v.find("metrics")->number_or("web.plt_ms.mean", 0),
                   123.5);
}

// ---- Isolation machinery ----

TEST(ExpSweepIsolation, ScopedRegistryNestsAndIsPerThread) {
  auto& global = obs::MetricsRegistry::global();
  EXPECT_EQ(&obs::MetricsRegistry::current(), &global);
  obs::MetricsRegistry outer;
  {
    obs::ScopedMetricsRegistry s1(outer);
    EXPECT_EQ(&obs::MetricsRegistry::current(), &outer);
    obs::MetricsRegistry inner;
    {
      obs::ScopedMetricsRegistry s2(inner);
      EXPECT_EQ(&obs::MetricsRegistry::current(), &inner);
      // A different thread is unaffected by this thread's scopes.
      std::thread([&] {
        EXPECT_EQ(&obs::MetricsRegistry::current(), &global);
      }).join();
    }
    EXPECT_EQ(&obs::MetricsRegistry::current(), &outer);
  }
  EXPECT_EQ(&obs::MetricsRegistry::current(), &global);
}

TEST(ExpSweepIsolation, IdScopeResetsAndRestoresCounters) {
  const auto flow_before = net::flow_id_counter();
  const auto packet_before = net::packet_id_counter();
  {
    net::IdScope scope;
    EXPECT_EQ(net::flow_id_counter(), 1u);
    EXPECT_EQ(net::packet_id_counter(), 1u);
    (void)net::next_flow_id();
    EXPECT_EQ(net::flow_id_counter(), 2u);
  }
  EXPECT_EQ(net::flow_id_counter(), flow_before);
  EXPECT_EQ(net::packet_id_counter(), packet_before);
}

// ---- Concurrent sweep determinism (ExpSweep*: runs under tsan too) ----

exp::SweepSpec determinism_sweep() {
  return exp::SweepSpec::from_json_text(R"({
    "name": "det",
    "base": {
      "name": "det", "workload": "bulk", "duration_s": 2,
      "channels": [{"type": "embb"}, {"type": "urllc"}],
      "policy": "dchannel"
    },
    "axes": {
      "policy": ["embb-only", "dchannel", "min-delay"],
      "seed": {"range": [0, 3]}
    }
  })");
}

TEST(ExpSweepDeterminism, SerialAndParallelResultsAreByteIdentical) {
  const auto sweep = determinism_sweep();
  const auto serial = exp::run_sweep(sweep, 1);
  const auto parallel = exp::run_sweep(sweep, 8);
  ASSERT_EQ(serial.size(), 9u);
  EXPECT_EQ(exp::to_csv(serial), exp::to_csv(parallel));
  EXPECT_EQ(exp::to_jsonl(serial), exp::to_jsonl(parallel));
  for (const auto& r : serial) EXPECT_TRUE(r.error.empty()) << r.error;
}

TEST(ExpSweepDeterminism, ResultsOrderedByGridIndexWithProgress) {
  const auto sweep = determinism_sweep();
  std::size_t calls = 0;
  const auto results = exp::run_sweep(
      sweep, 4, [&](const exp::RunResult&, std::size_t, std::size_t total) {
        ++calls;  // serialized by the engine's progress mutex
        EXPECT_EQ(total, 9u);
      });
  EXPECT_EQ(calls, 9u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].index, i);
  }
}

TEST(ExpSweepDeterminism, ConcurrentRunsDoNotPolluteGlobalRegistry) {
  auto& global = obs::MetricsRegistry::global();
  global.reset_values();
  const auto before = global.snapshot();
  (void)exp::run_sweep(determinism_sweep(), 4);
  EXPECT_EQ(global.snapshot(), before);
}

}  // namespace
}  // namespace hvc
