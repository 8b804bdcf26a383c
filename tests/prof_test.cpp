// Tests for the hot-path profiler (obs/prof) and the perf-manifest layer
// (obs/perf_manifest): scoped-timer accounting, allocation tracking via
// make_packet, the MetricsRegistry fold, the BENCH_*.json schema, the
// regression gate, and — the property the whole design hangs on — that
// profiling on vs off leaves simulation output byte-identical.
#include <gtest/gtest.h>

#include <string>

#include "core/scenario.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_manifest.hpp"
#include "obs/prof.hpp"
#include "obs/summary.hpp"
#include "sim/stats.hpp"
#include "sim/units.hpp"

namespace hvc {
namespace {

namespace prof = obs::prof;

/// Every prof test starts from a clean slate and leaves one behind
/// (profiling state is process-global + thread-local).
class ProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prof::disable();
    prof::reset();
  }
  void TearDown() override {
    prof::disable();
    prof::reset();
  }
};

TEST_F(ProfTest, ScopedTimerCountsCallsAndCycles) {
  prof::enable();
  for (int i = 0; i < 10; ++i) {
    prof::ScopedTimer t(prof::Hook::kLinkServe);
  }
  prof::disable();
  const prof::HookStats& s = prof::stats(prof::Hook::kLinkServe);
  EXPECT_EQ(s.calls, 10u);
  // TSC deltas are nonnegative; 10 scopes on real hardware take >0 cycles
  // in total (each scope spans at least the two counter reads).
  EXPECT_GT(s.cycles, 0u);
  EXPECT_EQ(prof::stats(prof::Hook::kSteer).calls, 0u);
}

TEST_F(ProfTest, NestedScopesCreditEachHookAndIncludeInnerTime) {
  prof::enable();
  {
    prof::ScopedTimer outer(prof::Hook::kEventPop);
    {
      prof::ScopedTimer inner(prof::Hook::kSteer);
    }
  }
  prof::disable();
  EXPECT_EQ(prof::stats(prof::Hook::kEventPop).calls, 1u);
  EXPECT_EQ(prof::stats(prof::Hook::kSteer).calls, 1u);
  // Inclusive timing: the outer scope contains the inner one.
  EXPECT_GE(prof::stats(prof::Hook::kEventPop).cycles,
            prof::stats(prof::Hook::kSteer).cycles);
}

TEST_F(ProfTest, DisabledHooksRecordNothing) {
  {
    prof::ScopedTimer t(prof::Hook::kLinkServe);
  }
  prof::hook_alloc(64);
  EXPECT_EQ(prof::stats(prof::Hook::kLinkServe).calls, 0u);
  EXPECT_EQ(prof::alloc_stats().allocs, 0u);
}

TEST_F(ProfTest, TimerArmedAtConstructionNotDestruction) {
  // A timer born disabled stays unarmed even if profiling flips on
  // before it dies — otherwise it would record garbage (start_ == 0).
  {
    prof::ScopedTimer t(prof::Hook::kLinkServe);
    prof::enable();
  }
  prof::disable();
  EXPECT_EQ(prof::stats(prof::Hook::kLinkServe).calls, 0u);
}

#if HVC_PROF_ENABLED
TEST_F(ProfTest, MakePacketRoutesThroughTrackingAllocator) {
  prof::enable();
  {
    auto p = net::make_packet();
    auto c = net::clone_packet(*p);
    // p and c free here
  }
  prof::disable();
  const prof::AllocStats& a = prof::alloc_stats();
  EXPECT_EQ(a.allocs, 2u);
  EXPECT_EQ(a.frees, 2u);
  EXPECT_EQ(a.alloc_bytes, a.free_bytes);
  EXPECT_GE(a.alloc_bytes, 2 * sizeof(net::Packet));
  // The counting hooks also bump the packet hook call counters.
  EXPECT_EQ(prof::stats(prof::Hook::kPacketFree).calls, 2u);
  // kPacketAlloc counts both the allocator hook and the scoped timer in
  // make_packet/clone_packet.
  EXPECT_EQ(prof::stats(prof::Hook::kPacketAlloc).calls, 4u);
}
#endif  // HVC_PROF_ENABLED — with hooks compiled out nothing is counted

TEST_F(ProfTest, FoldIntoEmitsStableSchemaIncludingZeros) {
  prof::enable();
  {
    prof::ScopedTimer t(prof::Hook::kSteer);
  }
  prof::disable();

  obs::MetricsRegistry reg;
  prof::fold_into(reg);
  const auto snap = reg.snapshot();
  // Touched hook carries its counts...
  EXPECT_EQ(snap.at("prof.steer.calls"), 1.0);
  EXPECT_GT(snap.at("prof.steer.cycles"), 0.0);
  // ...and untouched hooks still emit zeros (stable manifest schema).
  EXPECT_EQ(snap.at("prof.event_push.calls"), 0.0);
  EXPECT_EQ(snap.at("prof.telemetry_sample.cycles"), 0.0);
  EXPECT_EQ(snap.at("prof.alloc.count"), 0.0);
  EXPECT_EQ(snap.at("prof.free.bytes"), 0.0);
}

TEST_F(ProfTest, HookNamesAreStable) {
  EXPECT_STREQ(prof::hook_name(prof::Hook::kEventPush), "event_push");
  EXPECT_STREQ(prof::hook_name(prof::Hook::kEventPop), "event_pop");
  EXPECT_STREQ(prof::hook_name(prof::Hook::kPacketAlloc), "packet_alloc");
  EXPECT_STREQ(prof::hook_name(prof::Hook::kPacketFree), "packet_free");
  EXPECT_STREQ(prof::hook_name(prof::Hook::kLinkServe), "link_serve");
  EXPECT_STREQ(prof::hook_name(prof::Hook::kSteer), "steer");
  EXPECT_STREQ(prof::hook_name(prof::Hook::kTelemetrySample),
               "telemetry_sample");
}

TEST_F(ProfTest, MonotonicClockAndCalibration) {
  const std::uint64_t a = prof::now_ns();
  const std::uint64_t b = prof::now_ns();
  EXPECT_GE(b, a);
  const double rate = prof::cycles_per_ns();
  EXPECT_GT(rate, 0.0);
  EXPECT_EQ(rate, prof::cycles_per_ns()) << "calibration must be cached";
}

// ---- repeat statistics (obs/summary) -----------------------------------

TEST(RepeatStats, MedianAndIqrFromSummary) {
  sim::Summary s;
  for (const double v : {10.0, 20.0, 30.0, 40.0, 50.0}) s.add(v);
  const obs::RepeatStats r = obs::repeat_stats(s);
  EXPECT_EQ(r.count, 5u);
  EXPECT_DOUBLE_EQ(r.median, 30.0);
  EXPECT_DOUBLE_EQ(r.min, 10.0);
  EXPECT_DOUBLE_EQ(r.max, 50.0);
  EXPECT_DOUBLE_EQ(r.mean, 30.0);
  EXPECT_GT(r.iqr, 0.0);
  EXPECT_LT(r.iqr, 40.0);  // p75-p25 is strictly inside the range

  std::map<std::string, double> flat;
  obs::flatten_repeat_stats(s, "items_per_sec", &flat);
  EXPECT_DOUBLE_EQ(flat.at("items_per_sec.median"), 30.0);
  EXPECT_DOUBLE_EQ(flat.at("items_per_sec.mean"), 30.0);
  EXPECT_EQ(flat.count("items_per_sec.iqr"), 1u);
}

// ---- perf manifest schema ----------------------------------------------

obs::PerfManifest sample_manifest() {
  obs::PerfManifest m;
  m.name = "hotpath";
  m.git_sha = "abc123";
  m.cpu_model = "Test CPU";
  m.build_type = "RelWithDebInfo";
  m.compiler = "g++ 12.2.0";
  m.pinned_cpu = 0;
  m.cycles_per_ns = 2.5;
  m.warmup = 2;
  m.repeats = 7;
  obs::PerfBenchResult b;
  b.name = "event_queue_churn";
  b.unit = "events";
  b.stats = {{"items_per_sec.median", 8e6}, {"items_per_sec.iqr", 1e5}};
  m.benches.push_back(b);
  return m;
}

TEST(PerfManifest, GoldenJsonSchema) {
  const std::string json = sample_manifest().to_json();
  const std::string expected = R"({
  "schema": "hvc-perf-manifest/1",
  "name": "hotpath",
  "git_sha": "abc123",
  "cpu_model": "Test CPU",
  "build_type": "RelWithDebInfo",
  "compiler": "g++ 12.2.0",
  "pinned_cpu": 0,
  "cycles_per_ns": 2.5,
  "warmup": 2,
  "repeats": 7,
  "benches": [
    {
      "name": "event_queue_churn",
      "unit": "events",
      "stats": {
        "items_per_sec.iqr": 1e+05,
        "items_per_sec.median": 8e+06
      }
    }
  ]
}
)";
  EXPECT_EQ(json, expected);
}

TEST(PerfManifest, RoundTripsThroughJson) {
  const obs::PerfManifest m = sample_manifest();
  const auto back = obs::PerfManifest::from_json(m.to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->name, m.name);
  EXPECT_EQ(back->git_sha, m.git_sha);
  EXPECT_EQ(back->cpu_model, m.cpu_model);
  EXPECT_EQ(back->pinned_cpu, m.pinned_cpu);
  EXPECT_DOUBLE_EQ(back->cycles_per_ns, m.cycles_per_ns);
  EXPECT_EQ(back->warmup, m.warmup);
  EXPECT_EQ(back->repeats, m.repeats);
  ASSERT_EQ(back->benches.size(), 1u);
  EXPECT_EQ(back->benches[0].name, "event_queue_churn");
  EXPECT_EQ(back->benches[0].unit, "events");
  EXPECT_DOUBLE_EQ(back->benches[0].stats.at("items_per_sec.median"), 8e6);
  // Serializing the parsed manifest reproduces the bytes exactly.
  EXPECT_EQ(back->to_json(), m.to_json());
}

TEST(PerfManifest, RejectsUnknownSchemaAndGarbage) {
  EXPECT_FALSE(obs::PerfManifest::from_json("not json").has_value());
  EXPECT_FALSE(obs::PerfManifest::from_json("{}").has_value());
  std::string wrong = sample_manifest().to_json();
  const auto at = wrong.find("hvc-perf-manifest/1");
  wrong.replace(at, std::string("hvc-perf-manifest/1").size(),
                "hvc-perf-manifest/999");
  EXPECT_FALSE(obs::PerfManifest::from_json(wrong).has_value());

  // A baseline without benches would make `hvc_perf --check` pass
  // vacuously: missing, empty and non-array `benches` are all rejected.
  EXPECT_FALSE(obs::PerfManifest::from_json(
                   R"({"schema":"hvc-perf-manifest/1"})")
                   .has_value());
  EXPECT_FALSE(obs::PerfManifest::from_json(
                   R"({"schema":"hvc-perf-manifest/1","benches":[]})")
                   .has_value());
  EXPECT_FALSE(obs::PerfManifest::from_json(
                   R"({"schema":"hvc-perf-manifest/1","benches":{}})")
                   .has_value());

  // Integer fields must be finite and fit an int (1e309 parses as inf).
  for (const char* key : {"pinned_cpu", "warmup", "repeats"}) {
    for (const char* bad : {"1e309", "-1e309", "3e9", "-3e9"}) {
      const std::string good = sample_manifest().to_json();
      const std::string field = "\"" + std::string(key) + "\": ";
      const std::size_t pos = good.find(field);
      ASSERT_NE(pos, std::string::npos) << key;
      const std::size_t end = good.find(',', pos);
      std::string text = good;
      text.replace(pos + field.size(), end - pos - field.size(), bad);
      EXPECT_FALSE(obs::PerfManifest::from_json(text).has_value())
          << key << " = " << bad;
    }
  }
  // The untouched sample still parses.
  EXPECT_TRUE(
      obs::PerfManifest::from_json(sample_manifest().to_json()).has_value());
}

TEST(PerfCompare, ToleranceGateAndMissingBench) {
  const obs::PerfManifest baseline = sample_manifest();

  obs::PerfManifest same = baseline;
  EXPECT_TRUE(obs::compare_perf(baseline, same, 0.5).ok);

  // 40% slower passes a 50% tolerance, fails a 30% one.
  obs::PerfManifest slower = baseline;
  slower.benches[0].stats["items_per_sec.median"] = 8e6 * 0.6;
  EXPECT_TRUE(obs::compare_perf(baseline, slower, 0.5).ok);
  const auto fail = obs::compare_perf(baseline, slower, 0.3);
  EXPECT_FALSE(fail.ok);
  ASSERT_EQ(fail.deltas.size(), 1u);
  EXPECT_FALSE(fail.deltas[0].ok);
  EXPECT_NEAR(fail.deltas[0].ratio, 0.6, 1e-9);

  // A baseline bench missing from the current run always fails.
  obs::PerfManifest empty = baseline;
  empty.benches.clear();
  const auto missing = obs::compare_perf(baseline, empty, 0.99);
  EXPECT_FALSE(missing.ok);
  ASSERT_EQ(missing.deltas.size(), 1u);
  EXPECT_EQ(missing.deltas[0].note, "missing in current run");

  // Extra benches in the current run are growth, not failure.
  obs::PerfBenchResult extra;
  extra.name = "new_bench";
  same.benches.push_back(extra);
  EXPECT_TRUE(obs::compare_perf(baseline, same, 0.5).ok);
}

TEST(PerfCompare, FilterSkipsOnlyTheBenchesItLeftOut) {
  // A baseline of two benches against a run filtered down to one of them
  // (hvc_perf --filter churn): the filtered-out bench was never run.
  obs::PerfManifest baseline = sample_manifest();
  obs::PerfBenchResult other;
  other.name = "link_serve";
  other.stats = {{"items_per_sec.median", 4e6}};
  baseline.benches.push_back(other);
  obs::PerfManifest filtered = sample_manifest();

  const auto check = obs::compare_perf(baseline, filtered, 0.5, "churn");
  EXPECT_TRUE(check.ok);
  ASSERT_EQ(check.deltas.size(), 1u);
  EXPECT_EQ(check.deltas[0].bench, "event_queue_churn");

  // Without the filter the same run is missing a bench and fails.
  const auto unfiltered = obs::compare_perf(baseline, filtered, 0.5);
  EXPECT_FALSE(unfiltered.ok);
  ASSERT_EQ(unfiltered.deltas.size(), 2u);
  EXPECT_EQ(unfiltered.deltas[1].note, "missing in current run");

  // A bench the filter selected but the run lacks still fails.
  const auto selected = obs::compare_perf(baseline, filtered, 0.5, "link");
  EXPECT_FALSE(selected.ok);
  ASSERT_EQ(selected.deltas.size(), 1u);
  EXPECT_EQ(selected.deltas[0].note, "missing in current run");
}

// ---- the determinism pin ------------------------------------------------

/// One fixed scenario run in a fresh metrics/id scope; returns the full
/// registry snapshot as CSV — the byte format the determinism promise
/// covers.
std::string run_fig1_snapshot() {
  obs::MetricsRegistry reg;
  obs::ScopedMetricsRegistry scoped(reg);
  net::IdScope ids;
  (void)core::run_bulk(core::ScenarioConfig::fig1(), "cubic",
                       sim::seconds(2));
  return obs::snapshot_to_csv(reg.snapshot());
}

TEST_F(ProfTest, ProfilingOnVsOffIsByteIdentical) {
  const std::string off = run_fig1_snapshot();

  prof::reset();
  prof::enable();
  const std::string on = run_fig1_snapshot();
  prof::disable();

  EXPECT_EQ(on, off) << "profiling must never perturb simulation output";
#if HVC_PROF_ENABLED
  // And the profiled run actually measured the hot paths (the hooks are
  // live, they just stay out of the simulation's exports).
  EXPECT_GT(prof::stats(prof::Hook::kEventPop).calls, 0u);
  EXPECT_GT(prof::stats(prof::Hook::kSteer).calls, 0u);
  EXPECT_GT(prof::alloc_stats().allocs, 0u);
#endif
  // prof.* metrics never leak into a registry unless fold_into is called.
  EXPECT_EQ(on.find("prof."), std::string::npos);
}

}  // namespace
}  // namespace hvc
