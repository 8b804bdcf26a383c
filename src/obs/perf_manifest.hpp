// Versioned perf manifests: the BENCH_*.json files at the repo root that
// form the simulator's speed trajectory.
//
// One manifest records one execution of the pinned-cycle microbench
// suite (bench/hotpath via tools/hvc_perf): host provenance (git sha,
// CPU model, build type, compiler, pinned CPU, calibrated TSC rate) and,
// per microbench, warmup/repeat statistics — median + IQR of throughput
// (items/sec), ns/item, and per-hot-path cycles/call from the obs::prof
// hook counters.
//
// The schema is append-only versioned (`"schema": "hvc-perf-manifest/N"`):
// readers accept any manifest whose version they know, so old committed
// baselines keep working as the suite grows. compare_perf() is the
// regression gate `hvc_perf --baseline BENCH_x.json --check` runs: a
// bench regresses when its current throughput median drops more than
// `tolerance` (fractional) below the baseline's.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace hvc::obs {

struct PerfBenchResult {
  std::string name;  ///< microbench id, e.g. "event_queue_churn"
  std::string unit;  ///< what one item is: "events" | "packets" | ...
  /// Flattened repeat statistics, sorted by key for stable JSON:
  ///   items.median                  work per repeat (sim-determined)
  ///   items_per_sec.{median,iqr,min,max,mean}
  ///   ns_per_item.median
  ///   hook.<hook>.cycles_per_call.median   (per-hot-path cycle medians)
  ///   hook.<hook>.calls.median
  ///   alloc.bytes_per_item.median
  std::map<std::string, double> stats;
};

struct PerfManifest {
  /// Bumped when the JSON layout changes incompatibly.
  static constexpr int kSchemaVersion = 1;

  std::string name;  ///< suite name; file convention BENCH_<name>.json
  std::string git_sha = "unknown";
  std::string cpu_model = "unknown";
  std::string build_type = "unknown";  ///< CMAKE_BUILD_TYPE
  std::string compiler = "unknown";
  int pinned_cpu = -1;         ///< -1 = not pinned
  double cycles_per_ns = 0.0;  ///< calibrated TSC rate
  int warmup = 0;              ///< discarded repeats per bench
  int repeats = 0;             ///< measured repeats per bench
  std::vector<PerfBenchResult> benches;  ///< suite order

  [[nodiscard]] const PerfBenchResult* find(const std::string& bench) const;

  [[nodiscard]] std::string to_json() const;
  static std::optional<PerfManifest> from_json(const std::string& text);

  bool write(const std::string& path) const;
  static std::optional<PerfManifest> read(const std::string& path);
};

/// One bench's baseline-vs-current comparison.
struct PerfDelta {
  std::string bench;
  double baseline = 0.0;  ///< baseline items_per_sec.median
  double current = 0.0;   ///< current items_per_sec.median
  double ratio = 0.0;     ///< current / baseline (0 when missing)
  bool ok = false;
  std::string note;  ///< "missing in current run" etc.
};

struct PerfCheck {
  bool ok = true;
  std::vector<PerfDelta> deltas;  ///< baseline suite order

  [[nodiscard]] std::string to_text() const;  ///< one aligned row per bench
};

/// Regression gate: every baseline bench must be present in `current`
/// with items_per_sec.median >= baseline * (1 - tolerance). Benches only
/// in `current` are reported as ok (the suite grew). `tolerance` is the
/// allowed fractional slowdown, e.g. 0.5 = halving throughput fails.
/// A non-empty `filter` is the substring the current run selected its
/// benches by (hvc_perf --filter): baseline benches whose names lack it
/// were not run, so they are left out instead of failing as missing.
[[nodiscard]] PerfCheck compare_perf(const PerfManifest& baseline,
                                     const PerfManifest& current,
                                     double tolerance,
                                     const std::string& filter = "");

}  // namespace hvc::obs
