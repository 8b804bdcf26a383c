#include "obs/perf_manifest.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/json.hpp"

namespace hvc::obs {

namespace {
constexpr const char* kThroughputKey = "items_per_sec.median";

/// `key` as an int, `dflt` when absent; nullopt when the number is
/// non-finite or outside int range, where static_cast<int> is undefined.
std::optional<int> int_field(const json::Value& obj, const std::string& key,
                             int dflt) {
  const double v = obj.number_or(key, dflt);
  if (!std::isfinite(v) || v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    return std::nullopt;
  }
  return static_cast<int>(v);
}
}  // namespace

const PerfBenchResult* PerfManifest::find(const std::string& bench) const {
  for (const auto& b : benches) {
    if (b.name == bench) return &b;
  }
  return nullptr;
}

std::string PerfManifest::to_json() const {
  std::string out = "{\n";
  out += "  \"schema\": " +
         json::quote("hvc-perf-manifest/" + std::to_string(kSchemaVersion)) +
         ",\n";
  out += "  \"name\": " + json::quote(name) + ",\n";
  out += "  \"git_sha\": " + json::quote(git_sha) + ",\n";
  out += "  \"cpu_model\": " + json::quote(cpu_model) + ",\n";
  out += "  \"build_type\": " + json::quote(build_type) + ",\n";
  out += "  \"compiler\": " + json::quote(compiler) + ",\n";
  out += "  \"pinned_cpu\": " +
         json::number(static_cast<std::int64_t>(pinned_cpu)) + ",\n";
  out += "  \"cycles_per_ns\": " + json::number(cycles_per_ns) + ",\n";
  out += "  \"warmup\": " + json::number(static_cast<std::int64_t>(warmup)) +
         ",\n";
  out += "  \"repeats\": " + json::number(static_cast<std::int64_t>(repeats)) +
         ",\n";
  out += "  \"benches\": [";
  for (std::size_t i = 0; i < benches.size(); ++i) {
    const PerfBenchResult& b = benches[i];
    if (i > 0) out += ',';
    out += "\n    {\n";
    out += "      \"name\": " + json::quote(b.name) + ",\n";
    out += "      \"unit\": " + json::quote(b.unit) + ",\n";
    out += "      \"stats\": {";
    bool first = true;
    for (const auto& [key, value] : b.stats) {
      if (!first) out += ',';
      first = false;
      out += "\n        " + json::quote(key) + ": " + json::number(value);
    }
    out += b.stats.empty() ? "}\n" : "\n      }\n";
    out += "    }";
  }
  out += benches.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

std::optional<PerfManifest> PerfManifest::from_json(const std::string& text) {
  json::Value root;
  if (!json::parse(text, &root) || !root.is_object()) return std::nullopt;
  const std::string schema = root.string_or("schema", "");
  if (schema != "hvc-perf-manifest/" + std::to_string(kSchemaVersion)) {
    return std::nullopt;
  }
  PerfManifest m;
  m.name = root.string_or("name", "");
  m.git_sha = root.string_or("git_sha", "unknown");
  m.cpu_model = root.string_or("cpu_model", "unknown");
  m.build_type = root.string_or("build_type", "unknown");
  m.compiler = root.string_or("compiler", "unknown");
  const auto pinned_cpu = int_field(root, "pinned_cpu", -1);
  const auto warmup = int_field(root, "warmup", 0);
  const auto repeats = int_field(root, "repeats", 0);
  if (!pinned_cpu || !warmup || !repeats) return std::nullopt;
  m.pinned_cpu = *pinned_cpu;
  m.cycles_per_ns = root.number_or("cycles_per_ns", 0.0);
  m.warmup = *warmup;
  m.repeats = *repeats;
  // A manifest with no benches would gate nothing: compare_perf against
  // it passes vacuously.
  const json::Value* bs = root.find("benches");
  if (bs == nullptr || !bs->is_array() || bs->array.empty()) {
    return std::nullopt;
  }
  for (const json::Value& bv : bs->array) {
    if (!bv.is_object()) return std::nullopt;
    PerfBenchResult b;
    b.name = bv.string_or("name", "");
    b.unit = bv.string_or("unit", "");
    if (b.name.empty()) return std::nullopt;
    if (const json::Value* st = bv.find("stats"); st && st->is_object()) {
      for (const auto& [key, value] : st->object) {
        if (value.is_number()) b.stats[key] = value.num;
      }
    }
    m.benches.push_back(std::move(b));
  }
  return m;
}

bool PerfManifest::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << to_json();
  return static_cast<bool>(out);
}

std::optional<PerfManifest> PerfManifest::read(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return from_json(buf.str());
}

std::string PerfCheck::to_text() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-28s %14s %14s %8s  %s\n", "bench",
                "baseline/s", "current/s", "ratio", "status");
  out += buf;
  for (const PerfDelta& d : deltas) {
    std::snprintf(buf, sizeof(buf), "%-28s %14.0f %14.0f %7.2fx  %s%s%s\n",
                  d.bench.c_str(), d.baseline, d.current, d.ratio,
                  d.ok ? "ok" : "FAIL", d.note.empty() ? "" : " — ",
                  d.note.c_str());
    out += buf;
  }
  return out;
}

PerfCheck compare_perf(const PerfManifest& baseline,
                       const PerfManifest& current, double tolerance,
                       const std::string& filter) {
  PerfCheck check;
  for (const PerfBenchResult& base : baseline.benches) {
    if (base.name.find(filter) == std::string::npos) continue;
    PerfDelta d;
    d.bench = base.name;
    const auto base_it = base.stats.find(kThroughputKey);
    d.baseline = base_it == base.stats.end() ? 0.0 : base_it->second;
    const PerfBenchResult* cur = current.find(base.name);
    if (cur == nullptr) {
      d.ok = false;
      d.note = "missing in current run";
      check.deltas.push_back(std::move(d));
      check.ok = false;
      continue;
    }
    const auto cur_it = cur->stats.find(kThroughputKey);
    d.current = cur_it == cur->stats.end() ? 0.0 : cur_it->second;
    if (d.baseline <= 0.0) {
      // Nothing to regress against; a zero baseline never fails.
      d.ratio = 0.0;
      d.ok = true;
      d.note = "no baseline throughput";
    } else {
      d.ratio = d.current / d.baseline;
      d.ok = d.current >= d.baseline * (1.0 - tolerance);
      if (!d.ok) d.note = "below tolerance";
    }
    if (!d.ok) check.ok = false;
    check.deltas.push_back(std::move(d));
  }
  return check;
}

}  // namespace hvc::obs
