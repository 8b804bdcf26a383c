// paperbench: host time to reproduce one paper experiment.
//
//   paperbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//              [--digests FILE] [--out-dir DIR] [--spans-out FILE]
//              [--emit-digests]
//
// Builds the workload's grid from the seed (set-up, timed several times),
// then runs the whole grid single-threaded through exp::run_scenario —
// the hvc_sweep -j1 path — again and again for --seconds, checking every
// grid point. With --trace 1 half the time goes to untraced passes and
// half to traced passes (traced.hpp), which must reproduce the untraced
// results byte for byte. The last stdout line is the JSON result;
// README.md describes every metric.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "app/web/page.hpp"
#include "exp/results.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "obs/prof.hpp"
#include "traced.hpp"
#include "workloads.hpp"

#ifndef PAPERBENCH_BUILD_TYPE
#define PAPERBENCH_BUILD_TYPE "unknown"
#endif

namespace paperbench {
namespace {

namespace prof = hvc::obs::prof;
using hvc::exp::ExpandedRun;
using hvc::exp::RunResult;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string digests;
  std::string out_dir = ".";
  std::string spans_out;
  bool emit_digests = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "paperbench: %s\n"
               "usage: paperbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--digests FILE] [--out-dir DIR] "
               "[--spans-out FILE] [--emit-digests]\nworkloads:",
               why.c_str());
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--emit-digests") {
      a.emit_digests = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (flag == "--digests") {
        a.digests = v;
      } else if (flag == "--out-dir") {
        a.out_dir = v;
      } else if (flag == "--spans-out") {
        a.spans_out = v;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (find_workload(a.workload) == nullptr) {
    usage("unknown workload '" + a.workload + "'");
  }
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

double now_s() { return static_cast<double>(prof::now_ns()) * 1e-9; }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// digests.txt lines: "<workload> <seed> <grid index> <fnv1a64 of row>".
/// Returns the committed row digests for (workload, seed), by index.
std::map<std::size_t, std::string> load_digests(const std::string& path,
                                                const std::string& workload,
                                                std::uint64_t seed) {
  std::map<std::size_t, std::string> out;
  if (path.empty()) return out;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "paperbench: cannot read digests %s\n", path.c_str());
    std::exit(2);
  }
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string w;
    std::uint64_t s = 0;
    std::size_t i = 0;
    std::string h;
    if (!(fields >> w >> s >> i >> h)) {
      std::fprintf(stderr, "paperbench: %s: bad line '%s'\n", path.c_str(),
                   line.c_str());
      std::exit(2);
    }
    if (w == workload && s == seed) out[i] = h;
  }
  return out;
}

// ---- Set-up ------------------------------------------------------------

struct SetupTiming {
  double total_s = 0;
  double spec_s = 0;
};

/// Spec parse + grid expansion, then every point's inputs: its
/// ScenarioConfig (5G traces are generated here) and, for web, its page
/// corpus. One point's inputs live at a time, as in a -j1 sweep.
SetupTiming setup_once(const std::string& grid,
                       std::vector<ExpandedRun>* keep) {
  const double t0 = now_s();
  const auto sweep = hvc::exp::SweepSpec::from_json_text(grid);
  std::vector<ExpandedRun> runs = hvc::exp::expand(sweep);
  const double t1 = now_s();
  for (const ExpandedRun& run : runs) {
    const auto& spec = run.spec;
    if (spec.workload == "city") continue;  // no packet-level inputs
    const hvc::core::ScenarioConfig config =
        hvc::exp::build_scenario_config(spec);
    if (spec.workload == "web") {
      const auto corpus = hvc::app::web::generate_corpus(
          {.pages = spec.web.pages,
           .landing_fraction = spec.web.landing_fraction,
           .seed = static_cast<std::uint64_t>(spec.web.corpus_seed)});
    }
  }
  const double t2 = now_s();
  if (keep != nullptr) *keep = std::move(runs);
  return {t2 - t0, t1 - t0};
}

// ---- Checks --------------------------------------------------------------

class Verdicts {
 public:
  Verdicts(const Workload& w, std::map<std::size_t, std::string> digests,
           bool digest_required)
      : w_(w), digests_(std::move(digests)), required_(digest_required) {}

  /// Check one pass's rows; the first pass becomes the reference rows.
  void check_pass(const std::vector<ExpandedRun>& runs,
                  const std::vector<RunResult>& results,
                  const std::string& jsonl) {
    const std::vector<std::string> rows = split_lines(jsonl);
    const bool first = reference_.empty();
    if (first) reference_ = rows;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      std::vector<std::string> errs = check_invariants(w_, runs[i], results[i]);
      const std::string row = i < rows.size() ? rows[i] : std::string();
      if (!first && row != reference_[i]) {
        errs.push_back("row differs from the first pass (nondeterminism)");
      }
      const auto d = digests_.find(i);
      if (d != digests_.end() && d->second != fnv1a64(row)) {
        errs.push_back("row digest " + fnv1a64(row) +
                       " differs from the committed " + d->second);
      } else if (d == digests_.end() && required_) {
        errs.push_back("no committed digest for this grid point");
      }
      count(i, errs);
    }
  }

  /// The traced pass must reproduce the reference rows byte for byte.
  void check_traced(const std::string& jsonl) {
    const std::vector<std::string> rows = split_lines(jsonl);
    for (std::size_t i = 0; i < reference_.size(); ++i) {
      std::vector<std::string> errs;
      if (i >= rows.size() || rows[i] != reference_[i]) {
        errs.push_back("traced row differs from the untraced row");
      }
      count(i, errs);
    }
  }

  [[nodiscard]] const std::vector<std::string>& reference() const {
    return reference_;
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  void count(std::size_t i, const std::vector<std::string>& errs) {
    ++attempted_;
    if (errs.empty()) return;
    ++failed_;
    for (const std::string& e : errs) {
      if (reported_++ < 20) {
        std::printf("FAIL %s point %zu: %s\n", w_.name, i, e.c_str());
      }
    }
  }

  const Workload& w_;
  std::map<std::size_t, std::string> digests_;
  bool required_;
  std::vector<std::string> reference_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t reported_ = 0;
};

// ---- Passes --------------------------------------------------------------

struct Pass {
  double wall_s = 0;
  double point_max_s = 0;
};

/// One untraced pass over the grid, as hvc_sweep -j1 runs it: every point
/// through run_scenario, then the results serialized.
Pass untraced_pass(const std::vector<ExpandedRun>& runs,
                   const hvc::exp::RunOptions& opts, Verdicts& verdicts) {
  Pass p;
  std::vector<RunResult> results;
  results.reserve(runs.size());
  const double t0 = now_s();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    hvc::exp::RunOptions point_opts = opts;
    point_opts.run_index = static_cast<int>(i);
    const double tp = now_s();
    RunResult r = hvc::exp::run_scenario(runs[i].spec, point_opts);
    r.index = i;
    r.params = runs[i].params;
    results.push_back(std::move(r));
    p.point_max_s = std::max(p.point_max_s, now_s() - tp);
  }
  const std::string jsonl = hvc::exp::to_jsonl(results);
  p.wall_s = now_s() - t0;
  verdicts.check_pass(runs, results, jsonl);
  return p;
}

std::string provenance(const Args& a) {
  std::string out = "{";
  out += "\"git_sha\":" + json_str(prof::git_sha(".")) + ",";
  out += "\"cpu_model\":" + json_str(prof::cpu_model()) + ",";
  out += "\"compiler\":" + json_str(prof::compiler_id()) + ",";
  out += "\"build_type\":" + json_str(PAPERBENCH_BUILD_TYPE) + ",";
  out += "\"nproc\":" + num(std::thread::hardware_concurrency()) + ",";
  out += "\"cycles_per_ns\":" + num(prof::cycles_per_ns()) + ",";
  out += "\"workload\":" + json_str(a.workload) + ",";
  out += "\"seed\":" + num(static_cast<double>(a.seed)) + ",";
  out += "\"seconds\":" + num(a.seconds) + ",";
  out += "\"trace\":" + num(a.trace ? 1 : 0) + "}";
  return out;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

const char* layer_unit(const std::string& name) {
  auto ends = [&](const char* suffix) {
    const std::string s = suffix;
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends("_s")) return "s";
  if (ends("ns_per_event") || ends("ns_per_decision")) return "ns";
  if (ends("_frac") || ends("per_ack")) return "ratio";
  if (ends("bytes")) return "B";
  return "count";
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_str(metrics[i].name) + ": {\"value\": " +
           num(metrics[i].value) + ", \"unit\": " + json_str(metrics[i].unit) +
           "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run(const Args& a) {
  const Workload& w = *find_workload(a.workload);
  const std::string grid = grid_json(w, a.seed);
  std::printf("provenance %s\n", provenance(a).c_str());

  // Set-up: at least 5 repeats, more while under 1 s, median reported.
  std::vector<ExpandedRun> runs;
  std::vector<double> setup_samples;
  std::vector<double> spec_samples;
  const double setup_start = now_s();
  while (setup_samples.size() < 5 ||
         (now_s() - setup_start < 1.0 && setup_samples.size() < 51)) {
    const SetupTiming st = setup_once(grid, runs.empty() ? &runs : nullptr);
    setup_samples.push_back(st.total_s);
    spec_samples.push_back(st.spec_s);
  }

  std::filesystem::create_directories(a.out_dir);
  hvc::exp::RunOptions opts;
  opts.out_prefix = (std::filesystem::path(a.out_dir) / w.name).string();

  if (a.emit_digests) {
    Verdicts v(w, {}, false);
    untraced_pass(runs, opts, v);
    for (std::size_t i = 0; i < v.reference().size(); ++i) {
      std::printf("%s %llu %zu %s\n", w.name,
                  static_cast<unsigned long long>(a.seed), i,
                  fnv1a64(v.reference()[i]).c_str());
    }
    return v.failed() == 0 ? 0 : 1;
  }

  Verdicts verdicts(w, load_digests(a.digests, w.name, a.seed),
                    !a.digests.empty() && a.seed == kDefaultSeed);

  // Untraced passes: all of --seconds, or half of it with --trace 1.
  const double untraced_budget = a.trace ? a.seconds / 2 : a.seconds;
  std::vector<double> walls;
  std::vector<double> maxes;
  const double start = now_s();
  do {
    const Pass p = untraced_pass(runs, opts, verdicts);
    walls.push_back(p.wall_s);
    maxes.push_back(p.point_max_s);
  } while (now_s() - start < untraced_budget);
  const double wall_s = median(walls);
  std::printf("untraced passes %zu, wall_s median %s:", walls.size(),
              num(wall_s).c_str());
  for (const double x : walls) std::printf(" %s", num(x).c_str());
  std::printf("\n");
  std::printf("setup samples %zu: setup_s median %s\n", setup_samples.size(),
              num(median(setup_samples)).c_str());

  std::vector<Metric> metrics;
  if (!a.trace) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    metrics = {
        {"wall_s", wall_s, "s"},
        {"run_s_max", median(maxes), "s"},
        {"setup_s", median(setup_samples), "s"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB"},
    };
  } else {
    // Traced passes for the other half; report the median-wall pass.
    std::vector<TracedGrid> traced;
    const double tstart = now_s();
    do {
      traced.push_back(run_traced_grid(runs, opts));
      verdicts.check_traced(traced.back().jsonl);
    } while (now_s() - tstart < a.seconds - untraced_budget);
    std::vector<std::size_t> order(traced.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      return traced[x].wall_s < traced[y].wall_s;
    });
    const TracedGrid& mid = traced[order[order.size() / 2]];
    std::map<std::string, double> layers =
        layer_metrics(mid, median(spec_samples));
    layers["obs.trace_overhead_frac"] = mid.wall_s / wall_s - 1.0;
    layers["fail_frac"] = static_cast<double>(verdicts.failed()) /
                          static_cast<double>(verdicts.attempted());
    const double closed = layers["transport.cca_s"] +
                          layers["steer.policy_s"] + layers["sim.queue_s"] +
                          layers["net.alloc_s"] + layers["unattributed_s"];
    std::printf(
        "traced passes %zu, wall_s median %s. closure: cca + policy + queue "
        "+ alloc + unattributed = %s s, sim.run_s = %s s; policy/CCA time "
        "outside sim.run = %s s\n",
        traced.size(), num(mid.wall_s).c_str(), num(closed).c_str(),
        num(layers["sim.run_s"]).c_str(),
        num(static_cast<double>(mid.trace.outside_run_cycles) /
            prof::cycles_per_ns() * 1e-9)
            .c_str());
    if (a.workload == "web_plt") {
      std::printf(
          "note: web's TCP connections are built inside app::web with no "
          "CCA seam, so their transport time is in unattributed_s\n");
    }
    if (!a.spans_out.empty()) {
      hvc::exp::write_file(a.spans_out,
                           mid.trace.rec.to_jsonl(prof::cycles_per_ns()));
      std::printf("spans: %zu records -> %s\n", mid.trace.rec.retained(),
                  a.spans_out.c_str());
    }
    for (const auto& [name, value] : layers) {
      metrics.push_back({name, value, layer_unit(name)});
    }
  }
  print_result(verdicts.failed() == 0, verdicts.attempted(), verdicts.failed(),
               metrics);
  return 0;
}

}  // namespace
}  // namespace paperbench

int main(int argc, char** argv) {
  const paperbench::Args args = paperbench::parse_args(argc, argv);
  try {
    return paperbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "paperbench: %s\n", e.what());
    return 1;
  }
}
