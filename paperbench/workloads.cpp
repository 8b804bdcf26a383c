#include "workloads.hpp"

#include <cmath>
#include <string_view>

namespace paperbench {

using hvc::exp::ExpandedRun;
using hvc::exp::RunResult;

namespace {

// Each grid is the committed scenario file it names, with the seed holes
// filled from --seed. Changes against the file are noted per grid.

// scenarios/fig1a_cca_sweep.json plus the HVC-aware CCA (Fig. 1a/1b: five
// CCAs), at 10 s of simulated time instead of 30 s so one grid pass takes
// seconds, not tens of seconds.
constexpr const char* kBulkGrid = R"({
  "name": "bulk_cca",
  "base": {
    "name": "bulk_cca",
    "workload": "bulk",
    "duration_s": 10,
    "seed": @SEED@,
    "channels": [{"type": "embb"}, {"type": "urllc"}],
    "policy": "dchannel"
  },
  "axes": {
    "cca": ["cubic", "bbr", "vegas", "vivace", "hvc"],
    "policy": ["embb-only", "dchannel"]
  }
})";

// scenarios/table1_web_plt.json (Table 1), unchanged but for the seed. The
// corpus stays the committed one (seed 2023): across corpus seeds the
// events per pass vary by +-18%, which would swamp any change measured
// across seeds; across trace seeds alone they vary by +-1.5%.
constexpr const char* kWebGrid = R"({
  "name": "web_plt",
  "base": {
    "name": "web_plt",
    "workload": "web",
    "duration_s": 120,
    "seed": @SEED@,
    "cca": "cubic",
    "channels": [
      {"type": "5g", "profile": "lowband-stationary"},
      {"type": "urllc"}
    ],
    "policy": "embb-only",
    "web": {
      "pages": 30,
      "corpus_seed": 2023,
      "loads_per_page": 5,
      "bg_upload_bytes": 5000,
      "bg_download_bytes": 10000
    }
  },
  "axes": {
    "channels.0.profile": ["lowband-stationary", "lowband-driving"],
    "policy": [
      "embb-only",
      {"name": "dchannel", "preset": "web-tuned"},
      {"name": "dchannel", "preset": "web-tuned", "use_flow_priority": true}
    ]
  }
})";

// scenarios/fig2_video.json (Fig. 2), unchanged but for the seed.
constexpr const char* kVideoGrid = R"({
  "name": "video_rt",
  "base": {
    "name": "video_rt",
    "workload": "video",
    "duration_s": 90,
    "seed": @SEED@,
    "channels": [
      {"type": "5g", "profile": "lowband-driving"},
      {"type": "urllc"}
    ],
    "policy": "embb-only",
    "video": {"duration_s": 60, "fps": 30, "layer_kbps": [400, 4100, 7500]}
  },
  "axes": {
    "channels.0.profile": ["lowband-driving", "mmwave-driving"],
    "policy": ["embb-only", "dchannel", "msg-priority"]
  }
})";

// scenarios/city_cell.json at its 10k-user point only (the knee region;
// 30k users alone would take longer than the rest of the grid).
constexpr const char* kCityGrid = R"({
  "name": "city_pop",
  "base": {
    "name": "city_pop",
    "workload": "city",
    "duration_s": 60,
    "seed": @SEED@,
    "channels": [
      {"type": "embb", "rate_mbps": 1000, "rtt_ms": 50},
      {"type": "urllc", "rate_mbps": 20, "rtt_ms": 5}
    ],
    "city": {
      "users": 10000,
      "churn": {"arrival_rate_per_s": 2, "mean_session_s": 120}
    },
    "spans": {}
  },
  "axes": {
    "policy": ["embb-only", "dchannel"]
  }
})";

void replace_all(std::string& s, std::string_view hole,
                 const std::string& value) {
  for (std::size_t at = s.find(hole); at != std::string::npos;
       at = s.find(hole, at + value.size())) {
    s.replace(at, hole.size(), value);
  }
}

double get(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? NAN : it->second;
}

void expect(Errors& errs, bool ok, const char* what) {
  if (!ok) errs.emplace_back(what);
}

/// Packets handed to the links never exceed what the steering shims sent
/// them (delivered + dropped <= steered; the rest is still queued).
void check_packet_conservation(const RunResult& r, Errors& e) {
  const double steered = sum_keys(r.obs, "shim.", ".packets");
  const double accounted = sum_keys(r.obs, "link.", ".delivered_packets") +
                           sum_keys(r.obs, "link.", ".dropped_queue") +
                           sum_keys(r.obs, "link.", ".dropped_wire");
  expect(e, steered > 0, "no packet was steered");
  expect(e, accounted <= steered,
         "links account for more packets than the shims steered");
}

void check_bulk(const ExpandedRun& /*run*/, const RunResult& r, Errors& e) {
  const auto& m = r.metrics;
  const double goodput = get(m, "bulk.goodput_mbps");
  // Both channels together carry 60 + 2 Mbps.
  expect(e, goodput > 0 && goodput <= 62.0,
         "bulk goodput outside (0, 62] Mbps");
  const double sent = get(r.obs, "transport.tcp.packets_sent");
  expect(e, sum_keys(m, "bulk.channel", ".data_packets") == sent,
         "per-channel data packets do not add up to TCP packets sent");
  expect(e, get(r.obs, "transport.tcp.retransmissions") <= sent,
         "more retransmissions than packets sent");
  check_packet_conservation(r, e);
}

void check_video(const ExpandedRun& run, const RunResult& r, Errors& e) {
  const auto& m = r.metrics;
  const double decoded = get(m, "video.frames_decoded");
  // Frames are captured at t = 0 .. duration inclusive; a frame whose
  // base layer never arrives is never decoded.
  const double dur_s = run.spec.video.duration_s >= 0
                           ? run.spec.video.duration_s
                           : run.spec.duration_s;
  const double frames = std::floor(dur_s * run.spec.video.fps) + 1;
  expect(e, decoded > 0 && decoded <= frames,
         "frames decoded outside (0, frames captured]");
  expect(e, sum_keys(m, "video.decoded_at_layer", "") == decoded,
         "decoded-at-layer counts do not add up to frames decoded");
  expect(e, get(m, "video.latency_ms.count") == decoded,
         "frame latency sample count differs from frames decoded");
  expect(e, get(m, "video.frames_concealed") <= decoded,
         "more frames concealed than decoded");
  expect(e, get(r.obs, "app.video.frames_decoded") == decoded,
         "registry and session disagree on frames decoded");
  check_packet_conservation(r, e);
}

void check_web(const ExpandedRun& run, const RunResult& r, Errors& e) {
  const auto& m = r.metrics;
  const double loads = static_cast<double>(run.spec.web.pages) *
                       static_cast<double>(run.spec.web.loads_per_page);
  expect(e, get(m, "web.plt_ms.count") == loads,
         "PLT sample count differs from pages x loads");
  expect(e,
         get(r.obs, "app.web.pages_loaded") + get(m, "web.timeouts") == loads,
         "pages loaded + timeouts differs from pages x loads");
  expect(e, get(m, "web.plt_ms.min") > 0, "a page loaded in zero time");
  check_packet_conservation(r, e);
}

void check_city(const ExpandedRun& run, const RunResult& r, Errors& e) {
  const auto& m = r.metrics;
  expect(e,
         get(m, "city.users") ==
             static_cast<double>(run.spec.city.population.users),
         "city user count differs from the spec");
  expect(e,
         get(m, "city.departures") <=
             get(m, "city.arrivals") + get(m, "city.users"),
         "more departures than users ever present");
  expect(e, get(m, "city.events") > 0 && get(m, "city.pages") > 0,
         "the city cell ran no events or pages");
  expect(e, get(m, "city.spans_retained") <= get(m, "city.spans_offered"),
         "more spans retained than offered");
  if (run.spec.down_policy.name == "embb-only") {
    expect(e, get(m, "city.urllc_admitted") == 0,
           "embb-only admitted flows onto URLLC");
  }
}

}  // namespace

double sum_keys(const std::map<std::string, double>& m,
                const std::string& prefix, const std::string& suffix) {
  double total = 0;
  for (auto it = m.lower_bound(prefix);
       it != m.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    const std::string& k = it->first;
    if (k.size() >= suffix.size() &&
        k.compare(k.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += it->second;
    }
  }
  return total;
}

const std::vector<Workload>& workloads() {
  // Why each workload is here: README.md, "Workloads".
  static const std::vector<Workload> kAll = {
      {"bulk_cca", kBulkGrid, check_bulk},
      {"web_plt", kWebGrid, check_web},
      {"video_rt", kVideoGrid, check_video},
      {"city_pop", kCityGrid, check_city},
  };
  return kAll;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string grid_json(const Workload& w, std::uint64_t seed) {
  std::string text = w.grid;
  replace_all(text, "@SEED@", std::to_string(seed));
  return text;
}

Errors check_invariants(const Workload& w, const ExpandedRun& run,
                        const RunResult& result) {
  if (!result.error.empty()) return {"run failed: " + result.error};
  Errors errs;
  w.check(run, result, errs);
  return errs;
}

}  // namespace paperbench
