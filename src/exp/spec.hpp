// Declarative experiment specs — the JSON surface of the scenario engine.
//
// A ScenarioSpec names everything one experiment needs: the channel set
// (profiles or synthetic traces), the steering policy and its parameters,
// the transport CCA, the application workload and its knobs, duration and
// seeds. specs parse with the in-repo obs::json parser (no external
// dependency), validate strictly (unknown keys and out-of-range values
// are errors, reported with their JSON path), and round-trip through
// to_json() so tools can record exactly what ran.
//
// The mapping from spec fields onto the src/channel, src/steer,
// src/transport and src/app factories lives in runner.cpp; this header is
// pure data.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "pop/spec.hpp"

namespace hvc::exp {

/// Malformed or invalid scenario/sweep JSON. what() carries a
/// "<json path>: <problem>" message suitable for CLI error output.
class SpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One virtual channel. `type` selects the factory in channel/profile.hpp:
///   "embb"   constant-rate eMBB        "urllc"  3GPP URLLC
///   "5g"     trace-driven eMBB (requires `profile`: lowband-stationary |
///            lowband-driving | mmwave-driving)
///   "tsn"    Wi-Fi TSN slice           "wifi"   contended Wi-Fi
///   "cisp"   priced microwave WAN      "fiber"  terrestrial fiber
///   "leo"    LEO satellite
/// Negative numeric fields mean "use the factory default"; a `rate_mbps`
/// given in the JSON must be finite and in (0, 10000], an `rtt_ms` >= 0,
/// and neither is accepted on the trace-driven "5g" and "leo" types.
struct ChannelSpec {
  std::string type = "embb";
  std::string profile;        ///< 5g only
  double rtt_ms = -1;
  double rate_mbps = -1;
  double duration_s = -1;     ///< trace horizon (5g/leo); -1 = scenario's
  std::int64_t seed = -1;     ///< trace seed (5g/leo); -1 = scenario's
};

/// Steering policy. `name` accepts every core::make_policy() name; for
/// the DChannel family, `preset` ("aggressive" | "web-tuned") picks a
/// DChannelConfig baseline and the numeric fields override individual
/// knobs (negative / -1 = keep the preset's value).
struct PolicySpec {
  std::string name = "dchannel";
  std::string preset;
  double cost_factor = -1;
  double min_margin_ms = -1;
  double max_queue_fill = -1;
  double max_data_queue_fill = -1;
  double queue_risk = -1;
  int accelerate_control = -1;  ///< tri-state: -1 default / 0 / 1
  int use_flow_priority = -1;   ///< tri-state

  /// Human-readable scheme label for tables/CSV ("dchannel+prio" style).
  [[nodiscard]] std::string label() const;
};

/// Table 1-style web workload (core::run_web).
struct WebSpec {
  int pages = 30;
  double landing_fraction = 0.5;
  std::int64_t corpus_seed = 2023;
  int loads_per_page = 5;
  bool background_flows = true;
  std::int64_t bg_upload_bytes = 5 * 1000;
  std::int64_t bg_download_bytes = 10 * 1000;
  int bg_flow_priority = 1;
  double per_load_timeout_s = 60;
};

/// Fig. 2-style real-time SVC video workload (core::run_video).
struct VideoSpec {
  double duration_s = -1;       ///< -1 = scenario duration
  double drain_s = 12;          ///< post-run drain for late frames
  int fps = 30;
  std::vector<double> layer_kbps = {400, 4100, 7500};
  int keyframe_interval = 30;
  double decode_wait_ms = 60;
  int lookahead_frames = 2;
  std::int64_t encoder_seed = 17;
  std::int64_t receiver_seed = 23;
};

/// Fig. 1-style bulk download (core::run_bulk).
struct BulkSpec {
  double duration_s = -1;       ///< -1 = scenario duration
};

/// City-cell population workload (pop::run_city): 10⁴–10⁶ archetype-mixed
/// users on a flow-level shared cell with O(1)-memory streaming
/// statistics. The cell itself comes from the scenario's channel list
/// (first "embb" = shared link, first "urllc" = scarce steering pool);
/// duration and seed come from the scenario. Runs with an "embb-only"
/// policy disable URLLC steering.
struct CitySpec {
  pop::PopulationSpec population;
};

/// One injected disruption episode (src/fault). `kind` picks the fault
/// and which kind-specific knobs apply — supplying another kind's knob is
/// an error, so specs can't silently carry dead parameters:
///   "outage"       full blackout of the link(s) for the window
///   "rate_cliff"   capacity drops to `rate_scale` (handover cliff)
///   "ge_burst"     Gilbert-Elliott burst-loss episode (p_good_to_bad,
///                  p_bad_to_good, loss_in_bad, loss_in_good, seed)
///   "delay_spike"  `extra_delay_ms` added to propagation delay
///   "flap"         down/up toggling every `period_s`, up `up_fraction`
///                  of each period; `seed` >= 0 jitters the down spans
/// Windows of the same family (outage/flap share link availability) may
/// not overlap on the same channel+direction.
struct FaultSpec {
  std::string kind = "outage";
  std::int64_t channel = 0;
  std::string direction = "both";  ///< "down" | "up" | "both"
  double start_s = 0;
  double duration_s = 1;
  double rate_scale = 0.1;         ///< rate_cliff only, (0, 1)
  double extra_delay_ms = 100;     ///< delay_spike only
  double p_good_to_bad = 0.05;     ///< ge_burst only
  double p_bad_to_good = 0.25;     ///< ge_burst only
  double loss_in_bad = 0.9;        ///< ge_burst only
  double loss_in_good = 0;         ///< ge_burst only
  /// ge_burst/flap RNG seed; -1 = derive from the scenario seed
  /// (ge_burst) / strictly periodic toggling (flap).
  std::int64_t seed = -1;
  double period_s = 0.5;           ///< flap only
  double up_fraction = 0.5;        ///< flap only

  bool operator==(const FaultSpec&) const = default;
};

/// Optional time-series telemetry and steering-decision audit
/// (obs/telemetry.hpp, obs/audit.hpp). The block's *presence* turns
/// sampling on (`enabled` defaults to true inside it, so `"telemetry":{}`
/// is the minimal opt-in); the runner writes `<prefix>.telemetry.jsonl`
/// and — with `audit` — `<prefix>.audit.jsonl` after the run.
struct TelemetrySpec {
  bool enabled = false;      ///< default-constructed == telemetry off
  double period_ms = 10;     ///< sim-time sampling period
  /// Probe groups to sample ("channel" | "link" | "steer" | "transport" |
  /// "fault"); empty = all groups.
  std::vector<std::string> series;
  bool audit = false;        ///< also record per-steer() audit log
  std::int64_t max_samples = 16384;    ///< ring capacity per series
  std::int64_t max_series = 512;       ///< series-count cap
  std::int64_t audit_capacity = 65536; ///< audit ring capacity
  std::string out_prefix;    ///< artifact path prefix; "" = scenario name

  bool operator==(const TelemetrySpec&) const = default;
};

/// Optional causal span tracing (obs/span.hpp). The block's presence
/// turns the recorder on (`enabled` defaults to true inside it, so
/// `"spans": {}` is the minimal opt-in); the runner writes
/// `<prefix>.spans.jsonl` after the run. Retention is tail-based: a
/// completed unit's full tree is kept when its sample lands at/above
/// `tail_quantile` of the live per-metric histogram (after `warmup`
/// samples), plus a deterministic counter-hash reservoir of normal
/// exemplars — cost is O(exemplars), never O(packets).
struct SpansSpec {
  bool enabled = false;          ///< default-constructed == spans off
  double tail_quantile = 95.0;
  std::int64_t tail_budget = 16;
  std::int64_t reservoir_budget = 8;
  std::int64_t reservoir_period = 64;
  std::int64_t warmup = 32;

  bool operator==(const SpansSpec&) const = default;
};

struct ScenarioSpec {
  std::string name = "scenario";
  std::string workload = "web";  ///< "bulk" | "video" | "web" | "city"
  double duration_s = 60;        ///< trace horizon & default run length
  std::uint64_t seed = 42;
  std::string cca = "cubic";     ///< bulk/web transports
  std::vector<ChannelSpec> channels;  ///< default: {embb, urllc}
  PolicySpec up_policy;
  PolicySpec down_policy;
  double resequence_hold_ms = 0;
  WebSpec web;
  VideoSpec video;
  BulkSpec bulk;
  CitySpec city;
  std::vector<FaultSpec> faults;  ///< injected disruptions; empty = none
  TelemetrySpec telemetry;
  SpansSpec spans;

  /// Parse + validate. Throw SpecError with a path-qualified message on
  /// any unknown key, wrong type, or out-of-range value.
  static ScenarioSpec from_json(const obs::json::Value& v);
  static ScenarioSpec from_json_text(std::string_view text);
  static ScenarioSpec from_file(const std::string& path);

  /// Canonical serialization (sorted keys); from_json(to_json(s)) == s.
  [[nodiscard]] std::string to_json() const;
};

/// Read a whole file; throws SpecError on I/O failure.
std::string read_file(const std::string& path);

}  // namespace hvc::exp
