#include "exp/spec.hpp"

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

namespace hvc::exp {

namespace {

using obs::json::Value;

[[noreturn]] void fail(const std::string& path, const std::string& msg) {
  throw SpecError(path + ": " + msg);
}

const char* kind_name(Value::Kind k) {
  switch (k) {
    case Value::Kind::kNull: return "null";
    case Value::Kind::kBool: return "bool";
    case Value::Kind::kNumber: return "number";
    case Value::Kind::kString: return "string";
    case Value::Kind::kArray: return "array";
    case Value::Kind::kObject: return "object";
  }
  return "?";
}

/// Strict-mode guard: every key in `obj` must be in `allowed`.
void check_keys(const Value& obj, const std::string& path,
                std::initializer_list<const char*> allowed) {
  for (const auto& [key, unused] : obj.object) {
    bool known = false;
    for (const char* a : allowed) {
      if (key == a) {
        known = true;
        break;
      }
    }
    if (!known) fail(path.empty() ? key : path + "." + key, "unknown key");
  }
}

const Value& require_object(const Value& v, const std::string& path) {
  if (!v.is_object()) {
    fail(path, std::string("expected an object, got ") + kind_name(v.kind));
  }
  return v;
}

double get_number(const Value& obj, const std::string& path,
                  const std::string& key, double dflt) {
  const Value* v = obj.find(key);
  if (v == nullptr) return dflt;
  if (!v->is_number()) {
    fail(path + "." + key,
         std::string("expected a number, got ") + kind_name(v->kind));
  }
  return v->num;
}

std::int64_t get_int(const Value& obj, const std::string& path,
                     const std::string& key, std::int64_t dflt) {
  const double d = get_number(obj, path, key, static_cast<double>(dflt));
  // Range check first: casting an out-of-range double is undefined.
  if (!(d >= -0x1p63 && d < 0x1p63)) {
    fail(path + "." + key, "expected an integer in the int64 range");
  }
  const auto i = static_cast<std::int64_t>(d);
  if (static_cast<double>(i) != d) fail(path + "." + key, "expected an integer");
  return i;
}

/// A duration of `v` units, `ns_per_unit` ns each, must be finite and its
/// nanosecond count must fit sim::Duration: sim::seconds_f/milliseconds_f
/// would otherwise overflow into a garbage, often zero-length, run.
void require_fits_ns(double v, double ns_per_unit, const std::string& path) {
  if (!std::isfinite(v)) fail(path, "must be a finite number");
  const double ns = v * ns_per_unit;
  if (!(ns >= -0x1p63 && ns < 0x1p63)) {
    fail(path, "out of range: the simulated clock holds int64 ns (~292 years)");
  }
}

double get_seconds(const Value& obj, const std::string& path,
                   const std::string& key, double dflt) {
  const double v = get_number(obj, path, key, dflt);
  require_fits_ns(v, 1e9, path.empty() ? key : path + "." + key);
  return v;
}

double get_millis(const Value& obj, const std::string& path,
                  const std::string& key, double dflt) {
  const double v = get_number(obj, path, key, dflt);
  require_fits_ns(v, 1e6, path.empty() ? key : path + "." + key);
  return v;
}

bool get_bool(const Value& obj, const std::string& path,
              const std::string& key, bool dflt) {
  const Value* v = obj.find(key);
  if (v == nullptr) return dflt;
  if (v->kind != Value::Kind::kBool) {
    fail(path + "." + key,
         std::string("expected true/false, got ") + kind_name(v->kind));
  }
  return v->boolean;
}

std::string get_string(const Value& obj, const std::string& path,
                       const std::string& key, std::string dflt) {
  const Value* v = obj.find(key);
  if (v == nullptr) return dflt;
  if (!v->is_string()) {
    fail(path + "." + key,
         std::string("expected a string, got ") + kind_name(v->kind));
  }
  return v->str;
}

void require_positive(double v, const std::string& path) {
  if (!(v > 0)) fail(path, "must be > 0");
}

/// Largest accepted channel rate: 10x the fastest committed scenario
/// channel (1000 Mbps). A constant-rate trace holds one opportunity per
/// MTU-time, so at 250 B opportunities this cap is already 5 M of them
/// (40 MB) per one-second period.
constexpr double kMaxRateMbps = 10'000;

ChannelSpec parse_channel(const Value& v, const std::string& path) {
  require_object(v, path);
  check_keys(v, path,
             {"type", "profile", "rtt_ms", "rate_mbps", "duration_s", "seed"});
  ChannelSpec c;
  c.type = get_string(v, path, "type", c.type);
  static const std::set<std::string> kTypes = {
      "embb", "urllc", "5g", "tsn", "wifi", "cisp", "fiber", "leo"};
  if (!kTypes.contains(c.type)) {
    fail(path + ".type", "unknown channel type '" + c.type +
                             "' (embb|urllc|5g|tsn|wifi|cisp|fiber|leo)");
  }
  c.profile = get_string(v, path, "profile", c.profile);
  if (c.type == "5g") {
    static const std::set<std::string> kProfiles = {
        "lowband-stationary", "lowband-driving", "mmwave-driving"};
    if (!kProfiles.contains(c.profile)) {
      fail(path + ".profile",
           "5g channels need profile: lowband-stationary|lowband-driving|"
           "mmwave-driving (got '" +
               c.profile + "')");
    }
  } else if (!c.profile.empty()) {
    fail(path + ".profile", "only valid for type \"5g\"");
  }
  // Trace-driven channels take RTT and rate from their trace; the runner
  // would ignore an override.
  if (c.type == "5g" || c.type == "leo") {
    for (const char* key : {"rtt_ms", "rate_mbps"}) {
      if (v.find(key) != nullptr) {
        fail(path + "." + key, "not valid for trace-driven type \"" +
                                   c.type + "\"");
      }
    }
  }
  // Present means overridden: a negative value would otherwise fall back to
  // the factory default, and a zero rate fail deep in the trace layer.
  if (v.find("rtt_ms") != nullptr) {
    c.rtt_ms = get_millis(v, path, "rtt_ms", c.rtt_ms);
    if (!(c.rtt_ms >= 0)) fail(path + ".rtt_ms", "must be >= 0");
  }
  if (v.find("rate_mbps") != nullptr) {
    c.rate_mbps = get_number(v, path, "rate_mbps", c.rate_mbps);
    const std::string at = path + ".rate_mbps";
    require_positive(c.rate_mbps, at);  // also rejects -inf; +inf fails the cap
    if (c.rate_mbps > kMaxRateMbps) {
      fail(at, "must be <= " + obs::json::number(kMaxRateMbps) + " Mbps");
    }
  }
  c.duration_s = get_seconds(v, path, "duration_s", c.duration_s);
  c.seed = get_int(v, path, "seed", c.seed);
  return c;
}

PolicySpec parse_policy(const Value& v, const std::string& path) {
  PolicySpec p;
  if (v.is_string()) {
    p.name = v.str;
  } else if (v.is_object()) {
    check_keys(v, path,
               {"name", "preset", "cost_factor", "min_margin_ms",
                "max_queue_fill", "max_data_queue_fill", "queue_risk",
                "accelerate_control", "use_flow_priority"});
    p.name = get_string(v, path, "name", p.name);
    p.preset = get_string(v, path, "preset", p.preset);
    if (!p.preset.empty() && p.preset != "aggressive" &&
        p.preset != "web-tuned") {
      fail(path + ".preset", "expected aggressive|web-tuned");
    }
    p.cost_factor = get_number(v, path, "cost_factor", p.cost_factor);
    p.min_margin_ms = get_millis(v, path, "min_margin_ms", p.min_margin_ms);
    p.max_queue_fill = get_number(v, path, "max_queue_fill", p.max_queue_fill);
    p.max_data_queue_fill =
        get_number(v, path, "max_data_queue_fill", p.max_data_queue_fill);
    p.queue_risk = get_number(v, path, "queue_risk", p.queue_risk);
    if (const Value* b = v.find("accelerate_control")) {
      if (b->kind != Value::Kind::kBool) {
        fail(path + ".accelerate_control", "expected true/false");
      }
      p.accelerate_control = b->boolean ? 1 : 0;
    }
    if (const Value* b = v.find("use_flow_priority")) {
      if (b->kind != Value::Kind::kBool) {
        fail(path + ".use_flow_priority", "expected true/false");
      }
      p.use_flow_priority = b->boolean ? 1 : 0;
    }
  } else {
    fail(path, std::string("expected a policy name or object, got ") +
                   kind_name(v.kind));
  }
  static const std::set<std::string> kPolicies = {
      "embb-only", "urllc-only", "round-robin", "weighted",  "min-delay",
      "dchannel",  "dchannel+prio", "msg-priority", "redundant",
      "cost-aware", "flow-binding"};
  if (!kPolicies.contains(p.name)) {
    fail(path + (v.is_object() ? ".name" : ""),
         "unknown steering policy '" + p.name + "'");
  }
  const bool has_dchannel_knobs =
      !p.preset.empty() || p.cost_factor >= 0 || p.min_margin_ms >= 0 ||
      p.max_queue_fill >= 0 || p.max_data_queue_fill >= 0 ||
      p.queue_risk >= 0 || p.accelerate_control >= 0 ||
      p.use_flow_priority >= 0;
  if (has_dchannel_knobs && p.name != "dchannel" && p.name != "dchannel+prio") {
    fail(path, "policy parameters are only valid for the dchannel family");
  }
  return p;
}

WebSpec parse_web(const Value& v, const std::string& path) {
  require_object(v, path);
  check_keys(v, path,
             {"pages", "landing_fraction", "corpus_seed", "loads_per_page",
              "background_flows", "bg_upload_bytes", "bg_download_bytes",
              "bg_flow_priority", "per_load_timeout_s"});
  WebSpec w;
  w.pages = static_cast<int>(get_int(v, path, "pages", w.pages));
  if (w.pages <= 0) fail(path + ".pages", "must be > 0");
  w.landing_fraction =
      get_number(v, path, "landing_fraction", w.landing_fraction);
  if (w.landing_fraction < 0 || w.landing_fraction > 1) {
    fail(path + ".landing_fraction", "must be in [0, 1]");
  }
  w.corpus_seed = get_int(v, path, "corpus_seed", w.corpus_seed);
  w.loads_per_page =
      static_cast<int>(get_int(v, path, "loads_per_page", w.loads_per_page));
  if (w.loads_per_page <= 0) fail(path + ".loads_per_page", "must be > 0");
  w.background_flows =
      get_bool(v, path, "background_flows", w.background_flows);
  w.bg_upload_bytes = get_int(v, path, "bg_upload_bytes", w.bg_upload_bytes);
  w.bg_download_bytes =
      get_int(v, path, "bg_download_bytes", w.bg_download_bytes);
  w.bg_flow_priority =
      static_cast<int>(get_int(v, path, "bg_flow_priority", w.bg_flow_priority));
  w.per_load_timeout_s =
      get_seconds(v, path, "per_load_timeout_s", w.per_load_timeout_s);
  require_positive(w.per_load_timeout_s, path + ".per_load_timeout_s");
  return w;
}

VideoSpec parse_video(const Value& v, const std::string& path) {
  require_object(v, path);
  check_keys(v, path,
             {"duration_s", "drain_s", "fps", "layer_kbps",
              "keyframe_interval", "decode_wait_ms", "lookahead_frames",
              "encoder_seed", "receiver_seed"});
  VideoSpec s;
  s.duration_s = get_seconds(v, path, "duration_s", s.duration_s);
  s.drain_s = get_seconds(v, path, "drain_s", s.drain_s);
  if (s.drain_s < 0) fail(path + ".drain_s", "must be >= 0");
  s.fps = static_cast<int>(get_int(v, path, "fps", s.fps));
  if (s.fps <= 0) fail(path + ".fps", "must be > 0");
  if (const Value* arr = v.find("layer_kbps")) {
    if (!arr->is_array() || arr->array.empty()) {
      fail(path + ".layer_kbps", "expected a non-empty array of numbers");
    }
    s.layer_kbps.clear();
    for (std::size_t i = 0; i < arr->array.size(); ++i) {
      const Value& e = arr->array[i];
      if (!e.is_number() || e.num <= 0) {
        fail(path + ".layer_kbps." + std::to_string(i),
             "expected a positive number");
      }
      s.layer_kbps.push_back(e.num);
    }
  }
  s.keyframe_interval = static_cast<int>(
      get_int(v, path, "keyframe_interval", s.keyframe_interval));
  if (s.keyframe_interval <= 0) fail(path + ".keyframe_interval", "must be > 0");
  s.decode_wait_ms = get_millis(v, path, "decode_wait_ms", s.decode_wait_ms);
  if (s.decode_wait_ms < 0) fail(path + ".decode_wait_ms", "must be >= 0");
  s.lookahead_frames = static_cast<int>(
      get_int(v, path, "lookahead_frames", s.lookahead_frames));
  s.encoder_seed = get_int(v, path, "encoder_seed", s.encoder_seed);
  s.receiver_seed = get_int(v, path, "receiver_seed", s.receiver_seed);
  return s;
}

FaultSpec parse_fault(const Value& v, const std::string& path,
                      std::size_t num_channels) {
  require_object(v, path);
  check_keys(v, path,
             {"kind", "channel", "direction", "start_s", "duration_s",
              "rate_scale", "extra_delay_ms", "p_good_to_bad",
              "p_bad_to_good", "loss_in_bad", "loss_in_good", "seed",
              "period_s", "up_fraction"});
  FaultSpec f;
  f.kind = get_string(v, path, "kind", f.kind);
  static const std::set<std::string> kKinds = {
      "outage", "rate_cliff", "ge_burst", "delay_spike", "flap"};
  if (!kKinds.contains(f.kind)) {
    fail(path + ".kind",
         "unknown fault kind '" + f.kind +
             "' (outage|rate_cliff|ge_burst|delay_spike|flap)");
  }
  f.channel = get_int(v, path, "channel", f.channel);
  if (f.channel < 0 ||
      f.channel >= static_cast<std::int64_t>(num_channels)) {
    fail(path + ".channel",
         "out of range (scenario has " + std::to_string(num_channels) +
             " channels)");
  }
  f.direction = get_string(v, path, "direction", f.direction);
  if (f.direction != "down" && f.direction != "up" &&
      f.direction != "both") {
    fail(path + ".direction", "expected down|up|both");
  }
  f.start_s = get_seconds(v, path, "start_s", f.start_s);
  if (f.start_s < 0) fail(path + ".start_s", "must be >= 0");
  f.duration_s = get_seconds(v, path, "duration_s", f.duration_s);
  require_positive(f.duration_s, path + ".duration_s");
  // The runner schedules the episode's end at start + duration.
  require_fits_ns(f.start_s + f.duration_s, 1e9, path + ".duration_s");

  // Kind-specific knobs may only appear for their kind: a spec that sets
  // rate_scale on an outage is almost certainly a typo'd kind.
  const auto only_for = [&](const char* key, bool allowed,
                            const char* owner) {
    if (v.find(key) != nullptr && !allowed) {
      fail(path + "." + key,
           std::string("only valid for kind \"") + owner + "\"");
    }
  };
  only_for("rate_scale", f.kind == "rate_cliff", "rate_cliff");
  only_for("extra_delay_ms", f.kind == "delay_spike", "delay_spike");
  const bool ge = f.kind == "ge_burst";
  only_for("p_good_to_bad", ge, "ge_burst");
  only_for("p_bad_to_good", ge, "ge_burst");
  only_for("loss_in_bad", ge, "ge_burst");
  only_for("loss_in_good", ge, "ge_burst");
  const bool flap = f.kind == "flap";
  only_for("period_s", flap, "flap");
  only_for("up_fraction", flap, "flap");
  if (v.find("seed") != nullptr && !ge && !flap) {
    fail(path + ".seed", "only valid for kinds \"ge_burst\" and \"flap\"");
  }

  f.rate_scale = get_number(v, path, "rate_scale", f.rate_scale);
  if (f.kind == "rate_cliff" &&
      (f.rate_scale <= 0 || f.rate_scale >= 1)) {
    fail(path + ".rate_scale", "must be in (0, 1)");
  }
  f.extra_delay_ms = get_millis(v, path, "extra_delay_ms", f.extra_delay_ms);
  if (f.kind == "delay_spike") {
    require_positive(f.extra_delay_ms, path + ".extra_delay_ms");
  }
  f.p_good_to_bad = get_number(v, path, "p_good_to_bad", f.p_good_to_bad);
  f.p_bad_to_good = get_number(v, path, "p_bad_to_good", f.p_bad_to_good);
  f.loss_in_bad = get_number(v, path, "loss_in_bad", f.loss_in_bad);
  f.loss_in_good = get_number(v, path, "loss_in_good", f.loss_in_good);
  if (ge) {
    const auto prob = [&](double p, const char* key) {
      if (p < 0 || p > 1) fail(path + "." + key, "must be in [0, 1]");
    };
    prob(f.p_good_to_bad, "p_good_to_bad");
    prob(f.p_bad_to_good, "p_bad_to_good");
    prob(f.loss_in_bad, "loss_in_bad");
    prob(f.loss_in_good, "loss_in_good");
    if (f.p_good_to_bad <= 0 || f.loss_in_bad <= 0) {
      fail(path, "ge_burst needs p_good_to_bad > 0 and loss_in_bad > 0");
    }
  }
  f.seed = get_int(v, path, "seed", f.seed);
  if (f.seed < -1) fail(path + ".seed", "must be >= 0 (or -1 for default)");
  f.period_s = get_seconds(v, path, "period_s", f.period_s);
  if (flap) require_positive(f.period_s, path + ".period_s");
  f.up_fraction = get_number(v, path, "up_fraction", f.up_fraction);
  if (flap && (f.up_fraction <= 0 || f.up_fraction >= 1)) {
    fail(path + ".up_fraction", "must be in (0, 1)");
  }
  return f;
}

/// Same overlap rule FaultPlan::validate enforces, reported with JSON
/// paths: same-family windows (outage/flap both toggle availability) may
/// not overlap on the same channel + direction.
void check_fault_overlaps(const std::vector<FaultSpec>& faults,
                          const std::string& path) {
  const auto fault_family = [](const std::string& kind) {
    return (kind == "outage" || kind == "flap") ? std::string("availability")
                                                : kind;
  };
  const auto dirs_overlap = [](const std::string& a, const std::string& b) {
    return a == b || a == "both" || b == "both";
  };
  for (std::size_t i = 0; i < faults.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const FaultSpec& a = faults[j];
      const FaultSpec& b = faults[i];
      if (a.channel != b.channel) continue;
      if (!dirs_overlap(a.direction, b.direction)) continue;
      if (fault_family(a.kind) != fault_family(b.kind)) continue;
      if (b.start_s < a.start_s + a.duration_s &&
          a.start_s < b.start_s + b.duration_s) {
        fail(path + "." + std::to_string(i),
             "overlaps " + path + "." + std::to_string(j) + " (" + a.kind +
                 " on channel " + std::to_string(a.channel) + ")");
      }
    }
  }
}

CitySpec parse_city(const Value& v, const std::string& path) {
  require_object(v, path);
  check_keys(v, path,
             {"users", "mix", "web", "video", "background", "churn", "steer"});
  CitySpec c;
  pop::PopulationSpec& p = c.population;
  p.users = get_int(v, path, "users", p.users);
  if (p.users < 0) fail(path + ".users", "must be >= 0");
  if (const Value* m = v.find("mix")) {
    const std::string mp = path + ".mix";
    require_object(*m, mp);
    check_keys(*m, mp, {"web", "video", "background"});
    p.mix.web = get_number(*m, mp, "web", p.mix.web);
    p.mix.video = get_number(*m, mp, "video", p.mix.video);
    p.mix.background = get_number(*m, mp, "background", p.mix.background);
    if (p.mix.web < 0 || p.mix.video < 0 || p.mix.background < 0) {
      fail(mp, "weights must be >= 0");
    }
    if (!(p.mix.web + p.mix.video + p.mix.background > 0)) {
      fail(mp, "weights must sum > 0");
    }
  }
  if (const Value* w = v.find("web")) {
    const std::string wp = path + ".web";
    require_object(*w, wp);
    check_keys(*w, wp,
               {"think_time_s", "min_levels", "max_levels", "min_objects",
                "max_objects", "html_min_bytes", "html_max_bytes",
                "object_xm_bytes", "object_alpha", "object_cap_bytes"});
    p.web.think_time_s =
        get_seconds(*w, wp, "think_time_s", p.web.think_time_s);
    require_positive(p.web.think_time_s, wp + ".think_time_s");
    p.web.min_levels =
        static_cast<int>(get_int(*w, wp, "min_levels", p.web.min_levels));
    p.web.max_levels =
        static_cast<int>(get_int(*w, wp, "max_levels", p.web.max_levels));
    if (p.web.min_levels < 1 || p.web.max_levels < p.web.min_levels) {
      fail(wp, "levels must satisfy 1 <= min_levels <= max_levels");
    }
    p.web.min_objects =
        static_cast<int>(get_int(*w, wp, "min_objects", p.web.min_objects));
    p.web.max_objects =
        static_cast<int>(get_int(*w, wp, "max_objects", p.web.max_objects));
    if (p.web.min_objects < 1 || p.web.max_objects < p.web.min_objects) {
      fail(wp, "objects must satisfy 1 <= min_objects <= max_objects");
    }
    p.web.html_min_bytes =
        get_number(*w, wp, "html_min_bytes", p.web.html_min_bytes);
    p.web.html_max_bytes =
        get_number(*w, wp, "html_max_bytes", p.web.html_max_bytes);
    if (!(p.web.html_min_bytes > 0) ||
        p.web.html_max_bytes < p.web.html_min_bytes) {
      fail(wp, "html byte range invalid");
    }
    p.web.object_xm_bytes =
        get_number(*w, wp, "object_xm_bytes", p.web.object_xm_bytes);
    require_positive(p.web.object_xm_bytes, wp + ".object_xm_bytes");
    p.web.object_alpha = get_number(*w, wp, "object_alpha", p.web.object_alpha);
    require_positive(p.web.object_alpha, wp + ".object_alpha");
    p.web.object_cap_bytes =
        get_number(*w, wp, "object_cap_bytes", p.web.object_cap_bytes);
    if (p.web.object_cap_bytes < p.web.object_xm_bytes) {
      fail(wp + ".object_cap_bytes", "must be >= object_xm_bytes");
    }
  }
  if (const Value* vid = v.find("video")) {
    const std::string vp = path + ".video";
    require_object(*vid, vp);
    check_keys(*vid, vp, {"chunk_s", "kbps"});
    p.video.chunk_s = get_seconds(*vid, vp, "chunk_s", p.video.chunk_s);
    require_positive(p.video.chunk_s, vp + ".chunk_s");
    p.video.kbps = get_number(*vid, vp, "kbps", p.video.kbps);
    require_positive(p.video.kbps, vp + ".kbps");
  }
  if (const Value* bg = v.find("background")) {
    const std::string bp = path + ".background";
    require_object(*bg, bp);
    check_keys(*bg, bp, {"period_s", "xm_bytes", "alpha", "cap_bytes"});
    p.background.period_s = get_seconds(*bg, bp, "period_s",
                                       p.background.period_s);
    require_positive(p.background.period_s, bp + ".period_s");
    p.background.xm_bytes =
        get_number(*bg, bp, "xm_bytes", p.background.xm_bytes);
    require_positive(p.background.xm_bytes, bp + ".xm_bytes");
    p.background.alpha = get_number(*bg, bp, "alpha", p.background.alpha);
    require_positive(p.background.alpha, bp + ".alpha");
    p.background.cap_bytes =
        get_number(*bg, bp, "cap_bytes", p.background.cap_bytes);
    if (p.background.cap_bytes < p.background.xm_bytes) {
      fail(bp + ".cap_bytes", "must be >= xm_bytes");
    }
  }
  if (const Value* ch = v.find("churn")) {
    const std::string cp = path + ".churn";
    require_object(*ch, cp);
    check_keys(*ch, cp, {"arrival_rate_per_s", "mean_session_s"});
    p.churn.arrival_rate_per_s =
        get_number(*ch, cp, "arrival_rate_per_s", p.churn.arrival_rate_per_s);
    if (p.churn.arrival_rate_per_s < 0) {
      fail(cp + ".arrival_rate_per_s", "must be >= 0");
    }
    p.churn.mean_session_s =
        get_seconds(*ch, cp, "mean_session_s", p.churn.mean_session_s);
    if (p.churn.mean_session_s < 0) {
      fail(cp + ".mean_session_s", "must be >= 0");
    }
  }
  if (const Value* st = v.find("steer")) {
    const std::string sp = path + ".steer";
    require_object(*st, sp);
    check_keys(*st, sp, {"enabled", "delay_bound_ms", "max_bytes"});
    p.steer.enabled = get_bool(*st, sp, "enabled", p.steer.enabled);
    p.steer.delay_bound_ms =
        get_millis(*st, sp, "delay_bound_ms", p.steer.delay_bound_ms);
    require_positive(p.steer.delay_bound_ms, sp + ".delay_bound_ms");
    p.steer.max_bytes = get_number(*st, sp, "max_bytes", p.steer.max_bytes);
    if (p.steer.max_bytes < 0) fail(sp + ".max_bytes", "must be >= 0");
  }
  // Backstop: anything the path-qualified checks above missed surfaces
  // with the block's path rather than a bare invalid_argument.
  try {
    p.validate();
  } catch (const std::invalid_argument& e) {
    fail(path, e.what());
  }
  return c;
}

TelemetrySpec parse_telemetry(const Value& v, const std::string& path) {
  require_object(v, path);
  check_keys(v, path,
             {"enabled", "period_ms", "series", "audit", "max_samples",
              "max_series", "audit_capacity", "out_prefix"});
  TelemetrySpec t;
  t.enabled = get_bool(v, path, "enabled", true);  // presence = opt-in
  t.period_ms = get_millis(v, path, "period_ms", t.period_ms);
  require_positive(t.period_ms, path + ".period_ms");
  if (const Value* arr = v.find("series")) {
    if (!arr->is_array()) {
      fail(path + ".series", "expected an array of probe-group names");
    }
    static const std::set<std::string> kGroups = {
        "channel", "link", "steer", "transport", "fault", "pop"};
    for (std::size_t i = 0; i < arr->array.size(); ++i) {
      const Value& e = arr->array[i];
      if (!e.is_string() || !kGroups.contains(e.str)) {
        fail(path + ".series." + std::to_string(i),
             "expected channel|link|steer|transport|fault|pop");
      }
      t.series.push_back(e.str);
    }
  }
  t.audit = get_bool(v, path, "audit", t.audit);
  t.max_samples = get_int(v, path, "max_samples", t.max_samples);
  if (t.max_samples <= 0) fail(path + ".max_samples", "must be > 0");
  t.max_series = get_int(v, path, "max_series", t.max_series);
  if (t.max_series <= 0) fail(path + ".max_series", "must be > 0");
  t.audit_capacity = get_int(v, path, "audit_capacity", t.audit_capacity);
  if (t.audit_capacity <= 0) fail(path + ".audit_capacity", "must be > 0");
  t.out_prefix = get_string(v, path, "out_prefix", t.out_prefix);
  return t;
}

SpansSpec parse_spans(const Value& v, const std::string& path) {
  require_object(v, path);
  check_keys(v, path,
             {"enabled", "tail_quantile", "tail_budget", "reservoir_budget",
              "reservoir_period", "warmup"});
  SpansSpec s;
  s.enabled = get_bool(v, path, "enabled", true);  // presence = opt-in
  s.tail_quantile = get_number(v, path, "tail_quantile", s.tail_quantile);
  if (s.tail_quantile < 0 || s.tail_quantile > 100) {
    fail(path + ".tail_quantile", "must be in [0, 100]");
  }
  s.tail_budget = get_int(v, path, "tail_budget", s.tail_budget);
  if (s.tail_budget < 0) fail(path + ".tail_budget", "must be >= 0");
  s.reservoir_budget =
      get_int(v, path, "reservoir_budget", s.reservoir_budget);
  if (s.reservoir_budget < 0) {
    fail(path + ".reservoir_budget", "must be >= 0");
  }
  s.reservoir_period =
      get_int(v, path, "reservoir_period", s.reservoir_period);
  if (s.reservoir_period <= 0) {
    fail(path + ".reservoir_period", "must be > 0");
  }
  s.warmup = get_int(v, path, "warmup", s.warmup);
  if (s.warmup < 0) fail(path + ".warmup", "must be >= 0");
  return s;
}

std::string policy_json(const PolicySpec& p) {
  using obs::json::number;
  using obs::json::quote;
  std::string out = "{\"name\":" + quote(p.name);
  if (!p.preset.empty()) out += ",\"preset\":" + quote(p.preset);
  if (p.cost_factor >= 0) out += ",\"cost_factor\":" + number(p.cost_factor);
  if (p.min_margin_ms >= 0) {
    out += ",\"min_margin_ms\":" + number(p.min_margin_ms);
  }
  if (p.max_queue_fill >= 0) {
    out += ",\"max_queue_fill\":" + number(p.max_queue_fill);
  }
  if (p.max_data_queue_fill >= 0) {
    out += ",\"max_data_queue_fill\":" + number(p.max_data_queue_fill);
  }
  if (p.queue_risk >= 0) out += ",\"queue_risk\":" + number(p.queue_risk);
  if (p.accelerate_control >= 0) {
    out += std::string(",\"accelerate_control\":") +
           (p.accelerate_control != 0 ? "true" : "false");
  }
  if (p.use_flow_priority >= 0) {
    out += std::string(",\"use_flow_priority\":") +
           (p.use_flow_priority != 0 ? "true" : "false");
  }
  out += '}';
  return out;
}

}  // namespace

std::string PolicySpec::label() const {
  if (name == "dchannel+prio") return name;
  if (name == "dchannel" && use_flow_priority > 0) return "dchannel+prio";
  return name;
}

ScenarioSpec ScenarioSpec::from_json(const obs::json::Value& v) {
  require_object(v, "scenario");
  check_keys(v, "",
             {"name", "workload", "duration_s", "seed", "cca", "channels",
              "policy", "up_policy", "down_policy", "resequence_hold_ms",
              "web", "video", "bulk", "city", "faults", "telemetry",
              "spans"});
  ScenarioSpec s;
  s.name = get_string(v, "", "name", s.name);
  s.workload = get_string(v, "", "workload", s.workload);
  if (s.workload != "bulk" && s.workload != "video" && s.workload != "web" &&
      s.workload != "city") {
    fail("workload",
         "expected bulk|video|web|city (got '" + s.workload + "')");
  }
  s.duration_s = get_seconds(v, "", "duration_s", s.duration_s);
  require_positive(s.duration_s, "duration_s");
  const std::int64_t seed = get_int(v, "", "seed", static_cast<std::int64_t>(s.seed));
  if (seed < 0) fail("seed", "must be >= 0");
  s.seed = static_cast<std::uint64_t>(seed);
  s.cca = get_string(v, "", "cca", s.cca);
  static const std::set<std::string> kCcas = {"cubic", "bbr", "vegas",
                                             "vivace", "hvc"};
  if (!kCcas.contains(s.cca)) {
    fail("cca", "unknown CCA '" + s.cca + "' (cubic|bbr|vegas|vivace|hvc)");
  }
  if (const Value* channels = v.find("channels")) {
    if (!channels->is_array() || channels->array.empty()) {
      fail("channels", "expected a non-empty array");
    }
    for (std::size_t i = 0; i < channels->array.size(); ++i) {
      s.channels.push_back(parse_channel(channels->array[i],
                                         "channels." + std::to_string(i)));
    }
  } else {
    ChannelSpec embb;
    embb.type = "embb";
    ChannelSpec urllc;
    urllc.type = "urllc";
    s.channels.push_back(embb);
    s.channels.push_back(urllc);
  }
  if (const Value* p = v.find("policy")) {
    s.up_policy = parse_policy(*p, "policy");
    s.down_policy = s.up_policy;
  }
  if (const Value* p = v.find("up_policy")) {
    s.up_policy = parse_policy(*p, "up_policy");
  }
  if (const Value* p = v.find("down_policy")) {
    s.down_policy = parse_policy(*p, "down_policy");
  }
  s.resequence_hold_ms =
      get_millis(v, "", "resequence_hold_ms", s.resequence_hold_ms);
  if (s.resequence_hold_ms < 0) fail("resequence_hold_ms", "must be >= 0");
  if (const Value* w = v.find("web")) s.web = parse_web(*w, "web");
  if (const Value* vid = v.find("video")) s.video = parse_video(*vid, "video");
  if (const Value* b = v.find("bulk")) {
    require_object(*b, "bulk");
    check_keys(*b, "bulk", {"duration_s"});
    s.bulk.duration_s =
        get_seconds(*b, "bulk", "duration_s", s.bulk.duration_s);
  }
  if (const Value* c = v.find("city")) s.city = parse_city(*c, "city");
  if (const Value* faults = v.find("faults")) {
    if (!faults->is_array()) {
      fail("faults", "expected an array of fault objects");
    }
    for (std::size_t i = 0; i < faults->array.size(); ++i) {
      s.faults.push_back(parse_fault(faults->array[i],
                                     "faults." + std::to_string(i),
                                     s.channels.size()));
    }
    check_fault_overlaps(s.faults, "faults");
  }
  if (const Value* t = v.find("telemetry")) {
    s.telemetry = parse_telemetry(*t, "telemetry");
  }
  if (const Value* sp = v.find("spans")) {
    s.spans = parse_spans(*sp, "spans");
  }
  return s;
}

ScenarioSpec ScenarioSpec::from_json_text(std::string_view text) {
  obs::json::Value v;
  if (!obs::json::parse(text, &v)) {
    throw SpecError(
        "scenario: malformed JSON (syntax error, or over " +
        std::to_string(obs::json::Parser::kMaxDepth) + " levels deep)");
  }
  return from_json(v);
}

ScenarioSpec ScenarioSpec::from_file(const std::string& path) {
  const std::string text = read_file(path);  // error already carries path
  try {
    return from_json_text(text);
  } catch (const SpecError& e) {
    throw SpecError(path + ": " + e.what());
  }
}

std::string ScenarioSpec::to_json() const {
  using obs::json::number;
  using obs::json::quote;
  std::string out = "{";
  out += "\"name\":" + quote(name);
  out += ",\"workload\":" + quote(workload);
  out += ",\"duration_s\":" + number(duration_s);
  out += ",\"seed\":" + number(static_cast<std::uint64_t>(seed));
  out += ",\"cca\":" + quote(cca);
  out += ",\"channels\":[";
  for (std::size_t i = 0; i < channels.size(); ++i) {
    const ChannelSpec& c = channels[i];
    if (i > 0) out += ',';
    out += "{\"type\":" + quote(c.type);
    if (!c.profile.empty()) out += ",\"profile\":" + quote(c.profile);
    if (c.rtt_ms >= 0) out += ",\"rtt_ms\":" + number(c.rtt_ms);
    if (c.rate_mbps >= 0) out += ",\"rate_mbps\":" + number(c.rate_mbps);
    if (c.duration_s >= 0) out += ",\"duration_s\":" + number(c.duration_s);
    if (c.seed >= 0) out += ",\"seed\":" + number(c.seed);
    out += '}';
  }
  out += "],\"up_policy\":" + policy_json(up_policy);
  out += ",\"down_policy\":" + policy_json(down_policy);
  if (resequence_hold_ms > 0) {
    out += ",\"resequence_hold_ms\":" + number(resequence_hold_ms);
  }
  if (workload == "web") {
    out += ",\"web\":{";
    out += "\"pages\":" + number(static_cast<std::int64_t>(web.pages));
    out += ",\"landing_fraction\":" + number(web.landing_fraction);
    out += ",\"corpus_seed\":" + number(web.corpus_seed);
    out += ",\"loads_per_page\":" +
           number(static_cast<std::int64_t>(web.loads_per_page));
    out += std::string(",\"background_flows\":") +
           (web.background_flows ? "true" : "false");
    out += ",\"bg_upload_bytes\":" + number(web.bg_upload_bytes);
    out += ",\"bg_download_bytes\":" + number(web.bg_download_bytes);
    out += ",\"bg_flow_priority\":" +
           number(static_cast<std::int64_t>(web.bg_flow_priority));
    out += ",\"per_load_timeout_s\":" + number(web.per_load_timeout_s);
    out += '}';
  } else if (workload == "video") {
    out += ",\"video\":{";
    if (video.duration_s >= 0) {
      out += "\"duration_s\":" + number(video.duration_s) + ",";
    }
    out += "\"drain_s\":" + number(video.drain_s);
    out += ",\"fps\":" + number(static_cast<std::int64_t>(video.fps));
    out += ",\"layer_kbps\":[";
    for (std::size_t i = 0; i < video.layer_kbps.size(); ++i) {
      if (i > 0) out += ',';
      out += number(video.layer_kbps[i]);
    }
    out += "],\"keyframe_interval\":" +
           number(static_cast<std::int64_t>(video.keyframe_interval));
    out += ",\"decode_wait_ms\":" + number(video.decode_wait_ms);
    out += ",\"lookahead_frames\":" +
           number(static_cast<std::int64_t>(video.lookahead_frames));
    out += ",\"encoder_seed\":" + number(video.encoder_seed);
    out += ",\"receiver_seed\":" + number(video.receiver_seed);
    out += '}';
  } else if (workload == "bulk" && bulk.duration_s >= 0) {
    out += ",\"bulk\":{\"duration_s\":" + number(bulk.duration_s) + "}";
  } else if (workload == "city") {
    const pop::PopulationSpec& p = city.population;
    out += ",\"city\":{";
    out += "\"users\":" + number(p.users);
    out += ",\"mix\":{\"web\":" + number(p.mix.web);
    out += ",\"video\":" + number(p.mix.video);
    out += ",\"background\":" + number(p.mix.background) + "}";
    out += ",\"web\":{\"think_time_s\":" + number(p.web.think_time_s);
    out += ",\"min_levels\":" +
           number(static_cast<std::int64_t>(p.web.min_levels));
    out += ",\"max_levels\":" +
           number(static_cast<std::int64_t>(p.web.max_levels));
    out += ",\"min_objects\":" +
           number(static_cast<std::int64_t>(p.web.min_objects));
    out += ",\"max_objects\":" +
           number(static_cast<std::int64_t>(p.web.max_objects));
    out += ",\"html_min_bytes\":" + number(p.web.html_min_bytes);
    out += ",\"html_max_bytes\":" + number(p.web.html_max_bytes);
    out += ",\"object_xm_bytes\":" + number(p.web.object_xm_bytes);
    out += ",\"object_alpha\":" + number(p.web.object_alpha);
    out += ",\"object_cap_bytes\":" + number(p.web.object_cap_bytes) + "}";
    out += ",\"video\":{\"chunk_s\":" + number(p.video.chunk_s);
    out += ",\"kbps\":" + number(p.video.kbps) + "}";
    out += ",\"background\":{\"period_s\":" + number(p.background.period_s);
    out += ",\"xm_bytes\":" + number(p.background.xm_bytes);
    out += ",\"alpha\":" + number(p.background.alpha);
    out += ",\"cap_bytes\":" + number(p.background.cap_bytes) + "}";
    out += ",\"churn\":{\"arrival_rate_per_s\":" +
           number(p.churn.arrival_rate_per_s);
    out += ",\"mean_session_s\":" + number(p.churn.mean_session_s) + "}";
    out += std::string(",\"steer\":{\"enabled\":") +
           (p.steer.enabled ? "true" : "false");
    out += ",\"delay_bound_ms\":" + number(p.steer.delay_bound_ms);
    out += ",\"max_bytes\":" + number(p.steer.max_bytes) + "}";
    out += '}';
  }
  if (!faults.empty()) {
    out += ",\"faults\":[";
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const FaultSpec& f = faults[i];
      if (i > 0) out += ',';
      out += "{\"kind\":" + quote(f.kind);
      out += ",\"channel\":" + number(f.channel);
      if (f.direction != "both") {
        out += ",\"direction\":" + quote(f.direction);
      }
      out += ",\"start_s\":" + number(f.start_s);
      out += ",\"duration_s\":" + number(f.duration_s);
      // Kind-specific knobs only (the parser rejects foreign ones).
      if (f.kind == "rate_cliff") {
        out += ",\"rate_scale\":" + number(f.rate_scale);
      } else if (f.kind == "delay_spike") {
        out += ",\"extra_delay_ms\":" + number(f.extra_delay_ms);
      } else if (f.kind == "ge_burst") {
        out += ",\"p_good_to_bad\":" + number(f.p_good_to_bad);
        out += ",\"p_bad_to_good\":" + number(f.p_bad_to_good);
        out += ",\"loss_in_bad\":" + number(f.loss_in_bad);
        out += ",\"loss_in_good\":" + number(f.loss_in_good);
        if (f.seed >= 0) out += ",\"seed\":" + number(f.seed);
      } else if (f.kind == "flap") {
        out += ",\"period_s\":" + number(f.period_s);
        out += ",\"up_fraction\":" + number(f.up_fraction);
        if (f.seed >= 0) out += ",\"seed\":" + number(f.seed);
      }
      out += '}';
    }
    out += ']';
  }
  static const TelemetrySpec kTelemetryDefaults;
  if (!(telemetry == kTelemetryDefaults)) {
    out += ",\"telemetry\":{";
    out += std::string("\"enabled\":") + (telemetry.enabled ? "true" : "false");
    out += ",\"period_ms\":" + number(telemetry.period_ms);
    if (!telemetry.series.empty()) {
      out += ",\"series\":[";
      for (std::size_t i = 0; i < telemetry.series.size(); ++i) {
        if (i > 0) out += ',';
        out += quote(telemetry.series[i]);
      }
      out += ']';
    }
    out += std::string(",\"audit\":") + (telemetry.audit ? "true" : "false");
    if (telemetry.max_samples != kTelemetryDefaults.max_samples) {
      out += ",\"max_samples\":" + number(telemetry.max_samples);
    }
    if (telemetry.max_series != kTelemetryDefaults.max_series) {
      out += ",\"max_series\":" + number(telemetry.max_series);
    }
    if (telemetry.audit_capacity != kTelemetryDefaults.audit_capacity) {
      out += ",\"audit_capacity\":" + number(telemetry.audit_capacity);
    }
    if (!telemetry.out_prefix.empty()) {
      out += ",\"out_prefix\":" + quote(telemetry.out_prefix);
    }
    out += '}';
  }
  static const SpansSpec kSpansDefaults;
  if (!(spans == kSpansDefaults)) {
    out += ",\"spans\":{";
    out += std::string("\"enabled\":") + (spans.enabled ? "true" : "false");
    out += ",\"tail_quantile\":" + number(spans.tail_quantile);
    if (spans.tail_budget != kSpansDefaults.tail_budget) {
      out += ",\"tail_budget\":" + number(spans.tail_budget);
    }
    if (spans.reservoir_budget != kSpansDefaults.reservoir_budget) {
      out += ",\"reservoir_budget\":" + number(spans.reservoir_budget);
    }
    if (spans.reservoir_period != kSpansDefaults.reservoir_period) {
      out += ",\"reservoir_period\":" + number(spans.reservoir_period);
    }
    if (spans.warmup != kSpansDefaults.warmup) {
      out += ",\"warmup\":" + number(spans.warmup);
    }
    out += '}';
  }
  out += '}';
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SpecError(path + ": cannot open file");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace hvc::exp
