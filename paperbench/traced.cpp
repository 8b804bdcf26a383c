#include "traced.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>
#include <span>
#include <stdexcept>

#include "app/web/page.hpp"
#include "core/scenario.hpp"
#include "exp/results.hpp"
#include "net/node.hpp"
#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "obs/tracer.hpp"
#include "pop/engine.hpp"
#include "sim/units.hpp"
#include "steer/steering_policy.hpp"
#include "transport/cca.hpp"
#include "transport/tcp.hpp"
#include "workloads.hpp"

namespace paperbench {

namespace prof = hvc::obs::prof;
namespace sim = hvc::sim;
using hvc::exp::RunResult;
using hvc::exp::ScenarioSpec;

std::string SpanRecorder::to_jsonl(double cycles_per_ns) const {
  std::string out;
  if (records_.empty()) return out;
  const std::uint64_t t0 = records_.front().start;
  auto ns = [&](std::uint64_t c) {
    return static_cast<long long>(static_cast<double>(c - t0) / cycles_per_ns);
  };
  char line[160];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const long long parent =
        r.parent == kNoParent ? -1 : static_cast<long long>(r.parent);
    std::snprintf(line, sizeof(line),
                  "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                  "\"end_ns\":%lld,\"parent\":%lld}\n",
                  i, kSpanNames[static_cast<std::size_t>(r.span)], ns(r.start),
                  ns(r.end), parent);
    out += line;
  }
  return out;
}

namespace {

/// The simulation-execution span: a sim.run span plus the obs::prof hook
/// deltas that accrue inside it.
class SimRun {
 public:
  explicit SimRun(Trace& t) : t_(t) {
    t_.rec.begin(Span::kSimRun);
    before_ = prof::thread_stats();
  }
  ~SimRun() {
    const prof::ThreadStats& after = prof::thread_stats();
    for (std::size_t h = 0; h < prof::kHookCount; ++h) {
      t_.hooks[h].calls += after.hooks[h].calls - before_.hooks[h].calls;
      t_.hooks[h].cycles += after.hooks[h].cycles - before_.hooks[h].cycles;
    }
    t_.alloc.allocs += after.alloc.allocs - before_.alloc.allocs;
    t_.alloc.alloc_bytes += after.alloc.alloc_bytes - before_.alloc.alloc_bytes;
    t_.alloc.frees += after.alloc.frees - before_.alloc.frees;
    t_.alloc.free_bytes += after.alloc.free_bytes - before_.alloc.free_bytes;
    t_.rec.end();
  }
  SimRun(const SimRun&) = delete;
  SimRun& operator=(const SimRun&) = delete;

 private:
  Trace& t_;
  prof::ThreadStats before_;
};

/// A per-call span that also books its cycles as outside the closure when
/// no sim.run span encloses it.
class LeafScope {
 public:
  LeafScope(Trace& t, Span s) : t_(t), s_(s) {
    inside_ = t_.rec.inside(Span::kSimRun);
    before_ = t_.rec.totals(s_).incl_cycles;
    t_.rec.begin(s_);
  }
  ~LeafScope() {
    t_.rec.end();
    if (!inside_) {
      t_.outside_run_cycles += t_.rec.totals(s_).incl_cycles - before_;
    }
  }
  LeafScope(const LeafScope&) = delete;
  LeafScope& operator=(const LeafScope&) = delete;

 private:
  Trace& t_;
  Span s_;
  bool inside_ = false;
  std::uint64_t before_ = 0;
};

class TimedPolicy final : public hvc::steer::SteeringPolicy {
 public:
  TimedPolicy(std::unique_ptr<hvc::steer::SteeringPolicy> inner, Trace& t)
      : inner_(std::move(inner)), t_(t) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool uses_app_info() const override {
    return inner_->uses_app_info();
  }
  [[nodiscard]] bool uses_flow_priority() const override {
    return inner_->uses_flow_priority();
  }
  hvc::steer::Decision steer(const hvc::net::Packet& pkt,
                             std::span<const hvc::steer::ChannelView> channels,
                             sim::Time now) override {
    const LeafScope s(t_, Span::kSteerPolicy);
    return inner_->steer(pkt, channels, now);
  }

 private:
  std::unique_ptr<hvc::steer::SteeringPolicy> inner_;
  Trace& t_;
};

class TimedCca final : public hvc::transport::CcAlgorithm {
 public:
  TimedCca(hvc::transport::CcaPtr inner, Trace& t)
      : inner_(std::move(inner)), t_(t) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void on_packet_sent(sim::Time now, std::int64_t bytes,
                      std::int64_t bytes_in_flight) override {
    const LeafScope s(t_, Span::kCca);
    inner_->on_packet_sent(now, bytes, bytes_in_flight);
  }
  void on_ack(const hvc::transport::AckEvent& ev) override {
    ++t_.cca_acks;
    const LeafScope s(t_, Span::kCca);
    inner_->on_ack(ev);
  }
  void on_loss(const hvc::transport::LossEvent& ev) override {
    const LeafScope s(t_, Span::kCca);
    inner_->on_loss(ev);
  }
  void on_spurious_loss(sim::Time now) override {
    const LeafScope s(t_, Span::kCca);
    inner_->on_spurious_loss(now);
  }
  [[nodiscard]] std::int64_t cwnd_bytes() const override {
    const LeafScope s(t_, Span::kCca);
    return inner_->cwnd_bytes();
  }
  [[nodiscard]] double pacing_rate_bps() const override {
    const LeafScope s(t_, Span::kCca);
    return inner_->pacing_rate_bps();
  }

 private:
  hvc::transport::CcaPtr inner_;
  Trace& t_;
};

hvc::core::PolicyFactory timed_factory(hvc::core::PolicyFactory base,
                                       const std::string& name, Trace& t) {
  return [base = std::move(base), name, &t] {
    auto inner = base ? base() : hvc::core::make_policy(name);
    return std::make_unique<TimedPolicy>(std::move(inner), t);
  };
}

// ---- Mirrors of exp/runner.cpp and core/scenario.cpp -------------------
// Kept in step with those files by the digest check in main.cpp: any
// drift changes the traced results' bytes.

void put_summary(std::map<std::string, double>& m, const std::string& prefix,
                 const sim::Summary& s) {
  m[prefix + ".mean"] = s.mean();
  m[prefix + ".p5"] = s.percentile(5);
  m[prefix + ".p25"] = s.percentile(25);
  m[prefix + ".p50"] = s.percentile(50);
  m[prefix + ".p75"] = s.percentile(75);
  m[prefix + ".p90"] = s.percentile(90);
  m[prefix + ".p95"] = s.percentile(95);
  m[prefix + ".p99"] = s.percentile(99);
  m[prefix + ".min"] = s.min();
  m[prefix + ".max"] = s.max();
  m[prefix + ".count"] = static_cast<double>(s.count());
}

void traced_bulk(const ScenarioSpec& spec, const hvc::core::ScenarioConfig& cfg,
                 std::map<std::string, double>& m, Trace& t) {
  const double dur_s =
      spec.bulk.duration_s >= 0 ? spec.bulk.duration_s : spec.duration_s;
  const sim::Duration duration = sim::seconds_f(dur_s);

  // core::run_bulk, with the CCA wrapped.
  hvc::core::Scenario sc(cfg);
  const auto flows = hvc::transport::make_flow_pair();
  hvc::transport::TcpSender sender(
      sc.server(), flows,
      std::make_unique<TimedCca>(hvc::transport::make_cca(spec.cca), t));
  hvc::transport::TcpReceiver receiver(sc.client(), flows);
  {
    const SimRun run(t);
    sender.write(sim::bytes_in(duration, sim::gbps(2)));
  }
  {
    const SimRun run(t);
    t.events += sc.sim().run_until(duration);
  }

  // exp::run_workload's bulk branch.
  m["bulk.goodput_mbps"] = sender.goodput_bps(0, duration) / 1e6;
  m["bulk.retransmissions"] =
      static_cast<double>(sender.stats().retransmissions);
  m["bulk.rto_count"] = static_cast<double>(sender.stats().rto_count);
  sim::Summary rtt;
  for (const auto& p : sender.stats().rtt_samples_ms.points()) {
    rtt.add(p.value);
  }
  put_summary(m, "bulk.rtt_ms", rtt);
  const auto& per_channel =
      sc.network().downlink_shim().stats().packets_per_channel;
  for (std::size_t i = 0; i < per_channel.size(); ++i) {
    m["bulk.channel" + std::to_string(i) + ".data_packets"] =
        static_cast<double>(per_channel[i]);
  }
}

void traced_video(const ScenarioSpec& spec,
                  const hvc::core::ScenarioConfig& cfg,
                  std::map<std::string, double>& m, Trace& t) {
  hvc::app::video::SvcConfig svc;
  svc.layer_bitrates.clear();
  for (const double kbps : spec.video.layer_kbps) {
    svc.layer_bitrates.push_back(
        static_cast<sim::RateBps>(kbps * 1000.0 + 0.5));
  }
  svc.fps = spec.video.fps;
  svc.keyframe_interval = spec.video.keyframe_interval;
  svc.seed = static_cast<std::uint64_t>(spec.video.encoder_seed);
  hvc::app::video::VideoReceiverConfig rx;
  rx.decode_wait = sim::milliseconds_f(spec.video.decode_wait_ms);
  rx.lookahead_frames = spec.video.lookahead_frames;
  rx.keyframe_interval = spec.video.keyframe_interval;
  rx.layers = static_cast<int>(spec.video.layer_kbps.size());
  rx.seed = static_cast<std::uint64_t>(spec.video.receiver_seed);
  const double dur_s =
      spec.video.duration_s >= 0 ? spec.video.duration_s : spec.duration_s;
  const sim::Duration duration = sim::seconds_f(dur_s);

  // core::run_video.
  hvc::core::Scenario sc(cfg);
  const auto flow = hvc::net::next_flow_id();
  hvc::app::video::VideoSender sender(sc.server(), flow, svc);
  hvc::app::video::VideoReceiver receiver(sc.client(), flow, sender, rx);
  {
    const SimRun run(t);
    sender.start(duration);
  }
  {
    const SimRun run(t);
    t.events += sc.sim().run_until(duration + sim::seconds(12));
  }
  const hvc::app::video::VideoStats& st = receiver.stats();

  put_summary(m, "video.latency_ms", st.latency_ms);
  put_summary(m, "video.ssim", st.ssim);
  m["video.frames_decoded"] = static_cast<double>(st.frames_decoded);
  m["video.frames_concealed"] = static_cast<double>(st.frames_concealed);
  for (std::size_t i = 0; i < st.decoded_at_layer.size(); ++i) {
    m["video.decoded_at_layer" + std::to_string(i)] =
        static_cast<double>(st.decoded_at_layer[i]);
  }
}

void traced_web(const ScenarioSpec& spec, const hvc::core::ScenarioConfig& cfg,
                std::map<std::string, double>& m, Trace& t) {
  std::vector<hvc::app::web::WebPage> corpus;
  {
    const Scope s(t.rec, Span::kCorpus);
    corpus = hvc::app::web::generate_corpus(
        {.pages = spec.web.pages,
         .landing_fraction = spec.web.landing_fraction,
         .seed = static_cast<std::uint64_t>(spec.web.corpus_seed)});
  }
  hvc::core::WebRunConfig web;
  web.loads_per_page = spec.web.loads_per_page;
  web.background_flows = spec.web.background_flows;
  web.bg_upload_bytes = spec.web.bg_upload_bytes;
  web.bg_download_bytes = spec.web.bg_download_bytes;
  web.bg_flow_priority = static_cast<std::uint8_t>(spec.web.bg_flow_priority);
  web.browser.transport.cca = spec.cca;
  web.per_load_timeout =
      sim::milliseconds_f(spec.web.per_load_timeout_s * 1000.0);

  // core::run_web.
  hvc::core::Scenario sc(cfg);
  sim::Summary plt_ms;
  sim::Summary per_page_mean_ms;
  int timeouts = 0;
  hvc::transport::TcpConfig bg_cfg = web.browser.transport;
  bg_cfg.flow_priority = web.bg_flow_priority;
  using hvc::app::web::BackgroundJsonFlow;
  std::unique_ptr<BackgroundJsonFlow> uploader;
  std::unique_ptr<BackgroundJsonFlow> downloader;
  if (web.background_flows) {
    uploader = std::make_unique<BackgroundJsonFlow>(
        sc.client(), sc.server(), BackgroundJsonFlow::Kind::kUpload,
        web.bg_upload_bytes, bg_cfg);
    downloader = std::make_unique<BackgroundJsonFlow>(
        sc.client(), sc.server(), BackgroundJsonFlow::Kind::kDownload,
        web.bg_download_bytes, bg_cfg);
    const SimRun run(t);
    uploader->start();
    downloader->start();
  }
  for (const auto& page : corpus) {
    sim::Summary page_plts;
    for (int load = 0; load < web.loads_per_page; ++load) {
      auto session = std::make_unique<hvc::app::web::PageLoadSession>(
          sc.client(), sc.server(), page, web.browser, nullptr);
      {
        const SimRun run(t);
        session->start();
      }
      const sim::Time deadline = sc.sim().now() + web.per_load_timeout;
      while (!session->finished() && sc.sim().now() < deadline) {
        const SimRun run(t);
        t.events += sc.sim().run_until(
            std::min(deadline, sc.sim().now() + sim::milliseconds(20)));
      }
      double plt;
      if (session->finished()) {
        plt = sim::to_millis(session->plt());
      } else {
        plt = sim::to_millis(web.per_load_timeout);
        ++timeouts;
      }
      plt_ms.add(plt);
      page_plts.add(plt);
      const SimRun run(t);
      t.events += sc.sim().run_for(sim::milliseconds(250));
    }
    per_page_mean_ms.add(page_plts.mean());
  }

  put_summary(m, "web.plt_ms", plt_ms);
  m["web.per_page_mean_ms"] = per_page_mean_ms.mean();
  m["web.timeouts"] = static_cast<double>(timeouts);
}

void traced_city(const ScenarioSpec& spec, std::map<std::string, double>& m,
                 Trace& t) {
  // exp::run_city_workload.
  hvc::pop::CityConfig cc;
  cc.population = spec.city.population;
  cc.seed = spec.seed;
  cc.duration = sim::seconds_f(spec.duration_s);
  cc.cell.has_urllc = false;
  bool saw_embb = false;
  for (const auto& c : spec.channels) {
    if (c.type == "embb" && !saw_embb) {
      saw_embb = true;
      if (c.rate_mbps >= 0) cc.cell.embb_rate_bps = c.rate_mbps * 1e6;
      if (c.rtt_ms >= 0) cc.cell.embb_rtt = sim::milliseconds_f(c.rtt_ms);
    } else if (c.type == "urllc" && !cc.cell.has_urllc) {
      cc.cell.has_urllc = true;
      if (c.rate_mbps >= 0) cc.cell.urllc_rate_bps = c.rate_mbps * 1e6;
      if (c.rtt_ms >= 0) cc.cell.urllc_rtt = sim::milliseconds_f(c.rtt_ms);
    } else if (c.type != "embb" && c.type != "urllc") {
      throw std::runtime_error(
          "city workload supports embb/urllc channels only (got '" + c.type +
          "')");
    }
  }
  if (!saw_embb) {
    throw std::runtime_error("city workload needs an embb channel");
  }
  if (spec.down_policy.name == "embb-only") {
    cc.population.steer.enabled = false;
  }

  hvc::pop::CityResult r;
  {
    const SimRun run(t);
    const Scope s(t.rec, Span::kPopRun);
    r = hvc::pop::run_city(cc);
  }
  t.events += r.events;
  {
    const Scope s(t.rec, Span::kStatsExport);
    r.cohorts.export_metrics("city", &m);
  }
  m["city.users"] = static_cast<double>(cc.population.users);
  m["city.arrivals"] = static_cast<double>(r.arrivals);
  m["city.departures"] = static_cast<double>(r.departures);
  m["city.peak_active"] = static_cast<double>(r.peak_active);
  m["city.pages"] = static_cast<double>(r.pages);
  m["city.chunks"] = static_cast<double>(r.chunks);
  m["city.bg_transfers"] = static_cast<double>(r.bg_transfers);
  m["city.urllc_admitted"] = static_cast<double>(r.urllc_admitted);
  m["city.urllc_spilled"] = static_cast<double>(r.urllc_spilled);
  const double steer_total =
      static_cast<double>(r.urllc_admitted + r.urllc_spilled);
  m["city.urllc_spill_rate"] =
      steer_total > 0 ? static_cast<double>(r.urllc_spilled) / steer_total
                      : 0.0;
  m["city.stats_bytes"] = static_cast<double>(r.cohorts.memory_bytes());
  m["city.events"] = static_cast<double>(r.events);
  if (const hvc::obs::SpanRecorder* sp = hvc::obs::SpanRecorder::active();
      sp != nullptr && sp->enabled()) {
    m["city.span_bytes"] = static_cast<double>(sp->span_bytes());
    m["city.spans_offered"] = static_cast<double>(sp->offered());
    m["city.spans_retained"] = static_cast<double>(sp->retained());
  }
}

/// exp::run_scenario for the grids' features (no telemetry, tracer or
/// faults — the benchmark grids enable none of them).
RunResult traced_point(const ScenarioSpec& spec,
                       const hvc::exp::RunOptions& opts, Trace& t) {
  RunResult result;
  result.name = spec.name;

  hvc::obs::MetricsRegistry registry;
  hvc::obs::ScopedMetricsRegistry metrics_scope(registry);
  hvc::obs::PacketTracer tracer;
  hvc::obs::ScopedPacketTracer tracer_scope(tracer);
  hvc::obs::TelemetrySampler sampler;
  hvc::obs::ScopedTelemetrySampler sampler_scope(sampler);
  hvc::obs::SteeringAuditLog audit;
  hvc::obs::ScopedSteeringAuditLog audit_scope(audit);
  hvc::obs::SpanRecorder spans;
  hvc::obs::ScopedSpanRecorder spans_scope(spans);
  hvc::net::IdScope id_scope;

  if (spec.spans.enabled) {
    hvc::obs::SpanConfig sc;
    sc.tail_quantile = spec.spans.tail_quantile;
    sc.tail_budget = spec.spans.tail_budget;
    sc.reservoir_budget = spec.spans.reservoir_budget;
    sc.reservoir_period = spec.spans.reservoir_period;
    sc.warmup = spec.spans.warmup;
    sc.seed = spec.seed;
    spans.enable(sc);
  }

  try {
    if (spec.workload == "city") {
      traced_city(spec, result.metrics, t);
    } else {
      hvc::core::ScenarioConfig cfg;
      {
        const Scope s(t.rec, Span::kTraceGen);
        cfg = hvc::exp::build_scenario_config(spec);
      }
      cfg.up_factory = timed_factory(cfg.up_factory, cfg.up_policy, t);
      cfg.down_factory = timed_factory(cfg.down_factory, cfg.down_policy, t);
      if (spec.workload == "bulk") {
        traced_bulk(spec, cfg, result.metrics, t);
      } else if (spec.workload == "video") {
        traced_video(spec, cfg, result.metrics, t);
      } else {
        traced_web(spec, cfg, result.metrics, t);
      }
    }
    result.obs = registry.snapshot();
  } catch (const std::exception& e) {
    result.metrics.clear();
    result.obs.clear();
    result.error = e.what();
  }

  if (result.error.empty() && spans.enabled()) {
    std::string prefix =
        !opts.out_prefix.empty() ? opts.out_prefix : spec.name;
    if (opts.run_index >= 0) {
      prefix += ".run" + std::to_string(opts.run_index);
    }
    hvc::exp::write_file(prefix + ".spans.jsonl", spans.to_jsonl());
  }
  return result;
}

double seconds(std::uint64_t cycles) {
  return static_cast<double>(cycles) / prof::cycles_per_ns() * 1e-9;
}

double sum_obs(const std::vector<RunResult>& results, const std::string& prefix,
               const std::string& suffix) {
  double total = 0;
  for (const RunResult& r : results) total += sum_keys(r.obs, prefix, suffix);
  return total;
}

double sum_metric(const std::vector<RunResult>& results,
                  const std::string& key, bool take_max = false) {
  double total = 0;
  for (const RunResult& r : results) {
    const auto it = r.metrics.find(key);
    if (it == r.metrics.end()) continue;
    total = take_max ? std::max(total, it->second) : total + it->second;
  }
  return total;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

TracedGrid run_traced_grid(const std::vector<hvc::exp::ExpandedRun>& runs,
                           const hvc::exp::RunOptions& opts) {
  TracedGrid g;
  prof::reset();
  prof::enable();
  const std::uint64_t t0 = prof::now_ns();
  g.results.reserve(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    hvc::exp::RunOptions point_opts = opts;
    point_opts.run_index = static_cast<int>(i);
    const Scope s(g.trace.rec, Span::kPoint);
    RunResult r = traced_point(runs[i].spec, point_opts, g.trace);
    r.index = i;
    r.params = runs[i].params;
    g.results.push_back(std::move(r));
  }
  {
    const Scope s(g.trace.rec, Span::kResults);
    g.jsonl = hvc::exp::to_jsonl(g.results);
  }
  g.wall_s = static_cast<double>(prof::now_ns() - t0) * 1e-9;
  prof::disable();
  return g;
}

std::map<std::string, double> layer_metrics(const TracedGrid& g,
                                            double spec_s) {
  using prof::Hook;
  const Trace& t = g.trace;
  auto incl = [&](Span s) { return seconds(t.rec.totals(s).incl_cycles); };
  auto calls = [&](Span s) {
    return static_cast<double>(t.rec.totals(s).calls);
  };
  auto hook = [&](Hook h) { return t.hooks[static_cast<std::size_t>(h)]; };

  std::map<std::string, double> m;
  const double run_s = incl(Span::kSimRun);
  const double events = static_cast<double>(t.events);
  m["sim.run_s"] = run_s;
  m["sim.events"] = events;
  m["sim.ns_per_event"] = ratio(run_s * 1e9, events);
  const prof::HookStats push = hook(Hook::kEventPush);
  const prof::HookStats pop = hook(Hook::kEventPop);
  m["sim.queue_s"] = seconds(push.cycles + pop.cycles);
  m["sim.queue_ops"] = static_cast<double>(push.calls + pop.calls);

  m["transport.cca_s"] = incl(Span::kCca);
  m["transport.cca_calls"] = calls(Span::kCca);
  m["transport.cca_calls_per_ack"] =
      ratio(calls(Span::kCca), static_cast<double>(t.cca_acks));
  const double sent = sum_obs(g.results, "transport.tcp.packets_sent", "");
  const double retx = sum_obs(g.results, "transport.tcp.retransmissions", "");
  m["transport.tcp.packets_sent"] = sent;
  m["transport.tcp.retransmissions"] = retx;
  m["transport.tcp.useful_frac"] = sent > 0 ? 1.0 - retx / sent : 1.0;

  m["steer.policy_s"] = incl(Span::kSteerPolicy);
  m["steer.decisions"] = calls(Span::kSteerPolicy);
  m["steer.ns_per_decision"] =
      ratio(incl(Span::kSteerPolicy) * 1e9, calls(Span::kSteerPolicy));
  // Inclusive: contains steer.policy_s and the link enqueue it triggers.
  m["net.shim_s"] = seconds(hook(Hook::kSteer).cycles);

  // make_packet/clone_packet bump the packet-alloc hook's call counter
  // twice (scope + allocator), so its 1-in-64 cycle sample fires every
  // 32 packets and the scaled total reads high by calls/packets. Scale
  // it back to one sample per 64 packets.
  const prof::HookStats alloc = hook(Hook::kPacketAlloc);
  const double packets = static_cast<double>(t.alloc.allocs);
  m["net.alloc_s"] = seconds(alloc.cycles) *
                     ratio(static_cast<double>(alloc.calls) - packets,
                           static_cast<double>(alloc.calls));
  m["net.packets_alloc"] = packets;
  m["net.duplicates_suppressed"] =
      sum_obs(g.results, "node.", ".duplicates_suppressed");

  // Inclusive: contains the delivery and service-event pushes.
  m["channel.serve_s"] = seconds(hook(Hook::kLinkServe).cycles);
  m["channel.serve_calls"] = static_cast<double>(hook(Hook::kLinkServe).calls);
  m["channel.delivered_packets"] =
      sum_obs(g.results, "link.", ".delivered_packets");
  m["channel.dropped_queue"] = sum_obs(g.results, "link.", ".dropped_queue");

  m["trace.gen_s"] = incl(Span::kTraceGen);
  m["app.web.corpus_s"] = incl(Span::kCorpus);
  m["exp.spec_s"] = spec_s;
  m["exp.results_s"] = incl(Span::kResults);
  m["app.web.pages_loaded"] = sum_obs(g.results, "app.web.pages_loaded", "");
  m["app.web.objects_loaded"] =
      sum_obs(g.results, "app.web.objects_loaded", "");
  m["app.video.frames_decoded"] =
      sum_obs(g.results, "app.video.frames_decoded", "");
  m["app.video.frames_concealed"] =
      sum_obs(g.results, "app.video.frames_concealed", "");

  const double pop_events = sum_metric(g.results, "city.events");
  m["pop.run_s"] = incl(Span::kPopRun);
  m["pop.events"] = pop_events;
  m["pop.ns_per_event"] = ratio(incl(Span::kPopRun) * 1e9, pop_events);
  m["pop.peak_active"] = sum_metric(g.results, "city.peak_active", true);
  m["stats.bytes"] = sum_metric(g.results, "city.stats_bytes");
  m["stats.export_s"] = incl(Span::kStatsExport);
  m["obs.span_bytes"] = sum_metric(g.results, "city.span_bytes");
  m["obs.spans_retained"] = sum_metric(g.results, "city.spans_retained");

  // The closure: disjoint leaf layers inside sim.run, and the rest.
  const double attributed = m["transport.cca_s"] + m["steer.policy_s"] +
                            m["sim.queue_s"] + m["net.alloc_s"];
  m["unattributed_s"] = run_s - attributed;
  m["obs.attributed_frac"] = ratio(attributed, run_s);
  return m;
}

}  // namespace paperbench
