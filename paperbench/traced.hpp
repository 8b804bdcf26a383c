// The traced run: the same grid as exp::run_scenario executes, driven from
// the benchmark's own code so that each layer's public seam can be timed.
//
// Seams (README.md, "Traced run"):
//   steering  every steer::SteeringPolicy, wrapped through
//             ScenarioConfig::up_factory / down_factory
//   CCA       the transport::CcAlgorithm handed to TcpSender (bulk only;
//             web's TCP connections are built inside app::web)
//   sim       every Simulator::run_until call and the workload kick-off
//             calls that send the first packets; pop::run_city for city
//   calls     exp::build_scenario_config, app::web::generate_corpus,
//             pop::run_city, CohortSet::export_metrics, exp::to_jsonl
//   prof      the obs::prof hooks, enabled for the traced grid and read
//             as deltas around each sim span
//
// The traced point mirrors run_scenario and the core::run_* helpers line
// for line, so its results serialize byte-identically; main.cpp checks
// that against the untraced run.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "obs/prof.hpp"
#include "spans.hpp"

namespace paperbench {

/// Everything one traced pass over the grid measured.
struct Trace {
  SpanRecorder rec;
  /// obs::prof hook deltas accumulated inside sim.run spans only.
  std::array<hvc::obs::prof::HookStats, hvc::obs::prof::kHookCount> hooks{};
  hvc::obs::prof::AllocStats alloc;
  std::uint64_t events = 0;     ///< run_until returns + city engine events
  std::uint64_t cca_acks = 0;   ///< CcAlgorithm::on_ack calls
  /// Policy/CCA cycles spent outside any sim.run span (expected 0; they
  /// would fall outside the closure).
  std::uint64_t outside_run_cycles = 0;
};

struct TracedGrid {
  std::vector<hvc::exp::RunResult> results;
  std::string jsonl;   ///< exp::to_jsonl(results)
  double wall_s = 0;   ///< host time for the points + to_jsonl
  Trace trace;
};

/// Run every grid point once with tracing on, in grid order on this
/// thread. `opts` is the untraced run's RunOptions (out_prefix); the run
/// index is set per point as hvc_sweep does.
TracedGrid run_traced_grid(const std::vector<hvc::exp::ExpandedRun>& runs,
                           const hvc::exp::RunOptions& opts);

/// Per-layer metrics of a traced grid: name -> value. Times in seconds.
/// `spec_s` is the spec parse + expansion time from the set-up repeats:
/// set-up work, outside the grid pass.
std::map<std::string, double> layer_metrics(const TracedGrid& grid,
                                            double spec_s);

}  // namespace paperbench
