// The benchmark's workloads: one sweep grid per paper experiment, made
// from the seed argument, plus the seed-independent output invariants
// every grid point must satisfy.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "exp/sweep.hpp"

namespace paperbench {

/// The seed every committed scenario file uses, and the one the result
/// digests in digests.txt must match at.
inline constexpr std::uint64_t kDefaultSeed = 42;

/// Descriptions of violated invariants (empty = all hold).
using Errors = std::vector<std::string>;

struct Workload {
  const char* name;
  const char* grid;  ///< SweepSpec JSON with @SEED@ holes
  void (*check)(const hvc::exp::ExpandedRun& run,
                const hvc::exp::RunResult& result, Errors& errs);
};

[[nodiscard]] const std::vector<Workload>& workloads();
/// nullptr when no workload has that name.
[[nodiscard]] const Workload* find_workload(const std::string& name);

/// The workload's sweep JSON for `seed`: the scenario seed, and so the 5G
/// trace and city population seeds, is `seed`.
[[nodiscard]] std::string grid_json(const Workload& w, std::uint64_t seed);

/// Invariants of one grid point's result that hold for every seed; a run
/// error is itself a violation.
[[nodiscard]] Errors check_invariants(const Workload& w,
                                      const hvc::exp::ExpandedRun& run,
                                      const hvc::exp::RunResult& result);

/// Sum of every value in `m` whose key starts with `prefix` and ends with
/// `suffix`.
[[nodiscard]] double sum_keys(const std::map<std::string, double>& m,
                              const std::string& prefix,
                              const std::string& suffix);

}  // namespace paperbench
