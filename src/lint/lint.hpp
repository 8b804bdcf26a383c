// hvc_lint: the repo's determinism & simulation-safety static-analysis
// pass (scripts/check.sh lint, tools/hvc_lint).
//
// Every exported artifact this repo ships — sweep CSV/JSONL, telemetry,
// audit logs, traces — is promised byte-identical for a given spec at any
// -j. The byte-identity *tests* (exp_test, telemetry_test) catch a broken
// build after the fact; this pass rejects the code patterns that break
// the promise before they run:
//
//   wallclock            (R1) wall-clock / entropy sources in simulation
//                             code — time comes from sim::Simulator,
//                             randomness from sim::Rng, nothing else
//   unordered-container  (R2) std::unordered_map/set — iteration order is
//                             unspecified, so any traversal that feeds an
//                             export or a steering decision is a latent
//                             nondeterminism bug; use std::map/set, sort
//                             before export, or prove order-independence
//   steer-missing-reason (R3) a return path in a steer() implementation
//                             that does not set a Decision audit reason
//                             tag (obs/audit.hpp records every decision)
//   raw-new-delete       (R4) raw new/delete — ownership goes through
//                             unique_ptr/containers in this codebase
//   float-equality       (R5) ==/!= against floating-point values —
//                             metric comparisons must use ordering or an
//                             explicit tolerance
//   (R6, a header that does not compile on its own, is not a scan but a
//   compile job: the top-level CMakeLists.txt builds one TU per header
//   into the hvc_header_check target, so the normal parallel build
//   checks it)
//   clock-island         (R7) an allow(wallclock) suppression outside the
//                             sanctioned clock island (src/obs/prof*,
//                             bench/). Host-time needs are met by calling
//                             obs::prof::now_ns()/cycles(); the wallclock
//                             ban has exactly one carve-out, not a
//                             per-file mute button. Island files skip R1
//                             entirely and need no allow.
//   std-hash             (R8) std::hash — libstdc++ and libc++ hash the
//                             same value differently, so anything derived
//                             from it (seeds, sampling keys, bucket
//                             choices) silently diverges across
//                             platforms; derive stable keys from
//                             sim::fnv1a64 / sim::seed_mix (sim/seed.hpp)
//   worker-shared-state  (R9) semantic: writes to non-thread_local /
//                             non-atomic / non-mutex-guarded globals or
//                             statics from code reachable off the
//                             exp::run_sweep worker threads, plus
//                             thread_local binding-protocol hazards
//                             (unguarded unbind, missing destructor
//                             clear) — see rules_semantic.hpp
//   unordered-taint     (R10) semantic: values produced by iterating an
//                             unordered_* container, tracked through
//                             assignments/returns/call edges, must not
//                             reach an export sink
//   hotpath-alloc       (R11) semantic: no allocation or container
//                             growth inside HVC_PROF_SCOPE functions or
//                             their direct callees
//
// Scanner, not a compiler: lint_tree reads each file once into a
// comment/string-stripped view; the per-file rules walk that view, and
// the semantic pass (R9–R11) a heuristic repo-wide index built from the
// same file's tokens (index.hpp, graph.hpp) — no libclang dependency,
// which keeps it fast and dependency-free at the cost of AST precision.
// Rules are tuned so false positives are rare and every true hit is
// suppressible in place:
//
//   foo();  // hvc-lint: allow(unordered-container): keys are re-sorted
//           // before export, so iteration order cannot leak
//
// A suppression names the rule(s) it silences and MUST carry a
// justification after the closing colon; an allow without one is itself
// a finding. A suppression on its own comment line applies to the next
// code line; `allow-file(rule)` near the top of a file silences the rule
// for the whole file.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace hvc::lint {

enum class Severity { kWarning, kError };

[[nodiscard]] const char* severity_name(Severity s);

struct Finding {
  std::string file;
  int line = 1;  ///< 1-based
  std::string rule;
  Severity severity = Severity::kWarning;
  std::string message;
};

/// R7 helper: true for files inside the sanctioned clock island
/// (src/obs/prof*, bench/) where host-clock reads are legal.
[[nodiscard]] bool in_clock_island(const std::string& path);

/// A rule's identity: the name used in diagnostics and allow() tags.
struct RuleInfo {
  const char* name;
  Severity severity;
  const char* summary;
};

/// Every rule the pass knows, in stable (R1..R11 + directive) order.
[[nodiscard]] const std::vector<RuleInfo>& rules();
[[nodiscard]] bool known_rule(std::string_view name);

/// Lint one file's contents with the per-file rules (R1–R5, R8 +
/// suppression diagnostics). `path` is used for reporting only; nothing
/// is read from disk.
[[nodiscard]] std::vector<Finding> lint_source(const std::string& path,
                                               std::string_view text);

/// Recursively lint every .hpp/.h/.cpp/.cc under `roots` (files are also
/// accepted directly): per-file rules R1–R5, R7 and R8 plus the cross-TU
/// passes R9–R11 over the whole-tree index. A root that is neither a file
/// nor a directory, or a file that cannot be read, is an `io-error`
/// finding. Results are ordered by path then line, so output is
/// byte-stable for a given tree; any finding fails the gate.
[[nodiscard]] std::vector<Finding> lint_tree(
    const std::vector<std::string>& roots);

/// Human-readable report: "file:line: severity: [rule] message" lines.
[[nodiscard]] std::string to_text(const std::vector<Finding>& findings);

/// SARIF 2.1.0 report (one run, tool driver "hvc_lint", every known
/// rule listed, one result per finding) for CI code-scanning upload.
[[nodiscard]] std::string to_sarif(const std::vector<Finding>& findings);

}  // namespace hvc::lint
