// The cross-TU rule families that run on the semantic index (R9–R11).
// Per-file pattern rules (R1–R8) live in lint.cpp; everything here
// reasons over the whole-repo Index + CallGraph instead of one file at
// a time.
//
//   worker-shared-state  (R9)  static race detection: any write to a
//                              non-thread_local / non-atomic / non-
//                              mutex-guarded global or static from code
//                              reachable off exp::run_sweep's worker
//                              threads, plus two thread_local binding-
//                              protocol checks that rediscover the PR 4
//                              (unconditional unbind without an
//                              `== this` guard) and PR 5 (no destructor
//                              clears an installed binding) bugs.
//   unordered-taint      (R10) determinism dataflow: values produced by
//                              iterating an unordered_* container,
//                              tracked through assignments, returns and
//                              call edges, must never reach an export
//                              sink (to_jsonl/to_json/CSV writers/
//                              metric folds).
//   hotpath-alloc        (R11) allocation gating: no new/make_unique/
//                              make_shared/growth-capable container
//                              mutation inside a function that contains
//                              HVC_PROF_SCOPE, nor in anything it calls
//                              directly.
//
// All three are suppressible with the standard allow() grammar.
#pragma once

#include <vector>

#include "lint/graph.hpp"
#include "lint/lint.hpp"

namespace hvc::lint {

/// Run R9–R11 over the whole index. Findings are unsuppressed and
/// unsorted; the caller applies per-file allow() directives and
/// ordering.
[[nodiscard]] std::vector<Finding> run_semantic_rules(const Index& idx);

}  // namespace hvc::lint
