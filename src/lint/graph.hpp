// Cross-TU graphs for the semantic lint passes (built from the per-file
// summaries in index.hpp):
//
//   Index        flat repo-wide symbol tables (functions, globals,
//                containers, each indexed by unqualified name)
//   CallGraph    name-based call resolution + worker reachability /
//                bounded-depth closures (R9, R11)
//
// Resolution is by *name*, not by type: a call `f(x)` links to every
// indexed function named `f`, with same-file definitions preferred when
// any exist. That over-approximates edges (overloads, shadowed names in
// other TUs) — safe for reachability-style rules, where an extra edge
// can only add a finding that an allow() then documents.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/index.hpp"

namespace hvc::lint {

/// Repo-wide symbol tables over a set of analyzed files. Pointers borrow
/// from the FileData passed to build_index — keep it alive for the
/// Index's lifetime.
struct Index {
  std::vector<const FileData*> files;  ///< sorted by path
  std::map<std::string, std::vector<const FunctionSummary*>>
      functions_by_name;
  std::map<std::string, std::vector<const GlobalVar*>> globals_by_name;
  std::map<std::string, std::vector<const ContainerDecl*>>
      containers_by_name;
};

[[nodiscard]] Index build_index(const std::vector<FileData>& files);

/// Resolve `name` as seen from `file`: definitions in the same file win
/// (a fixture tree holds many unrelated `helper()`s; the local one is
/// the real callee), otherwise every definition of that name matches.
[[nodiscard]] std::vector<const FunctionSummary*> resolve_function(
    const Index& idx, const std::string& name, const std::string& file);

/// Resolve a global/static written as `name` (optionally `Qual::name`)
/// from function `fn`. Preference order: same-file + matching owner,
/// same-file, matching owner, any. Returns nullptr when nothing matches
/// (the write was to a member field or an unindexed name).
[[nodiscard]] const GlobalVar* resolve_global(const Index& idx,
                                              const std::string& name,
                                              const std::string& qualifier,
                                              const FunctionSummary& fn);

/// Resolve the container iterated as `name` inside `fn` (locals first,
/// then members of fn's class in the same file, then any same-file
/// declaration, then any). nullptr when unknown.
[[nodiscard]] const ContainerDecl* resolve_container(
    const Index& idx, const std::string& name, const FunctionSummary& fn);

class CallGraph {
 public:
  explicit CallGraph(const Index& idx) : idx_(idx) {}

  /// Every function reachable from `roots` through call edges (roots
  /// included). Cycle-safe BFS.
  [[nodiscard]] std::set<const FunctionSummary*> reachable(
      const std::vector<const FunctionSummary*>& roots) const;

  /// Functions within `depth` call-edges of `roots`, with their minimum
  /// distance (roots map to 0). depth 0 = just the roots.
  [[nodiscard]] std::map<const FunctionSummary*, int> within_depth(
      const std::vector<const FunctionSummary*>& roots, int depth) const;

  /// Direct callees of `fn` (resolved, deduplicated).
  [[nodiscard]] std::vector<const FunctionSummary*> callees(
      const FunctionSummary& fn) const;

 private:
  const Index& idx_;
};

}  // namespace hvc::lint
