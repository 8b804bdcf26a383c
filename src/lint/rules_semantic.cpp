#include "lint/rules_semantic.hpp"

#include <map>
#include <set>

namespace hvc::lint {

namespace {

/// Worker-thread entry points: exp::run_sweep fans work out through
/// these (the worker lambda's body is attributed to its enclosing
/// function by the indexer, so reachability starts here).
[[nodiscard]] bool is_worker_root(const FunctionSummary& fn) {
  return fn.name == "run_sweep" || fn.name == "run_sweep_shard";
}

/// Export sinks for the determinism dataflow rule: anything that turns
/// values into bytes a user (or a golden-number test) will compare.
[[nodiscard]] bool is_export_sink(const std::string& name) {
  static const std::set<std::string> kSinks = {
      "to_json",    "to_jsonl",     "to_csv",      "to_chrome_trace",
      "write_csv",  "write_jsonl",  "export_metrics",
      "fold_into",  "serialize"};
  return kSinks.count(name) > 0;
}

std::string where(const std::string& file, int line) {
  return file + ":" + std::to_string(line);
}

// ---- R9: worker-shared-state ------------------------------------------

void check_worker_races(const Index& idx, const CallGraph& cg,
                        std::vector<Finding>* out) {
  std::vector<const FunctionSummary*> roots;
  for (const auto& [name, fns] : idx.functions_by_name) {
    for (const FunctionSummary* f : fns) {
      if (is_worker_root(*f)) roots.push_back(f);
    }
  }
  if (!roots.empty()) {
    for (const FunctionSummary* fn : cg.reachable(roots)) {
      // A body that takes a lock is treated as guarded wholesale — the
      // indexer has no statement-level scoping, so the rule errs toward
      // trusting visible synchronization.
      if (fn->has_lock) continue;
      for (const WriteSite& w : fn->writes) {
        if (w.member_access) continue;
        if (fn->locals.count(w.name) > 0) continue;
        const GlobalVar* g =
            resolve_global(idx, w.name, w.qualifier, *fn);
        if (g == nullptr) continue;
        if (g->is_thread_local || g->is_atomic || g->is_const ||
            g->is_sync) {
          continue;
        }
        out->push_back(
            {fn->file, w.line, "worker-shared-state", Severity::kError,
             "write to shared " +
                 std::string(g->owner.empty() ? "global" : "static") +
                 " '" + w.name + "' (declared at " +
                 where(g->file, g->line) + ") from '" + fn->qualified +
                 "', which runs on exp::run_sweep worker threads; make "
                 "it thread_local, std::atomic, or mutex-guarded, or "
                 "scope the state per run"});
      }
    }
  }

  // Binding-protocol checks for thread_local pointer statics. These are
  // not reachability-gated: the hazard is per-object lifetime, not
  // which thread pool touches it first.
  //
  // (a) Unconditional unbind: `X = nullptr;` without an `X == this`
  //     guard in the same body. If another instance rebound X since,
  //     this write silently disables *that* instance (the PR 4
  //     PacketTracer isolation bug).
  for (const FileData* fd : idx.files) {
    for (const FunctionSummary& fn : fd->summary.functions) {
      for (const WriteSite& w : fn.writes) {
        if (!w.null_assign || w.member_access) continue;
        if (fn.locals.count(w.name) > 0) continue;
        if (fn.self_guarded.count(w.name) > 0) continue;
        const GlobalVar* g = resolve_global(idx, w.name, w.qualifier, fn);
        if (g == nullptr || !g->is_thread_local || !g->is_pointer) {
          continue;
        }
        out->push_back(
            {fn.file, w.line, "worker-shared-state", Severity::kError,
             "unconditional unbind of thread_local binding '" + w.name +
                 "' (declared at " + where(g->file, g->line) + ") in '" +
                 fn.qualified +
                 "': another instance may own the binding by now — guard "
                 "the reset with `if (" +
                 w.name + " == this)`"});
      }
    }
  }

  // (b) Missing destructor clear: a class installs itself into a
  //     thread_local pointer static (`X = this`) but no destructor ever
  //     resets X, so the binding dangles past the object's lifetime
  //     (the PR 5 audit/telemetry bug).
  std::set<std::pair<std::string, std::string>> reported;
  for (const auto& [name, globals] : idx.globals_by_name) {
    for (const GlobalVar* g : globals) {
      if (!g->is_thread_local || !g->is_pointer || g->owner.empty()) {
        continue;
      }
      if (reported.count({g->owner, g->name}) > 0) continue;
      bool installed = false;
      bool cleared = false;
      for (const auto& [fname, fns] : idx.functions_by_name) {
        (void)fname;
        for (const FunctionSummary* fn : fns) {
          if (fn->owner_class != g->owner) continue;
          const bool is_dtor = !fn->name.empty() && fn->name[0] == '~';
          for (const WriteSite& w : fn->writes) {
            if (w.name != g->name || w.member_access) continue;
            if (w.this_assign && !is_dtor) installed = true;
            if (is_dtor) cleared = true;
          }
        }
      }
      if (installed && !cleared) {
        reported.insert({g->owner, g->name});
        out->push_back(
            {g->file, g->line, "worker-shared-state", Severity::kError,
             "'" + g->owner + "' installs itself into thread_local "
             "binding '" + g->name +
                 "' but no destructor clears it; the binding dangles "
                 "after the object dies — add `if (" +
                 g->name + " == this) " + g->name + " = nullptr;` to ~" +
                 g->owner + "()"});
      }
    }
  }
}

// ---- R10: unordered-taint ---------------------------------------------

struct Taint {
  /// var -> the unordered container it derives from.
  std::map<std::string, const ContainerDecl*> vars;
  /// non-null when some return statement is tainted.
  const ContainerDecl* returns = nullptr;
};

void check_unordered_taint(const Index& idx,
                           std::vector<Finding>* out) {
  std::map<const FunctionSummary*, Taint> state;

  // Seeds: loop variables of (and variables written inside) a range-for
  // over an unordered container.
  for (const FileData* fd : idx.files) {
    for (const FunctionSummary& fn : fd->summary.functions) {
      for (const IterLoop& loop : fn.iter_loops) {
        const ContainerDecl* cd =
            resolve_container(idx, loop.container, fn);
        if (cd == nullptr || !cd->unordered) continue;
        Taint& t = state[&fn];
        for (const std::string& w : loop.writes) {
          t.vars.emplace(w, cd);
        }
      }
    }
  }

  // Fixpoint over assignment, return, and call edges. Taint only grows,
  // so the loop terminates; the bound is a safety net for cycles.
  auto returns_taint = [&](const std::string& callee_name,
                           const FunctionSummary& caller)
      -> const ContainerDecl* {
    for (const FunctionSummary* callee :
         resolve_function(idx, callee_name, caller.file)) {
      const auto it = state.find(callee);
      if (it != state.end() && it->second.returns != nullptr) {
        return it->second.returns;
      }
    }
    return nullptr;
  };

  for (int round = 0; round < 64; ++round) {
    bool changed = false;
    for (const FileData* fd : idx.files) {
      for (const FunctionSummary& fn : fd->summary.functions) {
        Taint& t = state[&fn];
        // Intra-function: assignments whose RHS mentions a tainted var
        // or a tainted-returning call.
        for (const AssignFact& a : fn.assigns) {
          if (t.vars.count(a.dst) > 0) continue;
          const ContainerDecl* origin = nullptr;
          for (const std::string& id : a.rhs_idents) {
            const auto it = t.vars.find(id);
            if (it != t.vars.end()) {
              origin = it->second;
              break;
            }
          }
          for (std::size_t i = 0;
               origin == nullptr && i < a.rhs_calls.size(); ++i) {
            origin = returns_taint(a.rhs_calls[i], fn);
          }
          if (origin != nullptr) {
            t.vars.emplace(a.dst, origin);
            changed = true;
          }
        }
        // Returns.
        if (t.returns == nullptr) {
          for (const ReturnFact& r : fn.returns) {
            const ContainerDecl* origin = nullptr;
            for (const std::string& id : r.idents) {
              const auto it = t.vars.find(id);
              if (it != t.vars.end()) {
                origin = it->second;
                break;
              }
            }
            for (std::size_t i = 0;
                 origin == nullptr && i < r.calls.size(); ++i) {
              origin = returns_taint(r.calls[i], fn);
            }
            if (origin != nullptr) {
              t.returns = origin;
              changed = true;
              break;
            }
          }
        }
        // Call edges: a tainted argument taints the callee's
        // parameters (conservatively: all of them — the indexer does
        // not track argument positions through nested expressions).
        for (const CallSite& cs : fn.calls) {
          const ContainerDecl* origin = nullptr;
          for (const std::string& arg : cs.args) {
            const auto it = t.vars.find(arg);
            if (it != t.vars.end()) {
              origin = it->second;
              break;
            }
          }
          if (origin == nullptr) continue;
          for (const FunctionSummary* callee :
               resolve_function(idx, cs.name, fn.file)) {
            Taint& ct = state[callee];
            for (const std::string& p : callee->params) {
              if (ct.vars.emplace(p, origin).second) changed = true;
            }
          }
        }
      }
    }
    if (!changed) break;
  }

  // Sinks: any call to an export sink with a tainted argument (or
  // tainted receiver — the indexer records both in args).
  std::set<std::pair<const FunctionSummary*, int>> seen;
  for (const FileData* fd : idx.files) {
    for (const FunctionSummary& fn : fd->summary.functions) {
      const auto sit = state.find(&fn);
      if (sit == state.end() || sit->second.vars.empty()) continue;
      for (const CallSite& cs : fn.calls) {
        if (!is_export_sink(cs.name)) continue;
        const ContainerDecl* origin = nullptr;
        for (const std::string& arg : cs.args) {
          const auto it = sit->second.vars.find(arg);
          if (it != sit->second.vars.end()) {
            origin = it->second;
            break;
          }
        }
        if (origin == nullptr) continue;
        if (!seen.insert({&fn, cs.line}).second) continue;
        out->push_back(
            {fn.file, cs.line, "unordered-taint", Severity::kError,
             "value derived from iterating unordered container '" +
                 origin->name + "' (declared at " +
                 where(origin->file, origin->line) +
                 ") reaches export sink '" + cs.name +
                 "' — iteration order is unspecified, so exported bytes "
                 "can differ between runs; use std::map/std::set or "
                 "sort before exporting"});
      }
    }
  }
}

// ---- R11: hotpath-alloc -----------------------------------------------

/// How many call-edges away from a HVC_PROF_SCOPE function the
/// allocation ban extends (0 = only the profiled function itself).
constexpr int kHotpathDepth = 1;

void check_hotpath_allocs(const Index& idx, const CallGraph& cg,
                          std::vector<Finding>* out) {
  std::vector<const FunctionSummary*> roots;
  for (const FileData* fd : idx.files) {
    for (const FunctionSummary& fn : fd->summary.functions) {
      if (fn.has_prof_scope) roots.push_back(&fn);
    }
  }
  if (roots.empty()) return;
  for (const auto& [fn, d] : cg.within_depth(roots, kHotpathDepth)) {
    for (const AllocSite& a : fn->allocs) {
      const std::string how =
          d == 0 ? "inside the HVC_PROF_SCOPE function '" + fn->qualified +
                       "'"
                 : "in '" + fn->qualified + "', called from a "
                   "HVC_PROF_SCOPE function (" +
                       std::to_string(d) + " call-edge" +
                       (d == 1 ? "" : "s") + " away)";
      out->push_back(
          {fn->file, a.line, "hotpath-alloc", Severity::kError,
           "allocation '" + a.what + "' " + how +
               ": profiled hot paths must not allocate or grow "
               "containers (ROADMAP item 1 pools this memory); "
               "preallocate, pool, or allow(hotpath-alloc) with a "
               "justification"});
    }
  }
}

}  // namespace

std::vector<Finding> run_semantic_rules(const Index& idx) {
  std::vector<Finding> out;
  const CallGraph cg(idx);
  check_worker_races(idx, cg, &out);
  check_unordered_taint(idx, &out);
  check_hotpath_allocs(idx, cg, &out);
  return out;
}

}  // namespace hvc::lint
