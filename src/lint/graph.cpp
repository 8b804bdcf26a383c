#include "lint/graph.hpp"

#include <algorithm>
#include <deque>

namespace hvc::lint {

Index build_index(const std::vector<FileData>& files) {
  Index idx;
  for (const FileData& fd : files) idx.files.push_back(&fd);
  std::sort(idx.files.begin(), idx.files.end(),
            [](const FileData* a, const FileData* b) {
              return a->path < b->path;
            });
  for (const FileData* fd : idx.files) {
    for (const auto& f : fd->summary.functions) {
      idx.functions_by_name[f.name].push_back(&f);
    }
    for (const auto& g : fd->summary.globals) {
      idx.globals_by_name[g.name].push_back(&g);
    }
    for (const auto& cd : fd->summary.containers) {
      idx.containers_by_name[cd.name].push_back(&cd);
    }
  }
  return idx;
}

std::vector<const FunctionSummary*> resolve_function(
    const Index& idx, const std::string& name, const std::string& file) {
  const auto it = idx.functions_by_name.find(name);
  if (it == idx.functions_by_name.end()) return {};
  std::vector<const FunctionSummary*> same_file;
  for (const FunctionSummary* f : it->second) {
    if (f->file == file) same_file.push_back(f);
  }
  return same_file.empty() ? it->second : same_file;
}

const GlobalVar* resolve_global(const Index& idx, const std::string& name,
                                const std::string& qualifier,
                                const FunctionSummary& fn) {
  const auto it = idx.globals_by_name.find(name);
  if (it == idx.globals_by_name.end()) return nullptr;
  const std::string& owner =
      !qualifier.empty() ? qualifier : fn.owner_class;
  const GlobalVar* best = nullptr;
  int best_score = -1;
  for (const GlobalVar* g : it->second) {
    int score = 0;
    if (g->file == fn.file) score += 2;
    if (!owner.empty() && g->owner == owner) score += 4;
    if (!qualifier.empty() && g->owner != qualifier) continue;
    // A member field of some *other* class is not what an unqualified
    // write from a free function touches; require either a file or an
    // owner connection for owned globals.
    if (qualifier.empty() && !g->owner.empty() && g->owner != fn.owner_class &&
        g->owner != fn.name && g->file != fn.file) {
      continue;
    }
    if (score > best_score) {
      best_score = score;
      best = g;
    }
  }
  return best;
}

const ContainerDecl* resolve_container(const Index& idx,
                                       const std::string& name,
                                       const FunctionSummary& fn) {
  const auto it = idx.containers_by_name.find(name);
  if (it == idx.containers_by_name.end()) return nullptr;
  const ContainerDecl* best = nullptr;
  int best_score = -1;
  for (const ContainerDecl* cd : it->second) {
    int score = 0;
    if (cd->owner == fn.name) score += 8;  // local to this function
    if (!fn.owner_class.empty() && cd->owner == fn.owner_class) score += 4;
    if (cd->file == fn.file) score += 2;
    if (score > best_score) {
      best_score = score;
      best = cd;
    }
  }
  return best;
}

std::vector<const FunctionSummary*> CallGraph::callees(
    const FunctionSummary& fn) const {
  std::vector<const FunctionSummary*> out;
  std::set<const FunctionSummary*> seen;
  for (const CallSite& cs : fn.calls) {
    for (const FunctionSummary* callee :
         resolve_function(idx_, cs.name, fn.file)) {
      if (callee != &fn && seen.insert(callee).second) {
        out.push_back(callee);
      }
    }
  }
  return out;
}

std::set<const FunctionSummary*> CallGraph::reachable(
    const std::vector<const FunctionSummary*>& roots) const {
  std::set<const FunctionSummary*> seen(roots.begin(), roots.end());
  std::deque<const FunctionSummary*> work(roots.begin(), roots.end());
  while (!work.empty()) {
    const FunctionSummary* fn = work.front();
    work.pop_front();
    for (const FunctionSummary* callee : callees(*fn)) {
      if (seen.insert(callee).second) work.push_back(callee);
    }
  }
  return seen;
}

std::map<const FunctionSummary*, int> CallGraph::within_depth(
    const std::vector<const FunctionSummary*>& roots, int depth) const {
  std::map<const FunctionSummary*, int> dist;
  std::deque<const FunctionSummary*> work;
  for (const FunctionSummary* r : roots) {
    if (dist.emplace(r, 0).second) work.push_back(r);
  }
  while (!work.empty()) {
    const FunctionSummary* fn = work.front();
    work.pop_front();
    const int d = dist[fn];
    if (d >= depth) continue;
    for (const FunctionSummary* callee : callees(*fn)) {
      if (dist.emplace(callee, d + 1).second) work.push_back(callee);
    }
  }
  return dist;
}

}  // namespace hvc::lint
