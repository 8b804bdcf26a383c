#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "lint/graph.hpp"
#include "lint/index.hpp"
#include "lint/rules_semantic.hpp"
#include "obs/json.hpp"

namespace hvc::lint {

/// R7: the sanctioned clock island — the only places host clocks are
/// legal. src/obs/prof* implements the sanctioned accessors; bench/ is
/// harness code that measures the host by design (and never feeds
/// simulation state). Paths are compared as-given plus with '\\'
/// normalized, so both "bench/x.cpp" and "/abs/repo/bench/x.cpp" match.
bool in_clock_island(const std::string& path) {
  std::string p = path;
  std::replace(p.begin(), p.end(), '\\', '/');
  if (p.find("src/obs/prof") != std::string::npos) return true;
  if (p.rfind("bench/", 0) == 0) return true;
  return p.find("/bench/") != std::string::npos;
}

namespace {

namespace fs = std::filesystem;

// Diagnostics about the suppression machinery itself; not suppressible.
constexpr const char* kAllowNeedsJustification = "allow-needs-justification";
constexpr const char* kAllowUnknownRule = "allow-unknown-rule";

[[nodiscard]] bool is_word(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

[[nodiscard]] bool is_space(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

// ---- R1: wallclock / entropy ------------------------------------------

struct IdentPattern {
  std::string_view ident;
  bool must_be_call;  ///< require '(' after (C library functions)
  std::string_view what;
};

constexpr IdentPattern kWallclockPatterns[] = {
    {"system_clock", false, "std::chrono::system_clock"},
    {"steady_clock", false, "std::chrono::steady_clock"},
    {"high_resolution_clock", false, "std::chrono::high_resolution_clock"},
    {"random_device", false, "std::random_device"},
    {"rand", true, "rand()"},
    {"srand", true, "srand()"},
    {"random", true, "random()"},
    {"time", true, "time()"},
    {"clock", true, "clock()"},
    {"gettimeofday", true, "gettimeofday()"},
    {"clock_gettime", true, "clock_gettime()"},
};

void check_wallclock(const std::string& path, const Scrubbed& sc,
                     std::vector<Finding>* findings) {
  const std::string& code = sc.code;
  for (const auto& pat : kWallclockPatterns) {
    std::size_t at = 0;
    while ((at = code.find(pat.ident, at)) != std::string::npos) {
      const std::size_t end = at + pat.ident.size();
      const char before = at > 0 ? code[at - 1] : '\0';
      const char after = end < code.size() ? code[end] : '\0';
      const bool bounded = !is_word(before) && !is_word(after);
      // C-library calls: exclude member/qualified uses (.time(, ::time()
      // would be something else entirely) and require a call.
      bool fires = bounded;
      if (fires && pat.must_be_call) {
        std::size_t p = end;
        while (p < code.size() && is_space(code[p])) ++p;
        fires = p < code.size() && code[p] == '(';
        if (before == '.' || before == ':' || before == '>') fires = false;
      }
      if (fires) {
        findings->push_back(
            {path, sc.line_of(at), "wallclock", Severity::kError,
             std::string(pat.what) +
                 ": wall-clock/entropy source in simulation code (derive "
                 "time from sim::Simulator and randomness from sim::Rng so "
                 "runs stay reproducible)"});
      }
      at = end;
    }
  }
}

// ---- R2: unordered containers -----------------------------------------

void check_unordered(const std::string& path, const Scrubbed& sc,
                     std::vector<Finding>* findings) {
  for (const std::string_view ident : {std::string_view("unordered_map"),
                                       std::string_view("unordered_set")}) {
    std::size_t at = 0;
    while ((at = sc.code.find(ident, at)) != std::string::npos) {
      const std::size_t end = at + ident.size();
      const char before = at > 0 ? sc.code[at - 1] : '\0';
      const char after = end < sc.code.size() ? sc.code[end] : '\0';
      const int line = sc.line_of(at);
      // #include <unordered_map> lines are not uses.
      const bool preprocessor =
          trim(sc.code_line(line)).rfind("#", 0) == 0;
      if (!is_word(before) && !is_word(after) && !preprocessor) {
        findings->push_back(
            {path, line, "unordered-container", Severity::kWarning,
             "std::" + std::string(ident) +
                 ": iteration order is unspecified, so any traversal "
                 "feeding an export or steering decision is a latent "
                 "nondeterminism bug; use std::map/std::set, sort before "
                 "export, or allow-tag with a proof of order-independence"});
      }
      at = end;
    }
  }
}

// ---- R3: steer() audit reasons ----------------------------------------

/// Find the offset of the matching close brace/paren for the open one at
/// `open` (which must point at '(' or '{'). npos if unbalanced.
std::size_t match_forward(const std::string& code, std::size_t open) {
  const char oc = code[open];
  const char cc = oc == '(' ? ')' : '}';
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (code[i] == oc) ++depth;
    if (code[i] == cc && --depth == 0) return i;
  }
  return std::string::npos;
}

/// Collect identifiers that provably carry a reason inside `body`:
/// `X.reason` mentions and `Decision X = ...steer(...)` initializations.
std::set<std::string> reason_carrying_vars(const std::string& body) {
  std::set<std::string> vars;
  std::size_t at = 0;
  while ((at = body.find(".reason", at)) != std::string::npos) {
    std::size_t s = at;
    while (s > 0 && is_word(body[s - 1])) --s;
    if (s < at) vars.insert(body.substr(s, at - s));
    at += 7;
  }
  at = 0;
  while ((at = body.find("Decision", at)) != std::string::npos) {
    std::size_t p = at + 8;
    while (p < body.size() && is_space(body[p])) ++p;
    std::size_t vs = p;
    while (p < body.size() && is_word(body[p])) ++p;
    if (p > vs) {
      const std::size_t semi = body.find(';', p);
      const std::string init =
          body.substr(p, semi == std::string::npos ? std::string::npos
                                                   : semi - p);
      if (init.find("steer") != std::string::npos ||
          init.find("reason") != std::string::npos) {
        vars.insert(body.substr(vs, p - vs));
      }
    }
    at = p;
  }
  return vars;
}

void check_steer_reasons(const std::string& path, const Scrubbed& sc,
                         std::vector<Finding>* findings) {
  const std::string& code = sc.code;
  std::size_t at = 0;
  while ((at = code.find("steer", at)) != std::string::npos) {
    const std::size_t end = at + 5;
    const char before = at > 0 ? code[at - 1] : '\0';
    if (is_word(before) || (end < code.size() && is_word(code[end]))) {
      at = end;
      continue;
    }
    // Must be a call/definition: next non-space char is '('.
    std::size_t paren = end;
    while (paren < code.size() && is_space(code[paren])) ++paren;
    if (paren >= code.size() || code[paren] != '(') {
      at = end;
      continue;
    }
    // Walk back over the qualifier chain (Class::steer) and whitespace;
    // a *definition* has the return type `Decision` right before it.
    std::size_t q = at;
    while (q > 0 && (is_word(code[q - 1]) || code[q - 1] == ':')) --q;
    while (q > 0 && is_space(code[q - 1])) --q;
    if (q < 8 || code.compare(q - 8, 8, "Decision") != 0 ||
        (q >= 9 && is_word(code[q - 9]))) {
      at = end;
      continue;
    }
    const std::size_t close = match_forward(code, paren);
    if (close == std::string::npos) {
      at = end;
      continue;
    }
    // Skim const/override/final/noexcept; stop at '{' (definition) or
    // ';' / '=' (declaration, defaulted, pure virtual).
    std::size_t p = close + 1;
    while (p < code.size() && code[p] != '{' && code[p] != ';' &&
           code[p] != '=') {
      ++p;
    }
    if (p >= code.size() || code[p] != '{') {
      at = end;
      continue;
    }
    const std::size_t body_end = match_forward(code, p);
    if (body_end == std::string::npos) {
      at = end;
      continue;
    }
    const std::string body = code.substr(p, body_end - p);
    const std::set<std::string> ok_vars = reason_carrying_vars(body);

    std::size_t r = 0;
    while ((r = body.find("return", r)) != std::string::npos) {
      const char rb = r > 0 ? body[r - 1] : '\0';
      const char ra = r + 6 < body.size() ? body[r + 6] : '\0';
      if (is_word(rb) || is_word(ra)) {
        r += 6;
        continue;
      }
      const std::size_t semi = body.find(';', r);
      const std::string stmt =
          body.substr(r, semi == std::string::npos ? std::string::npos
                                                   : semi - r);
      // A reason is present when the return carries a string literal
      // (aggregate init with a reason tag), mentions `reason` directly,
      // or delegates to another steer() — the delegate's own exit paths
      // are checked wherever they are defined.
      bool ok = stmt.find('"') != std::string::npos ||
                stmt.find("reason") != std::string::npos ||
                stmt.find("steer") != std::string::npos;
      if (!ok) {
        // `return X;` where X provably carries a reason.
        const std::string_view expr = trim(std::string_view(stmt).substr(6));
        ok = !expr.empty() && ok_vars.count(std::string(expr)) > 0;
      }
      if (!ok) {
        findings->push_back(
            {path, sc.line_of(p + r), "steer-missing-reason",
             Severity::kError,
             "return in a steer() implementation without an audit reason "
             "tag (set Decision::reason on every exit path so the "
             "steering-decision audit log stays complete)"});
      }
      r = semi == std::string::npos ? body.size() : semi;
    }
    at = body_end;
  }
}

// ---- R4: raw new / delete ---------------------------------------------

void check_new_delete(const std::string& path, const Scrubbed& sc,
                      std::vector<Finding>* findings) {
  const std::string& code = sc.code;
  for (const std::string_view kw : {std::string_view("new"),
                                    std::string_view("delete")}) {
    std::size_t at = 0;
    while ((at = code.find(kw, at)) != std::string::npos) {
      const std::size_t end = at + kw.size();
      const char after = end < code.size() ? code[end] : '\0';
      if ((at > 0 && is_word(code[at - 1])) || is_word(after)) {
        at = end;
        continue;
      }
      // `= delete;` (deleted special members) and `operator new/delete`
      // declarations are not ownership transfers.
      std::size_t b = at;
      while (b > 0 && is_space(code[b - 1])) --b;
      const bool deleted_fn = kw == "delete" && b > 0 && code[b - 1] == '=';
      bool operator_decl = false;
      if (b >= 8 && code.compare(b - 8, 8, "operator") == 0) {
        operator_decl = true;
      }
      if (!deleted_fn && !operator_decl) {
        findings->push_back(
            {path, sc.line_of(at), "raw-new-delete", Severity::kError,
             "raw " + std::string(kw) +
                 ": ownership goes through std::unique_ptr / containers "
                 "in this codebase (leaks in long sweep runs are silent)"});
      }
      at = end;
    }
  }
}

// ---- R5: floating-point equality --------------------------------------

/// True when `expr` contains a floating-point literal token (1.0, .5,
/// 2e5, 0x1.0p-53).
bool has_float_literal(std::string_view expr) {
  for (std::size_t i = 0; i < expr.size(); ++i) {
    const char c = expr[i];
    if (c != '.' && (std::isdigit(static_cast<unsigned char>(c)) == 0)) {
      continue;
    }
    // Token must not be glued to an identifier: `p50` is not a float.
    if (i > 0 && is_word(expr[i - 1])) continue;
    std::size_t j = i;
    bool saw_digit = false;
    bool saw_dot = false;
    bool saw_exp = false;
    while (j < expr.size()) {
      const char d = expr[j];
      if (std::isdigit(static_cast<unsigned char>(d)) != 0) {
        saw_digit = true;
      } else if (d == '.' && !saw_dot) {
        saw_dot = true;
      } else if ((d == 'e' || d == 'E' || d == 'p' || d == 'P') && saw_digit &&
                 j + 1 < expr.size() &&
                 (std::isdigit(static_cast<unsigned char>(expr[j + 1])) !=
                      0 ||
                  expr[j + 1] == '+' || expr[j + 1] == '-')) {
        saw_exp = true;
        ++j;  // consume sign/first digit marker
      } else if (d == 'x' || d == 'X' || (d >= 'a' && d <= 'f') ||
                 (d >= 'A' && d <= 'F')) {
        // hex digits / prefix, only meaningful if a float marker follows
      } else {
        break;
      }
      ++j;
    }
    if (saw_digit && (saw_dot || saw_exp)) {
      // `1.` / `1.0` / `2e5`: also require not glued to an identifier
      // char on the right (e.g. `1.foo` cannot happen in valid C++).
      if (j >= expr.size() || !is_word(expr[j]) || expr[j] == 'f') return true;
    }
    i = j;
  }
  return false;
}

void check_float_equality(const std::string& path, const Scrubbed& sc,
                          std::vector<Finding>* findings) {
  const std::string& code = sc.code;
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    const bool eq = code[i] == '=' && code[i + 1] == '=';
    const bool ne = code[i] == '!' && code[i + 1] == '=';
    if (!eq && !ne) continue;
    const char before = i > 0 ? code[i - 1] : '\0';
    if (before == '=' || before == '!' || before == '<' || before == '>') {
      continue;
    }
    if (i + 2 < code.size() && code[i + 2] == '=') continue;
    // Operand windows: out to the nearest expression boundary.
    constexpr std::string_view kStops = ",;(){}?&|!<>=";
    std::size_t ls = i;
    while (ls > 0 && kStops.find(code[ls - 1]) == std::string_view::npos &&
           code[ls - 1] != '\n') {
      --ls;
    }
    std::size_t re = i + 2;
    while (re < code.size() &&
           kStops.find(code[re]) == std::string_view::npos &&
           code[re] != '\n') {
      ++re;
    }
    const std::string_view lhs =
        trim(std::string_view(code).substr(ls, i - ls));
    const std::string_view rhs =
        trim(std::string_view(code).substr(i + 2, re - i - 2));
    if (has_float_literal(lhs) || has_float_literal(rhs)) {
      findings->push_back(
          {path, sc.line_of(i), "float-equality", Severity::kWarning,
           "floating-point ==/!= comparison: metric values must be "
           "compared with an ordering or an explicit tolerance (exact "
           "equality is representation-dependent)"});
    }
    ++i;
  }
}

// ---- R8: std::hash ----------------------------------------------------

void check_std_hash(const std::string& path, const Scrubbed& sc,
                    std::vector<Finding>* findings) {
  const std::string& code = sc.code;
  std::size_t at = 0;
  while ((at = code.find("hash", at)) != std::string::npos) {
    const std::size_t end = at + 4;
    const char before = at > 0 ? code[at - 1] : '\0';
    const char after = end < code.size() ? code[end] : '\0';
    if (is_word(before) || is_word(after)) {
      at = end;
      continue;
    }
    // Only the qualified form `std :: hash` (whitespace-tolerant); bare
    // `hash` identifiers and other-namespace hashes are fine.
    std::size_t p = at;
    while (p > 0 && is_space(code[p - 1])) --p;
    if (p < 2 || code[p - 1] != ':' || code[p - 2] != ':') {
      at = end;
      continue;
    }
    p -= 2;
    while (p > 0 && is_space(code[p - 1])) --p;
    if (p < 3 || code.compare(p - 3, 3, "std") != 0 ||
        (p > 3 && (is_word(code[p - 4]) || code[p - 4] == ':'))) {
      at = end;
      continue;
    }
    findings->push_back(
        {path, sc.line_of(at), "std-hash", Severity::kError,
         "std::hash: libstdc++ and libc++ hash the same value "
         "differently, so seeds/sampling keys derived from it diverge "
         "across platforms; use sim::fnv1a64 / sim::seed_mix "
         "(sim/seed.hpp) instead"});
    at = end;
  }
}

void sort_findings(std::vector<Finding>* findings) {
  std::stable_sort(findings->begin(), findings->end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
}

/// The per-file pass over one analyzed file: its directive findings
/// (never suppressible), then R1–R5 and R8 minus whatever its allow()
/// directives silence.
void lint_one(const FileData& fd, std::vector<Finding>* out) {
  out->insert(out->end(), fd.directive_findings.begin(),
              fd.directive_findings.end());
  std::vector<Finding> raw;
  // The clock island may read host clocks freely; everywhere else R1
  // applies and (per R7) cannot be suppressed away.
  if (!in_clock_island(fd.path)) check_wallclock(fd.path, fd.scrubbed, &raw);
  check_unordered(fd.path, fd.scrubbed, &raw);
  check_steer_reasons(fd.path, fd.scrubbed, &raw);
  check_new_delete(fd.path, fd.scrubbed, &raw);
  check_float_equality(fd.path, fd.scrubbed, &raw);
  check_std_hash(fd.path, fd.scrubbed, &raw);
  for (auto& f : raw) {
    if (!fd.allows.suppressed(f.rule, f.line)) out->push_back(std::move(f));
  }
}

}  // namespace

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> kRules = {
      {"wallclock", Severity::kError,
       "no wall-clock/entropy sources in simulation code (R1)"},
      {"unordered-container", Severity::kWarning,
       "no std::unordered_map/set where order can leak into exports (R2)"},
      {"steer-missing-reason", Severity::kError,
       "every steer() return must set an audit reason tag (R3)"},
      {"raw-new-delete", Severity::kError,
       "no raw new/delete outside allow-tagged files (R4)"},
      {"float-equality", Severity::kWarning,
       "no floating-point ==/!= on metric values (R5)"},
      {"clock-island", Severity::kError,
       "allow(wallclock) only inside src/obs/prof* and bench/ (R7)"},
      {"std-hash", Severity::kError,
       "no std::hash — platform-dependent; use sim/seed.hpp mixes (R8)"},
      {"worker-shared-state", Severity::kError,
       "no unguarded global/static writes on sweep worker threads (R9)"},
      {"unordered-taint", Severity::kError,
       "no unordered-iteration values flowing into export sinks (R10)"},
      {"hotpath-alloc", Severity::kError,
       "no allocation in HVC_PROF_SCOPE functions or callees (R11)"},
      {kAllowNeedsJustification, Severity::kError,
       "every allow() carries a justification"},
      {kAllowUnknownRule, Severity::kError,
       "allow() names only known rules"},
  };
  return kRules;
}

bool known_rule(std::string_view name) {
  for (const auto& r : rules()) {
    if (name == r.name) return true;
  }
  return false;
}

std::vector<Finding> lint_source(const std::string& path,
                                 std::string_view text) {
  std::vector<Finding> out;
  lint_one(analyze(path, text), &out);
  sort_findings(&out);
  return out;
}

std::vector<Finding> lint_tree(const std::vector<std::string>& roots) {
  std::vector<Finding> out;
  std::vector<std::string> paths;
  for (const auto& root : roots) {
    if (fs::is_regular_file(root)) {
      paths.push_back(root);
      continue;
    }
    if (!fs::is_directory(root)) {
      out.push_back({root, 1, "io-error", Severity::kError,
                     "no such file or directory"});
      continue;
    }
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc") {
        paths.push_back(entry.path().string());
      }
    }
  }
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());

  // Each file is read and analyzed once; the per-file rules and the
  // semantic index both work from that one FileData.
  std::vector<FileData> files;
  files.reserve(paths.size());
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      out.push_back({path, 1, "io-error", Severity::kError,
                     "cannot read file"});
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    files.push_back(analyze(path, buf.str()));
  }
  std::map<std::string, const FileData*> by_path;
  for (const FileData& fd : files) {
    lint_one(fd, &out);
    by_path.emplace(fd.path, &fd);
  }

  for (auto& f : run_semantic_rules(build_index(files))) {
    const auto it = by_path.find(f.file);
    if (it != by_path.end() && it->second->allows.suppressed(f.rule, f.line)) {
      continue;
    }
    out.push_back(std::move(f));
  }

  sort_findings(&out);
  return out;
}

std::string to_text(const std::vector<Finding>& findings) {
  std::string out;
  for (const auto& f : findings) {
    out += f.file + ":" + std::to_string(f.line) + ": " +
           severity_name(f.severity) + ": [" + f.rule + "] " + f.message +
           "\n";
  }
  return out;
}

std::string to_sarif(const std::vector<Finding>& findings) {
  using obs::json::quote;
  std::string out =
      "{\"$schema\":"
      "\"https://json.schemastore.org/sarif-2.1.0.json\","
      "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
      "\"name\":\"hvc_lint\",\"rules\":[";
  bool first = true;
  for (const auto& r : rules()) {
    if (!first) out += ',';
    first = false;
    out += "{\"id\":" + quote(r.name) +
           ",\"shortDescription\":{\"text\":" + quote(r.summary) + "}}";
  }
  out += "]}},\"results\":[";
  first = true;
  for (const auto& f : findings) {
    if (!first) out += ',';
    first = false;
    out += "{\"ruleId\":" + quote(f.rule) +
           ",\"level\":" + quote(severity_name(f.severity)) +
           ",\"message\":{\"text\":" + quote(f.message) +
           "},\"locations\":[{\"physicalLocation\":{"
           "\"artifactLocation\":{\"uri\":" +
           quote(f.file) + "},\"region\":{\"startLine\":" +
           std::to_string(f.line > 0 ? f.line : 1) + "}}}]}";
  }
  out += "]}]}";
  return out;
}

}  // namespace hvc::lint
