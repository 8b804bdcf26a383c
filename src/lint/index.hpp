// Semantic-analysis substrate for hvc_lint (src/lint): a lightweight,
// dependency-free C++ indexer that turns every file into a token stream
// plus a *file summary* — function definitions with their call sites,
// writes, allocation sites and taint facts; global/static variable
// declarations with their thread-safety qualifiers; and container-typed
// declarations. The cross-TU passes (graph.hpp, rules_semantic.hpp) run
// entirely over these summaries; lint_tree builds one FileData per file,
// once per run.
//
// Soundness: this is a heuristic parser, not a compiler. It has no
// preprocessor (macro bodies are seen as written; conditional-compilation
// branches are all visited), no overload resolution (calls link by name),
// and no type checking (declarations are recognized structurally). The
// rules built on top are tuned so that imprecision shows up as a missed
// finding or an easily-allowed false positive, never as silent
// corruption of the analysis. See DESIGN.md §5.11 for the full caveat
// list.
#pragma once

#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lint/lint.hpp"

namespace hvc::lint {

// ---- comment/string scrubbing (shared with the per-file R1–R8 rules) --

/// The comment/string-stripped view of one file. `code` preserves every
/// character position (stripped spans become spaces; string/char
/// delimiters are kept so "a literal is present here" stays detectable),
/// so offsets map 1:1 onto the original text. `comments` holds the
/// comment text, same positions, for directive parsing.
struct Scrubbed {
  std::string code;
  std::string comments;
  std::vector<std::size_t> line_starts;  ///< offset of each line's first char

  [[nodiscard]] int line_of(std::size_t offset) const;
  [[nodiscard]] std::size_t line_count() const { return line_starts.size(); }
  [[nodiscard]] std::string_view code_line(int line) const;
  [[nodiscard]] std::string_view comment_line(int line) const;
};

[[nodiscard]] Scrubbed scrub(std::string_view text);

// ---- suppression directives -------------------------------------------

struct FileSuppressions {
  /// (rule, line) pairs the file explicitly allows.
  std::set<std::pair<std::string, int>> allows;
  std::set<std::string> file_allows;

  [[nodiscard]] bool suppressed(const std::string& rule, int line) const {
    return file_allows.count(rule) > 0 || allows.count({rule, line}) > 0;
  }
};

/// Parse every suppression directive — `allow(...)` and
/// `allow-file(...)` forms.
/// Malformed/unjustified/unknown-rule directives become findings (never
/// themselves suppressible). Directives on a comment-only line cover the
/// next code line.
[[nodiscard]] FileSuppressions collect_suppressions(
    const std::string& path, const Scrubbed& sc,
    std::vector<Finding>* findings);

// ---- tokens -----------------------------------------------------------

struct Token {
  enum class Kind { kIdent, kNumber, kPunct, kString };
  Kind kind = Kind::kPunct;
  std::string text;
  int line = 1;
};

/// Tokenize scrubbed code. Multi-character operators that the summarizer
/// cares about (::, ->, ==, !=, <=, >=, +=, -=, *=, /=, |=, &=, ++, --,
/// &&, ||) come out as single tokens.
[[nodiscard]] std::vector<Token> tokenize(const Scrubbed& sc);

// ---- per-file semantic summary ----------------------------------------

/// A global or static variable: namespace-scope, class-static member, or
/// function-local static. The R9 race rules key off the qualifiers.
struct GlobalVar {
  std::string name;        ///< unqualified ("active_")
  std::string owner;       ///< enclosing class, or function for locals
  std::string file;
  int line = 0;
  bool is_thread_local = false;
  bool is_atomic = false;
  bool is_const = false;   ///< const/constexpr anywhere in the specifiers
  bool is_sync = false;    ///< mutex/once_flag/condition_variable-typed
  bool is_pointer = false;
};

/// A container-typed declaration (local, member, or global); R10 resolves
/// range-for iteration targets against these.
struct ContainerDecl {
  std::string name;
  std::string owner;       ///< enclosing function ("" = class/ns scope)
  std::string file;
  int line = 0;
  bool unordered = false;  ///< unordered_map/unordered_set
};

struct CallSite {
  std::string name;        ///< unqualified callee name
  int line = 0;
  bool member = false;     ///< x.f() / x->f()
  /// Identifier arguments (and, for member calls, the receiver): the
  /// R10 taint pass checks these against the caller's tainted set.
  std::vector<std::string> args;
};

struct WriteSite {
  std::string name;        ///< assigned identifier (unqualified)
  std::string qualifier;   ///< "Class" for Class::name writes, else ""
  int line = 0;
  bool member_access = false;  ///< obj.x / obj->x (never a global)
  bool null_assign = false;    ///< exactly `name = nullptr ;`
  bool this_assign = false;    ///< exactly `name = this ;`
};

struct AllocSite {
  std::string what;  ///< "new", "make_unique", ".push_back", ...
  int line = 0;
};

/// One `dst` gets a value derived from `rhs_idents` / calls to
/// `rhs_calls` (assignment, compound assignment, or container append).
struct AssignFact {
  std::string dst;
  std::vector<std::string> rhs_idents;
  std::vector<std::string> rhs_calls;
  int line = 0;
};

struct ReturnFact {
  std::vector<std::string> idents;
  std::vector<std::string> calls;
  int line = 0;
};

/// A range-for over a named container: `for (... : C)`. Writes recorded
/// inside the loop body are listed so R10 can seed taint when C resolves
/// to an unordered container.
struct IterLoop {
  std::string container;            ///< iterated identifier
  int line = 0;
  std::vector<std::string> writes;  ///< vars assigned/appended in the body
};

struct FunctionSummary {
  std::string name;        ///< unqualified ("run_sweep", "steer", "~Foo")
  std::string qualified;   ///< as written ("PacketTracer::disable")
  std::string owner_class; ///< from the qualifier or enclosing class
  std::string file;
  int line_begin = 0;
  int line_end = 0;
  bool has_prof_scope = false;  ///< lexically contains HVC_PROF_SCOPE
  bool has_lock = false;        ///< lock_guard/unique_lock/scoped_lock/
                                ///< call_once/lock() appears in the body
  std::vector<CallSite> calls;
  std::vector<WriteSite> writes;
  std::vector<AllocSite> allocs;
  std::vector<std::string> params;     ///< parameter names, in order
  std::set<std::string> locals;        ///< params + local declarations
  std::set<std::string> self_guarded;  ///< names compared ==/!= this
  std::vector<AssignFact> assigns;
  std::vector<ReturnFact> returns;
  std::vector<IterLoop> iter_loops;
};

struct FileSummary {
  std::vector<FunctionSummary> functions;
  std::vector<GlobalVar> globals;
  std::vector<ContainerDecl> containers;
};

/// Summarize one tokenized file. Exposed for unit tests; production code
/// goes through analyze().
[[nodiscard]] FileSummary summarize(const std::string& path,
                                    const std::vector<Token>& tokens);

// ---- per-file analysis ------------------------------------------------

/// Everything the engine derives from one file: the scrubbed view the
/// per-file rules walk, its suppressions (plus the findings about
/// malformed directives), and the semantic summary.
struct FileData {
  std::string path;
  Scrubbed scrubbed;
  FileSuppressions allows;
  std::vector<Finding> directive_findings;
  FileSummary summary;
};

/// Scrub, tokenize and summarize one file's text and parse its
/// suppression directives.
[[nodiscard]] FileData analyze(const std::string& path,
                               std::string_view text);

}  // namespace hvc::lint
