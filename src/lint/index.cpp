#include "lint/index.hpp"

#include <algorithm>
#include <cctype>

namespace hvc::lint {

namespace {

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

// Keywords that look like calls when followed by '(' but are not.
[[nodiscard]] bool is_control_keyword(const std::string& t) {
  return t == "if" || t == "for" || t == "while" || t == "switch" ||
         t == "return" || t == "sizeof" || t == "catch" || t == "alignof" ||
         t == "decltype" || t == "static_assert" || t == "noexcept" ||
         t == "alignas" || t == "assert" || t == "defined" ||
         t == "static_cast" || t == "dynamic_cast" || t == "const_cast" ||
         t == "reinterpret_cast" || t == "throw" || t == "co_return" ||
         t == "co_await" || t == "new" || t == "delete";
}

[[nodiscard]] bool is_type_keyword(const std::string& t) {
  return t == "auto" || t == "void" || t == "bool" || t == "char" ||
         t == "int" || t == "long" || t == "short" || t == "float" ||
         t == "double" || t == "unsigned" || t == "signed" ||
         t == "const" || t == "constexpr" || t == "static" ||
         t == "thread_local" || t == "inline" || t == "volatile" ||
         t == "mutable" || t == "extern" || t == "register";
}

}  // namespace

// ---- Scrubbed ---------------------------------------------------------

int Scrubbed::line_of(std::size_t offset) const {
  const auto it =
      std::upper_bound(line_starts.begin(), line_starts.end(), offset);
  return static_cast<int>(it - line_starts.begin());
}

std::string_view Scrubbed::code_line(int line) const {
  const auto i = static_cast<std::size_t>(line - 1);
  if (i >= line_starts.size()) return {};
  const std::size_t start = line_starts[i];
  const std::size_t end =
      i + 1 < line_starts.size() ? line_starts[i + 1] - 1 : code.size();
  return std::string_view(code).substr(start, end - start);
}

std::string_view Scrubbed::comment_line(int line) const {
  const auto i = static_cast<std::size_t>(line - 1);
  if (i >= line_starts.size()) return {};
  const std::size_t start = line_starts[i];
  const std::size_t end =
      i + 1 < line_starts.size() ? line_starts[i + 1] - 1 : comments.size();
  return std::string_view(comments).substr(start, end - start);
}

Scrubbed scrub(std::string_view text) {
  Scrubbed out;
  out.code.assign(text.size(), ' ');
  out.comments.assign(text.size(), ' ');
  out.line_starts.push_back(0);

  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString
  };
  State state = State::kCode;
  std::string raw_delim;  // the )delim" terminator for raw strings

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      out.code[i] = '\n';
      out.comments[i] = '\n';
      out.line_starts.push_back(i + 1);
      if (state == State::kLineComment) state = State::kCode;
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;  // swallow both slashes
          if (i < text.size() && text[i] == '\n') --i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == '"' &&
                   (i >= 1 && text[i - 1] == 'R' &&
                    (i < 2 || !is_word(text[i - 2])))) {
          // R"delim( ... )delim"
          std::size_t p = i + 1;
          while (p < text.size() && text[p] != '(') ++p;
          raw_delim = ")" + std::string(text.substr(i + 1, p - i - 1)) + "\"";
          out.code[i] = '"';
          i = p;  // leave contents blanked from here on
          state = State::kRawString;
        } else if (c == '"') {
          out.code[i] = '"';
          state = State::kString;
        } else if (c == '\'') {
          out.code[i] = '\'';
          state = State::kChar;
        } else {
          out.code[i] = c;
        }
        break;
      case State::kLineComment:
        out.comments[i] = c;
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          ++i;
          state = State::kCode;
        } else {
          out.comments[i] = c;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;  // skip the escaped char (stays blanked)
        } else if (c == '"') {
          out.code[i] = '"';
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          out.code[i] = '\'';
          state = State::kCode;
        }
        break;
      case State::kRawString:
        if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          out.code[i] = '"';
          state = State::kCode;
        }
        break;
    }
  }
  return out;
}

// ---- suppression directives -------------------------------------------

FileSuppressions collect_suppressions(const std::string& path,
                                      const Scrubbed& sc,
                                      std::vector<Finding>* findings) {
  FileSuppressions out;
  constexpr std::string_view kTag = "hvc-lint:";
  // Diagnostics about the suppression machinery itself; not suppressible.
  constexpr const char* kAllowNeedsJustification =
      "allow-needs-justification";
  constexpr const char* kAllowUnknownRule = "allow-unknown-rule";
  for (int line = 1; line <= static_cast<int>(sc.line_count()); ++line) {
    const std::string_view comment = sc.comment_line(line);
    std::size_t at = comment.find(kTag);
    if (at == std::string_view::npos) continue;
    std::string_view rest = trim(comment.substr(at + kTag.size()));

    bool file_scope = false;
    if (rest.rfind("allow-file", 0) == 0) {
      file_scope = true;
      rest.remove_prefix(std::string_view("allow-file").size());
    } else if (rest.rfind("allow", 0) == 0) {
      rest.remove_prefix(std::string_view("allow").size());
    } else {
      findings->push_back({path, line, kAllowUnknownRule, Severity::kError,
                           "unrecognized hvc-lint directive (expected "
                           "allow(<rule>) or allow-file(<rule>))"});
      continue;
    }
    rest = trim(rest);
    if (rest.empty() || rest.front() != '(') {
      findings->push_back({path, line, kAllowUnknownRule, Severity::kError,
                           "malformed allow: expected (<rule>[,<rule>...])"});
      continue;
    }
    const std::size_t close = rest.find(')');
    if (close == std::string_view::npos) {
      findings->push_back({path, line, kAllowUnknownRule, Severity::kError,
                           "malformed allow: missing ')'"});
      continue;
    }
    const std::string_view rule_list = rest.substr(1, close - 1);
    std::string_view after = trim(rest.substr(close + 1));

    // A justification is mandatory: ": why this is safe". The "why" is
    // what turns an allow from a mute button into a proof obligation.
    bool justified = false;
    if (!after.empty() && after.front() == ':') {
      const std::string_view why = trim(after.substr(1));
      justified = why.size() >= 10;
    }
    if (!justified) {
      // Continuation comment lines immediately below count as the
      // justification body (long explanations wrap).
      const std::string_view next_comment =
          line < static_cast<int>(sc.line_count())
              ? trim(sc.comment_line(line + 1))
              : std::string_view{};
      justified = !after.empty() && after.front() == ':' &&
                  next_comment.size() >= 10;
    }
    if (!justified) {
      findings->push_back(
          {path, line, kAllowNeedsJustification, Severity::kError,
           "allow() must carry a justification: \"// hvc-lint: "
           "allow(rule): why this is provably safe\""});
      continue;
    }

    // Split the rule list and register.
    std::size_t start = 0;
    while (start <= rule_list.size()) {
      std::size_t comma = rule_list.find(',', start);
      if (comma == std::string_view::npos) comma = rule_list.size();
      const std::string rule{trim(rule_list.substr(start, comma - start))};
      start = comma + 1;
      if (rule.empty()) continue;
      if (!known_rule(rule)) {
        findings->push_back({path, line, kAllowUnknownRule, Severity::kError,
                             "allow names unknown rule '" + rule + "'"});
        continue;
      }
      // R7: wallclock suppressions are themselves banned outside the
      // clock island — host time comes from obs::prof::now_ns(), not
      // from a local carve-out. (Island files skip R1 entirely, so a
      // wallclock allow there is merely dead weight, not an error.)
      if (rule == "wallclock" && !in_clock_island(path)) {
        findings->push_back(
            {path, line, "clock-island", Severity::kError,
             "allow(wallclock) outside the clock island (src/obs/prof*, "
             "bench/): call obs::prof::now_ns()/cycles() instead of "
             "suppressing the wallclock ban locally"});
        continue;
      }
      if (file_scope) {
        out.file_allows.insert(rule);
        continue;
      }
      out.allows.insert({rule, line});
      // A directive on a comment-only line covers the next code line.
      if (trim(sc.code_line(line)).empty()) {
        int next = line + 1;
        while (next <= static_cast<int>(sc.line_count()) &&
               trim(sc.code_line(next)).empty() &&
               sc.comment_line(next).find(kTag) == std::string_view::npos) {
          ++next;
        }
        out.allows.insert({rule, next});
      }
    }
  }
  return out;
}

// ---- tokenizer --------------------------------------------------------

std::vector<Token> tokenize(const Scrubbed& sc) {
  std::vector<Token> out;
  const std::string& code = sc.code;
  std::size_t i = 0;
  while (i < code.size()) {
    const char c = code[i];
    if (is_space(c)) {
      ++i;
      continue;
    }
    const int line = sc.line_of(i);
    if (is_word(c) && std::isdigit(static_cast<unsigned char>(c)) == 0) {
      std::size_t j = i + 1;
      while (j < code.size() && is_word(code[j])) ++j;
      out.push_back({Token::Kind::kIdent, code.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      std::size_t j = i + 1;
      while (j < code.size() &&
             (is_word(code[j]) || code[j] == '.' ||
              ((code[j] == '+' || code[j] == '-') && j > 0 &&
               (code[j - 1] == 'e' || code[j - 1] == 'E' ||
                code[j - 1] == 'p' || code[j - 1] == 'P')))) {
        ++j;
      }
      out.push_back({Token::Kind::kNumber, code.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (c == '"' || c == '\'') {
      // Scrub leaves only the delimiters; a pair of matching delimiters
      // marks one literal. Collapse to a single token.
      std::size_t j = i + 1;
      while (j < code.size() && code[j] != c) ++j;
      out.push_back({Token::Kind::kString, std::string(1, c), line});
      i = j < code.size() ? j + 1 : j;
      continue;
    }
    // Multi-char operators the summarizer must not split.
    static constexpr std::string_view kTwo[] = {
        "::", "->", "==", "!=", "<=", ">=", "+=", "-=", "*=",
        "/=", "%=", "|=", "&=", "^=", "++", "--", "&&", "||",
        "<<", ">>"};
    bool matched = false;
    for (const auto& op : kTwo) {
      if (code.compare(i, op.size(), op) == 0) {
        // "<<=" / ">>=" fold into the shift token plus '='; good enough.
        out.push_back({Token::Kind::kPunct, std::string(op), line});
        i += op.size();
        matched = true;
        break;
      }
    }
    if (matched) continue;
    out.push_back({Token::Kind::kPunct, std::string(1, c), line});
    ++i;
  }
  return out;
}

// ---- summarizer -------------------------------------------------------

namespace {

/// Cursor over the token stream with bounds-safe access.
struct Cur {
  const std::vector<Token>& toks;
  [[nodiscard]] const std::string& text(std::size_t i) const {
    static const std::string kEmpty;
    return i < toks.size() ? toks[i].text : kEmpty;
  }
  [[nodiscard]] bool ident(std::size_t i) const {
    return i < toks.size() && toks[i].kind == Token::Kind::kIdent;
  }
  [[nodiscard]] int line(std::size_t i) const {
    return i < toks.size() ? toks[i].line : 0;
  }
};

/// Index of the token after the matching close for the open bracket at
/// `open` (tokens[open] must be "(", "{", or "["). Returns toks.size()
/// when unbalanced.
std::size_t skip_balanced(const std::vector<Token>& toks, std::size_t open) {
  const std::string& oc = toks[open].text;
  const std::string cc = oc == "(" ? ")" : oc == "{" ? "}" : "]";
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].text == oc) ++depth;
    if (toks[i].text == cc && --depth == 0) return i + 1;
  }
  return toks.size();
}

[[nodiscard]] bool is_sync_type_token(const std::string& t) {
  return t == "mutex" || t == "recursive_mutex" || t == "shared_mutex" ||
         t == "timed_mutex" || t == "once_flag" ||
         t == "condition_variable" || t == "condition_variable_any";
}

[[nodiscard]] bool is_lock_token(const std::string& t) {
  return t == "lock_guard" || t == "unique_lock" || t == "scoped_lock" ||
         t == "shared_lock" || t == "call_once" || t == "lock";
}

[[nodiscard]] bool is_growth_call(const std::string& t) {
  return t == "push_back" || t == "emplace_back" || t == "emplace" ||
         t == "insert" || t == "push" || t == "resize" || t == "reserve" ||
         t == "append" || t == "emplace_front" || t == "push_front";
}

[[nodiscard]] bool is_assign_op(const std::string& t) {
  return t == "=" || t == "+=" || t == "-=" || t == "*=" || t == "/=" ||
         t == "%=" || t == "|=" || t == "&=" || t == "^=";
}

/// Parse one variable-ish declaration statement starting at `i` (which
/// must point after any leading specifiers); returns the declared name
/// (last identifier before '=', ';', '[' or '{') or "" when the
/// statement does not look like a variable. `stop` bounds the scan.
std::string declared_name(const Cur& c, std::size_t i, std::size_t stop,
                          bool* saw_pointer) {
  std::string name;
  int angle = 0;
  for (std::size_t j = i; j < stop && j < c.toks.size(); ++j) {
    const std::string& t = c.text(j);
    if (t == "<") ++angle;
    if (t == ">") angle = angle > 0 ? angle - 1 : 0;
    if (angle > 0) continue;
    if (t == ";" || t == "=" || t == "{") break;
    if (t == "(") return "";  // function declaration/definition
    if (t == "*" && saw_pointer != nullptr) *saw_pointer = true;
    if (c.ident(j)) name = t;
  }
  return name;
}

struct ScopeFrame {
  enum class Kind { kNamespace, kClass, kFunction, kOther };
  Kind kind;
  std::string name;
  std::size_t open;  ///< token index of the '{'
};

/// Extract RHS identifiers and calls from [i, stop): bare identifiers
/// (not preceded by '.'/'->', not immediately followed by '(') land in
/// idents; call targets land in calls.
void collect_rhs(const Cur& c, std::size_t i, std::size_t stop,
                 std::vector<std::string>* idents,
                 std::vector<std::string>* calls) {
  for (std::size_t j = i; j < stop && j < c.toks.size(); ++j) {
    if (!c.ident(j)) continue;
    const std::string& t = c.text(j);
    if (is_control_keyword(t) || is_type_keyword(t)) continue;
    const bool call = c.text(j + 1) == "(";
    if (call) {
      calls->push_back(t);
    } else if (idents->size() < 16) {  // cap: pathological expressions
      idents->push_back(t);
    }
  }
}

}  // namespace

FileSummary summarize(const std::string& path,
                      const std::vector<Token>& tokens) {
  FileSummary out;
  const Cur c{tokens};
  std::vector<ScopeFrame> scopes;

  auto enclosing_class = [&]() -> std::string {
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
      if (it->kind == ScopeFrame::Kind::kClass) return it->name;
    }
    return "";
  };
  auto in_function = [&]() {
    // Nested statement blocks push anonymous kOther frames; any function
    // frame below them still means "inside a function body".
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
      if (it->kind == ScopeFrame::Kind::kFunction) return true;
      if (it->kind == ScopeFrame::Kind::kNamespace ||
          it->kind == ScopeFrame::Kind::kClass) {
        return false;
      }
    }
    return false;
  };

  // Pending function summary while inside its body.
  FunctionSummary fn;
  std::size_t fn_body_end = 0;  // token index one past the body's '}'

  auto summarize_statics_and_containers =
      [&](std::size_t i, std::size_t stmt_end, const std::string& owner,
          bool force_static) {
        // Specifier scan over the statement.
        bool st = force_static;
        bool tl = false;
        bool cst = false;
        bool atomic = false;
        bool sync = false;
        bool unordered = false;
        bool ordered_container = false;
        for (std::size_t j = i; j < stmt_end; ++j) {
          const std::string& t = c.text(j);
          if (t == "static") st = true;
          if (t == "thread_local") tl = true;
          if (t == "const" || t == "constexpr" || t == "constinit") {
            cst = true;
          }
          if (t == "atomic" || t == "atomic_bool" || t == "atomic_int") {
            atomic = true;
          }
          if (is_sync_type_token(t)) sync = true;
          if (t == "unordered_map" || t == "unordered_set" ||
              t == "unordered_multimap" || t == "unordered_multiset") {
            unordered = true;
          }
          if (t == "map" || t == "set" || t == "vector" || t == "deque" ||
              t == "multimap" || t == "multiset") {
            ordered_container = true;
          }
          if (t == "=") break;  // specifiers precede the initializer
        }
        bool pointer = false;
        const std::string name = declared_name(c, i, stmt_end, &pointer);
        if (name.empty()) return;
        // Class::name out-of-line definitions: qualifier right before
        // the declared name.
        std::string qual_owner = owner;
        for (std::size_t j = i; j + 2 < stmt_end; ++j) {
          if (c.text(j + 1) == "::" && c.text(j + 2) == name &&
              c.ident(j)) {
            qual_owner = c.text(j);
          }
        }
        if (st || tl) {
          out.globals.push_back({name, qual_owner, path, c.line(i), tl,
                                 atomic, cst, sync, pointer});
        } else if (owner.empty() && !in_function()) {
          // Namespace-scope non-static: still a process global.
          out.globals.push_back({name, qual_owner, path, c.line(i), tl,
                                 atomic, cst, sync, pointer});
        }
        if (unordered || ordered_container) {
          out.containers.push_back(
              {name, owner, path, c.line(i), unordered});
        }
      };

  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& t = c.text(i);

    // ---- scope tracking ----
    if (t == "}") {
      if (!scopes.empty()) {
        if (scopes.back().kind == ScopeFrame::Kind::kFunction &&
            i + 1 >= fn_body_end) {
          fn.line_end = c.line(i);
          out.functions.push_back(fn);
          fn = FunctionSummary{};
        }
        scopes.pop_back();
      }
      continue;
    }
    if (t == "{") {
      // Bare brace (statement block, aggregate initializer, lambda body
      // of a skipped construct): anonymous frame so '}' pops in balance.
      scopes.push_back({ScopeFrame::Kind::kOther, "", i});
      continue;
    }
    if (t == "namespace") {
      std::size_t j = i + 1;
      std::string name;
      while (c.ident(j) || c.text(j) == "::") {
        if (c.ident(j)) name += (name.empty() ? "" : "::") + c.text(j);
        ++j;
      }
      if (c.text(j) == "{") {
        scopes.push_back({ScopeFrame::Kind::kNamespace, name, j});
        i = j;
      }
      continue;
    }
    if ((t == "class" || t == "struct" || t == "union") && !in_function()) {
      // `class X final? : bases { ... }` — find the '{' before any ';'.
      std::size_t j = i + 1;
      std::string name = c.ident(j) ? c.text(j) : "";
      while (j < tokens.size() && c.text(j) != "{" && c.text(j) != ";") {
        // `class X;` fwd decl or `class X* p` usage — bail at ';'.
        if (c.text(j) == "(") break;  // e.g. macro use
        ++j;
      }
      if (c.text(j) == "{") {
        scopes.push_back({ScopeFrame::Kind::kClass, name, j});
        i = j;
      }
      continue;
    }
    if (t == "enum") {
      // Skip enum bodies entirely (enumerators are not variables).
      std::size_t j = i;
      while (j < tokens.size() && c.text(j) != "{" && c.text(j) != ";") ++j;
      if (c.text(j) == "{") j = skip_balanced(tokens, j) - 1;
      i = j;
      continue;
    }
    if (t == "#") {
      // Preprocessor: skip to end of line (tokens carry line numbers).
      const int line = c.line(i);
      std::size_t j = i + 1;
      while (j < tokens.size() && c.line(j) == line) ++j;
      i = j - 1;
      continue;
    }
    if (!in_function() &&
        (t == "using" || t == "typedef" || t == "friend")) {
      // Aliases/typedefs/friend declarations are not variables; skip the
      // statement so the declaration scan never misreads one.
      std::size_t j = i;
      while (j < tokens.size() && c.text(j) != ";") ++j;
      i = j;
      continue;
    }
    if (!in_function() && t == "template") {
      // Skip the parameter list; the templated class/function that
      // follows is indexed normally.
      std::size_t j = i + 1;
      if (c.text(j) == "<") {
        int depth = 0;
        while (j < tokens.size()) {
          if (c.text(j) == "<") ++depth;
          if (c.text(j) == ">" && --depth == 0) break;
          if (c.text(j) == ">>") {
            depth -= 2;
            if (depth <= 0) break;
          }
          ++j;
        }
      }
      i = j;
      continue;
    }

    // ---- inside a function body: fact extraction ----
    if (in_function()) {
      if (t == "HVC_PROF_SCOPE") fn.has_prof_scope = true;
      if (is_lock_token(t) && !(c.text(i - 1) == "." || c.text(i - 1) == "->"
                                ? t != "lock"
                                : false)) {
        // `.lock()` member calls and lock_guard declarations both count.
        fn.has_lock = true;
      }

      // `static` local declaration.
      if (t == "static") {
        std::size_t stmt_end = i;
        while (stmt_end < tokens.size() && c.text(stmt_end) != ";" &&
               c.text(stmt_end) != "{") {
          ++stmt_end;
        }
        summarize_statics_and_containers(i, stmt_end, fn.name, true);
        // Land ON the terminator: a ';' is inert, but a '{' (aggregate
        // initializer) must still push its anonymous frame so the
        // matching '}' does not pop the function scope.
        i = stmt_end - 1;
        continue;
      }

      // Range-for: `for ( decl : expr ) { body }`.
      if (t == "for" && c.text(i + 1) == "(") {
        const std::size_t open = i + 1;
        const std::size_t close = skip_balanced(tokens, open);
        std::size_t colon = 0;
        int depth = 0;
        for (std::size_t j = open; j + 1 < close; ++j) {
          const std::string& tj = c.text(j);
          if (tj == "(" || tj == "[" || tj == "{") ++depth;
          if (tj == ")" || tj == "]" || tj == "}") --depth;
          if (tj == ":" && depth == 1 && c.text(j - 1) != ":" &&
              c.text(j + 1) != ":") {
            colon = j;
            break;
          }
        }
        if (colon != 0) {
          // Iterated expression: first identifier after the colon
          // (handles `m`, `state.m`, `this->m`).
          std::string container;
          for (std::size_t j = colon + 1; j + 1 < close; ++j) {
            if (c.ident(j) && !is_type_keyword(c.text(j))) {
              container = c.text(j);
              if (c.text(j + 1) == "." || c.text(j + 1) == "->") {
                container = c.text(j + 2);  // member: the field name
              }
              break;
            }
          }
          // Loop variable(s): structured-binding idents inside [..], or
          // the last identifier before the colon. They carry the
          // container's values, so R10 seeds taint from them too.
          std::vector<std::string> loop_vars;
          bool in_binding = false;
          std::string last_ident;
          for (std::size_t j = open + 1; j < colon; ++j) {
            const std::string& tj = c.text(j);
            if (tj == "[") in_binding = true;
            if (tj == "]") in_binding = false;
            if (c.ident(j) && !is_type_keyword(tj)) {
              if (in_binding) {
                loop_vars.push_back(tj);
              } else {
                last_ident = tj;
              }
            }
          }
          if (loop_vars.empty() && !last_ident.empty()) {
            loop_vars.push_back(last_ident);
          }
          for (const auto& lv : loop_vars) fn.locals.insert(lv);
          if (!container.empty() && c.text(close) == "{") {
            const std::size_t body_end = skip_balanced(tokens, close);
            IterLoop loop;
            loop.container = container;
            loop.line = c.line(i);
            loop.writes = loop_vars;
            // Writes inside the loop body (assignments and appends).
            for (std::size_t j = close + 1; j + 1 < body_end; ++j) {
              if (!c.ident(j)) continue;
              const std::string& nm = c.text(j);
              if (is_type_keyword(nm) || is_control_keyword(nm)) continue;
              const std::string& nx = c.text(j + 1);
              if (is_assign_op(nx) && c.text(j - 1) != "." &&
                  c.text(j - 1) != "->") {
                loop.writes.push_back(nm);
              } else if ((nx == "." || nx == "->") &&
                         (is_growth_call(c.text(j + 2)) ||
                          c.text(j + 2) == "push_back")) {
                loop.writes.push_back(nm);
              }
            }
            fn.iter_loops.push_back(std::move(loop));
          }
        }
        i = close - 1;  // still walk the loop body for other facts
        continue;
      }

      if (c.ident(i)) {
        const std::string& prev = c.text(i - 1);
        const std::string& next = c.text(i + 1);
        const bool member_access = prev == "." || prev == "->";

        // Calls (also feeds alloc detection for make_unique/shared and
        // growth methods). Identifier arguments — and the receiver of a
        // member call — are captured for the taint pass.
        if (next == "(" && !is_control_keyword(t) && !is_type_keyword(t)) {
          CallSite cs{t, c.line(i), member_access, {}};
          if (member_access && c.ident(i - 2)) {
            cs.args.push_back(c.text(i - 2));
          }
          const std::size_t close = skip_balanced(tokens, i + 1);
          std::vector<std::string> arg_calls;
          collect_rhs(c, i + 2, close - 1, &cs.args, &arg_calls);
          fn.calls.push_back(std::move(cs));
          if (t == "make_unique" || t == "make_shared") {
            fn.allocs.push_back({t, c.line(i)});
          } else if (member_access && is_growth_call(t)) {
            fn.allocs.push_back({"." + t, c.line(i)});
          }
        } else if (next == "<" && (t == "make_unique" || t == "make_shared")) {
          fn.calls.push_back({t, c.line(i), member_access, {}});
          fn.allocs.push_back({t, c.line(i)});
        }

        // Local declarations: `Type name ...` where the previous token
        // is a type-ish ident / '>' / '*' / '&' and the next token ends
        // the declarator. Registers shadows so writes to them are not
        // mistaken for global writes.
        if (!member_access &&
            (next == "=" || next == ";" || next == "," || next == ")" ||
             next == "{") &&
            (c.text(i - 1) == ">" || c.text(i - 1) == "*" ||
             c.text(i - 1) == "&" || c.text(i - 1) == "&&" ||
             (c.ident(i - 1) && !is_control_keyword(prev)))) {
          if (c.ident(i - 1) || is_type_keyword(prev) ||
              c.text(i - 1) == ">" || c.text(i - 1) == "*" ||
              c.text(i - 1) == "&" || c.text(i - 1) == "&&") {
            fn.locals.insert(t);
          }
        }

        // Container declarations local to this function.
        if ((prev == ">" || c.ident(i - 1)) &&
            (next == ";" || next == "=" || next == "{" || next == "(")) {
          // Look back for the container keyword within this statement.
          std::size_t back = i;
          bool unordered = false;
          bool ordered = false;
          int steps = 0;
          while (back > 0 && steps < 24) {
            const std::string& bt = c.text(--back);
            if (bt == ";" || bt == "{" || bt == "}") break;
            if (bt == "unordered_map" || bt == "unordered_set" ||
                bt == "unordered_multimap" || bt == "unordered_multiset") {
              unordered = true;
              break;
            }
            if (bt == "map" || bt == "set" || bt == "vector") {
              ordered = true;
              break;
            }
            ++steps;
          }
          if (unordered || ordered) {
            out.containers.push_back(
                {t, fn.name, path, c.line(i), unordered});
          }
        }

        // Writes: `X = ...`, `X += ...`, `++X`, `X++`.
        if (is_assign_op(next) && next != "==" && prev != "==") {
          WriteSite w;
          w.name = t;
          w.line = c.line(i);
          w.member_access = member_access;
          if (prev == "::" && c.ident(i - 2)) {
            w.qualifier = c.text(i - 2);
            w.member_access = false;
          }
          if (next == "=") {
            w.null_assign = c.text(i + 2) == "nullptr" &&
                            (c.text(i + 3) == ";" || c.text(i + 3) == ")");
            w.this_assign = c.text(i + 2) == "this" &&
                            (c.text(i + 3) == ";" || c.text(i + 3) == ")");
          }
          fn.writes.push_back(w);

          // Assignment dataflow fact (R10): RHS window to the ';'.
          std::size_t stmt_end = i + 2;
          int depth = 0;
          while (stmt_end < tokens.size()) {
            const std::string& et = c.text(stmt_end);
            if (et == "(" || et == "[" || et == "{") ++depth;
            if (et == ")" || et == "]" || et == "}") {
              if (depth == 0) break;
              --depth;
            }
            if (et == ";" && depth == 0) break;
            ++stmt_end;
          }
          AssignFact a;
          a.dst = t;
          a.line = c.line(i);
          collect_rhs(c, i + 2, stmt_end, &a.rhs_idents, &a.rhs_calls);
          fn.assigns.push_back(std::move(a));
        } else if ((prev == "++" || prev == "--" || next == "++" ||
                    next == "--") &&
                   !member_access) {
          WriteSite w;
          w.name = t;
          w.line = c.line(i);
          fn.writes.push_back(w);
        }

        // Container append counts as assignment dataflow into the
        // container: `X.push_back(y)` taints X with y.
        if ((next == "." || next == "->") && is_growth_call(c.text(i + 2)) &&
            c.text(i + 3) == "(") {
          const std::size_t close = skip_balanced(tokens, i + 3);
          AssignFact a;
          a.dst = t;
          a.line = c.line(i);
          collect_rhs(c, i + 4, close - 1, &a.rhs_idents, &a.rhs_calls);
          fn.assigns.push_back(std::move(a));
        }

        // Self-guard detection: `X == this`, `this == X`, `X != this`.
        if ((next == "==" || next == "!=") && c.text(i + 2) == "this") {
          fn.self_guarded.insert(t);
        }
        if (t == "this" && (next == "==" || next == "!=") &&
            c.ident(i + 2)) {
          fn.self_guarded.insert(c.text(i + 2));
        }

        // Returns.
        if (t == "return") {
          std::size_t stmt_end = i + 1;
          int depth = 0;
          while (stmt_end < tokens.size()) {
            const std::string& et = c.text(stmt_end);
            if (et == "(" || et == "[" || et == "{") ++depth;
            if (et == ")" || et == "]" || et == "}") {
              if (depth == 0) break;
              --depth;
            }
            if (et == ";" && depth == 0) break;
            ++stmt_end;
          }
          if (stmt_end > i + 1) {
            ReturnFact r;
            r.line = c.line(i);
            collect_rhs(c, i + 1, stmt_end, &r.idents, &r.calls);
            fn.returns.push_back(std::move(r));
          }
          i = stmt_end;
          continue;
        }
      }
      // `new` expressions (R11 alloc site; R4 covers style separately).
      if (t == "new" && c.text(i - 1) != "operator") {
        fn.allocs.push_back({"new", c.line(i)});
      }
      continue;
    }

    // ---- namespace / class scope ----
    if (c.ident(i)) {
      // Operator definition: `operator <op> ( params ) [quals] { ... }`.
      // The name is not directly followed by '(' so the general detection
      // below misses it; without a function frame the body's locals would
      // leak into the global table.
      if (t == "operator") {
        std::size_t j = i + 1;
        std::string op;
        if (c.text(j) == "(" && c.text(j + 1) == ")") {
          op = "()";
          j += 2;
        } else if (c.text(j) == "[" && c.text(j + 1) == "]") {
          op = "[]";
          j += 2;
        } else {
          while (j < tokens.size() && !c.ident(j) && c.text(j) != "(") {
            op += c.text(j);
            ++j;
          }
          if (op.empty()) {  // conversion operator: `operator bool`, ...
            while (j < tokens.size() &&
                   (c.ident(j) || c.text(j) == "::")) {
              if (c.ident(j)) op = c.text(j);
              ++j;
            }
          }
        }
        if (c.text(j) == "(" && !op.empty()) {
          const std::size_t close = skip_balanced(tokens, j);
          std::size_t p = close;
          bool is_def = false;
          while (p < tokens.size()) {
            const std::string& pt = c.text(p);
            if (pt == "{") {
              is_def = true;
              break;
            }
            if (pt == ";" || pt == "=") break;
            if (pt == "(") {
              p = skip_balanced(tokens, p);
              continue;
            }
            ++p;
          }
          if (is_def) {
            fn = FunctionSummary{};
            fn.file = path;
            fn.line_begin = c.line(i);
            fn.name = "operator" + op;
            if (c.text(i - 1) == "::" && c.ident(i - 2)) {
              fn.owner_class = c.text(i - 2);
            }
            if (fn.owner_class.empty()) fn.owner_class = enclosing_class();
            fn.qualified = fn.owner_class.empty()
                               ? fn.name
                               : fn.owner_class + "::" + fn.name;
            for (std::size_t k = j + 1; k + 1 < close; ++k) {
              if (c.ident(k) && !is_type_keyword(c.text(k)) &&
                  (c.text(k + 1) == "," || c.text(k + 1) == ")" ||
                   c.text(k + 1) == "=")) {
                fn.locals.insert(c.text(k));
                fn.params.push_back(c.text(k));
              }
            }
            fn_body_end = skip_balanced(tokens, p);
            scopes.push_back({ScopeFrame::Kind::kFunction, fn.name, p});
            i = p;
            continue;
          }
          i = close - 1;
          continue;
        }
      }
      // Function definition: name '(' params ')' [quals] '{'. The name
      // may be qualified (Class::name) or a destructor (~X).
      const std::string& next = c.text(i + 1);
      if (next == "(" && !is_control_keyword(t) && !is_type_keyword(t)) {
        const std::size_t close = skip_balanced(tokens, i + 1);
        // Skim const/override/final/noexcept/-> trailing return; stop at
        // '{' (definition), ';'/'=' (declaration / default / delete),
        // ':' (ctor init list — still a definition). Only signature-ish
        // tokens may appear here; anything else (a stray ')', '||', …)
        // means this was a call inside a condition, not a definition.
        std::size_t p = close;
        bool ctor_init = false;
        bool signature_ok = true;
        while (p < tokens.size()) {
          const std::string& pt = c.text(p);
          if (pt == "{" || pt == ";" || pt == "=") break;
          if (pt == ":") {
            ctor_init = true;
            break;
          }
          if (pt == "(") {
            // A second paren group is only legal in a signature after
            // noexcept/alignas/decltype or an attribute-ish __macro; any
            // other '(' means the first group was a macro invocation or
            // call, not a parameter list.
            const std::string& before = c.text(p - 1);
            if (before == "noexcept" || before == "alignas" ||
                before == "decltype" || before.rfind("__", 0) == 0) {
              p = skip_balanced(tokens, p);
              continue;
            }
            signature_ok = false;
            break;
          }
          if (!(c.ident(p) || pt == "->" || pt == "::" || pt == "<" ||
                pt == ">" || pt == ">>" || pt == "&" || pt == "&&" ||
                pt == "*" || pt == "," || pt == "[" || pt == "]")) {
            signature_ok = false;
            break;
          }
          ++p;
        }
        if (!signature_ok) {
          i = close - 1;
          continue;
        }
        if (ctor_init) {
          // Skip the member-init list to its '{'.
          int depth = 0;
          while (p < tokens.size()) {
            const std::string& pt = c.text(p);
            if (pt == "(" || pt == "[") ++depth;
            if (pt == ")" || pt == "]") --depth;
            if (pt == "{" && depth == 0) break;
            ++p;
          }
        }
        if (p < tokens.size() && c.text(p) == "{") {
          fn = FunctionSummary{};
          fn.file = path;
          fn.line_begin = c.line(i);
          // Qualified name: walk back over `Ident ::` chains; '~' marks
          // a destructor.
          std::string name = t;
          std::string qualified = t;
          std::size_t q = i;
          while (q >= 2 && c.text(q - 1) == "::" && c.ident(q - 2)) {
            qualified = c.text(q - 2) + "::" + qualified;
            fn.owner_class = c.text(q - 2);
            q -= 2;
          }
          if (c.text(q - 1) == "~") {
            name = "~" + name;
            qualified =
                qualified.substr(0, qualified.size() - t.size()) + name;
          }
          fn.name = name;
          fn.qualified = qualified;
          if (fn.owner_class.empty()) fn.owner_class = enclosing_class();
          // Parameters are locals (and, in order, taint entry points).
          for (std::size_t j = i + 2; j + 1 < close; ++j) {
            if (c.ident(j) && !is_type_keyword(c.text(j)) &&
                (c.text(j + 1) == "," || c.text(j + 1) == ")" ||
                 c.text(j + 1) == "=")) {
              fn.locals.insert(c.text(j));
              fn.params.push_back(c.text(j));
            }
          }
          fn_body_end = skip_balanced(tokens, p);
          scopes.push_back({ScopeFrame::Kind::kFunction, fn.name, p});
          i = p;
          continue;
        }
        i = close - 1;
        continue;
      }

      // Variable / container declarations at namespace or class scope:
      // scan the statement once from its first token.
      if (i == 0 || c.text(i - 1) == ";" || c.text(i - 1) == "{" ||
          c.text(i - 1) == "}" || c.text(i - 1) == ":") {
        std::size_t stmt_end = i;
        int depth = 0;
        bool has_paren = false;
        while (stmt_end < tokens.size()) {
          const std::string& et = c.text(stmt_end);
          if (et == "(") has_paren = true;
          if (et == "<" ) ++depth;
          if (et == ">") depth = depth > 0 ? depth - 1 : 0;
          if ((et == ";" || et == "{") && depth == 0) break;
          ++stmt_end;
        }
        if (!has_paren && stmt_end < tokens.size() &&
            c.text(stmt_end) == ";") {
          const std::string owner = enclosing_class();
          summarize_statics_and_containers(i, stmt_end, owner, false);
          i = stmt_end;
          continue;
        }
      }
    }
  }
  // File ended inside an unterminated function (unbalanced braces):
  // keep what we have.
  if (in_function() && !fn.name.empty()) {
    fn.line_end = tokens.empty() ? 1 : tokens.back().line;
    out.functions.push_back(fn);
  }
  return out;
}

// ---- per-file analysis ------------------------------------------------

FileData analyze(const std::string& path, std::string_view text) {
  FileData fd;
  fd.path = path;
  fd.scrubbed = scrub(text);
  fd.allows = collect_suppressions(path, fd.scrubbed, &fd.directive_findings);
  fd.summary = summarize(path, tokenize(fd.scrubbed));
  return fd;
}

}  // namespace hvc::lint
