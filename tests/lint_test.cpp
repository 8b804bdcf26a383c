// Tests for the determinism & simulation-safety static-analysis pass
// (src/lint). Golden fixture files under tests/lint_fixtures/ seed one
// violation per rule; further cases cover the suppression grammar,
// severities, text output, the whole fixture tree's pinned findings, and
// — the point of the whole exercise — that the real source tree lints
// clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "lint/lint.hpp"

namespace hvc {
namespace {

using lint::Finding;
using lint::Severity;

std::string fixture(const std::string& name) {
  return std::string(HVC_SOURCE_DIR) + "/tests/lint_fixtures/" + name;
}

std::vector<Finding> of_rule(const std::vector<Finding>& findings,
                             const std::string& rule) {
  std::vector<Finding> out;
  for (const auto& f : findings) {
    if (f.rule == rule) out.push_back(f);
  }
  return out;
}

TEST(LintRules, R1WallclockFiresOnceAtSeededLine) {
  const auto all = lint::lint_tree({fixture("r1_wallclock.cpp")});
  const auto hits = of_rule(all, "wallclock");
  ASSERT_EQ(hits.size(), 1u) << lint::to_text(all);
  EXPECT_EQ(hits[0].line, 8);
  EXPECT_EQ(hits[0].severity, Severity::kError);
  EXPECT_EQ(all.size(), hits.size()) << "no other rule may fire";
}

TEST(LintRules, R2UnorderedContainerFiresOnDeclarationNotInclude) {
  const auto all = lint::lint_tree({fixture("r2_unordered.cpp")});
  const auto hits = of_rule(all, "unordered-container");
  ASSERT_EQ(hits.size(), 1u) << lint::to_text(all);
  EXPECT_EQ(hits[0].line, 9);
  EXPECT_EQ(hits[0].severity, Severity::kWarning);
}

TEST(LintRules, R3SteerMissingReasonFiresOnBareExitPathOnly) {
  const auto all = lint::lint_tree({fixture("r3_steer.cpp")});
  const auto hits = of_rule(all, "steer-missing-reason");
  ASSERT_EQ(hits.size(), 1u) << lint::to_text(all);
  EXPECT_EQ(hits[0].line, 18);
  EXPECT_EQ(hits[0].severity, Severity::kError);
}

TEST(LintRules, R4RawNewDeleteFiresButDeletedFunctionsDoNot) {
  const auto all = lint::lint_tree({fixture("r4_new_delete.cpp")});
  const auto hits = of_rule(all, "raw-new-delete");
  ASSERT_EQ(hits.size(), 2u) << lint::to_text(all);
  EXPECT_EQ(hits[0].line, 8);
  EXPECT_EQ(hits[1].line, 9);
}

TEST(LintRules, R5FloatEqualityFiresOnExactCompareOnly) {
  const auto all = lint::lint_tree({fixture("r5_float_eq.cpp")});
  const auto hits = of_rule(all, "float-equality");
  ASSERT_EQ(hits.size(), 1u) << lint::to_text(all);
  EXPECT_EQ(hits[0].line, 8);
  EXPECT_EQ(hits[0].severity, Severity::kWarning);
}

TEST(LintRules, R7ClockIslandFilesSkipWallclockEntirely) {
  const std::string src =
      "#include <ctime>\n"
      "long t() { timespec ts{}; clock_gettime(0, &ts); return ts.tv_sec; }\n";
  // Outside the island the same source is an R1 error...
  EXPECT_FALSE(lint::lint_source("src/sim/x.cpp", src).empty());
  // ...inside it (prof implementation, bench harness) it is legal.
  EXPECT_TRUE(lint::lint_source("src/obs/prof.cpp", src).empty());
  EXPECT_TRUE(lint::lint_source("src/obs/prof.hpp", src).empty());
  EXPECT_TRUE(lint::lint_source("bench/bench_util.hpp", src).empty());
  EXPECT_TRUE(
      lint::lint_source("/abs/repo/bench/hotpath/harness.cpp", src).empty());
}

TEST(LintRules, R7AllowWallclockOutsideIslandIsAnError) {
  const std::string src =
      "// hvc-lint: allow(wallclock): stderr-only progress display that\n"
      "// never reaches a determinism-checked artifact.\n"
      "int x;\n";
  const auto all = lint::lint_source("tools/hvc_sweep.cpp", src);
  const auto hits = of_rule(all, "clock-island");
  ASSERT_EQ(hits.size(), 1u) << lint::to_text(all);
  EXPECT_EQ(hits[0].line, 1);
  EXPECT_EQ(hits[0].severity, Severity::kError);

  // allow-file(wallclock) is equally banned outside the island.
  const std::string file_scope =
      "// hvc-lint: allow-file(wallclock): whole-file waiver attempt\n"
      "// outside the island, must not stand.\n"
      "int y;\n";
  EXPECT_EQ(
      of_rule(lint::lint_source("src/exp/runner.cpp", file_scope),
              "clock-island")
          .size(),
      1u);

  // Inside the island the (redundant) allow is tolerated, not an error.
  EXPECT_TRUE(lint::lint_source("bench/legacy.cpp", src).empty());
}

TEST(LintRules, R7CannotBeSuppressedByItsOwnAllow) {
  // clock-island findings ride the unsuppressible directive channel: an
  // allow(clock-island) wrapper around an allow(wallclock) changes
  // nothing.
  const std::string src =
      "// hvc-lint: allow(clock-island): trying to shield the wallclock\n"
      "// allow below from R7; this must not work.\n"
      "// hvc-lint: allow(wallclock): stderr-only progress display that\n"
      "// never reaches any determinism-checked artifact.\n"
      "int x;\n";
  const auto all = lint::lint_source("src/sim/y.cpp", src);
  EXPECT_EQ(of_rule(all, "clock-island").size(), 1u) << lint::to_text(all);
}

TEST(LintRules, R8StdHashFiresOnQualifiedUseOnly) {
  const auto all = lint::lint_tree({fixture("r8_std_hash.cpp")});
  const auto hits = of_rule(all, "std-hash");
  ASSERT_EQ(hits.size(), 1u) << lint::to_text(all);
  EXPECT_EQ(hits[0].line, 11);
  EXPECT_EQ(hits[0].severity, Severity::kError);
  EXPECT_EQ(all.size(), hits.size()) << "no other rule may fire";
}

TEST(LintRules, R8ToleratesWhitespaceAndIsSuppressible) {
  // `std :: hash` is still std::hash.
  const std::string spaced =
      "#include <functional>\n"
      "unsigned long f() { return std :: hash<int>{}(1); }\n";
  EXPECT_EQ(of_rule(lint::lint_source("x.cpp", spaced), "std-hash").size(),
            1u);

  // A justified allow works like for any word-scanned rule.
  const std::string allowed =
      "// hvc-lint: allow(std-hash): interop shim hashing host-local map\n"
      "// keys that never reach an exported artifact.\n"
      "unsigned long g() { return std::hash<int>{}(1); }\n";
  EXPECT_TRUE(lint::lint_source("x.cpp", allowed).empty());
}

TEST(LintSuppression, JustifiedAllowsSilenceBothForms) {
  const auto all = lint::lint_tree({fixture("suppressed.cpp")});
  EXPECT_TRUE(all.empty()) << lint::to_text(all);
}

TEST(LintSuppression, UnjustifiedAndUnknownAllowsAreFindings) {
  const auto all = lint::lint_tree({fixture("bad_allow.cpp")});
  const auto missing = of_rule(all, "allow-needs-justification");
  ASSERT_EQ(missing.size(), 1u) << lint::to_text(all);
  EXPECT_EQ(missing[0].line, 6);
  EXPECT_EQ(missing[0].severity, Severity::kError);

  const auto unknown = of_rule(all, "allow-unknown-rule");
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0].line, 9);

  // A broken directive must not silence the violation under it.
  EXPECT_EQ(of_rule(all, "unordered-container").size(), 2u);
}

TEST(LintSuppression, AllowFileSilencesWholeFile) {
  const std::string src =
      "// hvc-lint: allow-file(float-equality): fixture-wide waiver for\n"
      "// this synthetic test input.\n"
      "bool a(double x) { return x == 1.0; }\n"
      "bool b(double x) { return x != 2.5; }\n";
  EXPECT_TRUE(lint::lint_source("mem.cpp", src).empty());
}

TEST(LintOutput, TextFormatIsFileLineSeverityRule) {
  const auto all = lint::lint_tree({fixture("r5_float_eq.cpp")});
  ASSERT_EQ(all.size(), 1u);
  const std::string text = lint::to_text(all);
  EXPECT_NE(text.find(":8: warning: [float-equality]"), std::string::npos)
      << text;
}

TEST(LintOutput, RuleTableKnowsEveryRule) {
  for (const char* name :
       {"wallclock", "unordered-container", "steer-missing-reason",
        "raw-new-delete", "float-equality", "clock-island", "std-hash"}) {
    EXPECT_TRUE(lint::known_rule(name)) << name;
  }
  EXPECT_FALSE(lint::known_rule("no-such-rule"));
  // R6 is the hvc_header_check build target (tests/CMakeLists.txt
  // header_check_fixture_fails), not a scanner rule.
  EXPECT_FALSE(lint::known_rule("header-not-self-sufficient"));
}

TEST(LintTree, FindingsAreSortedByPathThenLine) {
  const auto all = lint::lint_tree(
      {std::string(HVC_SOURCE_DIR) + "/tests/lint_fixtures"});
  ASSERT_GE(all.size(), 2u);
  const bool sorted = std::is_sorted(
      all.begin(), all.end(), [](const Finding& a, const Finding& b) {
        return a.file != b.file ? a.file < b.file : a.line < b.line;
      });
  EXPECT_TRUE(sorted) << lint::to_text(all);
}

// The whole fixture tree's findings, in report order. Any change to a
// rule, the suppression grammar, the semantic index or the ordering
// shows up here as a diff against this list.
TEST(LintTree, FixtureTreeFindingsArePinned) {
  struct Expected {
    const char* file;
    int line;
    const char* rule;
  };
  const std::vector<Expected> expected = {
      {"bad_allow.cpp", 6, "allow-needs-justification"},
      {"bad_allow.cpp", 7, "unordered-container"},
      {"bad_allow.cpp", 9, "allow-unknown-rule"},
      {"bad_allow.cpp", 10, "unordered-container"},
      {"r10_allow.cpp", 6, "unordered-container"},
      {"r10_direct.cpp", 6, "unordered-container"},
      {"r10_direct.cpp", 8, "unordered-taint"},
      {"r10_via_assign.cpp", 6, "unordered-container"},
      {"r10_via_assign.cpp", 13, "unordered-taint"},
      {"r10_via_callarg.cpp", 6, "unordered-taint"},
      {"r10_via_callarg.cpp", 10, "unordered-container"},
      {"r10_via_return.cpp", 6, "unordered-container"},
      {"r10_via_return.cpp", 16, "unordered-taint"},
      {"r11_callee.cpp", 6, "hotpath-alloc"},
      {"r11_growth.cpp", 8, "hotpath-alloc"},
      {"r11_make_unique.cpp", 6, "hotpath-alloc"},
      {"r11_new.cpp", 6, "hotpath-alloc"},
      {"r11_new.cpp", 6, "raw-new-delete"},
      {"r1_wallclock.cpp", 8, "wallclock"},
      {"r2_unordered.cpp", 9, "unordered-container"},
      {"r3_steer.cpp", 18, "steer-missing-reason"},
      {"r4_new_delete.cpp", 8, "raw-new-delete"},
      {"r4_new_delete.cpp", 9, "raw-new-delete"},
      {"r5_float_eq.cpp", 8, "float-equality"},
      {"r8_std_hash.cpp", 11, "std-hash"},
      {"r9_plain_race.cpp", 8, "worker-shared-state"},
      {"r9_pr4_unbind.cpp", 18, "worker-shared-state"},
      {"r9_pr5_dangling.cpp", 7, "worker-shared-state"},
      {"r9_static_local.cpp", 7, "worker-shared-state"},
  };
  const auto all = lint::lint_tree(
      {std::string(HVC_SOURCE_DIR) + "/tests/lint_fixtures"});
  ASSERT_EQ(all.size(), expected.size()) << lint::to_text(all);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(std::filesystem::path(all[i].file).filename(),
              expected[i].file)
        << "finding " << i;
    EXPECT_EQ(all[i].line, expected[i].line) << "finding " << i;
    EXPECT_EQ(all[i].rule, expected[i].rule) << "finding " << i;
  }
}

// A root that does not exist must not pass as a clean, empty tree: a
// mistyped path in the gate would otherwise lint zero files and succeed.
TEST(LintTree, MissingRootIsAnIoError) {
  const auto all = lint::lint_tree({"/no/such/dir", "/no/such/file.cpp"});
  ASSERT_EQ(all.size(), 2u) << lint::to_text(all);
  for (const auto& f : all) {
    EXPECT_EQ(f.rule, "io-error");
    EXPECT_EQ(f.severity, Severity::kError);
  }
  EXPECT_EQ(all[0].file, "/no/such/dir");
  EXPECT_EQ(all[1].file, "/no/such/file.cpp");
}

// The acceptance gate: the real source tree is clean, meaning every
// remaining unordered container / clock use carries a justified allow.
TEST(LintTree, RealSourceTreeLintsClean) {
  const std::string root = HVC_SOURCE_DIR;
  const auto all =
      lint::lint_tree({root + "/src", root + "/tools", root + "/bench",
                       root + "/examples", root + "/paperbench"});
  EXPECT_TRUE(all.empty()) << lint::to_text(all);
}

}  // namespace
}  // namespace hvc
