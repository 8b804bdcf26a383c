// Tests for the semantic half of the lint engine (src/lint): the
// dependency-free indexer (scrub/tokenize/summarize), the three semantic
// rule families (R9 worker-shared-state, R10 unordered-taint, R11
// hotpath-alloc), and the SARIF shape. Golden fixtures under
// tests/lint_fixtures/ include reductions of the two historical bugs
// the engine must rediscover: the PR 4 tracer unconditional-unbind and
// the PR 5 dangling thread_local binding.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint/index.hpp"
#include "lint/lint.hpp"
#include "obs/json.hpp"

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

lint::FileSummary summarize_snippet(const std::string& src) {
  const lint::Scrubbed sc = lint::scrub(src);
  return lint::summarize("snippet.cpp", lint::tokenize(sc));
}

// ---- indexer ----------------------------------------------------------

TEST(LintIndex, ScrubStripsCommentsButKeepsPositions) {
  const std::string src = "int a; // trailing\n/* b */ int c;\n";
  const lint::Scrubbed sc = lint::scrub(src);
  EXPECT_EQ(sc.code.size(), src.size()) << "positions must be preserved";
  EXPECT_EQ(sc.code.find("trailing"), std::string::npos);
  EXPECT_NE(sc.code.find("int c;"), std::string::npos);
  EXPECT_NE(sc.comments.find("trailing"), std::string::npos);
}

TEST(LintIndex, TokenizeKeepsMultiCharOperatorsWhole) {
  const lint::Scrubbed sc = lint::scrub("a += ns::f(x) && y->z;");
  const auto toks = lint::tokenize(sc);
  std::vector<std::string> texts;
  for (const auto& t : toks) texts.push_back(t.text);
  EXPECT_NE(std::find(texts.begin(), texts.end(), "+="), texts.end());
  EXPECT_NE(std::find(texts.begin(), texts.end(), "::"), texts.end());
  EXPECT_NE(std::find(texts.begin(), texts.end(), "&&"), texts.end());
  EXPECT_NE(std::find(texts.begin(), texts.end(), "->"), texts.end());
}

TEST(LintIndex, SummarizeShadowedGlobalStaysLocal) {
  const auto sum = summarize_snippet(
      "int g_val = 0;\n"
      "void writer() {\n"
      "  int g_val = 1;\n"
      "  g_val = 2;\n"
      "}\n");
  ASSERT_EQ(sum.functions.size(), 1u);
  EXPECT_EQ(sum.functions[0].name, "writer");
  EXPECT_EQ(sum.functions[0].locals.count("g_val"), 1u)
      << "the local shadow must be registered so writes to it are not "
         "mistaken for global writes";
  ASSERT_EQ(sum.globals.size(), 1u);
  EXPECT_EQ(sum.globals[0].line, 1);
}

TEST(LintIndex, SummarizeNestedBlocksDoNotLeakLocals) {
  // Regression: in_function() must see through nested statement blocks;
  // an early version treated everything inside `while {` as namespace
  // scope, leaking every local into the global table.
  const auto sum = summarize_snippet(
      "void chew(int n) {\n"
      "  while (n > 0) {\n"
      "    int inner = 0;\n"
      "    if (inner == 0) {\n"
      "      std::string deep;\n"
      "      deep = \"x\";\n"
      "    }\n"
      "  }\n"
      "  static const char* kTags[] = {\"a\", \"b\"};\n"
      "  int after = 1;\n"
      "  after = 2;\n"
      "}\n");
  ASSERT_EQ(sum.functions.size(), 1u);
  EXPECT_EQ(sum.functions[0].line_end, 12);
  for (const auto& g : sum.globals) {
    EXPECT_EQ(g.name, "kTags") << "only the static local is global-like";
  }
  EXPECT_EQ(sum.functions[0].locals.count("after"), 1u)
      << "declarations after a braced static initializer must still be "
         "attributed to the function";
}

TEST(LintIndex, SummarizeOperatorBodyIsAFunction) {
  const auto sum = summarize_snippet(
      "struct P { int v; };\n"
      "bool operator==(const P& a, const P& b) {\n"
      "  int diff = a.v - b.v;\n"
      "  return diff == 0;\n"
      "}\n");
  bool found = false;
  for (const auto& f : sum.functions) {
    if (f.name == "operator==") found = true;
  }
  EXPECT_TRUE(found);
  for (const auto& g : sum.globals) {
    EXPECT_NE(g.name, "diff")
        << "operator-body locals must not leak into the global table";
  }
}

TEST(LintIndex, SummarizeMacroHeavyTU) {
  const auto sum = summarize_snippet(
      "#define LOG(msg) log_sink(msg)\n"
      "#define HVC_REGISTER(n) register_thing(#n)\n"
      "HVC_REGISTER(widget);\n"
      "void real_fn() {\n"
      "  HVC_PROF_SCOPE(kHook);\n"
      "  LOG(\"x\");\n"
      "  int local = 3;\n"
      "  local = 4;\n"
      "}\n");
  bool found = false;
  for (const auto& f : sum.functions) {
    if (f.name == "real_fn") {
      found = true;
      EXPECT_TRUE(f.has_prof_scope);
      EXPECT_EQ(f.locals.count("local"), 1u);
    }
  }
  EXPECT_TRUE(found) << "macro invocations around a definition must not "
                        "swallow the function";
  EXPECT_TRUE(sum.globals.empty());
}

// ---- R9: worker-shared-state ------------------------------------------

TEST(LintSemanticR9, PlainRaceOnWorkerReachableGlobal) {
  const auto all = lint::lint_tree({fixture("r9_plain_race.cpp")});
  const auto hits = of_rule(all, "worker-shared-state");
  ASSERT_EQ(hits.size(), 1u) << lint::to_text(all);
  EXPECT_EQ(hits[0].line, 8);
  EXPECT_EQ(hits[0].severity, Severity::kError);
}

TEST(LintSemanticR9, Pr4UnconditionalUnbindRediscovered) {
  const auto all = lint::lint_tree({fixture("r9_pr4_unbind.cpp")});
  const auto hits = of_rule(all, "worker-shared-state");
  ASSERT_EQ(hits.size(), 1u) << lint::to_text(all);
  EXPECT_EQ(hits[0].line, 18) << "the guarded reset in ~Fx9bTracer must "
                                 "not be flagged; the raw one must";
  EXPECT_NE(hits[0].message.find("unconditional unbind"),
            std::string::npos);
}

TEST(LintSemanticR9, Pr5MissingDestructorClearRediscovered) {
  const auto all = lint::lint_tree({fixture("r9_pr5_dangling.cpp")});
  const auto hits = of_rule(all, "worker-shared-state");
  ASSERT_EQ(hits.size(), 1u) << lint::to_text(all);
  EXPECT_NE(hits[0].message.find("no destructor clears"),
            std::string::npos);
}

TEST(LintSemanticR9, SynchronizedAndUnreachableWritesAreClean) {
  const auto all = lint::lint_tree({fixture("r9_clean_sync.cpp")});
  EXPECT_TRUE(of_rule(all, "worker-shared-state").empty())
      << lint::to_text(all);
}

TEST(LintSemanticR9, StaticLocalSharedAcrossShardWorkers) {
  const auto all = lint::lint_tree({fixture("r9_static_local.cpp")});
  const auto hits = of_rule(all, "worker-shared-state");
  ASSERT_EQ(hits.size(), 1u) << lint::to_text(all);
  EXPECT_EQ(hits[0].line, 7);
}

TEST(LintSemanticR9, JustifiedAllowSuppresses) {
  const auto all = lint::lint_tree({fixture("r9_allow.cpp")});
  EXPECT_TRUE(of_rule(all, "worker-shared-state").empty())
      << lint::to_text(all);
}

// ---- R10: unordered-taint ---------------------------------------------

TEST(LintSemanticR10, LoopVariableReachesSinkDirectly) {
  const auto all = lint::lint_tree({fixture("r10_direct.cpp")});
  const auto hits = of_rule(all, "unordered-taint");
  ASSERT_EQ(hits.size(), 1u) << lint::to_text(all);
  EXPECT_EQ(hits[0].line, 8);
  EXPECT_NE(hits[0].message.find("write_jsonl"), std::string::npos);
  EXPECT_NE(hits[0].message.find("r10_direct.cpp:6)"), std::string::npos)
      << "the message must name the container declaration";
}

TEST(LintSemanticR10, TaintSurvivesAssignmentChain) {
  const auto all = lint::lint_tree({fixture("r10_via_assign.cpp")});
  const auto hits = of_rule(all, "unordered-taint");
  ASSERT_EQ(hits.size(), 1u) << lint::to_text(all);
  EXPECT_EQ(hits[0].line, 13);
}

TEST(LintSemanticR10, TaintCrossesReturnEdge) {
  const auto all = lint::lint_tree({fixture("r10_via_return.cpp")});
  const auto hits = of_rule(all, "unordered-taint");
  ASSERT_EQ(hits.size(), 1u) << lint::to_text(all);
  EXPECT_EQ(hits[0].line, 16);
}

TEST(LintSemanticR10, TaintCrossesCallArgumentEdge) {
  const auto all = lint::lint_tree({fixture("r10_via_callarg.cpp")});
  const auto hits = of_rule(all, "unordered-taint");
  ASSERT_EQ(hits.size(), 1u) << lint::to_text(all);
  EXPECT_EQ(hits[0].line, 6) << "the sink fires inside the callee";
}

TEST(LintSemanticR10, OrderedContainersAreClean) {
  const auto all = lint::lint_tree({fixture("r10_ordered_clean.cpp")});
  EXPECT_TRUE(of_rule(all, "unordered-taint").empty())
      << lint::to_text(all);
}

TEST(LintSemanticR10, JustifiedAllowSuppresses) {
  const auto all = lint::lint_tree({fixture("r10_allow.cpp")});
  EXPECT_TRUE(of_rule(all, "unordered-taint").empty())
      << lint::to_text(all);
}

// ---- R11: hotpath-alloc -----------------------------------------------

TEST(LintSemanticR11, RawNewInProfiledFunction) {
  const auto all = lint::lint_tree({fixture("r11_new.cpp")});
  const auto hits = of_rule(all, "hotpath-alloc");
  ASSERT_EQ(hits.size(), 1u) << lint::to_text(all);
  EXPECT_EQ(hits[0].line, 6);
}

TEST(LintSemanticR11, MakeUniqueInProfiledFunction) {
  const auto all = lint::lint_tree({fixture("r11_make_unique.cpp")});
  const auto hits = of_rule(all, "hotpath-alloc");
  ASSERT_EQ(hits.size(), 1u) << lint::to_text(all);
  EXPECT_EQ(hits[0].line, 6);
}

TEST(LintSemanticR11, ContainerGrowthInProfiledFunction) {
  const auto all = lint::lint_tree({fixture("r11_growth.cpp")});
  const auto hits = of_rule(all, "hotpath-alloc");
  ASSERT_EQ(hits.size(), 1u) << lint::to_text(all);
  EXPECT_EQ(hits[0].line, 8);
}

TEST(LintSemanticR11, CalleeOneEdgeAwayIsCovered) {
  const auto all = lint::lint_tree({fixture("r11_callee.cpp")});
  const auto hits = of_rule(all, "hotpath-alloc");
  ASSERT_EQ(hits.size(), 1u) << lint::to_text(all);
  EXPECT_EQ(hits[0].line, 6);
  EXPECT_NE(hits[0].message.find("1 call-edge away"), std::string::npos);
}

TEST(LintSemanticR11, DepthBoundIsRespected) {
  const auto deep = lint::lint_tree({fixture("r11_depth2_clean.cpp")});
  EXPECT_TRUE(of_rule(deep, "hotpath-alloc").empty())
      << "two edges away is outside the one-edge radius\n"
      << lint::to_text(deep);
}

TEST(LintSemanticR11, JustifiedAllowSuppresses) {
  const auto all = lint::lint_tree({fixture("r11_allow.cpp")});
  EXPECT_TRUE(of_rule(all, "hotpath-alloc").empty())
      << lint::to_text(all);
}

// ---- SARIF ------------------------------------------------------------

TEST(LintSarif, OutputValidatesAgainst210Shape) {
  const auto all =
      lint::lint_tree({std::string(HVC_SOURCE_DIR) + "/tests/lint_fixtures"});
  ASSERT_FALSE(all.empty());
  obs::json::Value doc;
  ASSERT_TRUE(obs::json::parse(lint::to_sarif(all), &doc));
  ASSERT_TRUE(doc.is_object());
  const auto* schema = doc.find("$schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_NE(schema->str.find("sarif-2.1.0"), std::string::npos);
  const auto* version = doc.find("version");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->str, "2.1.0");
  const auto* runs = doc.find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_TRUE(runs->is_array());
  ASSERT_EQ(runs->array.size(), 1u);
  const auto& run = runs->array[0];
  const auto* tool = run.find("tool");
  ASSERT_NE(tool, nullptr);
  const auto* driver = tool->find("driver");
  ASSERT_NE(driver, nullptr);
  const auto* name = driver->find("name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->str, "hvc_lint");
  const auto* rules = driver->find("rules");
  ASSERT_NE(rules, nullptr);
  EXPECT_GE(rules->array.size(), 11u) << "R1-R11 must all be declared";
  const auto* results = run.find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->array.size(), all.size());
  for (const auto& r : results->array) {
    ASSERT_NE(r.find("ruleId"), nullptr);
    ASSERT_NE(r.find("level"), nullptr);
    const auto* msg = r.find("message");
    ASSERT_NE(msg, nullptr);
    ASSERT_NE(msg->find("text"), nullptr);
    const auto* locs = r.find("locations");
    ASSERT_NE(locs, nullptr);
    ASSERT_FALSE(locs->array.empty());
    const auto* phys = locs->array[0].find("physicalLocation");
    ASSERT_NE(phys, nullptr);
    const auto* art = phys->find("artifactLocation");
    ASSERT_NE(art, nullptr);
    ASSERT_NE(art->find("uri"), nullptr);
    const auto* region = phys->find("region");
    ASSERT_NE(region, nullptr);
    const auto* start = region->find("startLine");
    ASSERT_NE(start, nullptr);
    EXPECT_GE(start->num, 1.0);
  }
}

}  // namespace
}  // namespace hvc
