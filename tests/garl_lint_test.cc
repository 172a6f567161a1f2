// Tests for tools/garl_lint: each rule fires exactly where the fixture tree
// under tests/lint_fixtures/tree/ seeds a violation, exemption paths and
// suppressions stay quiet, and the helper passes behave.
//
// Note: suppression directives in THIS file's strings are inert by design —
// the linter only honours directives found in comments.

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/garl_lint/baseline.h"
#include "tools/garl_lint/cli.h"
#include "tools/garl_lint/lint.h"

namespace garl::lint {
namespace {

std::vector<Finding> FixtureFindings() {
  static const std::vector<Finding> kFindings =
      LintTree(GARL_LINT_FIXTURE_TREE, {"src", "bench"});
  return kFindings;
}

// All (line, rule) pairs reported for one fixture file.
std::vector<std::pair<int, std::string>> FindingsFor(const std::string& file) {
  std::vector<std::pair<int, std::string>> result;
  for (const auto& finding : FixtureFindings()) {
    if (finding.file == file) {
      result.emplace_back(finding.line, finding.rule);
    }
  }
  return result;
}

using Expected = std::vector<std::pair<int, std::string>>;

TEST(GarlLintFixtures, NondetRandFiresPerSourceAndSkipsProse) {
  EXPECT_EQ(FindingsFor("src/bad_rand.cc"),
            (Expected{{13, "nondet-rand"},
                      {17, "nondet-rand"},
                      {21, "nondet-rand"}}));
}

TEST(GarlLintFixtures, NondetTimeFiresOnWallClockReads) {
  EXPECT_EQ(FindingsFor("src/bad_time.cc"),
            (Expected{{6, "nondet-time"}, {10, "nondet-time"}}));
}

TEST(GarlLintFixtures, StatusDiscardFiresOnDroppedAndVoidedResults) {
  EXPECT_EQ(FindingsFor("src/bad_discard.cc"),
            (Expected{{34, "status-discard"},
                      {38, "status-discard"},
                      {42, "status-discard"},
                      {47, "status-discard"}}));
}

TEST(GarlLintFixtures, UnorderedSerializeFiresOnlyInSerializeishFunctions) {
  EXPECT_EQ(FindingsFor("src/bad_serialize.cc"),
            (Expected{{15, "unordered-serialize"},
                      {23, "unordered-serialize"}}));
}

TEST(GarlLintFixtures, RawNewDeleteFiresOutsideTensorAllocator) {
  EXPECT_EQ(FindingsFor("src/bad_new.cc"),
            (Expected{{10, "raw-new-delete"}, {14, "raw-new-delete"}}));
}

TEST(GarlLintFixtures, IncludeGuardFiresOnWrongAndMissingGuards) {
  EXPECT_EQ(FindingsFor("src/bad_guard.h"),
            (Expected{{1, "include-guard"}}));
  EXPECT_EQ(FindingsFor("src/missing_guard.h"),
            (Expected{{1, "include-guard"}}));
}

TEST(GarlLintFixtures, SuppressionsSilenceOnlyTheNamedRule) {
  EXPECT_EQ(FindingsFor("src/suppressed.cc"),
            (Expected{{26, "nondet-rand"}}));
}

TEST(GarlLintFixtures, UnknownRuleInSuppressionIsAFinding) {
  EXPECT_EQ(FindingsFor("src/bad_suppression.cc"),
            (Expected{{5, "bad-suppression"}}));
}

TEST(GarlLintFixtures, DirectIoFiresOnOfstreamFilesystemAndMkdir) {
  EXPECT_EQ(FindingsFor("src/bad_io.cc"),
            (Expected{{8, "direct-io"},
                      {13, "direct-io"},
                      {17, "direct-io"},
                      {21, "direct-io"}}));
}

TEST(GarlLintFixtures, IfstreamBanIsScopedToSrcNotTools) {
  // The ifstream arm of direct-io covers library code only: tools/ may
  // stream large inputs directly (see tools/stream_reader.cc fixture).
  EXPECT_TRUE(FindingsFor("tools/stream_reader.cc").empty());
}

TEST(GarlLintFixtures, ProcessSpawnFiresOutsideProcFunnel) {
  EXPECT_EQ(FindingsFor("src/bad_spawn.cc"),
            (Expected{{9, "process-spawn"},
                      {10, "process-spawn"},
                      {15, "process-spawn"},
                      {16, "process-spawn"},
                      {20, "process-spawn"}}));
}

TEST(GarlLintFixtures, ExemptPathsStayClean) {
  EXPECT_TRUE(FindingsFor("src/common/rng.cc").empty());
  EXPECT_TRUE(FindingsFor("src/common/fs_util.cc").empty());
  EXPECT_TRUE(FindingsFor("src/common/proc.cc").empty());
  EXPECT_TRUE(FindingsFor("src/nn/tensor.cc").empty());
  EXPECT_TRUE(FindingsFor("src/nn/arena.cc").empty());
  EXPECT_TRUE(FindingsFor("bench/timing.cc").empty());
  EXPECT_TRUE(FindingsFor("src/good.h").empty());
  EXPECT_TRUE(FindingsFor("src/obs/clock.cc").empty());
}

TEST(GarlLintFixtures, ClockExemptionIsFileScopedNotDirectoryScoped) {
  EXPECT_EQ(FindingsFor("src/obs/bad_obs_time.cc"),
            (Expected{{6, "nondet-time"}}));
}

TEST(GarlLintFixtures, HotPathDoubleFiresOnceInFixtureOps) {
  EXPECT_EQ(FindingsFor("src/nn/ops.cc"),
            (Expected{{5, "float-double-drift"}}));
}

TEST(GarlLintFixtures, HotPathDoubleFiresInSimdHeader) {
  EXPECT_EQ(FindingsFor("src/nn/simd.h"),
            (Expected{{9, "float-double-drift"}}));
}

TEST(GarlLintFixtures, DetTaintFiresOnClockIntoDetFieldAndSink) {
  // Direct var taint into a det field, returns-taint through a helper into a
  // det field, a tainted argument to a CRC sink, and a det write through a
  // record-typed reference parameter.
  EXPECT_EQ(FindingsFor("src/taint/bad_taint.cc"),
            (Expected{{24, "det-taint"},
                      {25, "det-taint"},
                      {31, "det-taint"},
                      {36, "det-taint"}}));
}

TEST(GarlLintFixtures, DetTaintSuppressionAndNearMissesStayQuiet) {
  EXPECT_TRUE(FindingsFor("src/taint/suppressed_taint.cc").empty());
  EXPECT_TRUE(FindingsFor("src/taint/near_miss_taint.cc").empty());
}

TEST(GarlLintFixtures, ParallelUnsafeFiresDirectlyAndTransitively) {
  // Line 18: Snapshot() lexically inside the body lambda. Line 13: the same
  // call inside LeafHelper, reachable from the body through the call graph.
  EXPECT_EQ(FindingsFor("src/par/bad_parallel.cc"),
            (Expected{{13, "parallel-unsafe"}, {18, "parallel-unsafe"}}));
}

TEST(GarlLintFixtures, ParallelUnsafeCoversRequestQueueWorkerLambdas) {
  // The serve::PolicyServer dispatcher shape: a ParallelFor body lambda
  // draining queue entries via helper methods. The unsafe call is two
  // method hops from the lambda and must still be flagged.
  EXPECT_EQ(FindingsFor("src/par/queue_worker_parallel.cc"),
            (Expected{{26, "parallel-unsafe"}}));
}

TEST(GarlLintFixtures, ParallelUnsafeFiresOnReloadFromWorker) {
  // Hot reload from a pool worker: Reload is one helper hop from the
  // ParallelFor body lambda (body -> MaybeRefreshPlan -> Reload).
  EXPECT_EQ(FindingsFor("src/par/reload_parallel.cc"),
            (Expected{{23, "parallel-unsafe"}}));
}

TEST(GarlLintFixtures, ParallelUnsafeSuppressionAndNearMissesStayQuiet) {
  EXPECT_TRUE(FindingsFor("src/par/suppressed_parallel.cc").empty());
  EXPECT_TRUE(FindingsFor("src/par/near_miss_parallel.cc").empty());
}

TEST(GarlLintFixtures, StatusPropagationEscalatesDiscardsOnEntryPaths) {
  // The discard in Helper is reported twice: once as the local discard, once
  // escalated with the Train -> Helper chain.
  EXPECT_EQ(FindingsFor("src/prop/bad_prop.cc"),
            (Expected{{12, "status-discard"}, {12, "status-propagation"}}));
}

TEST(GarlLintFixtures, StatusPropagationSkipsUnreachableDiscards) {
  // OrphanHelper is not reachable from any entry point: the plain discard
  // still fires, the escalation must not.
  EXPECT_EQ(FindingsFor("src/prop/near_miss_prop.cc"),
            (Expected{{12, "status-discard"}}));
}

TEST(GarlLintFixtures, StatusPropagationSuppressionCoversBothRules) {
  EXPECT_TRUE(FindingsFor("src/prop/suppressed_prop.cc").empty());
}

TEST(GarlLintFixtures, FindingsAreSortedByFileLineRule) {
  const auto findings = FixtureFindings();
  for (size_t i = 1; i < findings.size(); ++i) {
    const auto& a = findings[i - 1];
    const auto& b = findings[i];
    EXPECT_LE(std::tie(a.file, a.line, a.rule),
              std::tie(b.file, b.line, b.rule))
        << a.ToString() << " sorts after " << b.ToString();
  }
}

TEST(GarlLintFixtures, NoUnexpectedFindings) {
  // Every finding in the fixture tree is one the tests above asserted; a new
  // rule misfire shows up here with its full location.
  std::set<std::string> expected_files = {
      "src/bad_rand.cc",    "src/bad_time.cc",       "src/bad_discard.cc",
      "src/bad_serialize.cc", "src/bad_new.cc",      "src/bad_guard.h",
      "src/missing_guard.h", "src/suppressed.cc",    "src/bad_suppression.cc",
      "src/nn/ops.cc",       "src/nn/simd.h",         "src/obs/bad_obs_time.cc",
      "src/bad_io.cc",       "src/bad_spawn.cc",      "src/taint/bad_taint.cc",
      "src/par/bad_parallel.cc", "src/par/queue_worker_parallel.cc",
      "src/par/reload_parallel.cc",
      "src/prop/bad_prop.cc", "src/prop/near_miss_prop.cc"};
  for (const auto& finding : FixtureFindings()) {
    EXPECT_TRUE(expected_files.count(finding.file))
        << "unexpected finding: " << finding.ToString();
  }
}

TEST(GarlLintUnit, CanonicalGuardDerivation) {
  EXPECT_EQ(CanonicalGuard("src/common/rng.h"), "GARL_COMMON_RNG_H_");
  EXPECT_EQ(CanonicalGuard("bench/bench_common.h"), "GARL_BENCH_BENCH_COMMON_H_");
  EXPECT_EQ(CanonicalGuard("tools/garl_lint/lint.h"),
            "GARL_TOOLS_GARL_LINT_LINT_H_");
}

TEST(GarlLintUnit, StripRemovesCommentsAndLiteralContents) {
  const std::string stripped = StripCommentsAndStrings(
      "int x = 0; // std::rand()\n"
      "const char* s = \"srand(1)\";\n"
      "/* time(nullptr) */ int y;\n");
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_EQ(stripped.find("time"), std::string::npos);
  EXPECT_NE(stripped.find("int x = 0;"), std::string::npos);
  EXPECT_NE(stripped.find("int y;"), std::string::npos);
}

TEST(GarlLintUnit, CollectFallibleFunctionsFindsDeclarations) {
  const auto names = CollectFallibleFunctions(
      "Status DoThing(int x);\n"
      "[[nodiscard]] StatusOr<std::vector<int>> Parse(const std::string& s);\n"
      "  Status member_decl_;\n"          // member variable: not a function
      "static Status Helper();\n"
      "Status Ok();\n");                  // factory on Status itself: skipped
  EXPECT_EQ(names, (std::vector<std::string>{"DoThing", "Helper", "Parse"}));
}

TEST(GarlLintUnit, LintFileContentsHonoursFallibleSet) {
  const auto findings = LintFileContents(
      "src/example.cc", "void F() {\n  DoThing(1);\n}\n", {"DoThing"});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[0].rule, "status-discard");
}

TEST(GarlLintUnit, KnownRulesIsStable) {
  const auto& rules = KnownRules();
  for (const auto& rule :
       {"nondet-rand", "nondet-time", "status-discard", "include-guard",
        "float-double-drift", "raw-new-delete", "unordered-serialize",
        "direct-io", "process-spawn", "bad-suppression", "det-taint",
        "parallel-unsafe", "status-propagation"}) {
    EXPECT_TRUE(rules.count(rule)) << rule;
  }
}

TEST(GarlLintUnit, FormatFindingsJsonGolden) {
  std::vector<Finding> findings;
  findings.push_back({"src/a.cc", 7, "det-taint", "bad \"bytes\"\there"});
  findings.push_back({"src/b.h", 1, "include-guard", "wrong guard"});
  EXPECT_EQ(FormatFindingsJson(findings),
            "[\n"
            " {\"file\": \"src/a.cc\", \"line\": 7, \"rule\": \"det-taint\", "
            "\"message\": \"bad \\\"bytes\\\"\\there\"},\n"
            " {\"file\": \"src/b.h\", \"line\": 1, \"rule\": "
            "\"include-guard\", \"message\": \"wrong guard\"}\n"
            "]\n");
  EXPECT_EQ(FormatFindingsJson({}), "[]\n");
}

TEST(GarlLintUnit, ParseBaselineAcceptsJustifiedEntriesOnly) {
  std::vector<BaselineEntry> entries;
  std::string error;
  EXPECT_TRUE(ParseBaseline("# comment\n"
                            "\n"
                            "det-taint src/a.cc:7 -- known rt-only digest\n"
                            "direct-io src/b.cc -- tool-local scratch file\n",
                            &entries, &error))
      << error;
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].rule, "det-taint");
  EXPECT_EQ(entries[0].file, "src/a.cc");
  EXPECT_EQ(entries[0].line, 7);
  EXPECT_EQ(entries[1].line, 0);  // no line pin: matches any line in the file

  // Missing justification separator.
  EXPECT_FALSE(ParseBaseline("det-taint src/a.cc:7\n", &entries, &error));
  EXPECT_NE(error.find("--"), std::string::npos);
  // Empty justification.
  EXPECT_FALSE(ParseBaseline("det-taint src/a.cc:7 -- \n", &entries, &error));
  // Unknown rule name.
  EXPECT_FALSE(
      ParseBaseline("not-a-rule src/a.cc:7 -- why\n", &entries, &error));
  EXPECT_NE(error.find("not-a-rule"), std::string::npos);
}

TEST(GarlLintUnit, ApplyBaselineFiltersMatchesAndRejectsStaleEntries) {
  std::vector<Finding> findings;
  findings.push_back({"src/a.cc", 7, "det-taint", "m"});
  findings.push_back({"src/a.cc", 9, "det-taint", "m"});

  std::vector<BaselineEntry> entries;
  std::string error;
  ASSERT_TRUE(ParseBaseline("det-taint src/a.cc:7 -- fine\n", &entries, &error));
  auto remaining = findings;
  EXPECT_EQ(ApplyBaseline(entries, &remaining), "");
  ASSERT_EQ(remaining.size(), 1u);
  EXPECT_EQ(remaining[0].line, 9);

  // An entry matching nothing is stale and must fail the run, not linger.
  entries.clear();
  ASSERT_TRUE(
      ParseBaseline("det-taint src/gone.cc:1 -- obsolete\n", &entries, &error));
  remaining = findings;
  const std::string stale = ApplyBaseline(entries, &remaining);
  EXPECT_NE(stale.find("stale"), std::string::npos);
  // A stale baseline must not half-apply: findings stay untouched.
  EXPECT_EQ(remaining.size(), findings.size());
}

// --- CLI exit-code contract (satellite: findings=1, usage/IO errors=2) ---

int RunCliQuiet(const std::vector<std::string>& args, std::string* stdout_text,
                std::string* stderr_text) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = RunCli(args, out, err);
  if (stdout_text != nullptr) *stdout_text = out.str();
  if (stderr_text != nullptr) *stderr_text = err.str();
  return code;
}

TEST(GarlLintCli, FindingsExitOne) {
  std::string out, err;
  const int code = RunCliQuiet(
      {"--root", GARL_LINT_FIXTURE_TREE, "src", "bench"}, &out, &err);
  EXPECT_EQ(code, 1);
  EXPECT_NE(out.find("[det-taint]"), std::string::npos);
  EXPECT_NE(err.find("finding"), std::string::npos);
}

TEST(GarlLintCli, CleanTreeExitZero) {
  // The bench/ subtree of the fixture tree has no findings.
  std::string out, err;
  const int code =
      RunCliQuiet({"--root", GARL_LINT_FIXTURE_TREE, "bench"}, &out, &err);
  EXPECT_EQ(code, 0) << out << err;
}

TEST(GarlLintCli, UsageErrorsExitTwo) {
  std::string out, err;
  EXPECT_EQ(RunCliQuiet({"--bogus-flag"}, &out, &err), 2);
  EXPECT_NE(err.find("--bogus-flag"), std::string::npos);
  EXPECT_EQ(RunCliQuiet({"--root"}, &out, &err), 2);  // missing value
  EXPECT_EQ(RunCliQuiet({"--format=yaml"}, &out, &err), 2);
}

TEST(GarlLintCli, MissingBaselineFileExitsTwo) {
  std::string out, err;
  const int code = RunCliQuiet({"--root", GARL_LINT_FIXTURE_TREE, "--baseline",
                                "/nonexistent/garl.baseline", "bench"},
                               &out, &err);
  EXPECT_EQ(code, 2);
}

TEST(GarlLintCli, BaselineCoversFindingsAndStaleEntriesFail) {
  const std::string baseline_path =
      ::testing::TempDir() + "/garl_lint_test.baseline";
  {
    std::ofstream f(baseline_path);
    f << "status-discard src/prop/bad_prop.cc:12 -- fixture seed\n"
      << "status-propagation src/prop/bad_prop.cc:12 -- fixture seed\n"
      << "status-discard src/prop/near_miss_prop.cc:12 -- fixture seed\n";
  }
  std::string out, err;
  EXPECT_EQ(RunCliQuiet({"--root", GARL_LINT_FIXTURE_TREE, "--baseline",
                         baseline_path, "src/prop"},
                        &out, &err),
            0)
      << out << err;

  {
    std::ofstream f(baseline_path, std::ios::app);
    f << "det-taint src/prop/bad_prop.cc:1 -- no longer real\n";
  }
  EXPECT_EQ(RunCliQuiet({"--root", GARL_LINT_FIXTURE_TREE, "--baseline",
                         baseline_path, "src/prop"},
                        &out, &err),
            2);
  EXPECT_NE(err.find("stale"), std::string::npos);
  std::remove(baseline_path.c_str());
}

TEST(GarlLintCli, JsonFormatEmitsMachineReadableFindings) {
  std::string out, err;
  const int code = RunCliQuiet({"--root", GARL_LINT_FIXTURE_TREE,
                                "--format=json", "src/prop"},
                               &out, &err);
  EXPECT_EQ(code, 1);
  EXPECT_EQ(out.front(), '[');
  EXPECT_NE(out.find("\"rule\": \"status-propagation\""), std::string::npos);
  EXPECT_NE(out.find("\"file\": \"src/prop/bad_prop.cc\""), std::string::npos);
  EXPECT_EQ(out.find("["), 0u);  // no prose on stdout in json mode
}

TEST(GarlLintCli, RulesListingExitsZero) {
  std::string out, err;
  EXPECT_EQ(RunCliQuiet({"--rules"}, &out, &err), 0);
  EXPECT_NE(out.find("det-taint"), std::string::npos);
  EXPECT_NE(out.find("parallel-unsafe"), std::string::npos);
}

}  // namespace
}  // namespace garl::lint
