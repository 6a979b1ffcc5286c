// Self-test for aurora-lint: runs the analyzer over the fixture tree in
// tools/lint/testdata (which mirrors the real src/ layout so path-scoped
// rules apply naturally) and checks every rule's positive and negative
// cases plus the NOLINT suppression round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint_core.h"

namespace aurora::lint {
namespace {

const Report& FixtureReport() {
  static const Report* report = [] {
    Options opts;
    opts.root = AURORA_LINT_TESTDATA_DIR;
    return new Report(AnalyzeRepo(opts));
  }();
  return *report;
}

std::vector<Finding> FindingsFor(const std::string& file) {
  std::vector<Finding> out;
  for (const Finding& f : FixtureReport().findings) {
    if (f.file == file) out.push_back(f);
  }
  return out;
}

size_t CountRule(const std::vector<Finding>& fs, const std::string& rule,
                 bool suppressed = false) {
  return std::count_if(fs.begin(), fs.end(), [&](const Finding& f) {
    return f.rule == rule && f.suppressed == suppressed;
  });
}

TEST(LintSelftest, D1FlagsEveryWallClockAndEnvSource) {
  auto fs = FindingsFor("src/sim/positive_d1.cc");
  EXPECT_EQ(CountRule(fs, "aurora-D1"), 5u)
      << "system_clock, random_device, time(nullptr), std::rand, getenv";
  for (const Finding& f : fs) {
    EXPECT_EQ(f.rule, "aurora-D1") << f.file << ":" << f.line;
    EXPECT_FALSE(f.hint.empty());
    EXPECT_GT(f.line, 0);
  }
}

TEST(LintSelftest, D2D3FlagUnorderedAndPointerKeyedContainers) {
  auto fs = FindingsFor("src/sim/positive_d2_d3.cc");
  EXPECT_EQ(CountRule(fs, "aurora-D2"), 2u);
  EXPECT_EQ(CountRule(fs, "aurora-D3"), 2u);
}

TEST(LintSelftest, DeterministicCodeIsClean) {
  EXPECT_TRUE(FindingsFor("src/sim/negative_d.cc").empty())
      << "comments/strings mentioning banned names must not fire";
}

TEST(LintSelftest, L1FlagsStrongSharedFromThisCaptures) {
  auto fs = FindingsFor("src/engine/positive_l1.cc");
  EXPECT_EQ(CountRule(fs, "aurora-L1"), 2u) << "direct capture + alias";
}

TEST(LintSelftest, WeakSelfIdiomIsClean) {
  EXPECT_TRUE(FindingsFor("src/engine/negative_l1.cc").empty());
}

TEST(LintSelftest, L2FlagsSelfReferentialFunctionHolder) {
  auto fs = FindingsFor("src/engine/positive_l2.cc");
  EXPECT_EQ(CountRule(fs, "aurora-L2"), 1u);
}

TEST(LintSelftest, WeakStepIdiomIsClean) {
  EXPECT_TRUE(FindingsFor("src/engine/negative_l2.cc").empty())
      << "init-capture 'step = weak_step.lock()' is not a strong capture";
}

TEST(LintSelftest, C1FlagsUncancelledEventIdMember) {
  auto fs = FindingsFor("src/engine/positive_c1.cc");
  ASSERT_EQ(CountRule(fs, "aurora-C1"), 1u);
  for (const Finding& f : fs) {
    if (f.rule == "aurora-C1") {
      EXPECT_NE(f.message.find("gossip_timer_"), std::string::npos);
    }
  }
}

TEST(LintSelftest, CancelledTimersAndAliasesAreClean) {
  EXPECT_TRUE(FindingsFor("src/engine/negative_c1.cc").empty())
      << "`using EventId` aliases and EventId return types are not members";
}

TEST(LintSelftest, C2FlagsDiscardedScheduleInCrashManagedFile) {
  auto fs = FindingsFor("src/engine/positive_c2.cc");
  EXPECT_EQ(CountRule(fs, "aurora-C2"), 1u);
}

TEST(LintSelftest, StoredAndReturnedScheduleResultsAreClean) {
  EXPECT_TRUE(FindingsFor("src/engine/negative_c2.cc").empty());
}

TEST(LintSelftest, H1FlagsStdFunctionInSim) {
  auto fs = FindingsFor("src/sim/positive_h1.h");
  EXPECT_EQ(CountRule(fs, "aurora-H1"), 1u);
}

TEST(LintSelftest, InlineFunctionInSimIsClean) {
  EXPECT_TRUE(FindingsFor("src/sim/negative_h1.h").empty());
}

TEST(LintSelftest, H1FlagsStdFunctionInPageAndEngineHotFiles) {
  EXPECT_EQ(CountRule(FindingsFor("src/page/positive_h1.h"), "aurora-H1"), 1u);
  EXPECT_EQ(CountRule(FindingsFor("src/engine/lock_manager.h"), "aurora-H1"),
            1u);
}

TEST(LintSelftest, H1FlagsStdFunctionInLog) {
  auto fs = FindingsFor("src/log/positive_h1.h");
  EXPECT_EQ(CountRule(fs, "aurora-H1"), 1u);
  EXPECT_EQ(fs.size(), 1u);
}

TEST(LintSelftest, H1FlagsStdFunctionInLogWriter) {
  auto fs = FindingsFor("src/engine/log_writer.h");
  EXPECT_EQ(CountRule(fs, "aurora-H1"), 1u);
  EXPECT_EQ(fs.size(), 1u);
}

TEST(LintSelftest, H1FlagsStdFunctionInTransactions) {
  auto fs = FindingsFor("src/engine/transactions.h");
  EXPECT_EQ(CountRule(fs, "aurora-H1"), 1u);
  EXPECT_EQ(fs.size(), 1u);
}

TEST(LintSelftest, StdFunctionOutsideHotPathIsNotH1) {
  // The L-rule fixtures hold std::function in other src/engine files.
  for (const Finding& f : FixtureReport().findings) {
    if (f.rule != "aurora-H1") continue;
    EXPECT_TRUE(f.file.rfind("src/sim/", 0) == 0 ||
                f.file.rfind("src/log/", 0) == 0 ||
                f.file.rfind("src/page/", 0) == 0 ||
                f.file == "src/engine/lock_manager.h" ||
                f.file == "src/engine/log_writer.h" ||
                f.file == "src/engine/transactions.h")
        << f.file;
  }
}

TEST(LintSelftest, SuppressionRoundTripBothForms) {
  auto fs = FindingsFor("src/sim/suppressed_ok.cc");
  // Both the same-line NOLINT and the NOLINTNEXTLINE forms suppress, and
  // each carries its justification through to the report.
  EXPECT_EQ(CountRule(fs, "aurora-H1", /*suppressed=*/true), 2u);
  EXPECT_EQ(CountRule(fs, "aurora-H1", /*suppressed=*/false), 0u);
  EXPECT_EQ(CountRule(fs, "aurora-S1"), 0u);
  for (const Finding& f : fs) {
    EXPECT_TRUE(f.suppressed);
    EXPECT_FALSE(f.justification.empty()) << f.file << ":" << f.line;
  }
}

TEST(LintSelftest, SuppressionWithoutJustificationEarnsS1) {
  auto fs = FindingsFor("src/sim/suppressed_missing.cc");
  EXPECT_EQ(CountRule(fs, "aurora-H1", /*suppressed=*/true), 1u);
  EXPECT_EQ(CountRule(fs, "aurora-S1", /*suppressed=*/false), 1u);
}

TEST(LintSelftest, BareClangTidyNolintDoesNotSuppressAuroraRules) {
  auto fs = FindingsFor("src/sim/bare_nolint.cc");
  EXPECT_EQ(CountRule(fs, "aurora-H1", /*suppressed=*/false), 1u);
}

TEST(LintSelftest, StripCodeBlanksCommentsAndStrings) {
  std::map<int, std::string> comments;
  std::string in =
      "int a; // system_clock\n"
      "const char* s = \"rand()\";\n"
      "/* getenv\n   spans lines */ int b;\n"
      "auto r = R\"x(time(nullptr))x\";\n";
  std::string out = internal::StripCode(in, &comments);
  EXPECT_EQ(out.size(), in.size());
  EXPECT_EQ(out.find("system_clock"), std::string::npos);
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_EQ(out.find("getenv"), std::string::npos);
  EXPECT_EQ(out.find("time(nullptr)"), std::string::npos);
  EXPECT_NE(out.find("int a;"), std::string::npos);
  EXPECT_NE(out.find("int b;"), std::string::npos);
  // Newlines are preserved so line numbers stay valid.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'),
            std::count(in.begin(), in.end(), '\n'));
  // Comment text is captured per line (for NOLINT parsing).
  EXPECT_NE(comments[1].find("system_clock"), std::string::npos);
  EXPECT_NE(comments[3].find("getenv"), std::string::npos);
}

TEST(LintSelftest, JsonReportIsWellFormedAndCountsMatch) {
  const Report& r = FixtureReport();
  std::string json = r.ToJson();
  EXPECT_NE(json.find("\"findings\""), std::string::npos);
  EXPECT_NE(json.find("\"summary\""), std::string::npos);
  EXPECT_NE(
      json.find("\"unsuppressed\": " + std::to_string(r.unsuppressed())),
      std::string::npos);
  EXPECT_NE(json.find("\"total\": " + std::to_string(r.findings.size())),
            std::string::npos);
}

TEST(LintSelftest, FindingsAreSortedByFileLineRule) {
  const Report& r = FixtureReport();
  ASSERT_FALSE(r.findings.empty());
  for (size_t i = 1; i < r.findings.size(); ++i) {
    const Finding& a = r.findings[i - 1];
    const Finding& b = r.findings[i];
    EXPECT_TRUE(std::tie(a.file, a.line, a.rule) <=
                std::tie(b.file, b.line, b.rule));
  }
}

}  // namespace
}  // namespace aurora::lint
