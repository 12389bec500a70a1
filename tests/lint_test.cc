// Tests for tools/lint (rainbow_lint): golden per-rule findings over
// the fixture files, the clean-run assertion over src/, and the
// suppression-budget machinery. The fixtures are the linter's
// regression corpus — tests/lint_fixtures/d1_wal_indoubt_hash_order.cc
// reproduces the PR-7 Wal::InDoubt hash-order bug and must stay
// flagged by D1 forever.
#include <algorithm>
#include <cctype>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lint_core.h"

namespace rainbow {
namespace {

using lint::CheckBudget;
using lint::CollectSources;
using lint::Finding;
using lint::LintFile;
using lint::LintSource;
using lint::ParseBudget;
using lint::Report;

std::string FixtureDir() {
  return std::string(RAINBOW_SOURCE_DIR) + "/tests/lint_fixtures";
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Expected findings declared in the fixture itself: every line
/// containing "EXPECT-LINT: <rule>" must produce exactly one
/// unsuppressed finding of that rule on that line.
std::multiset<std::pair<int, std::string>> ExpectedFindings(
    const std::string& content) {
  std::multiset<std::pair<int, std::string>> out;
  std::stringstream ss(content);
  std::string line;
  int lineno = 0;
  while (std::getline(ss, line)) {
    ++lineno;
    size_t pos = 0;
    while ((pos = line.find("EXPECT-LINT:", pos)) != std::string::npos) {
      pos += std::strlen("EXPECT-LINT:");
      while (pos < line.size() && line[pos] == ' ') ++pos;
      size_t end = pos;
      while (end < line.size() && (std::isalnum(line[end]) != 0)) ++end;
      if (end > pos) out.emplace(lineno, line.substr(pos, end - pos));
    }
  }
  return out;
}

std::multiset<std::pair<int, std::string>> ActualFindings(const Report& r) {
  std::multiset<std::pair<int, std::string>> out;
  for (const Finding& f : r.findings) {
    if (!f.suppressed) out.emplace(f.line, f.rule);
  }
  return out;
}

TEST(LintFixtures, GoldenFindingsPerRule) {
  std::vector<std::string> fixtures = CollectSources(FixtureDir());
  ASSERT_FALSE(fixtures.empty());
  int checked = 0;
  for (const std::string& path : fixtures) {
    std::string content = ReadFileOrDie(path);
    Report report = LintSource(path, content);
    EXPECT_EQ(ActualFindings(report), ExpectedFindings(content))
        << "finding mismatch in " << path;
    ++checked;
  }
  EXPECT_GE(checked, 5) << "fixture corpus went missing";
}

// The acceptance fixture: the exact Wal::InDoubt shape PR 7 fixed
// (hash-map scan pushed into a recovery-visible list) must be caught
// by D1 in its range-for, `auto`-variable and iterator-loop forms.
TEST(LintFixtures, WalInDoubtHashOrderPatternIsFlaggedByD1) {
  Report report =
      LintFile(FixtureDir() + "/d1_wal_indoubt_hash_order.cc");
  int d1 = 0;
  for (const Finding& f : report.findings) {
    if (f.rule == "D1" && !f.suppressed) ++d1;
  }
  EXPECT_EQ(d1, 4) << "range-for over a named hash map, over a returned "
                      "temporary, over an `auto` copy of one, and an "
                      "iterator loop must all be flagged";
}

TEST(LintFixtures, CleanPatternsStayClean) {
  Report report = LintFile(FixtureDir() + "/d1_clean_patterns.cc");
  EXPECT_EQ(report.Unsuppressed(), 0);
  EXPECT_TRUE(report.SuppressionsByRule().empty());
}

TEST(LintFixtures, SuppressionAccounting) {
  Report report = LintFile(FixtureDir() + "/suppressions.cc");
  auto by_rule = report.SuppressionsByRule();
  EXPECT_EQ(by_rule["D1"], 2) << "same-line and line-above suppressions";
  // The reasonless and the stale suppression are both LINT findings;
  // the reasonless one additionally leaves its D1 finding live.
  int lint = 0;
  int d1 = 0;
  for (const Finding& f : report.findings) {
    if (f.suppressed) continue;
    if (f.rule == "LINT") ++lint;
    if (f.rule == "D1") ++d1;
  }
  EXPECT_EQ(lint, 2);
  EXPECT_EQ(d1, 1);
}

// The repo gate: src/ must lint clean, and the suppressions in use
// must fit the checked-in budget. This is the same check the CI lint
// job runs via the CLI; having it in ctest means a finding fails the
// ordinary local build too.
TEST(LintSrcTree, RunsCleanWithinSuppressionBudget) {
  std::string src = std::string(RAINBOW_SOURCE_DIR) + "/src";
  Report report;
  std::vector<std::string> files = CollectSources(src);
  ASSERT_GT(files.size(), 50u) << "src/ walk looks broken";
  for (const std::string& f : files) {
    report.MergeFrom(LintFile(f));
  }
  EXPECT_TRUE(report.io_errors.empty());
  for (const Finding& f : report.findings) {
    EXPECT_TRUE(f.suppressed)
        << f.file << ":" << f.line << " [" << f.rule << "] " << f.message;
  }
  auto budget = ParseBudget(ReadFileOrDie(
      std::string(RAINBOW_SOURCE_DIR) + "/tools/lint/suppressions.budget"));
  EXPECT_TRUE(CheckBudget(report, budget).empty());
}

TEST(LintBudget, ParseAndEnforce) {
  auto budget = ParseBudget(
      "# comment\n"
      "D1 2\n"
      "D2 0   # trailing comment\n"
      "\n"
      "D4 1\n");
  EXPECT_EQ(budget.size(), 3u);
  EXPECT_EQ(budget["D1"], 2);
  EXPECT_EQ(budget["D2"], 0);
  EXPECT_EQ(budget["D4"], 1);
}

// Regression: the budget is a ceiling on *used* suppressions. Three
// suppressed D1 findings must fail a budget of two and pass a budget
// of three; a rule missing from the budget file allows zero.
TEST(LintBudget, SuppressionCountAboveBudgetFails) {
  std::string source =
      "#include <unordered_map>\n"
      "#include <vector>\n"
      "std::unordered_map<int, int> M();\n"
      "std::vector<int> A() {\n"
      "  std::vector<int> out;\n"
      "  // RAINBOW_LINT(allow:D1 reason=sorted by caller)\n"
      "  for (const auto& [k, v] : M()) out.push_back(k);\n"
      "  // RAINBOW_LINT(allow:D1 reason=sorted by caller)\n"
      "  for (const auto& [k, v] : M()) out.push_back(k);\n"
      "  // RAINBOW_LINT(allow:D1 reason=sorted by caller)\n"
      "  for (const auto& [k, v] : M()) out.push_back(k);\n"
      "  return out;\n"
      "}\n";
  Report report = LintSource("budget_probe.cc", source);
  EXPECT_EQ(report.Unsuppressed(), 0);
  EXPECT_EQ(report.SuppressionsByRule()["D1"], 3);

  EXPECT_FALSE(CheckBudget(report, ParseBudget("D1 2\n")).empty());
  EXPECT_TRUE(CheckBudget(report, ParseBudget("D1 3\n")).empty());
  // Rule absent from the budget file: zero allowed.
  EXPECT_FALSE(CheckBudget(report, ParseBudget("D2 5\n")).empty());
}

// D2's bench//tools/ exemption: the same source is a finding under
// src/ and clean under bench/.
TEST(LintRules, D2ExemptsBenchAndTools) {
  std::string source =
      "#include <chrono>\n"
      "long Now() {\n"
      "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
      "}\n";
  EXPECT_EQ(LintSource("src/common/clock.cc", source).Unsuppressed(), 1);
  EXPECT_EQ(LintSource("bench/bench_clock.cc", source).Unsuppressed(), 0);
  EXPECT_EQ(LintSource("tools/lint/probe.cc", source).Unsuppressed(), 0);
}

}  // namespace
}  // namespace rainbow
