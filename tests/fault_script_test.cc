// Declarative fault-script grammar (fault/fault_script.h): round-trip
// stability Save(Parse(s)) == s on canonical scripts, every verb of the
// vocabulary, comment/blank handling, and line-numbered errors.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "fault/fault_script.h"
#include "text_fuzz.h"

namespace rainbow {
namespace {

TEST(FaultScriptTest, RoundTripsEveryVerb) {
  const std::string canonical =
      "0 crash 2\n"
      "1000 recover 2\n"
      "2000 crashns\n"
      "3000 recoverns\n"
      "4000 linkdown 0 1\n"
      "5000 linkup 0 1\n"
      "6000 linkdown1 1 3\n"
      "7000 linkup1 1 3\n"
      "8000 loss 0 2 0.25\n"
      "9000 delay 0 2 4\n"
      "10000 dup 2 0 0.5\n"
      "11000 reorder 2 0 1500\n"
      "12000 partition 0 1 | 2 3 4\n"
      "13000 heal\n"
      "14000 clearlinks\n"
      "15000 tornwrite 1 0.25\n"
      "16000 shortwrite 2 0.5\n"
      "17000 lostwrite 0 0.125\n"
      "18000 readflip 3 0.01\n";
  Result<std::vector<FaultEvent>> events = ParseFaultScript(canonical);
  ASSERT_TRUE(events.ok()) << events.status();
  EXPECT_EQ(events->size(), 19u);
  EXPECT_EQ(SaveFaultScript(*events), canonical);
}

TEST(FaultScriptTest, ParseThenSaveThenParseIsIdentity) {
  const std::string script =
      "100 crash 0\n"
      "200 loss 1 2 0.125\n"
      "300 partition 0 | 1 2\n";
  Result<std::vector<FaultEvent>> first = ParseFaultScript(script);
  ASSERT_TRUE(first.ok());
  Result<std::vector<FaultEvent>> second =
      ParseFaultScript(SaveFaultScript(*first));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
}

TEST(FaultScriptTest, SkipsCommentsAndBlankLines) {
  const std::string script =
      "# a header comment\n"
      "\n"
      "   \n"
      "  500 crash 1   \n"
      "# trailing comment\n";
  Result<std::vector<FaultEvent>> events = ParseFaultScript(script);
  ASSERT_TRUE(events.ok()) << events.status();
  ASSERT_EQ(events->size(), 1u);
  EXPECT_EQ((*events)[0].kind, FaultEvent::Kind::kCrashSite);
  EXPECT_EQ((*events)[0].at, 500);
  EXPECT_EQ((*events)[0].site, 1u);
}

TEST(FaultScriptTest, ParseFaultCommandUsesGivenTime) {
  Result<FaultEvent> e = ParseFaultCommand("dup 0 3 0.75", Millis(7));
  ASSERT_TRUE(e.ok()) << e.status();
  EXPECT_EQ(e->kind, FaultEvent::Kind::kLinkDup);
  EXPECT_EQ(e->at, Millis(7));
  EXPECT_EQ(e->site, 0u);
  EXPECT_EQ(e->peer, 3u);
  EXPECT_DOUBLE_EQ(e->amount, 0.75);
}

TEST(FaultScriptTest, PartitionNeedsTwoGroups) {
  EXPECT_FALSE(ParseFaultScript("0 partition 0 1 2\n").ok());
  EXPECT_FALSE(ParseFaultScript("0 partition 0 1 |\n").ok());
  EXPECT_TRUE(ParseFaultScript("0 partition 0 | 1\n").ok());
}

TEST(FaultScriptTest, RejectsBadInput) {
  // Unknown verb.
  EXPECT_FALSE(ParseFaultScript("0 explode 1\n").ok());
  // Wrong arity.
  EXPECT_FALSE(ParseFaultScript("0 crash\n").ok());
  EXPECT_FALSE(ParseFaultScript("0 crash 1 2\n").ok());
  EXPECT_FALSE(ParseFaultScript("0 heal 3\n").ok());
  // Probability out of range.
  EXPECT_FALSE(ParseFaultScript("0 loss 0 1 1.5\n").ok());
  EXPECT_FALSE(ParseFaultScript("0 dup 0 1 -0.1\n").ok());
  EXPECT_FALSE(ParseFaultScript("0 tornwrite 1 1.5\n").ok());
  EXPECT_FALSE(ParseFaultScript("0 readflip 1 -0.5\n").ok());
  // Storage verbs take exactly <site> <probability>.
  EXPECT_FALSE(ParseFaultScript("0 tornwrite 1\n").ok());
  EXPECT_FALSE(ParseFaultScript("0 lostwrite 1 2 0.5\n").ok());
  // Negative / non-numeric time.
  EXPECT_FALSE(ParseFaultScript("-5 crash 1\n").ok());
  EXPECT_FALSE(ParseFaultScript("soon crash 1\n").ok());
  // Missing verb after the timestamp.
  EXPECT_FALSE(ParseFaultScript("42\n").ok());
}

TEST(FaultScriptTest, ErrorsCarryLineNumbers) {
  Result<std::vector<FaultEvent>> r =
      ParseFaultScript("0 crash 1\n# fine\n10 explode\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos)
      << r.status();
}

TEST(FaultScriptTest, SiteIdsAreRangeChecked) {
  EXPECT_FALSE(ParseFaultScript("0 crash 4294967295\n").ok());  // kInvalidSite
  EXPECT_FALSE(ParseFaultScript("0 linkdown 0 4294967294\n").ok());  // NS id
}

TEST(FaultScriptTest, FormatsCanonically) {
  EXPECT_EQ(FormatFaultEvent(FaultEvent::Crash(Millis(1), 3)), "1000 crash 3");
  EXPECT_EQ(FormatFaultEvent(FaultEvent::LinkLoss(0, 1, 2, 0.2)),
            "0 loss 1 2 0.2");
  EXPECT_EQ(FormatFaultEvent(FaultEvent::Partition(5, {{0, 1}, {2}})),
            "5 partition 0 1 | 2");
  EXPECT_EQ(FormatFaultEvent(FaultEvent::Heal(9)), "9 heal");
  EXPECT_EQ(FormatFaultEvent(FaultEvent::StorageTorn(Millis(2), 1, 0.25)),
            "2000 tornwrite 1 0.25");
  EXPECT_EQ(FormatFaultEvent(FaultEvent::StorageReadFlip(0, 4, 0.01)),
            "0 readflip 4 0.01");
}

TEST(FaultScriptTest, FuzzedTextNeverCrashes) {
  // Hostile input: mutants of a crash/link/partition script (bit flips,
  // deletions, insertions) must either be rejected with a Status that
  // names the offending line, or parse into events whose saved form
  // parses again to the same number of events. Nothing may crash (the
  // sanitizer build gives that clause its teeth).
  const std::string script =
      "0 crash 2\n"
      "1000 recover 2\n"
      "2000 crashns\n"
      "3000 recoverns\n"
      "4000 linkdown 0 1\n"
      "5000 linkup 0 1\n"
      "6000 linkdown1 1 3\n"
      "7000 linkup1 1 3\n"
      "8000 loss 0 2 0.25\n"
      "9000 delay 0 2 4\n"
      "12000 partition 0 1 | 2 3 4\n"
      "13000 heal\n"
      "14000 clearlinks\n";
  Rng rng(20261017);
  int rejected = 0;
  int parsed = 0;
  for (int round = 0; round < 2000; ++round) {
    const std::string mutant = MutateText(script, rng);
    Result<std::vector<FaultEvent>> events = ParseFaultScript(mutant);
    if (!events.ok()) {
      EXPECT_EQ(events.status().message().rfind("line ", 0), 0u)
          << "round " << round << ": " << events.status();
      ++rejected;
      continue;
    }
    Result<std::vector<FaultEvent>> again =
        ParseFaultScript(SaveFaultScript(*events));
    ASSERT_TRUE(again.ok()) << "round " << round << ": " << again.status()
                            << "\n" << mutant;
    EXPECT_EQ(again->size(), events->size()) << "round " << round;
    ++parsed;
  }
  // Both outcomes occur, so neither clause above is vacuous.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(parsed, 0);
}

}  // namespace
}  // namespace rainbow
