//===- tests/obs/obs_test.cpp ---------------------------------------------===//
//
// Unit tests of the observability core: the streaming JSON writer, the
// self-registering counter sets, RAII span nesting (self vs total time),
// the chrome://tracing view of a journal, and branch-coverage merging.
//
//===----------------------------------------------------------------------===//

#include "obs/action_counters.h"
#include "obs/counters.h"
#include "obs/coverage.h"
#include "obs/exporters.h"
#include "obs/journal/journal_io.h"
#include "obs/json_writer.h"
#include "obs/span.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

using namespace gillian;
using namespace gillian::obs;

namespace {

//===----------------------------------------------------------------------===//
// JsonWriter
//===----------------------------------------------------------------------===//

TEST(JsonWriterTest, ObjectsArraysAndCommaPlacement) {
  JsonWriter W;
  W.beginObject();
  W.field("a", static_cast<uint64_t>(1));
  W.field("b", "two");
  W.key("c");
  W.beginArray();
  W.value(static_cast<uint64_t>(3));
  W.value(false);
  W.beginObject();
  W.field("d", 2.5, 2);
  W.endObject();
  W.endArray();
  W.endObject();
  EXPECT_EQ(W.str(), "{\"a\":1,\"b\":\"two\",\"c\":[3,false,{\"d\":2.50}]}");
  EXPECT_TRUE(validateJson(W.str()));
}

TEST(JsonWriterTest, EscapesControlCharactersAndQuotes) {
  JsonWriter W;
  W.beginObject();
  W.field("k\"1", "a\\b\n\t\r");
  W.field("k2", std::string_view("\x01", 1));
  W.endObject();
  EXPECT_EQ(W.str(),
            "{\"k\\\"1\":\"a\\\\b\\n\\t\\r\",\"k2\":\"\\u0001\"}");
  EXPECT_TRUE(validateJson(W.str()));
}

TEST(JsonWriterTest, RawSplicesPreRenderedValues) {
  JsonWriter Inner;
  Inner.beginObject();
  Inner.field("x", static_cast<uint64_t>(7));
  Inner.endObject();
  JsonWriter W;
  W.beginObject();
  W.key("first");
  W.raw(Inner.str());
  W.key("second");
  W.raw(Inner.str());
  W.endObject();
  EXPECT_EQ(W.str(), "{\"first\":{\"x\":7},\"second\":{\"x\":7}}");
  EXPECT_TRUE(validateJson(W.str()));
}

TEST(JsonValidateTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(validateJson("{"));
  EXPECT_FALSE(validateJson("{\"a\":}"));
  EXPECT_FALSE(validateJson("{\"a\":1,}"));
  EXPECT_FALSE(validateJson("[1 2]"));
  EXPECT_FALSE(validateJson("{\"a\":1}garbage"));
  EXPECT_FALSE(validateJson("\"unterminated"));
  EXPECT_TRUE(validateJson("{\"a\":[1,2.5,-3e2,null,true,\"s\"]}"));
}

//===----------------------------------------------------------------------===//
// CounterSet
//===----------------------------------------------------------------------===//

struct ProbeStats : CounterSet<ProbeStats> {
  Counter Alpha{*this, "alpha", "one"};
  Counter Beta{*this, "beta", "one"};
  Counter Gamma{*this, "gamma", "two"};

  ProbeStats() = default;
  ProbeStats(const ProbeStats &O) { copyFrom(O); }
  ProbeStats &operator=(const ProbeStats &O) {
    copyFrom(O);
    return *this;
  }
};

TEST(CounterSetTest, SchemaRegistersEveryFieldOnce) {
  const CounterSchema &S = ProbeStats::schema();
  ASSERT_EQ(S.fields().size(), 3u);
  EXPECT_STREQ(S.fields()[0].Name, "alpha");
  EXPECT_STREQ(S.fields()[0].Category, "one");
  EXPECT_STREQ(S.fields()[1].Name, "beta");
  EXPECT_STREQ(S.fields()[2].Name, "gamma");
  EXPECT_STREQ(S.fields()[2].Category, "two");
  // Constructing more instances must not grow the schema (the probe runs
  // once, under the build scope).
  ProbeStats A, B;
  (void)A;
  (void)B;
  EXPECT_EQ(ProbeStats::schema().fields().size(), 3u);
}

TEST(CounterSetTest, CopyMergeDeltaResetAreSchemaWalks) {
  ProbeStats A;
  ++A.Alpha;
  A.Beta += 5;
  A.Gamma.fetch_add(2);
  ProbeStats B = A; // copyFrom
  EXPECT_EQ(B.Alpha.load(), 1u);
  EXPECT_EQ(B.Beta.load(), 5u);
  EXPECT_EQ(B.Gamma.load(), 2u);
  B.addFrom(A);
  EXPECT_EQ(B.Alpha.load(), 2u);
  EXPECT_EQ(B.Beta.load(), 10u);
  ProbeStats D = B.deltaSince(A);
  EXPECT_EQ(D.Alpha.load(), 1u);
  EXPECT_EQ(D.Beta.load(), 5u);
  EXPECT_EQ(D.Gamma.load(), 2u);
  B.resetCounters();
  EXPECT_EQ(B.Alpha.load(), 0u);
  EXPECT_EQ(B.Gamma.load(), 0u);
}

struct MixedStats : CounterSet<MixedStats> {
  Counter Events{*this, "events", "mixed"};
  Gauge Level{*this, "level", "mixed"};

  MixedStats() = default;
  MixedStats(const MixedStats &O) { copyFrom(O); }
  MixedStats &operator=(const MixedStats &O) {
    copyFrom(O);
    return *this;
  }
};

TEST(GaugeTest, SchemaRecordsFieldKind) {
  const CounterSchema &S = MixedStats::schema();
  ASSERT_EQ(S.fields().size(), 2u);
  EXPECT_EQ(S.fields()[0].Kind, FieldKind::Counter);
  EXPECT_EQ(S.fields()[1].Kind, FieldKind::Gauge);
}

TEST(GaugeTest, AddFromSkipsGauges) {
  MixedStats A, B;
  A.Events += 3;
  A.Level.set(7);
  B.Events += 10;
  B.Level.set(2);
  B.addFrom(A);
  // Counters sum; the destination's sampled last-value stays put (summing
  // two instantaneous readings is meaningless).
  EXPECT_EQ(B.Events.load(), 13u);
  EXPECT_EQ(B.Level.load(), 2u);
}

TEST(GaugeTest, DeltaSinceCarriesNewerGaugeValue) {
  MixedStats Before;
  Before.Events += 5;
  Before.Level.set(100);
  MixedStats After;
  After.Events += 12;
  After.Level.set(3);
  MixedStats D = After.deltaSince(Before);
  EXPECT_EQ(D.Events.load(), 7u);
  // Not 3 - 100 underflowed: the newer sampled value passes through.
  EXPECT_EQ(D.Level.load(), 3u);
}

TEST(GaugeTest, CopyAndResetIncludeGauges) {
  MixedStats A;
  A.Events += 2;
  A.Level.set(9);
  MixedStats B = A;
  EXPECT_EQ(B.Level.load(), 9u);
  B.resetCounters();
  EXPECT_EQ(B.Events.load(), 0u);
  EXPECT_EQ(B.Level.load(), 0u);
}

TEST(CounterSetTest, CountersJsonEmitsEveryRegisteredField) {
  ProbeStats A;
  A.Alpha += 41;
  ++A.Alpha;
  std::string J = A.countersJson();
  EXPECT_TRUE(validateJson(J));
  EXPECT_EQ(J, "{\"alpha\":42,\"beta\":0,\"gamma\":0}");
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

TEST(SpanTest, NestedSelfTimesSumToOuterTotal) {
  SpanSnapshot Before = SpanTable::global().snapshot();
  {
    Span Outer(SpanKind::Explore);
    {
      Span Inner(SpanKind::Solver);
      // A little busy-work so the inner span is non-zero.
      volatile uint64_t Sink = 0;
      for (int I = 0; I < 10000; ++I)
        Sink = Sink + static_cast<uint64_t>(I);
    }
  }
  SpanSnapshot D = SpanTable::global().snapshot() - Before;
  EXPECT_EQ(D.count(SpanKind::Explore), 1u);
  EXPECT_EQ(D.count(SpanKind::Solver), 1u);
  // The inner span has no children: self == total.
  EXPECT_EQ(D.selfNs(SpanKind::Solver), D.totalNs(SpanKind::Solver));
  // The outer span's self time excludes the nested span exactly, so the
  // two layers' self times reconstruct the outer wall time.
  EXPECT_GE(D.totalNs(SpanKind::Explore), D.totalNs(SpanKind::Solver));
  EXPECT_EQ(D.selfNs(SpanKind::Explore) + D.selfNs(SpanKind::Solver),
            D.totalNs(SpanKind::Explore));
  EXPECT_EQ(D.sumSelfNs(), D.totalNs(SpanKind::Explore));
  EXPECT_TRUE(validateJson(D.json()));
}

TEST(SpanTest, SlotReceivesTotalNanoseconds) {
  ProbeStats S;
  SpanSnapshot Before = SpanTable::global().snapshot();
  {
    Span Sp(SpanKind::Z3, &S.Alpha);
  }
  SpanSnapshot D = SpanTable::global().snapshot() - Before;
  EXPECT_EQ(S.Alpha.load(), D.totalNs(SpanKind::Z3));
}

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

TEST(ExportersTest, ChromeTraceIsValidJsonWithBalancedSpans) {
  // Two threads. Thread 0 decides an IfGoto whose sides both queried the
  // solver (3 us and 2 us) and emits both events at once, as the
  // interpreter does, then a memory action; thread 1 decides one side
  // from the cache without solver time and ends its path.
  journal::JournalData D;
  D.Strings = {"", "test_t", "setProp"};
  D.Events.reserve(5); // Ev hands out pointers into the vector
  auto Ev = [&D](journal::EventKind K, uint32_t Tid, uint64_t TsNs) {
    journal::Event E;
    E.Kind = static_cast<uint8_t>(K);
    E.Path = 1;
    E.Proc = 1;
    E.Cmd = 4;
    E.Tid = Tid;
    E.TsNs = TsNs;
    D.Events.push_back(E);
    return &D.Events.back();
  };
  auto Layer = [](journal::VerdictLayer L, journal::Verdict V) {
    return static_cast<uint8_t>((static_cast<uint8_t>(V) << 4) |
                                static_cast<uint8_t>(L));
  };
  journal::Event *False = Ev(journal::EventKind::Branch, 0, 10000);
  False->WallNs = 3000;
  False->C = Layer(journal::VerdictLayer::Z3, journal::Verdict::Unsat);
  journal::Event *True = Ev(journal::EventKind::Branch, 0, 10001);
  True->A = 1;
  True->B = 1;
  True->WallNs = 2000;
  True->C = Layer(journal::VerdictLayer::Syntactic, journal::Verdict::Sat);
  journal::Event *Act = Ev(journal::EventKind::Action, 0, 12000);
  Act->X = 2;
  Act->WallNs = 500;
  journal::Event *Cached = Ev(journal::EventKind::Branch, 1, 9000);
  Cached->B = 1;
  Cached->C = Layer(journal::VerdictLayer::Cache, journal::Verdict::Sat);
  Ev(journal::EventKind::PathEnd, 1, 9500);

  std::string J = chromeTraceJson(D);
  EXPECT_TRUE(validateJson(J)) << J;
  auto countSub = [&](const std::string &Needle) {
    size_t N = 0;
    for (size_t P = J.find(Needle); P != std::string::npos;
         P = J.find(Needle, P + Needle.size()))
      ++N;
    return N;
  };
  // The two decisions that spent solver time are complete slices; the
  // action, the cached decision and the path end are instants.
  EXPECT_EQ(countSub("\"ph\":\"X\""), 2u);
  EXPECT_EQ(countSub("\"ph\":\"i\""), 3u);
  EXPECT_EQ(countSub("\"ph\":\"B\""), 0u);
  // Slices keep their exact wall and never overlap on a track: the later
  // side ends at its emission, the earlier one ends where it starts.
  // Times are relative to the earliest slice start (5001 ns).
  EXPECT_NE(J.find("\"ts\":0.000,\"dur\":3.000"), std::string::npos) << J;
  EXPECT_NE(J.find("\"ts\":3.000,\"dur\":2.000"), std::string::npos) << J;
  EXPECT_NE(J.find("\"layer\":\"z3\""), std::string::npos);
  EXPECT_NE(J.find("\"layer\":\"syntactic\""), std::string::npos);
  EXPECT_NE(J.find("\"site\":\"test_t:4\""), std::string::npos);
  EXPECT_NE(J.find("\"action\":\"setProp\""), std::string::npos);
  EXPECT_NE(J.find("\"tid\":1"), std::string::npos);
  EXPECT_TRUE(validateJson(chromeTraceJson(journal::JournalData{})));
}

TEST(ExportersTest, ObsStatsJsonIsValid) {
  std::string J = obsStatsJson(SpanTable::global().snapshot());
  EXPECT_TRUE(validateJson(J)) << J;
  EXPECT_NE(J.find("\"spans\""), std::string::npos);
  EXPECT_NE(J.find("\"actions\""), std::string::npos);
  EXPECT_NE(J.find("\"scheduler\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Action counters
//===----------------------------------------------------------------------===//

TEST(ActionCountersTest, BumpSnapshotAndJson) {
  InternedString Act = InternedString::get("obs_test_action");
  ActionCounters::bump("obs_test_lang", Act);
  ActionCounters::bump("obs_test_lang", Act);
  auto Snap = ActionCounters::instance().snapshot();
  ASSERT_TRUE(Snap.count("obs_test_lang"));
  EXPECT_GE(Snap["obs_test_lang"]["obs_test_action"], 2u);
  std::string J = ActionCounters::instance().json();
  EXPECT_TRUE(validateJson(J)) << J;
  EXPECT_NE(J.find("\"obs_test_action\""), std::string::npos);
}

} // namespace

TEST(BranchCoverageTest, SameNamedProceduresMergeByCommandIndex) {
  // One procedure name in two programs: IfGotos at commands 1 and 3 of a
  // 4-command body, then at commands 3 and 6 of an 8-command body. Their
  // outcomes merge by command index, and the total widens to the three
  // executed sites instead of reading above 100%.
  BranchCoverage &Cov = BranchCoverage::instance();
  uint32_t Id = InternedString::get("cov_merge_probe").id();
  std::atomic<uint8_t> *Small = Cov.registerProc(Id, 2, 4);
  std::atomic<uint8_t> *Large = Cov.registerProc(Id, 2, 8);
  EXPECT_NE(Small, Large);
  EXPECT_EQ(Cov.registerProc(Id, 2, 4), Large)
      << "a larger array serves the smaller body";
  BranchCoverage::record(Small, 1, BranchTrueBit);
  BranchCoverage::record(Small, 3, BranchFalseBit);
  BranchCoverage::record(Large, 3, BranchTrueBit);
  BranchCoverage::record(Large, 6, BranchFalseBit | BranchTrueBit);
  BranchCoverage::record(Large, 6, BranchTrueBit); // already covered
  int Seen = 0;
  for (const BranchCoverage::ProcCoverage &P : Cov.snapshot())
    if (P.Proc == "cov_merge_probe") {
      ++Seen;
      EXPECT_EQ(P.Sites, 3u);
      EXPECT_EQ(P.SitesExecuted, 3u);
      EXPECT_EQ(P.OutcomesCovered, 5u);
    }
  EXPECT_EQ(Seen, 1);
}
