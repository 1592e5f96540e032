//===- tests/obs/journal_test.cpp -----------------------------------------===//
//
// Unit tests of the execution journal (DESIGN.md §4i): lock-free emission
// and canonical snapshot order, the binary file format's byte-identical
// round-trip and its rejection of truncated/garbage input, interned-string
// capture, path-tree reconstruction with rollups, the why/provenance
// resolver, the branch-trace-aligned diff, the live /tree JSON body, and
// the per-site solver view over a real Buckets run.
//
// The journal is process-global state; every test that enables it resets
// and disables it before returning so tests stay order-independent.
//
//===----------------------------------------------------------------------===//

#include "obs/journal/analysis.h"
#include "obs/journal/journal.h"
#include "obs/journal/journal_io.h"

#include "mjs/compiler.h"
#include "mjs/memory.h"
#include "obs/exporters.h"
#include "obs/span.h"
#include "support/interner.h"
#include "targets/buckets_mjs.h"
#include "targets/suite_runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

using namespace gillian;
using namespace gillian::obs::journal;

namespace {

/// RAII: journal on at entry, reset + off at exit.
struct JournalScope {
  JournalScope() {
    reset();
    setEnabled(true);
  }
  ~JournalScope() {
    setEnabled(false);
    reset();
  }
};

/// A hand-made two-run journal: one root, one 2-way branch, terminated
/// leaves. String table: [0]="" [1]=proc [2]=action-name.
JournalData tinyJournal(uint8_t TrueLayer, bool TruePruned) {
  JournalData D;
  D.Strings = {"", "test_t", "setProp"};
  Event Root;
  Root.Kind = static_cast<uint8_t>(EventKind::Root);
  Root.Path = 1;
  Root.Proc = 1;
  D.Events.push_back(Root);

  auto Branch = [](uint64_t Path, uint32_t Step, uint32_t Cmd, uint8_t Side,
                   bool Taken, uint8_t Layer, uint64_t Wall, uint64_t Child) {
    Event E;
    E.Kind = static_cast<uint8_t>(EventKind::Branch);
    E.Path = Path;
    E.Step = Step;
    E.Proc = 1;
    E.Cmd = Cmd;
    E.A = Side;
    E.B = Taken ? 1 : 0;
    E.C = static_cast<uint8_t>(
        (static_cast<uint8_t>(Taken ? Verdict::Sat : Verdict::None) << 4) |
        Layer);
    E.X = Taken ? 1 : 0;
    E.WallNs = Wall;
    E.Aux = Child;
    return E;
  };
  bool Both = !TruePruned;
  D.Events.push_back(Branch(1, 3, 7, 0, true,
                            static_cast<uint8_t>(VerdictLayer::Syntactic),
                            50000, Both ? 2 : 0));
  D.Events.push_back(
      Branch(1, 3, 7, 1, !TruePruned, TrueLayer, 90000, Both ? 3 : 0));

  Event Act;
  Act.Kind = static_cast<uint8_t>(EventKind::Action);
  Act.Path = Both ? 2 : 1;
  Act.Step = 5;
  Act.Proc = 1;
  Act.Cmd = 9;
  Act.X = 2; // "setProp"
  Act.A = 1;
  D.Events.push_back(Act);

  auto End = [](uint64_t Path, uint32_t Step, uint32_t Cmd, uint8_t Outcome) {
    Event E;
    E.Kind = static_cast<uint8_t>(EventKind::PathEnd);
    E.Path = Path;
    E.Step = Step;
    E.Proc = 1;
    E.Cmd = Cmd;
    E.A = Outcome;
    return E;
  };
  D.Events.push_back(End(Both ? 2 : 1, 8, 12,
                         static_cast<uint8_t>(PathOutcome::Return)));
  if (Both)
    D.Events.push_back(End(3, 6, 12,
                           static_cast<uint8_t>(PathOutcome::Error)));
  std::sort(D.Events.begin(), D.Events.end(), canonicalLess);
  return D;
}

//===----------------------------------------------------------------------===//
// Emission + snapshot
//===----------------------------------------------------------------------===//

TEST(JournalCoreTest, DisabledEmitIsDropped) {
  reset();
  setEnabled(false);
  uint64_t Before = eventsEmitted();
  emitRoot(allocPathIds(1), InternedString::get("p").id());
  EXPECT_EQ(eventsEmitted(), Before);
  EXPECT_TRUE(snapshot().empty());
}

TEST(JournalCoreTest, SnapshotIsLosslessAndCanonicallyOrdered) {
  JournalScope J;
  uint32_t Proc = InternedString::get("multi_thread_proc").id();
  constexpr int PerThread = 1000;
  std::vector<std::thread> Ts;
  for (int T = 0; T < 4; ++T)
    Ts.emplace_back([&, T] {
      for (int I = 0; I < PerThread; ++I) {
        uint64_t Id = allocPathIds(1);
        emitBranch(Id, static_cast<uint32_t>(I), Proc,
                   static_cast<uint32_t>(T), 0, true, Verdict::Sat,
                   VerdictLayer::Syntactic, 1, 10, 0);
      }
    });
  for (std::thread &T : Ts)
    T.join();

  std::vector<Event> S = snapshot();
  ASSERT_EQ(S.size(), static_cast<size_t>(4 * PerThread));
  EXPECT_EQ(eventsEmitted(), S.size());
  EXPECT_TRUE(std::is_sorted(S.begin(), S.end(), canonicalLess));
  // Node ids are allocation-unique across threads.
  std::vector<uint64_t> Ids;
  for (const Event &E : S)
    Ids.push_back(E.Path);
  std::sort(Ids.begin(), Ids.end());
  EXPECT_EQ(std::adjacent_find(Ids.begin(), Ids.end()), Ids.end());
}

TEST(JournalCoreTest, ResetDropsEventsAndRestartsIds) {
  JournalScope J;
  emitRoot(allocPathIds(1), InternedString::get("p").id());
  ASSERT_FALSE(snapshot().empty());
  reset();
  EXPECT_TRUE(snapshot().empty());
  EXPECT_EQ(eventsEmitted(), 0u);
  EXPECT_EQ(allocPathIds(1), 1u); // id allocation restarted
}

TEST(JournalCoreTest, CaptureResolvesInternedStrings) {
  JournalScope J;
  uint32_t Proc = InternedString::get("capture_proc").id();
  uint32_t Act = InternedString::get("capture_action").id();
  uint64_t Id = allocPathIds(1);
  emitRoot(Id, Proc);
  emitAction(Id, 2, Proc, 5, Act, 1, 0, 0, /*WallNs=*/7);
  JournalData D = capture();
  ASSERT_EQ(D.Events.size(), 2u);
  ASSERT_FALSE(D.Strings.empty());
  EXPECT_EQ(D.Strings[0], ""); // index 0 reserved
  EXPECT_EQ(D.str(D.Events[0].Proc), "capture_proc");
  const Event &A = D.Events[1];
  ASSERT_EQ(A.Kind, static_cast<uint8_t>(EventKind::Action));
  EXPECT_EQ(D.str(A.X), "capture_action");
  EXPECT_EQ(A.WallNs, 7u);
}

TEST(JournalCoreTest, StatsJsonIsValid) {
  std::string S = statsJson();
  EXPECT_TRUE(obs::validateJson(S)) << S;
  EXPECT_NE(S.find("\"events\""), std::string::npos);
  EXPECT_NE(S.find("\"lossless\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// File format
//===----------------------------------------------------------------------===//

TEST(JournalIoTest, RoundTripIsByteIdentical) {
  JournalData D = tinyJournal(static_cast<uint8_t>(VerdictLayer::Z3),
                              /*TruePruned=*/false);
  std::string Bytes = serializeJournal(D);
  JournalData Back;
  std::string Err;
  ASSERT_TRUE(parseJournal(Bytes, Back, Err)) << Err;
  EXPECT_EQ(Back.Strings, D.Strings);
  ASSERT_EQ(Back.Events.size(), D.Events.size());
  EXPECT_EQ(serializeJournal(Back), Bytes);
}

TEST(JournalIoTest, RejectsTruncationAtEveryPrefix) {
  JournalData D = tinyJournal(static_cast<uint8_t>(VerdictLayer::Z3), false);
  std::string Bytes = serializeJournal(D);
  // Every proper prefix must be rejected — the end frame guards the tail.
  for (size_t Cut : {size_t(0), size_t(2), Bytes.size() / 2,
                     Bytes.size() - 1}) {
    JournalData Back;
    std::string Err;
    EXPECT_FALSE(parseJournal(std::string_view(Bytes).substr(0, Cut), Back,
                              Err))
        << "cut at " << Cut;
    EXPECT_FALSE(Err.empty());
  }
}

TEST(JournalIoTest, RejectsGarbageAndBadFields) {
  JournalData Back;
  std::string Err;
  EXPECT_FALSE(parseJournal("not a journal at all", Back, Err));
  EXPECT_FALSE(parseJournal(std::string("GJL1") + std::string(64, '\xff'),
                            Back, Err));
  // Corrupt one byte of a valid stream: the event-kind byte of the first
  // event (kinds above PathEnd are invalid).
  JournalData D = tinyJournal(static_cast<uint8_t>(VerdictLayer::Z3), false);
  std::string Bytes = serializeJournal(D);
  size_t Tail = Bytes.find("GJND");
  ASSERT_NE(Tail, std::string::npos);
  for (size_t I = 4; I < Bytes.size(); ++I) {
    if (static_cast<uint8_t>(Bytes[I]) ==
        static_cast<uint8_t>(EventKind::Root)) {
      std::string Bad = Bytes;
      Bad[I] = 0x7f;
      JournalData B2;
      std::string E2;
      // Either rejected outright or parsed differently — never accepted
      // as the same journal (the kind byte is load-bearing).
      if (parseJournal(Bad, B2, E2)) {
        EXPECT_NE(serializeJournal(B2), Bytes);
      }
      break;
    }
  }
  // Kinds 3 and 4 name no event: a record of either is rejected, not
  // dropped.
  for (uint8_t Kind : {uint8_t{3}, uint8_t{4}}) {
    SCOPED_TRACE("event kind " + std::to_string(Kind));
    JournalData WithKind = D;
    Event E;
    E.Kind = Kind;
    E.Path = 2;
    E.Step = 4;
    E.Proc = 1;
    E.Cmd = 7;
    WithKind.Events.insert(WithKind.Events.begin() + 3, E);
    JournalData B3;
    std::string E3;
    EXPECT_FALSE(parseJournal(serializeJournal(WithKind), B3, E3));
    EXPECT_FALSE(E3.empty());
  }
}

TEST(JournalIoTest, ReaderRejectsUnknownVerdictLayer) {
  // A Branch event packs verdict << 4 | layer into C. Layer nibbles 4, 5
  // and 7 and up name no layer (past the last one they would index past
  // SiteProfile::LayerCount in the analyses), and a verdict nibble above
  // Unknown names no verdict, so the reader refuses all of them.
  auto ExpectRejected = [](const JournalData &D) {
    JournalData Back;
    std::string Err;
    EXPECT_FALSE(parseJournal(serializeJournal(D), Back, Err));
    EXPECT_FALSE(Err.empty());
  };
  for (uint8_t Layer :
       {uint8_t{4}, uint8_t{5}, uint8_t{7}, uint8_t{8}, uint8_t{15}}) {
    SCOPED_TRACE("layer nibble " + std::to_string(Layer));
    ExpectRejected(tinyJournal(Layer, /*TruePruned=*/false));
  }
  JournalData D = tinyJournal(static_cast<uint8_t>(VerdictLayer::Z3), false);
  for (Event &E : D.Events)
    if (E.Kind == static_cast<uint8_t>(EventKind::Branch))
      E.C = static_cast<uint8_t>((4 << 4) | (E.C & 0x0f));
  SCOPED_TRACE("verdict nibble 4");
  ExpectRejected(D);
}

TEST(JournalIoTest, ReaderRejectsBranchChildNotAfterItsNode) {
  // Path ids only grow, and a step allocates its children after its own
  // node exists, so a taken Branch names a child id above its node's. One
  // that names its own node or an ancestor would make the path tree
  // cyclic, and the tree rollup would push that node forever.
  auto ExpectRejected = [](const JournalData &D) {
    JournalData Back;
    std::string Err;
    EXPECT_FALSE(parseJournal(serializeJournal(D), Back, Err));
    EXPECT_FALSE(Err.empty());
  };
  auto IsTakenBranch = [](const Event &E) {
    return E.Kind == static_cast<uint8_t>(EventKind::Branch) && E.B != 0;
  };
  {
    SCOPED_TRACE("child == node");
    JournalData D = tinyJournal(static_cast<uint8_t>(VerdictLayer::Z3), false);
    auto It = std::find_if(D.Events.begin(), D.Events.end(), IsTakenBranch);
    ASSERT_NE(It, D.Events.end());
    It->Aux = It->Path;
    ExpectRejected(D);
  }
  {
    SCOPED_TRACE("child < node");
    JournalData D = tinyJournal(static_cast<uint8_t>(VerdictLayer::Z3), false);
    // Node 3 (a child of the root, node 1) branches back to the root.
    Event Back;
    Back.Kind = static_cast<uint8_t>(EventKind::Branch);
    Back.Path = 3;
    Back.Step = 4;
    Back.Proc = 1;
    Back.Cmd = 9;
    Back.B = 1;
    Back.Aux = 1;
    D.Events.push_back(Back);
    std::sort(D.Events.begin(), D.Events.end(), canonicalLess);
    ExpectRejected(D);
  }
}

TEST(JournalIoTest, FileWriteReadRoundTrip) {
  JournalData D = tinyJournal(static_cast<uint8_t>(VerdictLayer::Syntactic),
                              /*TruePruned=*/true);
  std::string Path = ::testing::TempDir() + "journal_test_rt.gjl";
  uint64_t Bytes = 0;
  std::string Err;
  ASSERT_TRUE(writeJournalFile(D, Path, &Bytes, &Err)) << Err;
  EXPECT_GT(Bytes, 0u);
  JournalData Back;
  ASSERT_TRUE(readJournalFile(Path, Back, Err)) << Err;
  EXPECT_EQ(serializeJournal(Back), serializeJournal(D));
  ::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Analysis: tree, why, diff, signature
//===----------------------------------------------------------------------===//

TEST(JournalAnalysisTest, BuildsForestWithRollups) {
  JournalData D = tinyJournal(static_cast<uint8_t>(VerdictLayer::Z3),
                              /*TruePruned=*/false);
  PathForest F = buildForest(D);
  ASSERT_EQ(F.Roots.size(), 1u);
  EXPECT_EQ(F.RootLabels[0], "test_t#0");
  const TreeNode &Root = F.Nodes.at(F.Roots[0]);
  ASSERT_EQ(Root.Children.size(), 2u);
  EXPECT_EQ(Root.SubtreePaths, 2u);
  EXPECT_EQ(Root.SubtreeWallNs, 140000u); // both decision sides
  EXPECT_EQ(Root.SubtreePrunes, 0u);

  // Pruned variant: one child, one path, one prune.
  JournalData P = tinyJournal(static_cast<uint8_t>(VerdictLayer::None),
                              /*TruePruned=*/true);
  PathForest FP = buildForest(P);
  const TreeNode &RP = FP.Nodes.at(FP.Roots[0]);
  EXPECT_TRUE(RP.Children.empty()); // single output keeps the node id
  EXPECT_EQ(RP.SubtreePaths, 1u);
  EXPECT_EQ(RP.SubtreePrunes, 1u);
}

TEST(JournalAnalysisTest, TreeOutputsAreWellFormed) {
  JournalData D = tinyJournal(static_cast<uint8_t>(VerdictLayer::Z3), false);
  std::string Text = treeText(D, 4);
  EXPECT_NE(Text.find("test_t#0"), std::string::npos);
  EXPECT_NE(Text.find("syntactic"), std::string::npos);
  std::string Json = treeJson(D, 4);
  EXPECT_TRUE(obs::validateJson(Json)) << Json;
  EXPECT_NE(Json.find("\"roots\""), std::string::npos);
  // Depth collapse: at depth 0 the JSON stays valid and marks collapse.
  std::string Shallow = treeJson(D, 0);
  EXPECT_TRUE(obs::validateJson(Shallow)) << Shallow;
}

TEST(JournalAnalysisTest, LiveTreeJsonReportsDisabled) {
  reset();
  setEnabled(false);
  std::string S = liveTreeJson(4);
  EXPECT_TRUE(obs::validateJson(S)) << S;
  EXPECT_NE(S.find("\"enabled\":false"), std::string::npos);
}

TEST(JournalAnalysisTest, WhyResolvesNodeIdAndBranchTrace) {
  JournalData D = tinyJournal(static_cast<uint8_t>(VerdictLayer::Z3), false);
  std::string Out;
  ASSERT_TRUE(whyText(D, "test_t#0:1", Out)) << Out;
  EXPECT_NE(Out.find("z3"), std::string::npos); // deciding layer surfaced
  std::string ById;
  ASSERT_TRUE(whyText(D, "3", ById)) << ById;
  EXPECT_EQ(Out, ById); // trace and id name the same node
  std::string Err;
  EXPECT_FALSE(whyText(D, "test_t#0:9.9", Err));
  EXPECT_FALSE(whyText(D, "no_such_proc", Err));
}

TEST(JournalAnalysisTest, DiffReportsLayerShiftPruneAndWallDelta) {
  JournalData A = tinyJournal(static_cast<uint8_t>(VerdictLayer::Syntactic),
                              /*TruePruned=*/false);
  JournalData B = tinyJournal(static_cast<uint8_t>(VerdictLayer::Z3),
                              /*TruePruned=*/false);
  std::string Text = diffText(A, B, 8);
  EXPECT_NE(Text.find("syntactic"), std::string::npos);
  EXPECT_NE(Text.find("z3"), std::string::npos);
  std::string Json = diffJson(A, B, 8);
  EXPECT_TRUE(obs::validateJson(Json)) << Json;

  // A prune divergence: same site, different surviving side set.
  JournalData C = tinyJournal(static_cast<uint8_t>(VerdictLayer::None),
                              /*TruePruned=*/true);
  std::string PruneDiff = diffText(A, C, 8);
  EXPECT_NE(PruneDiff.find("only in A"), std::string::npos);
  // Identical journals diff clean.
  std::string Same = diffText(A, A, 8);
  EXPECT_NE(Same.find("only in A: 0"), std::string::npos) << Same;
  EXPECT_NE(Same.find("diverging prunes: 0"), std::string::npos) << Same;
}

TEST(JournalAnalysisTest, SignatureIgnoresLayerAndWall) {
  JournalData A = tinyJournal(static_cast<uint8_t>(VerdictLayer::Syntactic),
                              /*TruePruned=*/false);
  JournalData B = tinyJournal(static_cast<uint8_t>(VerdictLayer::Z3),
                              /*TruePruned=*/false);
  // Different deciding layers and wall times: same structure, same
  // signature (the invariance test's alignment key).
  for (Event &E : B.Events)
    E.WallNs *= 3;
  EXPECT_EQ(canonicalTreeSignature(A), canonicalTreeSignature(B));
  // A pruned-vs-taken difference is structural and must show.
  JournalData C = tinyJournal(static_cast<uint8_t>(VerdictLayer::None),
                              /*TruePruned=*/true);
  EXPECT_NE(canonicalTreeSignature(A), canonicalTreeSignature(C));
}

TEST(JournalRealRunTest, ActionsCarrySolverWallAndSitesCoverTheSolver) {
  // The dictionary's property lookups (MJS getProp/setProp on symbolic
  // keys) decide their own branch feasibility inside the memory action,
  // so on the healthy `dict` suite the journal must attribute solver wall
  // to Action events, and the per-site view — decisions plus actions —
  // must account for the solver span total of the run.
  const targets::BucketsSuite *Dict = nullptr;
  for (const targets::BucketsSuite &S : targets::bucketsSuites())
    if (S.Name == "dict")
      Dict = &S;
  ASSERT_NE(Dict, nullptr);
  Result<Prog> P =
      mjs::compileMjsSource(std::string(targets::bucketsLibrary()) + "\n" +
                            std::string(Dict->Source));
  ASSERT_TRUE(P.ok()) << P.error();

  Solver(SolverOptions(), SolverCache::process()).resetCache();
  JournalScope J;
  obs::SpanSnapshot Before = obs::SpanTable::global().snapshot();
  targets::SuiteResult R =
      targets::runSuite<mjs::MjsSMem>(Dict->Name, *P, EngineOptions());
  uint64_t SolverNs = (obs::SpanTable::global().snapshot() - Before)
                          .totalNs(obs::SpanKind::Solver);
  EXPECT_TRUE(R.clean());
  ASSERT_GT(SolverNs, 0u);

  JournalData D = capture();
  uint64_t ActionWall = 0;
  for (const Event &E : D.Events)
    if (E.Kind == static_cast<uint8_t>(EventKind::Action))
      ActionWall += E.WallNs;
  EXPECT_GT(ActionWall, 0u);
  uint64_t SiteWall = 0;
  for (const auto &[Site, S] : siteProfiles(D))
    SiteWall += S.WallNs;
  EXPECT_GE(static_cast<double>(SiteWall), 0.9 * SolverNs)
      << "sites " << SiteWall << " ns of solver " << SolverNs << " ns";
}

} // namespace
