//===- tests/targets/summary_differential_test.cpp ------------------------===//
//
// Transparency of the procedure summary cache (src/engine/summary/,
// DESIGN.md §4g) on the evaluation workloads: every MJS (Buckets) and MC
// (Collections) example suite, plus call-heavy While programs, explored
// with summaries ON and OFF, at workers ∈ {1, 4}, yields the identical
// *ordered* sequence of (outcome kind, outcome value, final path
// condition) signatures and identical engine-layer ExecStats. Replay
// re-emits the recorded branch and coverage events of the memoised body,
// so result order, PathId assignment, CmdsExecuted and Branches are all
// bit-identical to re-execution; only solver-layer counters may differ
// (skipped queries are the point of the cache).
//
// An engagement guard rides along: on the Buckets workload the MJS
// runtime helpers (__mjs_truthy, __mjs_add, ...) are summary-eligible and
// called constantly, so the store must actually record and replay — the
// differential must not pass vacuously.
//
//===----------------------------------------------------------------------===//

#include "targets/buckets_mjs.h"
#include "targets/collections_mc.h"

#include "engine/summary/summary_store.h"
#include "engine/test_runner.h"
#include "mc/compiler.h"
#include "mc/memory.h"
#include "mjs/compiler.h"
#include "mjs/memory.h"
#include "obs/summary_stats.h"
#include "targets/suite_runner.h"
#include "while_lang/compiler.h"
#include "while_lang/memory.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace gillian;
using namespace gillian::targets;

namespace {

struct SummaryRunConfig {
  uint32_t Workers = 1;
  bool Summaries = true;
};

struct RunOutcome {
  /// Path signatures in the engine's result order — NOT sorted: replay
  /// must reproduce the exact sequence, not just the multiset.
  std::vector<std::string> Sigs;
  /// Engine-layer counters (the solver-layer ones are *expected* to
  /// differ — the cache exists to skip queries).
  uint64_t Cmds = 0, Branches = 0, ProcCalls = 0, ActionCalls = 0;
  uint64_t Finished = 0, Errored = 0, Vanished = 0, Bounded = 0;
};

/// Runs every `test_*` procedure of \p P from a cold summary store and a
/// private solver cache, rendering each finished path in order.
template <typename M>
RunOutcome suiteOutcome(const Prog &P, const SummaryRunConfig &C) {
  ProcedureSummaryStore::process().clear(); // cold store: runs independent
  EngineOptions Opts;
  Opts.UseSummaries = C.Summaries;
  Opts.Scheduler.Workers = C.Workers;
  Solver Slv(Opts.Solver);
  ExecStats Stats;
  using St = SymbolicState<M>;
  RunOutcome Out;
  for (const std::string &T : testProcs(P)) {
    St Init(M(), &Slv, &Opts);
    Interpreter<St> Interp(P, Opts, Stats);
    Result<std::vector<TraceResult<St>>> Traces = runExploration(
        Interp, InternedString::get(T), Expr::list({}), std::move(Init));
    EXPECT_TRUE(Traces.ok()) << T << ": "
                             << (Traces.ok() ? "" : Traces.error());
    if (!Traces.ok())
      continue;
    for (TraceResult<St> &R : *Traces)
      Out.Sigs.push_back(T + "|" + std::string(outcomeKindName(R.Kind)) +
                         "|" + R.Val.toString() + "|" +
                         R.Final.pathCondition().toString());
  }
  Out.Cmds = Stats.CmdsExecuted.load();
  Out.Branches = Stats.Branches.load();
  Out.ProcCalls = Stats.ProcCalls.load();
  Out.ActionCalls = Stats.ActionCalls.load();
  Out.Finished = Stats.PathsFinished.load();
  Out.Errored = Stats.PathsErrored.load();
  Out.Vanished = Stats.PathsVanished.load();
  Out.Bounded = Stats.PathsBounded.load();
  return Out;
}

template <typename M>
void expectSummariesTransparent(const Prog &P, std::string_view Name) {
  for (uint32_t Workers : {1u, 4u}) {
    SummaryRunConfig C;
    C.Workers = Workers;
    C.Summaries = false;
    RunOutcome Off = suiteOutcome<M>(P, C);
    C.Summaries = true;
    RunOutcome On = suiteOutcome<M>(P, C);
    std::string Where =
        std::string(Name) + " at workers=" + std::to_string(Workers);
    EXPECT_FALSE(Off.Sigs.empty()) << Where;
    EXPECT_EQ(Off.Sigs, On.Sigs)
        << Where << ": summary replay changed an outcome or its order";
    EXPECT_EQ(Off.Cmds, On.Cmds) << Where << ": GIL command count drifted";
    EXPECT_EQ(Off.Branches, On.Branches) << Where;
    EXPECT_EQ(Off.ProcCalls, On.ProcCalls) << Where;
    EXPECT_EQ(Off.ActionCalls, On.ActionCalls) << Where;
    EXPECT_EQ(Off.Finished, On.Finished) << Where;
    EXPECT_EQ(Off.Errored, On.Errored) << Where;
    EXPECT_EQ(Off.Vanished, On.Vanished) << Where;
    EXPECT_EQ(Off.Bounded, On.Bounded) << Where;
  }
}

class BucketsSummaryTest : public ::testing::TestWithParam<BucketsSuite> {};
class CollectionsSummaryTest
    : public ::testing::TestWithParam<CollectionsSuite> {};

/// While programs shaped to stress the cache: the same helper called from
/// many sites and under many path conditions (slice-keyed hits), a helper
/// whose argument stays concrete (one entry, many replays), and an
/// erroring helper (terminal Error outcomes must splice correctly).
const char *const WhileSources[] = {
    "function test_helper_reuse() {\n"
    "  x := fresh_int();\n"
    "  assume (0 <= x && x < 4);\n"
    "  a := clamppos(x);\n"
    "  b := clamppos(x - 1);\n"
    "  c := clamppos(x - 2);\n"
    "  s := a + b + c;\n"
    "  assert (0 <= s);\n"
    "  return s;\n}\n"
    "function clamppos(v) {\n"
    "  if (v < 0) { return 0; }\n"
    "  return v;\n}\n",
    "function test_concrete_args() {\n"
    "  i := 0; s := 0;\n"
    "  while (i < 5) { t := double(i); s := s + t; i := i + 1; }\n"
    "  assert (s == 20);\n"
    "  return s;\n}\n"
    "function double(v) { return v * 2; }\n",
    "function test_error_paths() {\n"
    "  x := fresh_int();\n"
    "  assume (0 <= x && x < 3);\n"
    "  y := checked(x);\n"
    "  return y;\n}\n"
    "function checked(v) {\n"
    "  assert (!(v == 2));\n"
    "  return v + 1;\n}\n",
};

} // namespace

TEST_P(BucketsSummaryTest, OutcomesMatchWithSummariesOnAndOff) {
  const BucketsSuite &S = GetParam();
  std::string Src =
      std::string(bucketsLibrary()) + "\n" + std::string(S.Source);
  Result<Prog> P = mjs::compileMjsSource(Src);
  ASSERT_TRUE(P.ok()) << P.error();
  expectSummariesTransparent<mjs::MjsSMem>(*P, S.Name);
}

INSTANTIATE_TEST_SUITE_P(
    AllStructures, BucketsSummaryTest, ::testing::ValuesIn(bucketsSuites()),
    [](const ::testing::TestParamInfo<BucketsSuite> &Info) {
      return std::string(Info.param.Name);
    });

TEST_P(CollectionsSummaryTest, OutcomesMatchWithSummariesOnAndOff) {
  const CollectionsSuite &S = GetParam();
  std::string Src = std::string(collectionsLibrary()) + "\n" +
                    std::string(S.Source);
  Result<Prog> P = mc::compileMcSource(Src);
  ASSERT_TRUE(P.ok()) << P.error();
  expectSummariesTransparent<mc::McSMem>(*P, S.Name);
}

INSTANTIATE_TEST_SUITE_P(
    AllStructures, CollectionsSummaryTest,
    ::testing::ValuesIn(collectionsSuites()),
    [](const ::testing::TestParamInfo<CollectionsSuite> &Info) {
      return std::string(Info.param.Name);
    });

TEST(WhileSummaryTest, OutcomesMatchWithSummariesOnAndOff) {
  for (const char *Src : WhileSources) {
    Result<Prog> P = whilelang::compileWhileSource(Src);
    ASSERT_TRUE(P.ok()) << P.error();
    expectSummariesTransparent<whilelang::WhileSMem>(*P, "while");
  }
}

TEST(WhileSummaryTest, SummaryCacheActuallyEngages) {
  // Guard against the differential passing vacuously: on the Buckets
  // workload the MJS runtime helpers are eligible and hot, so with
  // summaries on the store must record entries, take hits, and replay
  // outcomes.
  std::vector<BucketsSuite> Suites = bucketsSuites();
  ASSERT_FALSE(Suites.empty());
  std::string Src = std::string(bucketsLibrary()) + "\n" +
                    std::string(Suites.front().Source);
  Result<Prog> P = mjs::compileMjsSource(Src);
  ASSERT_TRUE(P.ok()) << P.error();
  obs::SummaryGlobalStats &G = obs::summaryGlobalStats();
  uint64_t Hits0 = G.Hits.load();
  uint64_t Replayed0 = G.ReplayedOutcomes.load();
  SummaryRunConfig C;
  C.Summaries = true;
  RunOutcome On = suiteOutcome<mjs::MjsSMem>(*P, C);
  EXPECT_FALSE(On.Sigs.empty());
  EXPECT_GT(G.Hits.load(), Hits0)
      << "no summary hit on the Buckets workload: the cache is inert";
  EXPECT_GT(G.ReplayedOutcomes.load(), Replayed0);
  EXPECT_GT(ProcedureSummaryStore::process().size(), 0u);
}
