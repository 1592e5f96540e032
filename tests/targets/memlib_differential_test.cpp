//===- tests/targets/memlib_differential_test.cpp -------------------------===//
//
// Bit-identity of the memlib re-founding (DESIGN.md §4h): the While, MJS
// and MC memory models rebuilt on the combinator kit must behave exactly
// like the pre-memlib implementations — same ordered sequence of
// (outcome kind, outcome value, final path condition) signatures, same
// engine-layer ExecStats — on the full evaluation workloads (Buckets,
// Collections, object-heavy While programs), at workers ∈ {1, 4}.
//
// The old implementations are verbatim snapshots under tests/targets/
// legacy/ (namespace gillian::legacy), compiled into this binary only.
// An engagement guard asserts the workloads actually execute memory
// actions, so the differential cannot pass vacuously.
//
//===----------------------------------------------------------------------===//

#include "legacy/mc_memory.h"
#include "legacy/mjs_memory.h"
#include "legacy/while_memory.h"

#include "engine/test_runner.h"
#include "mc/compiler.h"
#include "mc/memory.h"
#include "mjs/compiler.h"
#include "mjs/memory.h"
#include "targets/buckets_mjs.h"
#include "targets/collections_mc.h"
#include "targets/suite_runner.h"
#include "while_lang/compiler.h"
#include "while_lang/memory.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace gillian;
using namespace gillian::targets;

namespace {

struct RunOutcome {
  /// Path signatures in the engine's result order — NOT sorted: the kit
  /// must reproduce the exact branch evaluation order, not just the
  /// multiset of outcomes.
  std::vector<std::string> Sigs;
  uint64_t Cmds = 0, Branches = 0, ProcCalls = 0, ActionCalls = 0;
  uint64_t Finished = 0, Errored = 0, Vanished = 0, Bounded = 0;
};

template <typename M>
RunOutcome suiteOutcome(const Prog &P, uint32_t Workers) {
  EngineOptions Opts;
  Opts.Scheduler.Workers = Workers;
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

/// Runs \p P on the legacy model \p Old and the memlib model \p New at
/// every worker count and asserts identity.
template <typename Old, typename New>
void expectBitIdentical(const Prog &P, std::string_view Name) {
  for (uint32_t Workers : {1u, 4u}) {
    RunOutcome Legacy = suiteOutcome<Old>(P, Workers);
    RunOutcome Memlib = suiteOutcome<New>(P, Workers);
    std::string Where =
        std::string(Name) + " at workers=" + std::to_string(Workers);
    EXPECT_FALSE(Legacy.Sigs.empty()) << Where;
    EXPECT_GT(Legacy.ActionCalls, 0u)
        << Where << ": workload executes no memory actions — the "
                    "differential would be vacuous";
    EXPECT_EQ(Legacy.Sigs, Memlib.Sigs)
        << Where << ": the memlib model changed an outcome, a fault "
                    "message, a path condition, or the branch order";
    EXPECT_EQ(Legacy.Cmds, Memlib.Cmds) << Where;
    EXPECT_EQ(Legacy.Branches, Memlib.Branches) << Where;
    EXPECT_EQ(Legacy.ProcCalls, Memlib.ProcCalls) << Where;
    EXPECT_EQ(Legacy.ActionCalls, Memlib.ActionCalls) << Where;
    EXPECT_EQ(Legacy.Finished, Memlib.Finished) << Where;
    EXPECT_EQ(Legacy.Errored, Memlib.Errored) << Where;
    EXPECT_EQ(Legacy.Vanished, Memlib.Vanished) << Where;
    EXPECT_EQ(Legacy.Bounded, Memlib.Bounded) << Where;
  }
}

class BucketsMemlibTest : public ::testing::TestWithParam<BucketsSuite> {};
class CollectionsMemlibTest
    : public ::testing::TestWithParam<CollectionsSuite> {};

/// While programs shaped to hit every action and fault path of the object
/// memory: symbolic-valued mutation, use-after-dispose, double dispose,
/// missing properties, and dispose under symbolic control flow.
const char *const WhileSources[] = {
    "function test_obj_paths() {\n"
    "  o := { x: 0, y: 7 };\n"
    "  v := fresh_int();\n"
    "  assume (0 <= v && v < 3);\n"
    "  o.x := v;\n"
    "  a := o.x;\n"
    "  assert (a == v);\n"
    "  if (a == 2) { dispose o; return 1; }\n"
    "  b := o.y;\n"
    "  return a + b;\n}\n",
    "function test_use_after_dispose() {\n"
    "  o := { x: 1 };\n"
    "  dispose o;\n"
    "  a := o.x;\n"
    "  return a;\n}\n",
    "function test_double_dispose() {\n"
    "  o := { x: 1 };\n"
    "  dispose o;\n"
    "  dispose o;\n"
    "  return 0;\n}\n",
    "function test_missing_prop() {\n"
    "  o := { x: 1 };\n"
    "  c := fresh_int();\n"
    "  if (c == 0) { a := o.nope; return a; }\n"
    "  b := o.x;\n"
    "  return b;\n}\n",
};

} // namespace

TEST_P(BucketsMemlibTest, LegacyAndMemlibModelsAgree) {
  const BucketsSuite &S = GetParam();
  std::string Src =
      std::string(bucketsLibrary()) + "\n" + std::string(S.Source);
  Result<Prog> P = mjs::compileMjsSource(Src);
  ASSERT_TRUE(P.ok()) << P.error();
  expectBitIdentical<legacy::MjsSMem, mjs::MjsSMem>(*P, S.Name);
}

INSTANTIATE_TEST_SUITE_P(
    AllStructures, BucketsMemlibTest, ::testing::ValuesIn(bucketsSuites()),
    [](const ::testing::TestParamInfo<BucketsSuite> &Info) {
      return std::string(Info.param.Name);
    });

TEST_P(CollectionsMemlibTest, LegacyAndMemlibModelsAgree) {
  const CollectionsSuite &S = GetParam();
  std::string Src = std::string(collectionsLibrary()) + "\n" +
                    std::string(S.Source);
  Result<Prog> P = mc::compileMcSource(Src);
  ASSERT_TRUE(P.ok()) << P.error();
  expectBitIdentical<legacy::McSMem, mc::McSMem>(*P, S.Name);
}

INSTANTIATE_TEST_SUITE_P(
    AllStructures, CollectionsMemlibTest,
    ::testing::ValuesIn(collectionsSuites()),
    [](const ::testing::TestParamInfo<CollectionsSuite> &Info) {
      return std::string(Info.param.Name);
    });

TEST(WhileMemlibTest, LegacyAndMemlibModelsAgree) {
  for (const char *Src : WhileSources) {
    Result<Prog> P = whilelang::compileWhileSource(Src);
    ASSERT_TRUE(P.ok()) << P.error();
    expectBitIdentical<legacy::WhileSMem, whilelang::WhileSMem>(*P, "while");
  }
}

TEST(WhileMemlibTest, SeededBucketsFindingsSurviveTheRefactor) {
  // The §4.1 findings on the buggy Buckets library must be re-detected
  // with the same messages by both model generations — the fault-path
  // half of the differential, on the workload that matters.
  std::vector<BucketsSuite> Suites = bucketsSuites();
  ASSERT_FALSE(Suites.empty());
  std::string Src = std::string(bucketsBuggyLibrary()) + "\n" +
                    std::string(Suites.front().Source);
  Result<Prog> P = mjs::compileMjsSource(Src);
  ASSERT_TRUE(P.ok()) << P.error();
  expectBitIdentical<legacy::MjsSMem, mjs::MjsSMem>(*P, "buckets-buggy");
}
