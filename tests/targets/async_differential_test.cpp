//===- tests/targets/async_differential_test.cpp --------------------------===//
//
// Verdict-identity of the async query service on the evaluation workloads:
// every MJS (Buckets) and MC (Collections) example suite, plus
// solver-shape-diverse While programs, explored at 4 workers with undecided
// queries solved inline and through the service, yields the identical
// multiset of (outcome kind, outcome value, final path condition)
// signatures — and the same verified counter-models. The service only
// moves where the same solve closure runs.
//
//===----------------------------------------------------------------------===//

#include "targets/buckets_mjs.h"
#include "targets/collections_mc.h"

#include "engine/test_runner.h"
#include "mc/compiler.h"
#include "mc/memory.h"
#include "mjs/compiler.h"
#include "mjs/memory.h"
#include "targets/suite_runner.h"
#include "while_lang/compiler.h"
#include "while_lang/memory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace gillian;
using namespace gillian::targets;

namespace {

/// Runs every `test_*` procedure of \p P at 4 workers and renders each
/// finished path as "test|kind|value|path-condition|model?" (same
/// signature scheme as the incremental differential, so failures read
/// identically); sorted.
template <typename M>
std::vector<std::string> suiteTraces(const Prog &P, uint32_t Async) {
  EngineOptions Opts;
  Opts.Scheduler.Workers = 4;
  Opts.Solver.AsyncSolvers = Async;
  Solver Slv(Opts.Solver); // private cache: runs are independent
  ExecStats Stats;
  using St = SymbolicState<M>;
  std::vector<std::string> Sigs;
  for (const std::string &T : testProcs(P)) {
    St Init(M(), &Slv, &Opts);
    Interpreter<St> Interp(P, Opts, Stats);
    Result<std::vector<TraceResult<St>>> Traces = runExploration(
        Interp, InternedString::get(T), Expr::list({}), std::move(Init));
    EXPECT_TRUE(Traces.ok()) << T << ": "
                             << (Traces.ok() ? "" : Traces.error());
    if (!Traces.ok())
      continue;
    int ModelChecks = 0;
    for (TraceResult<St> &R : *Traces) {
      std::string Sig = T + "|" + std::string(outcomeKindName(R.Kind)) +
                        "|" + R.Val.toString() + "|" +
                        R.Final.pathCondition().toString();
      const PathCondition &PC = R.Final.pathCondition();
      if (PC.size() > 0 && ModelChecks < 3) {
        ++ModelChecks;
        Sig += Slv.verifiedModel(PC).has_value() ? "|model" : "|nomodel";
      }
      Sigs.push_back(std::move(Sig));
    }
  }
  std::sort(Sigs.begin(), Sigs.end());
  return Sigs;
}

template <typename M>
void expectAsyncTransparent(const Prog &P, std::string_view Name) {
  std::vector<std::string> Sync = suiteTraces<M>(P, /*Async=*/0);
  std::vector<std::string> Async = suiteTraces<M>(P, /*Async=*/2);
  EXPECT_FALSE(Sync.empty()) << Name;
  EXPECT_EQ(Sync, Async)
      << Name << ": the async solver service changed an outcome";
}

class BucketsAsyncTest : public ::testing::TestWithParam<BucketsSuite> {};
class CollectionsAsyncTest
    : public ::testing::TestWithParam<CollectionsSuite> {};

/// While programs picked for solver-shape diversity (as in the
/// incremental differential), plus a disequality-chain shape that the
/// syntactic witness proposer decides end-to-end.
const char *const WhileSources[] = {
    "function test_branch() {\n"
    "  x := fresh_int();\n"
    "  assume (0 <= x && x < 8);\n"
    "  y := 0;\n"
    "  if (x < 4) { y := x + 1; }\n"
    "  if (3 < x) { y := x - 1; }\n"
    "  assert (0 <= y && y < 7);\n"
    "  return y;\n}\n",
    "function test_diseq_chain() {\n"
    "  a := fresh_num(); b := fresh_num(); c := fresh_num();\n"
    "  assume (0.5 <= a && a < 100.0);\n"
    "  assume (0.5 <= b && b < 100.0);\n"
    "  assume (0.5 <= c && c < 100.0);\n"
    "  assume (!(a == b) && !(b == c) && !(a == c));\n"
    "  d := 0;\n"
    "  if (a < b) { d := d + 1; }\n"
    "  if (b < c) { d := d + 1; }\n"
    "  assert (d <= 2);\n"
    "  return d;\n}\n",
    "function test_violation() {\n"
    "  x := fresh_int();\n"
    "  assume (0 <= x && x <= 100);\n"
    "  assert (x < 100);\n"
    "  return x;\n}\n",
};

} // namespace

TEST_P(BucketsAsyncTest, VerdictsMatchWithAsyncOnAndOff) {
  const BucketsSuite &S = GetParam();
  std::string Src =
      std::string(bucketsLibrary()) + "\n" + std::string(S.Source);
  Result<Prog> P = mjs::compileMjsSource(Src);
  ASSERT_TRUE(P.ok()) << P.error();
  expectAsyncTransparent<mjs::MjsSMem>(*P, S.Name);
}

INSTANTIATE_TEST_SUITE_P(
    AllStructures, BucketsAsyncTest, ::testing::ValuesIn(bucketsSuites()),
    [](const ::testing::TestParamInfo<BucketsSuite> &Info) {
      return std::string(Info.param.Name);
    });

TEST_P(CollectionsAsyncTest, VerdictsMatchWithAsyncOnAndOff) {
  const CollectionsSuite &S = GetParam();
  std::string Src = std::string(collectionsLibrary()) + "\n" +
                    std::string(S.Source);
  Result<Prog> P = mc::compileMcSource(Src);
  ASSERT_TRUE(P.ok()) << P.error();
  expectAsyncTransparent<mc::McSMem>(*P, S.Name);
}

INSTANTIATE_TEST_SUITE_P(
    AllStructures, CollectionsAsyncTest,
    ::testing::ValuesIn(collectionsSuites()),
    [](const ::testing::TestParamInfo<CollectionsSuite> &Info) {
      return std::string(Info.param.Name);
    });

TEST(WhileAsyncTest, VerdictsMatchWithAsyncOnAndOff) {
  for (const char *Src : WhileSources) {
    Result<Prog> P = whilelang::compileWhileSource(Src);
    ASSERT_TRUE(P.ok()) << P.error();
    expectAsyncTransparent<whilelang::WhileSMem>(*P, "while");
  }
}
