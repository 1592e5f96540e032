//===- tests/targets/parallel_determinism_test.cpp ------------------------===//
//
// The determinism property of the exploration scheduler on the
// evaluation workloads: every MJS (Buckets) and MC (Collections) example
// suite, explored at workers ∈ {1, 2, 8}, yields the identical sequence
// of (outcome kind, outcome value, final path condition) — every worker
// count finds exactly the same paths, nothing more, nothing fewer, with
// identical values and path conditions, in the same branch-trace order.
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

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace gillian;
using namespace gillian::targets;

namespace {

/// Runs every `test_*` procedure of \p P at the given worker count and
/// renders each finished path as "test|kind|value|path-condition", in
/// the engine's result order.
template <typename M>
std::vector<std::string> suiteTraces(const Prog &P, uint32_t Workers) {
  EngineOptions Opts;
  Opts.Scheduler.Workers = Workers;
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
    for (TraceResult<St> &R : *Traces)
      Sigs.push_back(T + "|" + std::string(outcomeKindName(R.Kind)) + "|" +
                     R.Val.toString() + "|" +
                     R.Final.pathCondition().toString());
  }
  return Sigs;
}

template <typename M>
void expectScheduleIndependent(const Prog &P, std::string_view Name) {
  std::vector<std::string> Seq = suiteTraces<M>(P, 1);
  EXPECT_FALSE(Seq.empty()) << Name;
  for (uint32_t Workers : {2u, 8u}) {
    std::vector<std::string> Par = suiteTraces<M>(P, Workers);
    EXPECT_EQ(Seq, Par) << Name << " at workers=" << Workers;
  }
}

class BucketsDeterminismTest
    : public ::testing::TestWithParam<BucketsSuite> {};
class CollectionsDeterminismTest
    : public ::testing::TestWithParam<CollectionsSuite> {};

} // namespace

TEST_P(BucketsDeterminismTest, TraceMultisetIsWorkerCountInvariant) {
  const BucketsSuite &S = GetParam();
  std::string Src =
      std::string(bucketsLibrary()) + "\n" + std::string(S.Source);
  Result<Prog> P = mjs::compileMjsSource(Src);
  ASSERT_TRUE(P.ok()) << P.error();
  expectScheduleIndependent<mjs::MjsSMem>(*P, S.Name);
}

INSTANTIATE_TEST_SUITE_P(
    AllStructures, BucketsDeterminismTest,
    ::testing::ValuesIn(bucketsSuites()),
    [](const ::testing::TestParamInfo<BucketsSuite> &Info) {
      return std::string(Info.param.Name);
    });

TEST_P(CollectionsDeterminismTest, TraceMultisetIsWorkerCountInvariant) {
  const CollectionsSuite &S = GetParam();
  std::string Src = std::string(collectionsLibrary()) + "\n" +
                    std::string(S.Source);
  Result<Prog> P = mc::compileMcSource(Src);
  ASSERT_TRUE(P.ok()) << P.error();
  expectScheduleIndependent<mc::McSMem>(*P, S.Name);
}

INSTANTIATE_TEST_SUITE_P(
    AllStructures, CollectionsDeterminismTest,
    ::testing::ValuesIn(collectionsSuites()),
    [](const ::testing::TestParamInfo<CollectionsSuite> &Info) {
      return std::string(Info.param.Name);
    });
