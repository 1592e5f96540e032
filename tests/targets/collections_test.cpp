//===- tests/targets/collections_test.cpp ---------------------------------===//
//
// The §4.2 evaluation as a test: every Collections suite verifies on the
// healthy library; the four seeded finding-analogues are re-detected on
// the buggy variant with confirmed counter-models; unaffected suites stay
// clean (no false positives).
//
//===----------------------------------------------------------------------===//

#include "feasible_outcomes.h"

#include "targets/collections_mc.h"

#include "mc/compiler.h"
#include "mc/memory.h"
#include "solver/z3_backend.h"
#include "targets/suite_runner.h"

#include <gtest/gtest.h>

using namespace gillian;
using namespace gillian::mc;
using namespace gillian::targets;

namespace {

Prog compileSuite(std::string_view Library, std::string_view Suite) {
  std::string Src = std::string(Library) + "\n" + std::string(Suite);
  Result<Prog> P = compileMcSource(Src);
  EXPECT_TRUE(P.ok()) << (P.ok() ? "" : P.error());
  return P.ok() ? P.take() : Prog();
}

SuiteResult runOn(std::string_view Library, const CollectionsSuite &S) {
  Prog P = compileSuite(Library, S.Source);
  EngineOptions Opts;
  return runSuite<McSMem>(S.Name, P, Opts);
}

const CollectionsSuite &suite(std::string_view Name) {
  for (const CollectionsSuite &S : collectionsSuites())
    if (S.Name == Name)
      return S;
  static CollectionsSuite Empty{"", ""};
  ADD_FAILURE() << "no suite named " << Name;
  return Empty;
}

class CollectionsSuiteTest
    : public ::testing::TestWithParam<CollectionsSuite> {};

} // namespace

TEST_P(CollectionsSuiteTest, HealthyLibraryVerifies) {
  const CollectionsSuite &S = GetParam();
  SuiteResult R = runOn(collectionsLibrary(), S);
  EXPECT_GE(R.Tests, 2u);
  EXPECT_TRUE(R.clean()) << R.Bugs[0].Message << "\n  PC: "
                         << R.Bugs[0].PathCond;
  EXPECT_EQ(R.BoundedPaths, 0u);
  EXPECT_GT(R.GilCmds, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    AllStructures, CollectionsSuiteTest,
    ::testing::ValuesIn(collectionsSuites()),
    [](const ::testing::TestParamInfo<CollectionsSuite> &Info) {
      return std::string(Info.param.Name);
    });

TEST(CollectionsBugs, Finding1_ArrayOffByOneOverflow) {
  SuiteResult R = runOn(collectionsBuggyLibrary(), suite("array"));
  ASSERT_FALSE(R.clean());
  bool FoundOob = false, Confirmed = false;
  for (const BugReport &B : R.Bugs) {
    FoundOob |= B.Message.find("out-of-bounds") != std::string::npos;
    Confirmed |= B.Confirmed;
  }
  EXPECT_TRUE(FoundOob) << R.Bugs[0].Message;
  EXPECT_TRUE(Confirmed);
}

TEST(CollectionsBugs, Finding2_ListPointerComparisonUB) {
  SuiteResult R = runOn(collectionsBuggyLibrary(), suite("list"));
  ASSERT_FALSE(R.clean());
  bool FoundUb = false;
  for (const BugReport &B : R.Bugs)
    FoundUb |= B.Message.find("different objects") != std::string::npos;
  EXPECT_TRUE(FoundUb) << R.Bugs[0].Message;
}

TEST(CollectionsBugs, Finding3_FreedPointerComparison) {
  SuiteResult R = runOn(collectionsBuggyLibrary(), suite("deque"));
  ASSERT_FALSE(R.clean());
  bool FoundFreed = false;
  for (const BugReport &B : R.Bugs)
    FoundFreed |= B.Message.find("freed pointer") != std::string::npos;
  EXPECT_TRUE(FoundFreed) << R.Bugs[0].Message;
}

TEST(CollectionsBugs, Finding4_RingBufferOverAllocation) {
  SuiteResult R = runOn(collectionsBuggyLibrary(), suite("rbuf"));
  ASSERT_FALSE(R.clean());
  bool FoundAudit = false;
  for (const BugReport &B : R.Bugs)
    FoundAudit |=
        B.Message.find("test_rb_allocation_matches_capacity") !=
        std::string::npos;
  EXPECT_TRUE(FoundAudit)
      << "the capacity audit must flag the benign over-allocation: "
      << R.Bugs[0].Message;
}

TEST(CollectionsBugs, UnaffectedSuitesStayClean) {
  // treetbl / treeset / slist never touch the seeded code paths.
  for (const char *Name : {"treetbl", "treeset", "slist"}) {
    SuiteResult R = runOn(collectionsBuggyLibrary(), suite(Name));
    EXPECT_TRUE(R.clean()) << Name << ": " << R.Bugs[0].Message;
  }
}

TEST(CollectionsSolverCounters, ColdTable2RunBarelyCallsZ3) {
  // Regression for the vanish edge of MC symb_i64: `!(typeof(#i) ==
  // ^Int)` over a fresh #i used to reach Z3, which dropped the typeof
  // conjunct and answered Unknown, 72 times in the 75 Z3 calls of a cold
  // 1-worker Table 2 pass. A verified witness of another type now decides
  // it in-process, and so do the order-plus-disequality, offset and
  // `x == x + c` shapes that once took the last three calls.
  if (!z3Available())
    GTEST_SKIP() << "built without Z3";
  EngineOptions Opts;
  ASSERT_EQ(Opts.Scheduler.Workers, 1u);
  Solver(Opts.Solver, SolverCache::process()).resetCache();
  uint64_t Z3Calls = 0, Unknown = 0;
  for (std::string_view Library :
       {collectionsLibrary(), collectionsBuggyLibrary()})
    for (const CollectionsSuite &S : collectionsSuites()) {
      SuiteResult R = runOn(Library, S);
      Z3Calls += R.Solver.Z3Calls;
      Unknown += R.Solver.Unknown;
    }
  EXPECT_EQ(Z3Calls, 0u);
  EXPECT_EQ(Unknown, 0u);
}

TEST(CollectionsOutcomes, EveryReturnAndErrorPathIsSatisfiable) {
  // Table 2's suites on the healthy and the seeded library: no outcome
  // may end on a path condition the solver refutes.
  uint64_t Checked = 0;
  for (std::string_view Library :
       {collectionsLibrary(), collectionsBuggyLibrary()})
    for (const CollectionsSuite &S : collectionsSuites()) {
      gillian::testing::OutcomeCheck R =
          gillian::testing::checkOutcomePathConditions<McSMem>(
              compileSuite(Library, S.Source));
      Checked += R.Checked;
      EXPECT_TRUE(R.Refuted.empty()) << S.Name << ": " << R.Refuted[0];
    }
  EXPECT_GT(Checked, 100u);
}
