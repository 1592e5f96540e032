//===- tests/targets/buckets_test.cpp -------------------------------------===//
//
// The §4.1 evaluation as a test: every Buckets suite runs clean on the
// healthy library (bounded verification), and the seeded §4.1-style bugs
// are re-detected with confirmed counter-models on the buggy variant —
// with zero false positives elsewhere.
//
//===----------------------------------------------------------------------===//

#include "feasible_outcomes.h"

#include "targets/buckets_mjs.h"

#include "mjs/compiler.h"
#include "mjs/memory.h"
#include "targets/suite_runner.h"

#include <gtest/gtest.h>

using namespace gillian;
using namespace gillian::mjs;
using namespace gillian::targets;

namespace {

Prog compileSuite(std::string_view Library, std::string_view Suite) {
  std::string Src = std::string(Library) + "\n" + std::string(Suite);
  Result<Prog> P = compileMjsSource(Src);
  EXPECT_TRUE(P.ok()) << (P.ok() ? "" : P.error());
  return P.ok() ? P.take() : Prog();
}

class BucketsSuiteTest : public ::testing::TestWithParam<BucketsSuite> {};

} // namespace

TEST_P(BucketsSuiteTest, HealthyLibraryVerifies) {
  const BucketsSuite &S = GetParam();
  Prog P = compileSuite(bucketsLibrary(), S.Source);
  EngineOptions Opts;
  SuiteResult R = runSuite<MjsSMem>(S.Name, P, Opts);
  EXPECT_GE(R.Tests, 4u);
  EXPECT_TRUE(R.clean()) << R.Bugs[0].Message << "\n  PC: "
                         << R.Bugs[0].PathCond << "\n  model: "
                         << R.Bugs[0].CounterModel;
  EXPECT_EQ(R.BoundedPaths, 0u)
      << "suites are written to terminate within the loop bound";
  EXPECT_GT(R.GilCmds, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    AllStructures, BucketsSuiteTest, ::testing::ValuesIn(bucketsSuites()),
    [](const ::testing::TestParamInfo<BucketsSuite> &Info) {
      return std::string(Info.param.Name);
    });

TEST(BucketsTotals, SeventyFourTestsAsInTable1) {
  uint64_t Total = 0;
  for (const BucketsSuite &S : bucketsSuites()) {
    Prog P = compileSuite(bucketsLibrary(), S.Source);
    Total += testProcs(P).size();
  }
  EXPECT_EQ(Total, 74u) << "Table 1 reports 74 symbolic tests";
}

TEST(BucketsBugs, SeededLlistOffByOneIsDetected) {
  // Bug 1: ll_indexOf walks one node past the end; searching for an
  // absent value dereferences null.
  const BucketsSuite *Llist = nullptr;
  for (const BucketsSuite &S : bucketsSuites())
    if (S.Name == "llist")
      Llist = &S;
  ASSERT_NE(Llist, nullptr);
  Prog P = compileSuite(bucketsBuggyLibrary(), Llist->Source);
  EngineOptions Opts;
  SuiteResult R = runSuite<MjsSMem>("llist-buggy", P, Opts);
  ASSERT_FALSE(R.clean()) << "the seeded off-by-one must be found";
  bool Confirmed = false;
  for (const BugReport &B : R.Bugs)
    Confirmed |= B.Confirmed;
  EXPECT_TRUE(Confirmed) << "detection must come with a counter-model";
}

TEST(BucketsBugs, SeededHeapComparisonIsDetected) {
  // Bug 2: sift-down consults the wrong child; a three-element pop order
  // check fails for some inputs.
  const BucketsSuite *Heap = nullptr;
  for (const BucketsSuite &S : bucketsSuites())
    if (S.Name == "heap")
      Heap = &S;
  ASSERT_NE(Heap, nullptr);
  Prog P = compileSuite(bucketsBuggyLibrary(), Heap->Source);
  EngineOptions Opts;
  SuiteResult R = runSuite<MjsSMem>("heap-buggy", P, Opts);
  ASSERT_FALSE(R.clean());
  bool Confirmed = false;
  for (const BugReport &B : R.Bugs)
    Confirmed |= B.Confirmed;
  EXPECT_TRUE(Confirmed);
}

TEST(BucketsBugs, UnaffectedSuitesStayCleanOnBuggyLibrary) {
  // No false positives: structures that do not touch the seeded code
  // paths still verify on the buggy library.
  for (const BucketsSuite &S : bucketsSuites()) {
    if (S.Name == "llist" || S.Name == "heap" || S.Name == "pqueue" ||
        S.Name == "stack" || S.Name == "queue")
      continue; // these sit on the seeded structures
    Prog P = compileSuite(bucketsBuggyLibrary(), S.Source);
    EngineOptions Opts;
    SuiteResult R = runSuite<MjsSMem>(std::string(S.Name) + "-buggy", P,
                                      Opts);
    EXPECT_TRUE(R.clean()) << S.Name << ": " << R.Bugs[0].Message;
  }
}

TEST(BucketsOutcomes, EveryReturnAndErrorPathIsSatisfiable) {
  // Table 1's suites on the healthy and the seeded library: no outcome
  // may end on a path condition the solver refutes.
  uint64_t Checked = 0;
  for (std::string_view Library : {bucketsLibrary(), bucketsBuggyLibrary()})
    for (const BucketsSuite &S : bucketsSuites()) {
      gillian::testing::OutcomeCheck R =
          gillian::testing::checkOutcomePathConditions<MjsSMem>(
              compileSuite(Library, S.Source));
      Checked += R.Checked;
      EXPECT_TRUE(R.Refuted.empty()) << S.Name << ": " << R.Refuted[0];
    }
  EXPECT_GT(Checked, 100u);
}
