//===- tests/targets/journal_invariance_test.cpp --------------------------===//
//
// The journal-invariance property (DESIGN.md §4i): the execution journal
// records *what the semantics did*, not *when the scheduler ran it*. On
// the evaluation workloads (MJS Buckets, MC Collections) the reconstructed
// path forest — roots in test order, children by branch index, per-node
// events canonicalised to semantic content — must be identical across
// worker counts {1, 2, 8}. Node ids, verdict layers and wall times are
// run-dependent and excluded by canonicalTreeSignature; everything else
// must align exactly.
//
// Also pinned here, on journals from a real exploration rather than
// hand-made events: the serialize→parse→serialize byte round-trip, and
// capture()'s losslessness (every emitted event is in the snapshot).
//
// Runs under TSan in CI: the emission path (interpreter + scheduler
// workers) and the capture path race by design and must be clean.
//
//===----------------------------------------------------------------------===//

#include "targets/buckets_mjs.h"
#include "targets/collections_mc.h"

#include "engine/test_runner.h"
#include "mc/compiler.h"
#include "mc/memory.h"
#include "mjs/compiler.h"
#include "mjs/memory.h"
#include "obs/journal/analysis.h"
#include "obs/journal/journal.h"
#include "obs/journal/journal_io.h"
#include "targets/suite_runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace gillian;
using namespace gillian::targets;
using namespace gillian::obs::journal;

namespace {

/// Explores every `test_*` procedure of \p P at \p Workers with the
/// journal on and returns the captured journal. Tests run in declaration
/// order on the calling thread, so root node ids are assigned in test
/// order at every worker count.
template <typename M> JournalData journalOf(const Prog &P, uint32_t Workers) {
  reset();
  setEnabled(true);
  EngineOptions Opts;
  Opts.Scheduler.Workers = Workers;
  Solver Slv(Opts.Solver); // private cache: runs are independent
  ExecStats Stats;
  using St = SymbolicState<M>;
  for (const std::string &T : testProcs(P)) {
    St Init(M(), &Slv, &Opts);
    Interpreter<St> Interp(P, Opts, Stats);
    Result<std::vector<TraceResult<St>>> Traces = runExploration(
        Interp, InternedString::get(T), Expr::list({}), std::move(Init));
    EXPECT_TRUE(Traces.ok()) << T;
  }
  JournalData D = capture();
  setEnabled(false);
  reset();
  return D;
}

template <typename M>
void expectJournalInvariant(const Prog &P, std::string_view Name) {
  const JournalData Baseline = journalOf<M>(P, 1);
  ASSERT_FALSE(Baseline.Events.empty()) << Name;
  const std::string BaseSig = canonicalTreeSignature(Baseline);
  for (uint32_t W : {2u, 8u})
    EXPECT_EQ(BaseSig, canonicalTreeSignature(journalOf<M>(P, W)))
        << Name << " workers=" << W;
}

Result<Prog> compileBuckets(const BucketsSuite &S) {
  return mjs::compileMjsSource(std::string(bucketsLibrary()) + "\n" +
                               std::string(S.Source));
}

/// Two structures per language: crosses both memory models while keeping
/// three explorations per suite affordable.
std::vector<BucketsSuite> bucketsSubset() {
  const std::vector<BucketsSuite> &All = bucketsSuites();
  return {All.begin(), All.begin() + std::min<size_t>(2, All.size())};
}

std::vector<CollectionsSuite> collectionsSubset() {
  const std::vector<CollectionsSuite> &All = collectionsSuites();
  return {All.begin(), All.begin() + std::min<size_t>(2, All.size())};
}

class BucketsJournalTest : public ::testing::TestWithParam<BucketsSuite> {};
class CollectionsJournalTest
    : public ::testing::TestWithParam<CollectionsSuite> {};

} // namespace

TEST_P(BucketsJournalTest, ForestIsWorkerAndStrategyInvariant) {
  const BucketsSuite &S = GetParam();
  Result<Prog> P = compileBuckets(S);
  ASSERT_TRUE(P.ok()) << P.error();
  expectJournalInvariant<mjs::MjsSMem>(*P, S.Name);
}

INSTANTIATE_TEST_SUITE_P(
    TwoStructures, BucketsJournalTest, ::testing::ValuesIn(bucketsSubset()),
    [](const ::testing::TestParamInfo<BucketsSuite> &Info) {
      return std::string(Info.param.Name);
    });

TEST_P(CollectionsJournalTest, ForestIsWorkerAndStrategyInvariant) {
  const CollectionsSuite &S = GetParam();
  Result<Prog> P = mc::compileMcSource(std::string(collectionsLibrary()) +
                                       "\n" + std::string(S.Source));
  ASSERT_TRUE(P.ok()) << P.error();
  expectJournalInvariant<mc::McSMem>(*P, S.Name);
}

INSTANTIATE_TEST_SUITE_P(
    TwoStructures, CollectionsJournalTest,
    ::testing::ValuesIn(collectionsSubset()),
    [](const ::testing::TestParamInfo<CollectionsSuite> &Info) {
      return std::string(Info.param.Name);
    });

TEST(JournalRealRunTest, CaptureIsLosslessAndRoundTrips) {
  Result<Prog> P = compileBuckets(bucketsSuites().front());
  ASSERT_TRUE(P.ok()) << P.error();
  reset();
  setEnabled(true);
  EngineOptions Opts;
  Opts.Scheduler.Workers = 4;
  Solver Slv(Opts.Solver);
  ExecStats Stats;
  using St = SymbolicState<mjs::MjsSMem>;
  for (const std::string &T : testProcs(*P)) {
    St Init(mjs::MjsSMem(), &Slv, &Opts);
    Interpreter<St> Interp(*P, Opts, Stats);
    ASSERT_TRUE(runExploration(Interp, InternedString::get(T),
                               Expr::list({}), std::move(Init))
                    .ok());
  }
  JournalData D = capture();
  EXPECT_EQ(static_cast<uint64_t>(D.Events.size()), eventsEmitted());
  setEnabled(false);
  reset();
  ASSERT_FALSE(D.Events.empty());

  // Byte-identical round trip on a real journal, including its string
  // table and every varint edge the workload produced.
  std::string Bytes = serializeJournal(D);
  JournalData Back;
  std::string Err;
  ASSERT_TRUE(parseJournal(Bytes, Back, Err)) << Err;
  EXPECT_EQ(serializeJournal(Back), Bytes);

  // Every path that terminated has exactly one PathEnd, and every
  // branch-created child id is unique (the forest is a forest).
  std::vector<uint64_t> Children;
  for (const Event &E : D.Events)
    if (E.Kind == static_cast<uint8_t>(EventKind::Branch) && E.Aux != 0)
      Children.push_back(E.Aux);
  std::sort(Children.begin(), Children.end());
  EXPECT_EQ(std::adjacent_find(Children.begin(), Children.end()),
            Children.end());
}
