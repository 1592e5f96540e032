//===- tests/solver/query_service_test.cpp --------------------------------===//
//
// Units for the async solver service (src/solver/native/query_service.h):
// deduplication of concurrent identical queries, inline fallback, and the
// Solver::resetCache regression (the service must be quiescent after a
// cold reset).
//
//===----------------------------------------------------------------------===//

#include "solver/native/query_service.h"
#include "solver/solver.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace gillian;
using namespace gillian::native;

namespace {

PathCondition pcOf(std::initializer_list<Expr> Es) {
  PathCondition PC;
  for (const Expr &E : Es)
    PC.add(E);
  return PC;
}

TEST(SolverServiceTest, ResetCacheQuiescesTheService) {
  // Regression: resetCache must quiesce the async service, not only clear
  // the result cache and the incremental Z3 sessions.
  SolverOptions O;
  O.UseCache = false;
  O.UseSlicing = false;
  O.UseZ3 = false;
  O.AsyncSolvers = 2;
  Solver S(O);
  PathCondition PC = pcOf({Expr::eq(Expr::lvar("#x"), Expr::intE(1))});
  EXPECT_EQ(S.checkSat(PC), SatResult::Sat);
  EXPECT_GT(S.stats().AsyncSubmitted.load() +
                S.stats().AsyncInlineRuns.load(),
            0u);

  S.resetCache();
  EXPECT_EQ(SolverService::process().queueDepth(), 0u);
  // The next query is answered anew, with the same verdict.
  EXPECT_EQ(S.checkSat(PC), SatResult::Sat);
}

TEST(SolverServiceTest, DeduplicatesConcurrentIdenticalQueries) {
  SolverService &Svc = SolverService::process();
  Svc.flush();

  PathCondition PC = pcOf({Expr::eq(Expr::lvar("#q"), Expr::intE(7))});
  std::atomic<uint64_t> Solves{0};
  int Owner = 0;
  SolverService::SolveFn Slow = [&](const PathCondition &) {
    Solves.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return SatResult::Sat;
  };

  SolverStats St;
  constexpr int Callers = 6;
  std::vector<std::thread> Ts;
  std::vector<SatResult> Rs(Callers, SatResult::Unknown);
  for (int I = 0; I < Callers; ++I)
    Ts.emplace_back([&, I] {
      Rs[I] = Svc.checkSat(&Owner, PC, /*MaxWorkers=*/2, Slow, St);
    });
  for (std::thread &T : Ts)
    T.join();

  for (SatResult R : Rs)
    EXPECT_EQ(R, SatResult::Sat);
  // At least one submission deduplicated onto an in-flight future; the
  // solve count is strictly below the caller count.
  EXPECT_LT(Solves.load(), static_cast<uint64_t>(Callers));
  EXPECT_GT(St.AsyncDedupHits.load(), 0u);
  Svc.flush();
}

TEST(SolverServiceTest, InlineWhenDisabledOrOnWorker) {
  SolverService &Svc = SolverService::process();
  SolverStats St;
  int Owner = 0;
  PathCondition PC = pcOf({Expr::eq(Expr::lvar("#q"), Expr::intE(1))});
  bool Ran = false;
  SatResult R = Svc.checkSat(&Owner, PC, /*MaxWorkers=*/0,
                             [&](const PathCondition &) {
                               Ran = true;
                               return SatResult::Unsat;
                             },
                             St);
  EXPECT_TRUE(Ran);
  EXPECT_EQ(R, SatResult::Unsat);
  EXPECT_GT(St.AsyncInlineRuns.load(), 0u);
  EXPECT_FALSE(SolverService::onWorkerThread());
}

} // namespace
