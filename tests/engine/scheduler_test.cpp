//===- tests/engine/scheduler_test.cpp ------------------------------------===//
//
// The exploration scheduler, the one driver of Interpreter::step: the
// work-stealing pool executes every injected and spawned task exactly
// once, runs worker 0 on the calling thread, lets owners pop newest-first
// and thieves steal oldest-first, and always quiesces; an exploration
// yields the same result sequence at every worker count; and
// engine/solver counters are schedule-independent modulo cache-hit
// attribution.
//
//===----------------------------------------------------------------------===//

#include "engine/scheduler/exploration_scheduler.h"
#include "engine/scheduler/thread_pool.h"

#include "engine/test_runner.h"
#include "obs/sched_counters.h"
#include "while_lang/compiler.h"
#include "while_lang/memory.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace gillian;
using namespace gillian::whilelang;

namespace {

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, ExecutesEveryInjectedTask) {
  ThreadPool<int> Pool(4);
  std::atomic<int> Sum{0};
  for (int I = 1; I <= 100; ++I)
    Pool.inject(I);
  Pool.run([&Sum](int T, ThreadPool<int>::Worker &) {
    Sum.fetch_add(T, std::memory_order_relaxed);
  });
  EXPECT_EQ(Sum.load(), 5050);
}

TEST(ThreadPool, SpawnedTasksAllComplete) {
  // Each task of depth d spawns two of depth d-1: a binary tree of
  // 2^(D+1) - 1 tasks from one root, all discovered dynamically.
  constexpr int D = 10;
  ThreadPool<int> Pool(4);
  std::atomic<uint64_t> Count{0};
  Pool.inject(D);
  Pool.run([&Count](int Depth, ThreadPool<int>::Worker &W) {
    Count.fetch_add(1, std::memory_order_relaxed);
    if (Depth > 0) {
      W.spawn(Depth - 1);
      W.spawn(Depth - 1);
    }
  });
  EXPECT_EQ(Count.load(), (1u << (D + 1)) - 1);
}

TEST(ThreadPool, SingleWorkerStillDrains) {
  ThreadPool<int> Pool(1);
  std::atomic<int> Count{0};
  Pool.inject(5);
  Pool.run([&Count](int Depth, ThreadPool<int>::Worker &W) {
    Count.fetch_add(1, std::memory_order_relaxed);
    if (Depth > 0)
      W.spawn(Depth - 1);
  });
  EXPECT_EQ(Count.load(), 6);
}

TEST(ThreadPool, WorkerZeroRunsOnTheCallingThread) {
  const std::thread::id Caller = std::this_thread::get_id();
  // One worker: every task runs on the caller's thread.
  {
    ThreadPool<int> Pool(1);
    std::vector<std::thread::id> Ran;
    Pool.inject(3);
    Pool.run([&Ran](int Depth, ThreadPool<int>::Worker &W) {
      Ran.push_back(std::this_thread::get_id());
      if (Depth > 0)
        W.spawn(Depth - 1);
    });
    ASSERT_EQ(Ran.size(), 4u);
    for (std::thread::id Id : Ran)
      EXPECT_EQ(Id, Caller);
  }
  // Four workers: every task run as worker 0 runs on the caller's thread,
  // every other task elsewhere. Each task waits until all workers have
  // run one, so worker 0 is sure to take part.
  constexpr size_t NWorkers = 4;
  ThreadPool<int> Pool(NWorkers);
  std::mutex Mu;
  std::condition_variable Cv;
  std::vector<std::pair<size_t, std::thread::id>> Ran;
  std::set<size_t> Seen;
  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  Pool.inject(1);
  Pool.run([&](int IsRoot, ThreadPool<int>::Worker &W) {
    if (IsRoot)
      for (int I = 0; I < 64; ++I)
        W.spawn(0);
    std::unique_lock<std::mutex> Lock(Mu);
    Ran.emplace_back(W.index(), std::this_thread::get_id());
    Seen.insert(W.index());
    Cv.notify_all();
    Cv.wait_until(Lock, Deadline, [&] { return Seen.size() >= NWorkers; });
  });
  EXPECT_EQ(Seen.size(), NWorkers);
  ASSERT_EQ(Ran.size(), 65u);
  for (const auto &[Idx, Id] : Ran) {
    if (Idx == 0)
      EXPECT_EQ(Id, Caller);
    else
      EXPECT_NE(Id, Caller) << "worker " << Idx;
  }
}

TEST(ThreadPool, StealCountAdaptsToVictimQueueLength) {
  using Pool = ThreadPool<int>;
  static_assert(TasksPerSteal == 4, "the cases below assume a batch of 4");
  // Victim has at least a batch queued: take the full batch.
  EXPECT_EQ(Pool::stealCount(8), 4u);
  EXPECT_EQ(Pool::stealCount(5), 4u);
  EXPECT_EQ(Pool::stealCount(4), 4u);
  // Short victim queue: halve the batch rather than draining it, so the
  // victim keeps local LIFO work.
  EXPECT_EQ(Pool::stealCount(3), 2u);
  EXPECT_EQ(Pool::stealCount(2), 2u);
  EXPECT_EQ(Pool::stealCount(1), 1u);
  // Nothing to steal.
  EXPECT_EQ(Pool::stealCount(0), 0u);
}

TEST(ThreadPool, OwnerPopsNewestThievesStealOldest) {
  // One worker: the root's spawns run newest-first (depth-first LIFO).
  {
    ThreadPool<int> Pool(1);
    std::vector<int> Order;
    Pool.inject(0);
    Pool.run([&Order](int T, ThreadPool<int>::Worker &W) {
      Order.push_back(T);
      if (T == 0)
        for (int I = 1; I <= 4; ++I)
          W.spawn(I);
    });
    EXPECT_EQ(Order, (std::vector<int>{0, 4, 3, 2, 1}));
  }
  // Two workers: the root's worker holds its forks while the other one
  // steals; the thief's first task is the oldest fork.
  ThreadPool<int> Pool(2);
  std::mutex Mu;
  std::condition_variable Cv;
  int FirstStolen = 0;
  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  Pool.inject(0);
  Pool.run([&](int T, ThreadPool<int>::Worker &W) {
    std::unique_lock<std::mutex> Lock(Mu);
    if (T == 0) {
      for (int I = 1; I <= 8; ++I)
        W.spawn(I);
      Cv.wait_until(Lock, Deadline, [&] { return FirstStolen != 0; });
    } else if (FirstStolen == 0) {
      FirstStolen = T;
      Cv.notify_all();
    }
  });
  EXPECT_EQ(FirstStolen, 1) << "thieves take the oldest (shallowest) fork";
}

TEST(ThreadPool, QuiescesWithNoTasks) {
  ThreadPool<int> Pool(4);
  bool Ran = false;
  Pool.run([&Ran](int, ThreadPool<int>::Worker &) { Ran = true; });
  EXPECT_FALSE(Ran);
}

TEST(ThreadPool, AllWorkersParticipateAfterLargeBatchSpawn) {
  // Wakeup regression: a burst of spawns (and the batch-steal surplus a
  // thief re-queues from them) makes many tasks visible at once; every
  // sleeping peer must wake — the old single notify_one could strand
  // sleepers. Each task blocks until all workers have executed at least
  // one task, so a stranded worker deadlocks the rest up to the deadline.
  constexpr size_t NWorkers = 4;
  ThreadPool<int> Pool(NWorkers);
  std::mutex Mu;
  std::condition_variable Cv;
  std::set<size_t> Seen;
  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  Pool.inject(1); // the root; spawns the burst
  Pool.run([&](int IsRoot, ThreadPool<int>::Worker &W) {
    if (IsRoot)
      for (int I = 0; I < 64; ++I)
        W.spawn(0);
    std::unique_lock<std::mutex> Lock(Mu);
    Seen.insert(W.index());
    Cv.notify_all();
    Cv.wait_until(Lock, Deadline,
                  [&] { return Seen.size() >= NWorkers; });
  });
  EXPECT_EQ(Seen.size(), NWorkers)
      << "a worker never woke up to take its share of the batch";
}

TEST(ThreadPool, FrontierSizeGaugeReadsZeroAfterRun) {
  // Gauge-race regression: FrontierSize mirrors Pending with commutative
  // add/sub (a racing set(load-1) published stale values); at quiescence
  // the mirror must land exactly on zero.
  ThreadPool<int> Pool(4);
  for (int I = 0; I < 32; ++I)
    Pool.inject(3);
  Pool.run([](int Depth, ThreadPool<int>::Worker &W) {
    for (int I = 0; I < Depth; ++I)
      W.spawn(Depth - 1);
  });
  EXPECT_EQ(obs::schedCounters().FrontierSize.load(), 0u);
}

//===----------------------------------------------------------------------===//
// ExplorationScheduler on While programs
//===----------------------------------------------------------------------===//

// A workload with branch structure at several depths: 3 symbolic booleans
// (8 way split), a data-dependent loop, and an interprocedural call.
constexpr const char *BranchySrc = R"(
  function main() {
    a := fresh_int();
    b := fresh_int();
    c := fresh_int();
    s := 0;
    if (a < 0) { s := s + 1; } else { s := s + 2; }
    if (b < a) { s := s + 10; } else { s := s + 20; }
    if (c < b) { s := s + 100; } else { s := s + 200; }
    n := fresh_int();
    assume (0 <= n && n < 4);
    i := 0;
    while (i < n) { t := step1(i); s := s + t; i := i + 1; }
    assert (0 < s);
    return s;
  }
  function step1(x) {
    if (x == 1) { return 2; }
    return 1;
  })";

using St = SymbolicState<WhileSMem>;

// Runs BranchySrc under \p Opts and renders each finished path as
// "kind|value|path-condition", in the engine's result order.
std::vector<std::string> traceSigs(const EngineOptions &Opts, Solver &Slv,
                                   ExecStats &Stats) {
  Result<Prog> P = compileWhileSource(BranchySrc);
  EXPECT_TRUE(P.ok()) << (P.ok() ? "" : P.error());
  St Init(WhileSMem(), &Slv, &Opts);
  Interpreter<St> Interp(*P, Opts, Stats);
  Result<std::vector<TraceResult<St>>> Traces = runExploration(
      Interp, InternedString::get("main"), Expr::list({}), std::move(Init));
  EXPECT_TRUE(Traces.ok()) << (Traces.ok() ? "" : Traces.error());
  std::vector<std::string> Sigs;
  if (!Traces.ok())
    return Sigs;
  for (TraceResult<St> &T : *Traces)
    Sigs.push_back(std::string(outcomeKindName(T.Kind)) + "|" +
                   T.Val.toString() + "|" +
                   T.Final.pathCondition().toString());
  return Sigs;
}

std::vector<std::string> traceSigs(const EngineOptions &Opts) {
  Solver Slv(Opts.Solver); // private cache: isolated from other tests
  ExecStats Stats;
  return traceSigs(Opts, Slv, Stats);
}

EngineOptions withWorkers(uint32_t Workers) {
  EngineOptions O;
  O.Scheduler.Workers = Workers;
  return O;
}

TEST(ExplorationScheduler, ResultOrderIsScheduleIndependent) {
  // Branch-trace order depends only on the program: every worker count
  // yields the same *sequence*, run after run.
  std::vector<std::string> One = traceSigs(withWorkers(1));
  ASSERT_FALSE(One.empty());
  for (uint32_t Workers : {2u, 4u, 8u})
    EXPECT_EQ(One, traceSigs(withWorkers(Workers))) << "workers=" << Workers;
  EXPECT_EQ(One, traceSigs(withWorkers(4))) << "repeat run";
}

TEST(ExplorationScheduler, CountersScheduleIndependentModuloCacheLayer) {
  // 1-worker and 4-worker runs execute the same steps and issue the
  // same solver queries with the same verdicts; only *which layer*
  // answered (cache vs Z3) may shift, because workers racing on a miss
  // can duplicate a round-trip whose result the 1-worker run reused.
  EngineOptions SeqOpts = withWorkers(1);
  Solver SeqSlv(SeqOpts.Solver);
  ExecStats SeqStats;
  std::vector<std::string> Seq = traceSigs(SeqOpts, SeqSlv, SeqStats);

  EngineOptions ParOpts = withWorkers(4);
  Solver ParSlv(ParOpts.Solver);
  ExecStats ParStats;
  std::vector<std::string> Par = traceSigs(ParOpts, ParSlv, ParStats);

  ASSERT_EQ(Seq.size(), Par.size());
  EXPECT_EQ(SeqStats.CmdsExecuted.load(), ParStats.CmdsExecuted.load());
  EXPECT_EQ(SeqStats.Branches.load(), ParStats.Branches.load());
  EXPECT_EQ(SeqStats.PathsFinished.load(), ParStats.PathsFinished.load());
  EXPECT_EQ(SeqStats.PathsVanished.load(), ParStats.PathsVanished.load());
  EXPECT_EQ(SeqStats.PathsErrored.load(), ParStats.PathsErrored.load());
  EXPECT_EQ(SeqStats.PathsBounded.load(), ParStats.PathsBounded.load());

  const SolverStats &SS = SeqSlv.stats();
  const SolverStats &PS = ParSlv.stats();
  EXPECT_EQ(SS.Queries.load(), PS.Queries.load())
      << "query count is exploration-driven, not schedule-driven";
  EXPECT_EQ(SS.Sat.load(), PS.Sat.load());
  EXPECT_EQ(SS.Unsat.load(), PS.Unsat.load());
  EXPECT_EQ(SS.Unknown.load(), PS.Unknown.load());
}

TEST(ExplorationScheduler, SymbolicTestRunnerHonorsSchedulerOptions) {
  // End-to-end through runSymbolicTest: the 4-worker verdict (bugs,
  // outcome counts) matches the 1-worker one.
  Result<Prog> P = compileWhileSource(R"(
    function main() {
      x := fresh_int();
      assume (0 <= x && x <= 10);
      assert (x < 10);
      return x;
    })");
  ASSERT_TRUE(P.ok()) << P.error();
  EngineOptions SeqOpts = withWorkers(1);
  Solver SeqSlv(SeqOpts.Solver);
  SymbolicTestResult Seq = runSymbolicTest<WhileSMem>(*P, "main", SeqOpts,
                                                      SeqSlv);
  EngineOptions ParOpts = withWorkers(4);
  Solver ParSlv(ParOpts.Solver);
  SymbolicTestResult Par = runSymbolicTest<WhileSMem>(*P, "main", ParOpts,
                                                      ParSlv);
  EXPECT_EQ(Seq.ok(), Par.ok());
  EXPECT_EQ(Seq.Bugs.size(), Par.Bugs.size());
  EXPECT_EQ(Seq.PathsReturned, Par.PathsReturned);
  EXPECT_EQ(Seq.PathsVanished, Par.PathsVanished);
  EXPECT_EQ(Seq.hasConfirmedBug(), Par.hasConfirmedBug());
}

TEST(ExplorationScheduler, BudgetCutNamesTheStepBudget) {
  EngineOptions O = withWorkers(1);
  O.MaxSteps = 10;
  bool SawStep = false;
  for (const std::string &Sig : traceSigs(O)) {
    SawStep |= Sig.find("step budget exhausted") != std::string::npos;
    EXPECT_EQ(Sig.find("path budget exhausted"), std::string::npos) << Sig;
  }
  EXPECT_TRUE(SawStep);
}

TEST(ExplorationScheduler, BudgetCutNamesThePathBudget) {
  // A MaxPaths cut is attributed to the path budget — the old message
  // blamed the step budget for every cut.
  EngineOptions O = withWorkers(1);
  O.MaxPaths = 3;
  bool SawPath = false;
  for (const std::string &Sig : traceSigs(O)) {
    SawPath |= Sig.find("path budget exhausted") != std::string::npos;
    EXPECT_EQ(Sig.find("step budget exhausted"), std::string::npos) << Sig;
  }
  EXPECT_TRUE(SawPath);
}

TEST(ExplorationScheduler, FrontierGaugeReadsZeroAfterRun) {
  // End-to-end mirror check: after an exploration drains, the
  // process-wide frontier gauge is back to exactly zero.
  traceSigs(withWorkers(4));
  EXPECT_EQ(obs::schedCounters().FrontierSize.load(), 0u);
}

TEST(ExplorationScheduler, HundredsOfTinyExplorationsAllQuiesce) {
  // Lost-wakeup regression: a quiescence notify sent without IdleMu can
  // reach a worker between its wait-predicate check and blocking, which
  // then sleeps forever and explore() never returns. Many short,
  // oversubscribed explorations make that window likely; each must
  // finish with the 1-worker path count. A hang fails this test by its
  // ctest TIMEOUT.
  Result<Prog> P = compileWhileSource(R"(
    function main() {
      a := fresh_int();
      b := fresh_int();
      s := 0;
      if (a < 0) { s := s + 1; } else { s := s + 2; }
      if (b < 0) { s := s + 10; } else { s := s + 20; }
      return s;
    })");
  ASSERT_TRUE(P.ok()) << P.error();
  InternedString Main = InternedString::get("main");
  // No Z3: every pool starts fresh threads besides the caller's, and each
  // would build a cold thread-local Z3 context for any query reaching it. An Unknown keeps
  // both sides feasible; the path count stays deterministic.
  EngineOptions Opts = withWorkers(8);
  Opts.Solver.UseZ3 = false;
  EngineOptions SeqOpts = Opts;
  SeqOpts.Scheduler.Workers = 1;
  Solver Slv(Opts.Solver); // shared: warm verdicts keep every run tiny
  ExecStats Stats;
  auto explore = [&](const EngineOptions &O) {
    Interpreter<St> Interp(*P, O, Stats);
    return runExploration(Interp, Main, Expr::list({}),
                          St(WhileSMem(), &Slv, &O));
  };
  Result<std::vector<TraceResult<St>>> Seq = explore(SeqOpts);
  ASSERT_TRUE(Seq.ok()) << Seq.error();
  ASSERT_GT(Seq->size(), 1u);
  for (int Run = 0; Run < 400; ++Run) {
    Result<std::vector<TraceResult<St>>> Par = explore(Opts);
    ASSERT_TRUE(Par.ok()) << Par.error();
    ASSERT_EQ(Par->size(), Seq->size()) << "run " << Run;
  }
}

TEST(ExplorationScheduler, SharedCacheResetRestoresColdCounts) {
  // resetCache() gives tests isolation from warm shared state: a cleared
  // cache behaves like a fresh one. 1-worker runs keep every counter
  // deterministic, so cold and post-reset runs must agree exactly.
  EngineOptions Opts = withWorkers(1);
  SolverCache Shared;
  Solver A(Opts.Solver, Shared);
  ExecStats SA;
  traceSigs(Opts, A, SA);
  // Full-query hits: a warm cache answers whole repeated queries at the
  // top layer (intra-run, the cold run only catches repeats it has
  // already sliced through).
  uint64_t ColdFullHits = A.stats().CacheHits.load();
  uint64_t ColdSliceHits = A.stats().SliceCacheHits.load();
  EXPECT_GT(Shared.size(), 0u);

  // A warm re-run answers repeated queries from the shared cache.
  Solver B(Opts.Solver, Shared);
  ExecStats SB;
  traceSigs(Opts, B, SB);
  EXPECT_GT(B.stats().CacheHits.load(), ColdFullHits);

  // After a reset, a fresh run pays the cold cost again.
  B.resetCache();
  EXPECT_EQ(Shared.size(), 0u);
  Solver C(Opts.Solver, Shared);
  ExecStats SC;
  traceSigs(Opts, C, SC);
  EXPECT_EQ(C.stats().CacheHits.load(), ColdFullHits);
  EXPECT_EQ(C.stats().SliceCacheHits.load(), ColdSliceHits);
}

} // namespace
