//===- engine/scheduler/exploration_scheduler.h - Parallel DFS -*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ExplorationScheduler: drives Interpreter<St>::step from a work-stealing
/// thread pool. Configurations after a branch point are path-disjoint —
/// their states share only immutable copy-on-write structure and the
/// thread-safe solver — so each can execute on any worker with no
/// coordination.
///
/// Determinism. Results are merged in *branch-trace* order, not completion
/// order. Every task carries a PathId: the sequence of branch indices
/// taken at each multi-successor step since the root. A step with one
/// output keeps its task's id (ids grow with the number of branch points,
/// not the number of commands); a step with k >= 2 outputs — counting both
/// finished paths and live successors, in the production order of the
/// semantics — extends the id with 0..k-1. Because a task's id is either
/// terminated (the task finished) or extended (it branched), never both,
/// no result id is a proper prefix of another, and lexicographic order on
/// ids is a strict total order over results that depends only on the
/// program and the state model — not on thread scheduling. Running the
/// same exploration at any worker count yields the same result sequence.
///
/// Order. At a branch point a task keeps stepping its *last* successor
/// (matching the sequential worklist's pop-from-the-back) and spawns the
/// others onto its worker's deque; the pool pops LIFO and steals FIFO
/// (thread_pool.h). That is the one exploration order: without a budget
/// every path is explored regardless of order, and the result sequence is
/// branch-trace sorted, so order only shows under MaxSteps/MaxPaths.
///
/// Budgets. MaxSteps/MaxPaths are enforced from relaxed atomic counters:
/// a task that observes an exhausted budget finishes Bound, with the
/// outcome value naming which budget tripped. The *set* of outcomes
/// therefore remains schedule-independent only for programs that stay
/// within budget (which side of the cut a given path lands on is a race
/// by construction), and the recorded result count can overshoot
/// MaxPaths by up to the number of in-flight tasks — each worker
/// observes the exhausted budget only at its next step boundary.
/// Explorations that hit a budget should use Workers = 1 when exact cut
/// placement matters.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_ENGINE_SCHEDULER_EXPLORATION_SCHEDULER_H
#define GILLIAN_ENGINE_SCHEDULER_EXPLORATION_SCHEDULER_H

#include "engine/interpreter.h"
#include "engine/scheduler/scheduler_options.h"
#include "engine/scheduler/thread_pool.h"
#include "obs/journal/journal.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>
#include <variant>
#include <vector>

namespace gillian {

template <StateModel St> class ExplorationScheduler {
public:
  using Config = typename Interpreter<St>::Config;
  /// Branch-trace id: the index taken at each multi-successor step since
  /// the root. Lexicographic order on ids is the deterministic result
  /// order (see file comment).
  using PathId = std::vector<uint32_t>;

  ExplorationScheduler(Interpreter<St> &I, const SchedulerOptions &SOpts)
      : I(I), SOpts(SOpts) {}

  /// Explores every path reachable from \p Init on a pool of
  /// SOpts.Workers threads; returns finished paths in branch-trace order.
  std::vector<TraceResult<St>> explore(Config Init) {
    obs::Span ExploreSpan(obs::SpanKind::Explore, &I.stats().EngineNs);
    size_t N = SOpts.Workers ? SOpts.Workers : 1;
    LocalResults.assign(N, {});

    ThreadPool<PathTask> Pool(N);
    Pool.inject(PathTask{std::move(Init), {}});
    Pool.run([this](PathTask T, typename ThreadPool<PathTask>::Worker &W) {
      runTask(std::move(T), W);
    });

    // Merge per-worker buffers and impose the schedule-independent order.
    std::vector<std::pair<PathId, TraceResult<St>>> All;
    size_t Total = 0;
    for (auto &L : LocalResults)
      Total += L.size();
    All.reserve(Total);
    for (auto &L : LocalResults)
      for (auto &E : L)
        All.push_back(std::move(E));
    std::sort(All.begin(), All.end(),
              [](const auto &A, const auto &B) { return A.first < B.first; });

    std::vector<TraceResult<St>> Out;
    Out.reserve(All.size());
    for (auto &E : All)
      Out.push_back(std::move(E.second));
    return Out;
  }

private:
  struct PathTask {
    Config C;
    PathId Id;
  };

  /// Which budget (if any) is exhausted — kept distinct so the Bound
  /// outcome can say what actually tripped.
  enum class BudgetKind : uint8_t { None, Steps, Paths };

  /// A finished path before it is paired with its id.
  struct Done {
    OutcomeKind K;
    typename St::ValueT V;
    St S;
  };

  /// Buffers step() outputs in production order; branch indices are
  /// assigned from the buffer positions afterwards.
  struct BufferSink {
    std::vector<std::variant<Config, Done>> Outs;
    void cont(Config C) { Outs.emplace_back(std::move(C)); }
    void done(OutcomeKind K, typename St::ValueT V, St S) {
      Outs.emplace_back(Done{K, std::move(V), std::move(S)});
    }
  };

  /// Sink used for budget cuts: emits directly into a worker's buffer
  /// under the cut task's id.
  struct BoundSink {
    ExplorationScheduler &Sched;
    size_t WIdx;
    PathId Id;
    void cont(Config) {}
    void done(OutcomeKind K, typename St::ValueT V, St S) {
      Sched.record(WIdx, std::move(Id),
                   TraceResult<St>{K, std::move(V), std::move(S)});
    }
  };

  void record(size_t WIdx, PathId Id, TraceResult<St> R) {
    LocalResults[WIdx].push_back({std::move(Id), std::move(R)});
    ResultCount.fetch_add(1, std::memory_order_relaxed);
  }

  BudgetKind overBudget() const {
    const EngineOptions &Opts = I.options();
    if (Opts.MaxSteps &&
        Steps.load(std::memory_order_relaxed) >= Opts.MaxSteps)
      return BudgetKind::Steps;
    if (Opts.MaxPaths &&
        ResultCount.load(std::memory_order_relaxed) >= Opts.MaxPaths)
      return BudgetKind::Paths;
    return BudgetKind::None;
  }

  /// Executes one task to completion: steps inline while there is a
  /// single successor (no queue churn on straight-line code), and at
  /// branch points keeps the *last* successor (matching the sequential
  /// worklist's pop-from-the-back) while spawning the others for the
  /// worker's deque and for thieves.
  void runTask(PathTask T, typename ThreadPool<PathTask>::Worker &W) {
    while (true) {
      BudgetKind Cut = overBudget();
      if (Cut != BudgetKind::None) {
        Interpreter<St>::journalEnd(T.C, OutcomeKind::Bound,
                                    Cut == BudgetKind::Steps
                                        ? obs::journal::BudgetKind::Steps
                                        : obs::journal::BudgetKind::Paths);
        BoundSink BS{*this, W.index(), std::move(T.Id)};
        I.finish(BS, OutcomeKind::Bound,
                 St::errorValue(Cut == BudgetKind::Steps
                                    ? "step budget exhausted"
                                    : "path budget exhausted"),
                 std::move(T.C.State));
        return;
      }
      Steps.fetch_add(1, std::memory_order_relaxed);

      BufferSink Sink;
      I.step(std::move(T.C), Sink);
      auto &Outs = Sink.Outs;
      if (Outs.empty())
        return; // e.g. a memory action with zero feasible branches

      // Fast path: exactly one live successor — same path, same id.
      if (Outs.size() == 1 &&
          std::holds_alternative<Config>(Outs.front())) {
        T.C = std::move(std::get<Config>(Outs.front()));
        continue;
      }

      bool Multi = Outs.size() >= 2;
      // Record finished paths and collect the live successors, with
      // their branch-trace ids assigned from production order.
      std::vector<PathTask> Live;
      uint32_t K = 0;
      for (auto &O : Outs) {
        PathId Id = T.Id;
        if (Multi)
          Id.push_back(K);
        ++K;
        if (std::holds_alternative<Done>(O)) {
          Done &D = std::get<Done>(O);
          record(W.index(), std::move(Id),
                 TraceResult<St>{D.K, std::move(D.V), std::move(D.S)});
        } else {
          Live.push_back(
              PathTask{std::move(std::get<Config>(O)), std::move(Id)});
        }
      }
      if (Live.empty())
        return; // every output finished

      // Keep the last successor hot; the rest go to the deque.
      size_t Keep = Live.size() - 1;
      for (size_t J = 0; J < Keep; ++J) {
        if (obs::journal::enabled())
          obs::journal::emitSpawn(Live[J].C.JPath, Live[J].C.JSteps,
                                  Live[J].C.CurProc.id(),
                                  static_cast<uint32_t>(Live[J].C.I));
        W.spawn(std::move(Live[J]));
      }
      T = std::move(Live[Keep]);
    }
  }

  Interpreter<St> &I;
  SchedulerOptions SOpts;
  std::atomic<uint64_t> Steps{0};
  std::atomic<uint64_t> ResultCount{0};
  /// One result buffer per worker; merged after quiescence. Indexed by
  /// worker id, so no locking.
  std::vector<std::vector<std::pair<PathId, TraceResult<St>>>> LocalResults;
};

/// Entry point used by the test runner and benches: one worker runs the
/// classic sequential worklist (bit-identical results, including order),
/// more run the work-stealing scheduler.
template <StateModel St>
Result<std::vector<TraceResult<St>>>
runExploration(Interpreter<St> &I, InternedString Entry,
               typename St::ValueT Arg, St Init) {
  const SchedulerOptions &S = I.options().Scheduler;
  if (S.Workers <= 1)
    return I.run(Entry, std::move(Arg), std::move(Init));
  Result<typename Interpreter<St>::Config> Start =
      I.makeInitialConfig(Entry, std::move(Arg), std::move(Init));
  if (!Start)
    return Err(Start.error());
  ExplorationScheduler<St> Sched(I, S);
  return Sched.explore(Start.take());
}

} // namespace gillian

#endif // GILLIAN_ENGINE_SCHEDULER_EXPLORATION_SCHEDULER_H
