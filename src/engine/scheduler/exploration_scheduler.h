//===- engine/scheduler/exploration_scheduler.h - Parallel DFS -*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ExplorationScheduler: the one driver of Interpreter<St>::step. It runs
/// every exploration, symbolic or concrete, on a work-stealing thread
/// pool; at one worker that pool runs on the calling thread alone.
/// Configurations after a branch point are path-disjoint — their states
/// share only immutable copy-on-write structure and the thread-safe
/// solver — so each can execute on any worker with no coordination.
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
/// and spawns the others onto its worker's deque; the pool pops LIFO and
/// steals FIFO (thread_pool.h). That is the one exploration order: depth
/// first, last successor first. Without a budget every path is explored
/// regardless of order, and the result sequence is branch-trace sorted,
/// so order only shows under MaxSteps/MaxPaths.
///
/// Budgets. MaxSteps/MaxPaths are enforced from relaxed atomic counters:
/// a task that observes an exhausted budget finishes Bound, with the
/// outcome value naming which budget tripped. At one worker the cut is
/// exact. At more, which side of the cut a given path lands on is a race
/// by construction, so the *set* of outcomes stays schedule-independent
/// only for programs that stay within budget, and the recorded result
/// count can overshoot MaxPaths by up to the number of in-flight tasks —
/// each worker observes the exhausted budget only at its next step
/// boundary. Explorations that hit a budget should use Workers = 1 when
/// exact cut placement matters.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_ENGINE_SCHEDULER_EXPLORATION_SCHEDULER_H
#define GILLIAN_ENGINE_SCHEDULER_EXPLORATION_SCHEDULER_H

#include "engine/interpreter.h"
#include "engine/scheduler/thread_pool.h"
#include "obs/journal/journal.h"
#include "obs/span.h"

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

  explicit ExplorationScheduler(Interpreter<St> &I) : I(I) {}

  /// Explores every path reachable from \p Init on a pool of
  /// Scheduler.Workers workers; returns finished paths in branch-trace
  /// order.
  std::vector<TraceResult<St>> explore(Config Init) {
    obs::Span ExploreSpan(obs::SpanKind::Explore);
    ThreadPool<PathTask> Pool(I.options().Scheduler.Workers);
    LocalResults.assign(Pool.workers(), {});
    Pool.inject(PathTask{std::move(Init), {}});
    Pool.run([this](PathTask &&T, Worker &W) { runTask(std::move(T), W); });

    // Impose the schedule-independent order: sort pointers by id, then
    // move each result once.
    std::vector<std::pair<PathId, TraceResult<St>> *> Order;
    Order.reserve(ResultCount.load(std::memory_order_relaxed));
    for (auto &L : LocalResults)
      for (auto &E : L)
        Order.push_back(&E);
    std::sort(Order.begin(), Order.end(),
              [](const auto *A, const auto *B) { return A->first < B->first; });
    std::vector<TraceResult<St>> Out;
    Out.reserve(Order.size());
    for (auto *E : Order)
      Out.push_back(std::move(E->second));
    return Out;
  }

private:
  struct PathTask {
    Config C;
    PathId Id;
  };
  using Worker = typename ThreadPool<PathTask>::Worker;

  /// Which budget (if any) is exhausted — kept distinct so the Bound
  /// outcome can say what actually tripped.
  enum class BudgetKind : uint8_t { None, Steps, Paths };

  /// Buffers step() outputs in production order; branch indices are
  /// assigned from the buffer positions afterwards.
  struct BufferSink {
    std::vector<std::variant<Config, TraceResult<St>>> Outs;
    void cont(Config &&C) { Outs.emplace_back(std::move(C)); }
    void done(OutcomeKind K, typename St::ValueT &&V, St &&S) {
      Outs.emplace_back(TraceResult<St>{K, std::move(V), std::move(S)});
    }
  };

  /// Sink used for budget cuts: emits directly into a worker's buffer
  /// under the cut task's id.
  struct BoundSink {
    ExplorationScheduler &Sched;
    size_t WIdx;
    PathId Id;
    void cont(Config &&) {}
    void done(OutcomeKind K, typename St::ValueT &&V, St &&S) {
      Sched.record(WIdx, std::move(Id),
                   TraceResult<St>{K, std::move(V), std::move(S)});
    }
  };

  void record(size_t WIdx, PathId Id, TraceResult<St> &&R) {
    LocalResults[WIdx].emplace_back(std::move(Id), std::move(R));
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

  /// Output \p J of a multi-output step of the path \p Parent.
  static PathId childId(const PathId &Parent, uint32_t J) {
    PathId Id;
    Id.reserve(Parent.size() + 1);
    Id.insert(Id.end(), Parent.begin(), Parent.end());
    Id.push_back(J);
    return Id;
  }

  /// Executes one task to completion: steps inline while there is a
  /// single successor (no queue churn on straight-line code), and at
  /// branch points keeps the *last* successor while spawning the others
  /// for the worker's deque and for thieves.
  void runTask(PathTask &&T, Worker &W) {
    BufferSink Sink; // one output buffer for every step of this task
    auto &Outs = Sink.Outs;
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

      Outs.clear();
      I.step(std::move(T.C), Sink);
      if (Outs.size() == 1) {
        // One output: same path, same id.
        if (Config *C = std::get_if<Config>(&Outs.front())) {
          T.C = std::move(*C);
          continue;
        }
        record(W.index(), std::move(T.Id),
               std::move(std::get<TraceResult<St>>(Outs.front())));
        return;
      }

      // Zero or k >= 2 outputs: record the finished paths and spawn the
      // live successors under their branch-trace ids, except the last
      // live one, which this task keeps stepping under its extended id.
      size_t Keep = Outs.size();
      for (size_t J = Outs.size(); J-- > 0;)
        if (std::holds_alternative<Config>(Outs[J])) {
          Keep = J;
          break;
        }
      for (uint32_t J = 0; J < Outs.size(); ++J) {
        if (J == Keep)
          continue;
        if (Config *C = std::get_if<Config>(&Outs[J]))
          W.spawn(std::move(*C), childId(T.Id, J));
        else
          record(W.index(), childId(T.Id, J),
                 std::move(std::get<TraceResult<St>>(Outs[J])));
      }
      if (Keep == Outs.size())
        return; // every output finished (or there was none)
      T.Id.push_back(static_cast<uint32_t>(Keep));
      T.C = std::move(std::get<Config>(Outs[Keep]));
    }
  }

  Interpreter<St> &I;
  std::atomic<uint64_t> Steps{0};
  std::atomic<uint64_t> ResultCount{0};
  /// One result buffer per worker; merged after quiescence. Indexed by
  /// worker id, so no locking.
  std::vector<std::vector<std::pair<PathId, TraceResult<St>>>> LocalResults;
};

/// Entry point of every exploration (the test runner, concrete runs,
/// benches and tests): explores all paths of procedure \p Entry applied
/// to \p Arg in state \p Init. Err(...) reports engine-level misuse
/// (unknown entry procedure); program-level failures are Error outcomes.
template <StateModel St>
Result<std::vector<TraceResult<St>>>
runExploration(Interpreter<St> &I, InternedString Entry,
               typename St::ValueT Arg, St Init) {
  Result<typename Interpreter<St>::Config> Start =
      I.makeInitialConfig(Entry, std::move(Arg), std::move(Init));
  if (!Start)
    return Err(Start.error());
  return ExplorationScheduler<St>(I).explore(Start.take());
}

} // namespace gillian

#endif // GILLIAN_ENGINE_SCHEDULER_EXPLORATION_SCHEDULER_H
