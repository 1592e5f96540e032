//===- engine/test_runner.h - Symbolic unit testing ------------*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The user-facing symbolic testing layer: runs one symbolic unit test
/// (a GIL procedure with symbolic inputs and assume/assert annotations,
/// §1) and classifies the outcomes:
///
///  * failures (assert violations, memory faults, runtime type errors) are
///    reported with a *verified* counter-model whenever the solver can
///    produce one — the gate that keeps the §3 no-false-positives
///    guarantee: a report is Confirmed only if a concrete valuation of the
///    final path condition was exhibited and checked by evaluation;
///  * paths cut by the loop/step budget are reported separately, so a run
///    with zero failures and zero bounded paths is a (bounded) verification
///    verdict for the assertions.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_ENGINE_TEST_RUNNER_H
#define GILLIAN_ENGINE_TEST_RUNNER_H

#include "engine/interpreter.h"
#include "engine/scheduler/exploration_scheduler.h"
#include "obs/progress.h"
#include "obs/span.h"

#include <optional>
#include <string>
#include <vector>

namespace gillian {

/// One reported failure.
struct BugReport {
  std::string Message;     ///< rendering of the error value
  std::string PathCond;    ///< final path condition
  bool Confirmed = false;  ///< a verified counter-model exists
  std::string CounterModel;///< rendering of the model (when Confirmed)
};

/// Aggregate result of one symbolic test.
struct SymbolicTestResult {
  std::string Name;
  uint64_t PathsReturned = 0;
  uint64_t PathsVanished = 0;
  uint64_t PathsBounded = 0;
  std::vector<BugReport> Bugs;
  ExecStats Stats;
  /// Solver effort attributable to this test alone (delta of the shared
  /// solver's counters across the run, including counter-model search).
  SolverStats Solver;

  bool ok() const { return Bugs.empty(); }
  /// True when the run is a bounded-verification verdict (no failures and
  /// no path was cut by a budget).
  bool verified() const { return Bugs.empty() && PathsBounded == 0; }
  bool hasConfirmedBug() const {
    for (const BugReport &B : Bugs)
      if (B.Confirmed)
        return true;
    return false;
  }
};

/// Runs the symbolic test \p Entry of \p P over the memory model M.
template <SymbolicMemoryModel M>
SymbolicTestResult
runSymbolicTest(const Prog &P, std::string_view Entry,
                const EngineOptions &Opts, Solver &Slv,
                M InitialMemory = M()) {
  // The test's own work before and after the exploration is explore time
  // too: set-up under one span, then the outcome loop and the destruction
  // of the final states under another. Both are siblings of the
  // exploration's span, never around it, so no kind counts twice.
  std::optional<obs::Span> Own(std::in_place, obs::SpanKind::Explore);
  SymbolicTestResult R;
  R.Name = std::string(Entry);
  ++obs::progressCounters().TestsStarted;
  // Snapshot the (shared, suite-wide) solver counters so the per-layer
  // timing and hit-rate deltas of this one test can be attributed to it.
  const SolverStats Before = Slv.stats();
  using St = SymbolicState<M>;
  St Init(std::move(InitialMemory), &Slv, &Opts);
  Interpreter<St> Interp(P, Opts, R.Stats);
  // Explores on Opts.Scheduler.Workers workers; results (and so the bug
  // reports below) come back in branch-trace order at every worker count.
  Own.reset();
  Result<std::vector<TraceResult<St>>> Traces = runExploration(
      Interp, InternedString::get(Entry), Expr::list({}), std::move(Init));
  Own.emplace(obs::SpanKind::Explore); // declared first: destroyed last
  if (!Traces) {
    BugReport B;
    B.Message = "engine error: " + Traces.error();
    R.Bugs.push_back(std::move(B));
    R.Solver = Slv.stats() - Before;
    return R;
  }
  for (TraceResult<St> &T : *Traces) {
    switch (T.Kind) {
    case OutcomeKind::Return:
      ++R.PathsReturned;
      break;
    case OutcomeKind::Vanish:
      ++R.PathsVanished;
      break;
    case OutcomeKind::Bound:
      ++R.PathsBounded;
      break;
    case OutcomeKind::Error: {
      BugReport B;
      B.Message = T.Val.toString();
      const PathCondition &PC = T.Final.pathCondition();
      B.PathCond = PC.toString();
      if (auto Mod = Slv.verifiedModel(PC)) {
        B.Confirmed = true;
        B.CounterModel = Mod->toString();
      }
      R.Bugs.push_back(std::move(B));
      break;
    }
    }
  }
  R.Solver = Slv.stats() - Before;
  return R;
}

/// Runs \p Entry concretely from an empty store/memory; convenience for
/// differential and golden tests.
template <ConcreteMemoryModel M>
Result<TraceResult<ConcreteState<M>>>
runConcrete(const Prog &P, std::string_view Entry, const EngineOptions &Opts,
            ExecStats &Stats, ConcreteState<M> Init = ConcreteState<M>(),
            Value Arg = Value::listV({})) {
  using St = ConcreteState<M>;
  Interpreter<St> Interp(P, Opts, Stats);
  Result<std::vector<TraceResult<St>>> Traces = runExploration(
      Interp, InternedString::get(Entry), std::move(Arg), std::move(Init));
  if (!Traces)
    return Err(Traces.error());
  // Concrete execution of a deterministic program yields at most one
  // non-vanished trace; prefer it.
  for (TraceResult<St> &T : *Traces)
    if (T.Kind != OutcomeKind::Vanish)
      return std::move(T);
  if (!Traces->empty())
    return std::move(Traces->front());
  return Err("concrete execution produced no outcome");
}

} // namespace gillian

#endif // GILLIAN_ENGINE_TEST_RUNNER_H
