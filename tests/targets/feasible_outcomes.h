//===- tests/targets/feasible_outcomes.h - SAT outcome paths -*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every Return or Error outcome of a symbolic run must end on a path
/// condition the solver does not refute: a path whose condition is
/// unsatisfiable describes no concrete execution, so its outcome would be
/// a spurious result or bug report. The rules of Figs. 1 and 3 keep a
/// branch only when π ∧ π' is satisfiable; this checks that the engine
/// does so on every step that extends the path condition.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_TESTS_FEASIBLE_OUTCOMES_H
#define GILLIAN_TESTS_FEASIBLE_OUTCOMES_H

#include "engine/interpreter.h"
#include "engine/scheduler/exploration_scheduler.h"
#include "targets/suite_runner.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace gillian::testing {

struct OutcomeCheck {
  uint64_t Checked = 0;             ///< Return and Error paths
  std::vector<std::string> Refuted; ///< "test|kind|value|pc" of each bad one
};

/// Explores every `test_*` procedure of \p P at one worker and asks a
/// separate solver (its own result cache, so no verdict of the run is
/// reused) about the final path condition of every Return and Error path.
template <typename M> OutcomeCheck checkOutcomePathConditions(const Prog &P) {
  EngineOptions Opts;
  Solver Slv(Opts.Solver);
  Solver Check(Opts.Solver);
  ExecStats Stats;
  using St = SymbolicState<M>;
  OutcomeCheck Out;
  for (const std::string &T : targets::testProcs(P)) {
    Interpreter<St> Interp(P, Opts, Stats);
    Result<std::vector<TraceResult<St>>> Traces =
        runExploration(Interp, InternedString::get(T), Expr::list({}),
                       St(M(), &Slv, &Opts));
    EXPECT_TRUE(Traces.ok()) << T << ": "
                             << (Traces.ok() ? "" : Traces.error());
    if (!Traces.ok())
      continue;
    for (const TraceResult<St> &R : *Traces) {
      if (R.Kind != OutcomeKind::Return && R.Kind != OutcomeKind::Error)
        continue;
      ++Out.Checked;
      if (!Check.maybeSat(R.Final.pathCondition()))
        Out.Refuted.push_back(T + "|" + std::string(outcomeKindName(R.Kind)) +
                              "|" + R.Val.toString() + "|" +
                              R.Final.pathCondition().toString());
    }
  }
  return Out;
}

} // namespace gillian::testing

#endif // GILLIAN_TESTS_FEASIBLE_OUTCOMES_H
