//===- targets/suite_runner.h - Evaluation suite driver --------*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives one evaluation suite (a compiled program whose `test_*`
/// procedures are symbolic unit tests) and aggregates per-suite results:
/// test count, executed GIL commands, bug reports — the columns of
/// Tables 1 and 2.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_TARGETS_SUITE_RUNNER_H
#define GILLIAN_TARGETS_SUITE_RUNNER_H

#include "engine/test_runner.h"
#include "obs/introspect/metrics_registry.h"
#include "solver/solver_cache.h"

#include <string>
#include <vector>

namespace gillian::targets {

struct SuiteResult {
  std::string Name;
  uint64_t Tests = 0;
  uint64_t GilCmds = 0;       ///< the "GIL Cmds" column of Tables 1/2
  uint64_t PathsExplored = 0;
  uint64_t BoundedPaths = 0;
  std::vector<BugReport> Bugs;
  ExecStats Exec;     ///< aggregated engine counters (incl. solver time)
  SolverStats Solver; ///< the suite solver's per-layer counts and times

  bool clean() const { return Bugs.empty(); }
};

/// Names of the `test_*` procedures of \p P, in declaration order.
inline std::vector<std::string> testProcs(const Prog &P) {
  std::vector<std::string> Out;
  for (const auto &[Name, Proc] : P.procs()) {
    (void)Proc;
    std::string_view S = Name.str();
    if (S.substr(0, 5) == "test_")
      Out.emplace_back(S);
  }
  return Out;
}

/// Runs every `test_*` procedure of \p P symbolically over memory model M.
template <SymbolicMemoryModel M>
SuiteResult runSuite(std::string_view Name, const Prog &P,
                     const EngineOptions &Opts) {
  SuiteResult R;
  R.Name = std::string(Name);
  // The query cache is the process-wide shared instance: canonical path
  // conditions are program-independent facts, so warm re-runs of a suite
  // (and parallel workers within one) reuse each other's verdicts. Tests
  // needing cold-cache numbers call SolverCache::process().clear().
  Solver Slv(Opts.Solver, SolverCache::process());
  // While this suite runs, its live engine/solver counters are scrapeable
  // on /metrics, labelled by suite (relaxed-atomic reads, so mid-run
  // scrapes are safe). The RAII scope unregisters before R/Slv die.
  obs::ScopedMetricsSource LiveMetrics([&R, &Slv](obs::PromWriter &W) {
    obs::PromLabels L{{"suite", R.Name}};
    obs::counterSetInto(W, R.Exec, L);
    obs::counterSetInto(W, Slv.stats(), L);
  });
  for (const std::string &T : testProcs(P)) {
    SymbolicTestResult TR = runSymbolicTest<M>(P, T, Opts, Slv);
    ++R.Tests;
    R.GilCmds += TR.Stats.CmdsExecuted;
    R.PathsExplored += TR.Stats.PathsFinished + TR.Stats.PathsErrored +
                       TR.Stats.PathsVanished;
    R.BoundedPaths += TR.PathsBounded;
    R.Exec += TR.Stats;
    for (BugReport &B : TR.Bugs) {
      B.Message = T + ": " + B.Message;
      R.Bugs.push_back(std::move(B));
    }
  }
  R.Solver = Slv.stats();
  return R;
}

} // namespace gillian::targets

#endif // GILLIAN_TARGETS_SUITE_RUNNER_H
