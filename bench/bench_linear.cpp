//===- bench/bench_linear.cpp ---------------------------------------------===//
//
// The fourth memory-model instantiation (Wasm-style linear memory, written
// on the memlib helpers) on its GIL test suites: per-suite test
// counts, executed GIL commands and times, sequential and parallel, then
// the seeded suite to show the off-by-one read and the negative grow are
// re-detected. The row shape mirrors Tables 1/2 so the instantiation can
// sit next to the three paper models in EXPERIMENTS.md.
//
// With --json the binary emits one JSON object with per-suite rows, a
// total block, branch coverage, and the observability counters — the
// `.obs.actions.linear` block is what CI asserts on to prove the linear
// action labels flow end-to-end.
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"
#include "gil/parser.h"
#include "linear/memory.h"
#include "linear/suites.h"
#include "obs/coverage.h"
#include "obs/json_writer.h"
#include "targets/suite_runner.h"

#include <chrono>
#include <cstdio>
#include <string>

using namespace gillian;
using namespace gillian::linear;
using namespace gillian::targets;

namespace {

using bench::coldStart;
using bench::seconds;

} // namespace

int main(int argc, char **argv) {
  const bench::BenchArgs Args = bench::parseBenchArgs(argc, argv);
  bench::rejectLeftoverArgs(argc, argv);
  bench::setupObs(Args);
  const uint32_t ParWorkers = Args.Workers;
  std::printf("Linear-memory instantiation: GIL symbolic test suites "
              "(Gillian-Linear)\n");
  std::printf("%-10s %4s %12s %10s %10s %8s %9s\n", "Name", "#T", "GIL Cmds",
              "Time", "Time(P)", "ParSpd", "HitRate");

  uint64_t TotalTests = 0, TotalCmds = 0, HealthyBugs = 0;
  double TotalTime = 0, TotalTimePar = 0;
  SolverStats TotalSolver;
  std::string SuitesJson;
  for (const LinearSuite &S : linearSuites()) {
    Result<Prog> P = parseGilProg(S.Source);
    if (!P) {
      std::fprintf(stderr, "parse error in %s: %s\n",
                   std::string(S.Name).c_str(), P.error().c_str());
      return 1;
    }
    coldStart();
    EngineOptions Opts;
    auto T0 = std::chrono::steady_clock::now();
    SuiteResult R = runSuite<LinearSMem>(S.Name, *P, Opts);
    double Sec = seconds(T0);

    coldStart();
    EngineOptions ParOpts;
    ParOpts.Scheduler.Workers = ParWorkers;
    T0 = std::chrono::steady_clock::now();
    SuiteResult RPar = runSuite<LinearSMem>(S.Name, *P, ParOpts);
    double SecPar = seconds(T0);

    std::printf("%-10s %4llu %12llu %9.3fs %9.3fs %7.2fx %8.1f%%\n",
                std::string(S.Name).c_str(),
                static_cast<unsigned long long>(R.Tests),
                static_cast<unsigned long long>(R.GilCmds), Sec, SecPar,
                SecPar > 0 ? Sec / SecPar : 0.0,
                100.0 * R.Solver.cacheHitRate());
    obs::JsonWriter Row;
    Row.beginObject();
    Row.field("name", std::string_view(S.Name));
    Row.field("tests", R.Tests);
    Row.field("gil_cmds", R.GilCmds);
    Row.field("time_s", Sec, 6);
    Row.field("time_par_s", SecPar, 6);
    Row.field("par_workers", ParWorkers);
    Row.key("solver");
    Row.raw(solverStatsJson(R.Solver));
    Row.endObject();
    if (!SuitesJson.empty())
      SuitesJson += ",";
    SuitesJson += Row.take();
    TotalTests += R.Tests;
    TotalCmds += R.GilCmds;
    TotalTime += Sec;
    TotalTimePar += SecPar;
    TotalSolver += R.Solver;
    HealthyBugs += R.Bugs.size() + RPar.Bugs.size();
  }
  std::printf("%-10s %4llu %12llu %9.3fs %9.3fs %7.2fx %8.1f%%\n", "Total",
              static_cast<unsigned long long>(TotalTests),
              static_cast<unsigned long long>(TotalCmds), TotalTime,
              TotalTimePar,
              TotalTimePar > 0 ? TotalTime / TotalTimePar : 0.0,
              100.0 * TotalSolver.cacheHitRate());

  // The seeded suite: both planted faults must be re-detected.
  std::printf("\nFindings on the seeded suite:\n");
  uint64_t SeededBugs = 0;
  bool SawOob = false, SawNegGrow = false;
  for (const LinearSuite &S : linearSeededSuites()) {
    Result<Prog> P = parseGilProg(S.Source);
    if (!P)
      continue;
    EngineOptions Opts;
    SuiteResult R = runSuite<LinearSMem>(S.Name, *P, Opts);
    SeededBugs += R.Bugs.size();
    for (const BugReport &B : R.Bugs) {
      if (B.Message.find("out-of-bounds load") != std::string::npos)
        SawOob = true;
      if (B.Message.find("grow by negative size") != std::string::npos)
        SawNegGrow = true;
      std::printf("  %s%s\n", B.Message.c_str(),
                  B.Confirmed ? "  [counter-model verified]"
                              : "  [unconfirmed]");
    }
  }

  std::printf("\nHealthy-suite bug reports: %llu (expected 0)\n",
              static_cast<unsigned long long>(HealthyBugs));
  std::printf("Shape check: off-by-one read %s, negative grow %s; clean "
              "suites verify.\n",
              SawOob ? "re-detected" : "MISSED",
              SawNegGrow ? "re-detected" : "MISSED");
  if (Args.Json) {
    obs::JsonWriter W;
    W.beginObject();
    W.field("bench", "linear");
    W.key("suites");
    W.beginArray();
    W.raw(SuitesJson);
    W.endArray();
    W.key("total");
    W.beginObject();
    W.field("tests", TotalTests);
    W.field("gil_cmds", TotalCmds);
    W.field("time_s", TotalTime, 6);
    W.field("time_par_s", TotalTimePar, 6);
    W.field("par_workers", ParWorkers);
    W.field("seeded_bugs", SeededBugs);
    W.key("solver");
    W.raw(solverStatsJson(TotalSolver));
    W.endObject();
    W.key("coverage");
    W.raw(obs::BranchCoverage::instance().json());
    W.key("obs");
    W.raw(obs::obsStatsJson(obs::SpanTable::global().snapshot()));
    W.endObject();
    std::printf("\n%s\n", W.take().c_str());
  }
  bench::finishObs(Args);
  return HealthyBugs == 0 && SawOob && SawNegGrow ? 0 : 1;
}
