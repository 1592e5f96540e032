//===- bench/bench_table2_collections.cpp ---------------------------------===//
//
// Regenerates Table 2 of the paper (§4.2): symbolic testing of the
// Collections-C-style library with Gillian-C (our MC instantiation).
//
// Columns, as in the paper: per data structure, the number of symbolic
// tests (#T), the number of executed GIL commands, and the time, plus the
// time the front end took to compile the row's library + suite. The
// binary then runs the buggy library variant and prints the re-detected
// §4.2 findings, mirroring the finding list of the paper.
//
// After the table, one JSON line reports per-suite and total solver-layer
// statistics — including the canonical slicing cache's hit rate — so A/B
// runs can track cache effectiveness.
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"
#include "mc/compiler.h"
#include "mc/memory.h"
#include "obs/coverage.h"
#include "obs/json_writer.h"
#include "targets/collections_mc.h"
#include "targets/suite_runner.h"

#include <chrono>
#include <cstdio>
#include <set>

using namespace gillian;
using namespace gillian::mc;
using namespace gillian::targets;

namespace {

using bench::coldStart;
using bench::seconds;

Result<Prog> compileSuite(std::string_view Library,
                          const CollectionsSuite &S) {
  std::string Src = std::string(Library) + "\n" + std::string(S.Source);
  return compileMcSource(Src);
}

} // namespace

int main(int argc, char **argv) {
  const bench::BenchArgs Args = bench::parseBenchArgs(argc, argv);
  bench::rejectLeftoverArgs(argc, argv);
  bench::setupObs(Args);
  // Worker count of the parallel configuration (--workers; default 4, the
  // acceptance target's core count).
  const uint32_t ParWorkers = Args.Workers;
  std::printf("Table 2: Collections-C-style symbolic test suites "
              "(Gillian-C / MC)\n");
  std::printf("%-8s %4s %12s %10s %10s %10s %8s %9s\n", "Name", "#T",
              "GIL Cmds", "Compile", "Time", "Time(P4)", "ParSpd", "HitRate");

  uint64_t TotalTests = 0, TotalCmds = 0, HealthyBugs = 0;
  double TotalCompile = 0, TotalTime = 0, TotalTimePar = 0;
  SolverStats TotalSolver;
  std::string SuitesJson;
  for (const CollectionsSuite &S : collectionsSuites()) {
    auto C0 = std::chrono::steady_clock::now();
    Result<Prog> P = compileSuite(collectionsLibrary(), S);
    double CompileSec = seconds(C0);
    if (!P) {
      std::fprintf(stderr, "compile error in %s: %s\n",
                   std::string(S.Name).c_str(), P.error().c_str());
      return 1;
    }
    coldStart();
    EngineOptions Opts;
    auto T0 = std::chrono::steady_clock::now();
    SuiteResult R = runSuite<McSMem>(S.Name, *P, Opts);
    double Sec = seconds(T0);

    // Same suite on the 4-worker scheduler, from a cold cache again.
    coldStart();
    EngineOptions ParOpts;
    ParOpts.Scheduler.Workers = ParWorkers;
    T0 = std::chrono::steady_clock::now();
    SuiteResult RPar = runSuite<McSMem>(S.Name, *P, ParOpts);
    double SecPar = seconds(T0);

    std::printf("%-8s %4llu %12llu %9.4fs %9.3fs %9.3fs %7.2fx %8.1f%%\n",
                std::string(S.Name).c_str(),
                static_cast<unsigned long long>(R.Tests),
                static_cast<unsigned long long>(R.GilCmds), CompileSec, Sec,
                SecPar,
                SecPar > 0 ? Sec / SecPar : 0.0,
                100.0 * R.Solver.cacheHitRate());
    obs::JsonWriter Row;
    Row.beginObject();
    Row.field("name", std::string_view(S.Name));
    Row.field("tests", R.Tests);
    Row.field("gil_cmds", R.GilCmds);
    Row.field("compile_s", CompileSec, 6);
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
    TotalCompile += CompileSec;
    TotalTime += Sec;
    TotalTimePar += SecPar;
    TotalSolver += R.Solver;
    HealthyBugs += R.Bugs.size() + RPar.Bugs.size();
  }
  std::printf("%-8s %4llu %12llu %9.4fs %9.3fs %9.3fs %7.2fx %8.1f%%\n",
              "Total", static_cast<unsigned long long>(TotalTests),
              static_cast<unsigned long long>(TotalCmds), TotalCompile,
              TotalTime,
              TotalTimePar,
              TotalTimePar > 0 ? TotalTime / TotalTimePar : 0.0,
              100.0 * TotalSolver.cacheHitRate());

  // The §4.2 finding list, re-detected on the seeded library.
  std::printf("\nFindings on the seeded library (mirrors the §4.2 list):\n");
  std::set<std::string> Findings;
  for (const CollectionsSuite &S : collectionsSuites()) {
    Result<Prog> P = compileSuite(collectionsBuggyLibrary(), S);
    if (!P)
      continue;
    EngineOptions Opts;
    SuiteResult R = runSuite<McSMem>(S.Name, *P, Opts);
    for (const BugReport &B : R.Bugs) {
      std::string Kind;
      if (B.Message.find("out-of-bounds") != std::string::npos)
        Kind = "1. buffer overflow in the dynamic array (off-by-one)";
      else if (B.Message.find("different objects") != std::string::npos)
        Kind = "2. undefined behaviour: pointer comparison across objects";
      else if (B.Message.find("freed pointer") != std::string::npos)
        Kind = "3. comparison of freed pointers";
      else if (B.Message.find("assertion failure") != std::string::npos &&
               B.Message.find("allocation") != std::string::npos)
        Kind = "4. over-allocation in the ring buffer (capacity audit)";
      else
        Kind = "other: " + B.Message.substr(0, 60);
      Findings.insert(Kind + (B.Confirmed ? "  [counter-model verified]"
                                          : "  [unconfirmed]"));
    }
  }
  for (const std::string &F : Findings)
    std::printf("  %s\n", F.c_str());

  std::printf("\nHealthy-library bug reports: %llu (expected 0)\n",
              static_cast<unsigned long long>(HealthyBugs));
  std::printf("Paper shape check: all four seeded finding classes "
              "re-detected; clean library verifies.\n");
  if (Args.Json) {
    obs::JsonWriter W;
    W.beginObject();
    W.field("bench", "table2_collections");
    W.key("suites");
    W.beginArray();
    W.raw(SuitesJson);
    W.endArray();
    W.key("total");
    W.beginObject();
    W.field("tests", TotalTests);
    W.field("gil_cmds", TotalCmds);
    W.field("compile_s", TotalCompile, 6);
    W.field("time_s", TotalTime, 6);
    W.field("time_par_s", TotalTimePar, 6);
    W.field("par_workers", ParWorkers);
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
  return HealthyBugs == 0 && Findings.size() >= 4 ? 0 : 1;
}
