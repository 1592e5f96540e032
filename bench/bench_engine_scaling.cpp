//===- bench/bench_engine_scaling.cpp -------------------------------------===//
//
// Path-count scaling of the symbolic engine (google-benchmark): programs
// with parameterised branching/loop depth, supporting the paper's "the
// analysis can scale to larger codebases" claim by showing time grows
// with the number of explored paths, not with dead program size.
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"
#include "engine/test_runner.h"
#include "obs/coverage.h"
#include "obs/json_writer.h"
#include "while_lang/compiler.h"
#include "while_lang/memory.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include <chrono>
#include <cstdio>
#include <string>

using namespace gillian;
using namespace gillian::whilelang;

namespace {

/// N sequential symbolic branches: 2^N paths.
std::string diamondProgram(int N) {
  std::string Src = "function main() {\n  s := 0;\n";
  for (int I = 0; I < N; ++I) {
    Src += "  x" + std::to_string(I) + " := fresh_int();\n";
    Src += "  if (0 < x" + std::to_string(I) + ") { s := s + 1; }\n";
  }
  Src += "  assert (0 <= s && s <= " + std::to_string(N) + ");\n";
  Src += "  return s;\n}\n";
  return Src;
}

/// A loop over a symbolic bound in [0, N): N return paths.
std::string loopProgram(int N) {
  return "function main() {\n"
         "  n := fresh_int();\n"
         "  assume (0 <= n && n < " +
         std::to_string(N) +
         ");\n"
         "  i := 0; s := 0;\n"
         "  while (i < n) { s := s + i; i := i + 1; }\n"
         "  assert (s * 2 == n * (n - 1));\n"
         "  return s;\n}\n";
}

/// Dead code: L straight-line functions that are never called.
std::string deadCodeProgram(int L) {
  std::string Src = "function main() { x := fresh_int(); "
                    "assume (0 <= x); assert (0 <= x); return x; }\n";
  for (int I = 0; I < L; ++I)
    Src += "function dead" + std::to_string(I) +
           "(a) { b := a * 2; c := b + 3; return c; }\n";
  return Src;
}

SymbolicTestResult runProgram(const std::string &Src, uint32_t Workers = 1) {
  Result<Prog> P = compileWhileSource(Src);
  if (!P)
    std::abort();
  EngineOptions Opts;
  Opts.LoopBound = 64;
  Opts.Scheduler.Workers = Workers;
  Solver Slv(Opts.Solver);
  SymbolicTestResult R = runSymbolicTest<WhileSMem>(*P, "main", Opts, Slv);
  if (!R.ok())
    std::abort();
  return R;
}

/// Report the solver-layer share of the last run as benchmark counters:
/// where the time goes (solver vs engine) and how well the cache works.
void setSolverCounters(benchmark::State &State,
                       const SymbolicTestResult &R) {
  State.counters["solver_queries"] =
      static_cast<double>(R.Solver.Queries);
  State.counters["solver_hit_rate"] = R.Solver.cacheHitRate();
  State.counters["solver_ms"] = 1e-6 * static_cast<double>(R.Solver.TotalNs);
  State.counters["z3_calls"] = static_cast<double>(R.Solver.Z3Calls);
}

} // namespace

static void BM_DiamondPaths(benchmark::State &State) {
  std::string Src = diamondProgram(static_cast<int>(State.range(0)));
  SymbolicTestResult Last;
  for (auto _ : State)
    Last = runProgram(Src);
  State.SetLabel(std::to_string(1ll << State.range(0)) + " paths");
  setSolverCounters(State, Last);
}
BENCHMARK(BM_DiamondPaths)->DenseRange(2, 8, 2);

static void BM_SymbolicLoopUnroll(benchmark::State &State) {
  std::string Src = loopProgram(static_cast<int>(State.range(0)));
  SymbolicTestResult Last;
  for (auto _ : State)
    Last = runProgram(Src);
  State.SetLabel(std::to_string(State.range(0)) + " unrollings");
  setSolverCounters(State, Last);
}
BENCHMARK(BM_SymbolicLoopUnroll)->DenseRange(4, 32, 4);

static void BM_DeadCodeIsFree(benchmark::State &State) {
  // Time must stay flat as dead program size grows: exploration cost
  // follows paths, not program size.
  std::string Src = deadCodeProgram(static_cast<int>(State.range(0)));
  SymbolicTestResult Last;
  for (auto _ : State)
    Last = runProgram(Src);
  State.SetLabel(std::to_string(State.range(0)) + " dead functions");
  setSolverCounters(State, Last);
}
BENCHMARK(BM_DeadCodeIsFree)->RangeMultiplier(4)->Range(1, 256);

static void BM_ParallelDiamond(benchmark::State &State) {
  // The 256-path diamond on the work-stealing scheduler at 1/2/4/8
  // workers; speedup over the workers=1 row tracks core count.
  std::string Src = diamondProgram(8);
  SymbolicTestResult Last;
  for (auto _ : State)
    Last = runProgram(Src, static_cast<uint32_t>(State.range(0)));
  State.SetLabel(std::to_string(State.range(0)) + " workers");
  setSolverCounters(State, Last);
}
BENCHMARK(BM_ParallelDiamond)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

// After the google-benchmark report, sweep the worker count over a fixed
// 1024-path workload and, under --json (the default), emit one
// machine-readable JSON line with the per-count wall time, cache hit rate
// and exact solver and command counts. --no-json drops only that line.
int main(int argc, char **argv) {
  const bench::BenchArgs Args = bench::parseBenchArgs(argc, argv);
  bench::setupObs(Args);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::string Src = diamondProgram(10);
  std::string SweepJson;
  double BaseSec = 0;
  std::vector<uint32_t> Sweep{1u, 2u, 4u, 8u};
  if (std::find(Sweep.begin(), Sweep.end(), Args.Workers) == Sweep.end()) {
    Sweep.push_back(Args.Workers);
    std::sort(Sweep.begin(), Sweep.end());
  }
  for (uint32_t Workers : Sweep) {
    bench::coldStart(); // cold per count: same starting state for all
    auto T0 = std::chrono::steady_clock::now();
    SymbolicTestResult R = runProgram(Src, Workers);
    double Sec = bench::seconds(T0);
    if (Workers == 1)
      BaseSec = Sec;
    obs::JsonWriter Row;
    Row.beginObject();
    Row.field("workers", Workers);
    Row.field("time_s", Sec, 6);
    Row.field("speedup", Sec > 0 ? BaseSec / Sec : 0.0, 3);
    Row.field("cache_hit_rate", R.Solver.cacheHitRate(), 4);
    Row.field("solver_queries",
              static_cast<uint64_t>(R.Solver.Queries));
    // Exact at every worker count: CI's jq gate checks them.
    Row.field("z3_calls", static_cast<uint64_t>(R.Solver.Z3Calls));
    Row.field("z3_unknown", static_cast<uint64_t>(R.Solver.Unknown));
    Row.field("gil_cmds", static_cast<uint64_t>(R.Stats.CmdsExecuted));
    Row.endObject();
    if (!SweepJson.empty())
      SweepJson += ",";
    SweepJson += Row.take();
  }
  if (Args.Json) {
    obs::JsonWriter W;
    W.beginObject();
    W.field("bench", "engine_scaling");
    W.field("workload", "diamond_10");
    W.field("paths", 1024);
    W.key("worker_sweep");
    W.beginArray();
    W.raw(SweepJson);
    W.endArray();
    W.key("coverage");
    W.raw(obs::BranchCoverage::instance().json());
    W.key("obs");
    W.raw(obs::obsStatsJson(obs::SpanTable::global().snapshot()));
    W.endObject();
    std::printf("\n%s\n", W.take().c_str());
  }
  bench::finishObs(Args);
  return 0;
}
