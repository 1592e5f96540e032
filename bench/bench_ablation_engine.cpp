//===- bench/bench_ablation_engine.cpp ------------------------------------===//
//
// Ablation of the engine improvements §4.1 credits for the ~2x speedup of
// Gillian-JS over JaVerT 2.0: solver result caching, independence
// slicing and the syntactic solver layer. Each row disables one
// ingredient on the full Buckets workload and reports the solver cache
// hit rate; a final JSON line carries the per-configuration solver-layer
// statistics.
// --quick runs only the full and parallel rows.
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"
#include "mjs/compiler.h"
#include "mjs/memory.h"
#include "obs/coverage.h"
#include "obs/json_writer.h"
#include "targets/buckets_mjs.h"
#include "targets/suite_runner.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

using namespace gillian;
using namespace gillian::targets;

namespace {

struct RunResult {
  double Seconds = 0;
  uint64_t SpuriousAlarms = 0; ///< potential-bug reports (AllowAlarms rows)
  SolverStats Solver;
};

/// Runs the whole Buckets workload under \p Opts. The workload is
/// bug-free, so a reported bug normally aborts the ablation — except for
/// configurations that knowingly over-approximate (no Z3 fallback:
/// Unknown branch conditions stay feasible, so unverifiable assertion
/// alarms are expected); those pass \p AllowAlarms and the row reports
/// the alarm count instead.
RunResult runAll(const EngineOptions &Opts, bool AllowAlarms = false) {
  RunResult Res;
  auto T0 = std::chrono::steady_clock::now();
  for (const BucketsSuite &S : bucketsSuites()) {
    std::string Src =
        std::string(bucketsLibrary()) + "\n" + std::string(S.Source);
    Result<Prog> P = mjs::compileMjsSource(Src);
    if (!P) {
      std::fprintf(stderr, "compile error: %s\n", P.error().c_str());
      std::exit(1);
    }
    SuiteResult R = runSuite<mjs::MjsSMem>(S.Name, *P, Opts);
    if (!R.clean()) {
      if (!AllowAlarms) {
        std::fprintf(stderr, "unexpected bug in ablation run: %s\n",
                     R.Bugs[0].Message.c_str());
        std::exit(1);
      }
      Res.SpuriousAlarms += R.Bugs.size();
    }
    Res.Solver += R.Solver;
  }
  Res.Seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - T0)
                    .count();
  return Res;
}

} // namespace

int main(int argc, char **argv) {
  const bench::BenchArgs Args = bench::parseBenchArgs(argc, argv);
  bool Quick = false;
  {
    int Out = 1;
    for (int In = 1; In < argc; ++In) {
      if (std::strcmp(argv[In], "--quick") == 0)
        Quick = true;
      else
        argv[Out++] = argv[In];
    }
    argc = Out;
  }
  bench::rejectLeftoverArgs(argc, argv);
  bench::setupObs(Args);
  struct Config {
    const char *Name;
    bool InQuick; ///< part of the fast CI subset
    std::function<EngineOptions()> Make;
    bool AllowAlarms = false; ///< over-approximating row: tolerate alarms
  };
  const Config Configs[] = {
      {"full (Gillian)", true, [] { return EngineOptions(); }},
      {"no solver cache", false,
       [] {
         EngineOptions O;
         O.Solver.UseCache = false;
         return O;
       }},
      {"no slicing", false,
       [] {
         EngineOptions O;
         O.Solver.UseSlicing = false;
         return O;
       }},
      {"no syntactic layer", false,
       [] {
         EngineOptions O;
         O.Solver.UseSyntactic = false;
         return O;
       }},
      // Every query the syntactic core leaves undecided answers Unknown
      // instead of reaching Z3, so this row also measures how much of the
      // workload the in-process layer covers on its own.
      {"in-process only (no Z3)", false,
       [] {
         EngineOptions O;
         O.Solver.UseZ3 = false;
         return O;
       },
       /*AllowAlarms=*/true},
      {"legacy JaVerT 2.0", false,
       [] { return EngineOptions::legacyJaVerT2(); }},
      {"parallel", true,
       [&Args] {
         EngineOptions O;
         O.Scheduler.Workers = Args.Workers;
         return O;
       }},
  };

  std::printf("Engine ablation on the full Buckets workload "
              "(11 suites, 74 symbolic tests)%s\n",
              Quick ? " [--quick subset]" : "");
  std::printf("%-24s %10s %10s %9s\n", "Configuration", "Time", "vs full",
              "HitRate");
  double Base = 0;
  std::string ConfigsJson;
  for (const Config &C : Configs) {
    if (Quick && !C.InQuick)
      continue;
    // Cold caches per configuration: runSuite feeds the process-wide
    // solver cache, which would otherwise warm every later row.
    bench::coldStart();
    EngineOptions O = C.Make();
    RunResult R = runAll(O, C.AllowAlarms);
    if (Base == 0)
      Base = R.Seconds;
    std::printf("%-24s %9.3fs %9.2fx %8.1f%%%s\n", C.Name, R.Seconds,
                Base > 0 ? R.Seconds / Base : 0.0,
                100.0 * R.Solver.cacheHitRate(),
                R.SpuriousAlarms
                    ? ("  [" + std::to_string(R.SpuriousAlarms) +
                       " unverifiable alarms]")
                          .c_str()
                    : "");
    obs::JsonWriter Row;
    Row.beginObject();
    Row.field("name", C.Name);
    Row.field("workers", static_cast<uint64_t>(
                             O.Scheduler.Workers ? O.Scheduler.Workers : 1));
    Row.field("spurious_alarms", R.SpuriousAlarms);
    Row.field("time_s", R.Seconds, 6);
    Row.key("solver");
    Row.raw(solverStatsJson(R.Solver));
    Row.endObject();
    if (!ConfigsJson.empty())
      ConfigsJson += ",";
    ConfigsJson += Row.take();
  }

  std::printf("\nPaper shape check: the legacy configuration is the "
              "slowest (§4.1 credits simplification and caching for the "
              "J2 -> GJS speedup). In our engine the solver result cache "
              "is the dominant ingredient: without it, repeated aliasing "
              "and branch-feasibility queries pay SMT round-trips.\n");
  if (Args.Json) {
    obs::JsonWriter W;
    W.beginObject();
    W.field("bench", "ablation_engine");
    W.field("workers", static_cast<uint64_t>(Args.Workers));
    W.field("quick", Quick);
    W.key("configs");
    W.beginArray();
    W.raw(ConfigsJson);
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
