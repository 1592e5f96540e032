//===- bench/bench_table1_buckets.cpp -------------------------------------===//
//
// Regenerates Table 1 of the paper (§4.1): symbolic testing of the
// Buckets-style library with Gillian-JS (our MJS instantiation).
//
// Columns, as in the paper: per data structure, the number of symbolic
// tests (#T), the number of executed GIL commands, the time in the
// JaVerT 2.0 baseline configuration (no simplifier, no solver caching),
// and the time in the Gillian configuration. Absolute numbers differ from
// the paper (different hardware, different substrate); the shape to check
// is the J2/GJS ratio (paper: roughly 2x) and the relative per-structure
// ordering.
//
// After the table, one JSON line reports per-suite and total solver-layer
// statistics for both configurations — including the cache hit rate of the
// canonical slicing cache — for A/B runs of cache effectiveness.
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"
#include "mjs/compiler.h"
#include "mjs/memory.h"
#include "obs/coverage.h"
#include "obs/json_writer.h"
#include "obs/query_profile.h"
#include "obs/span.h"
#include "targets/buckets_mjs.h"
#include "targets/suite_runner.h"

#include <chrono>
#include <cstdio>
#include <string>

using namespace gillian;
using namespace gillian::mjs;
using namespace gillian::targets;

namespace {

struct Row {
  std::string Name;
  uint64_t Tests = 0;
  uint64_t GilCmds = 0;
  double TimeJ2 = 0;
  double TimeGjs = 0;
  double TimePar = 0; ///< Gillian configuration, 4 exploration workers
  uint64_t Bugs = 0;
  SolverStats SolverJ2;
  SolverStats SolverGjs;
  SolverStats SolverPar;
};

using bench::coldStart;
using bench::seconds;

/// Worker count of the parallel configuration; set from --workers
/// (default 4, the acceptance target's core count).
uint32_t ParWorkers = 4;
/// Native theory layer of the parallel configuration (--no-native).
bool ParNative = true;
/// Async solver service threads of the parallel configuration (--async).
uint32_t ParAsync = 0;

std::string rowJson(const Row &R) {
  obs::JsonWriter W;
  W.beginObject();
  W.field("name", R.Name);
  W.field("tests", R.Tests);
  W.field("gil_cmds", R.GilCmds);
  W.field("time_j2_s", R.TimeJ2, 6);
  W.field("time_gjs_s", R.TimeGjs, 6);
  W.field("time_par_s", R.TimePar, 6);
  W.field("par_workers", ParWorkers);
  W.field("par_native", ParNative);
  W.field("par_async", static_cast<uint64_t>(ParAsync));
  W.key("solver_j2");
  W.raw(solverStatsJson(R.SolverJ2));
  W.key("solver_gjs");
  W.raw(solverStatsJson(R.SolverGjs));
  W.key("solver_par");
  W.raw(solverStatsJson(R.SolverPar));
  W.endObject();
  return W.take();
}

/// Accumulates a span-table delta (the sequential-GJS rows only, so the
/// self-time sum is comparable to single-threaded wall clock).
void addInto(obs::SpanSnapshot &Acc, const obs::SpanSnapshot &D) {
  for (size_t I = 0; I < obs::NumSpanKinds; ++I) {
    Acc.TotalNs[I] += D.TotalNs[I];
    Acc.SelfNs[I] += D.SelfNs[I];
    Acc.Count[I] += D.Count[I];
  }
}

} // namespace

int main(int argc, char **argv) {
  const bench::BenchArgs Args = bench::parseBenchArgs(argc, argv);
  bench::rejectLeftoverArgs(argc, argv);
  bench::setupObs(Args);
  ParWorkers = Args.Workers;
  ParNative = Args.Native;
  ParAsync = Args.Async;
  std::printf("Table 1: Buckets.js-style symbolic test suites "
              "(Gillian-JS / MJS)\n");
  std::printf("%-8s %4s %12s %10s %10s %8s %10s %8s %9s\n", "Name", "#T",
              "GIL Cmds", "Time(J2)", "Time(GJS)", "Speedup", "Time(P4)",
              "ParSpd", "HitRate");

  Row Total;
  Total.Name = "Total";
  obs::SpanSnapshot GjsSpans; // span deltas over the sequential GJS rows
  std::string SuitesJson;
  for (const BucketsSuite &S : bucketsSuites()) {
    std::string Src =
        std::string(bucketsLibrary()) + "\n" + std::string(S.Source);
    Result<Prog> P = compileMjsSource(Src);
    if (!P) {
      std::fprintf(stderr, "compile error in %s: %s\n",
                   std::string(S.Name).c_str(), P.error().c_str());
      return 1;
    }

    Row R;
    R.Name = std::string(S.Name);

    // Baseline: the JaVerT 2.0 configuration.
    coldStart();
    EngineOptions J2 = EngineOptions::legacyJaVerT2();
    auto T0 = std::chrono::steady_clock::now();
    SuiteResult RJ2 = runSuite<MjsSMem>(S.Name, *P, J2);
    R.TimeJ2 = seconds(T0);
    R.SolverJ2 = RJ2.Solver;

    // Gillian configuration.
    coldStart();
    EngineOptions Gjs;
    Gjs.UseSummaries = Args.Summaries;
    obs::SpanSnapshot SpansBefore = obs::SpanTable::global().snapshot();
    T0 = std::chrono::steady_clock::now();
    SuiteResult RGjs = runSuite<MjsSMem>(S.Name, *P, Gjs);
    R.TimeGjs = seconds(T0);
    addInto(GjsSpans, obs::SpanTable::global().snapshot() - SpansBefore);
    R.SolverGjs = RGjs.Solver;

    // Gillian configuration, parallel exploration (4 workers).
    coldStart();
    EngineOptions Par;
    Par.UseSummaries = Args.Summaries;
    Par.Scheduler.Workers = ParWorkers;
    Par.Solver.UseNative = ParNative;
    Par.Solver.AsyncSolvers = ParAsync;
    T0 = std::chrono::steady_clock::now();
    SuiteResult RPar = runSuite<MjsSMem>(S.Name, *P, Par);
    R.TimePar = seconds(T0);
    R.SolverPar = RPar.Solver;

    R.Tests = RGjs.Tests;
    R.GilCmds = RGjs.GilCmds;
    R.Bugs = RGjs.Bugs.size() + RJ2.Bugs.size() + RPar.Bugs.size();

    std::printf("%-8s %4llu %12llu %9.3fs %9.3fs %7.2fx %9.3fs %7.2fx "
                "%8.1f%%\n",
                R.Name.c_str(), static_cast<unsigned long long>(R.Tests),
                static_cast<unsigned long long>(R.GilCmds), R.TimeJ2,
                R.TimeGjs, R.TimeGjs > 0 ? R.TimeJ2 / R.TimeGjs : 0.0,
                R.TimePar, R.TimePar > 0 ? R.TimeGjs / R.TimePar : 0.0,
                100.0 * R.SolverGjs.cacheHitRate());

    if (!SuitesJson.empty())
      SuitesJson += ",";
    SuitesJson += rowJson(R);

    Total.Tests += R.Tests;
    Total.GilCmds += R.GilCmds;
    Total.TimeJ2 += R.TimeJ2;
    Total.TimeGjs += R.TimeGjs;
    Total.TimePar += R.TimePar;
    Total.Bugs += R.Bugs;
    Total.SolverJ2 += R.SolverJ2;
    Total.SolverGjs += R.SolverGjs;
    Total.SolverPar += R.SolverPar;
  }
  std::printf("%-8s %4llu %12llu %9.3fs %9.3fs %7.2fx %9.3fs %7.2fx "
              "%8.1f%%\n",
              "Total", static_cast<unsigned long long>(Total.Tests),
              static_cast<unsigned long long>(Total.GilCmds), Total.TimeJ2,
              Total.TimeGjs,
              Total.TimeGjs > 0 ? Total.TimeJ2 / Total.TimeGjs : 0.0,
              Total.TimePar,
              Total.TimePar > 0 ? Total.TimeGjs / Total.TimePar : 0.0,
              100.0 * Total.SolverGjs.cacheHitRate());
  std::printf("\nBug reports on the healthy library: %llu (expected 0 — "
              "the suite is a bounded-verification baseline, as in the "
              "paper, which re-detected only previously-known bugs)\n",
              static_cast<unsigned long long>(Total.Bugs));
  std::printf("Paper shape check: 74 tests; J2 slower than GJS overall and on "
              "the solver-heavy rows (paper: ~2x overall; sub-millisecond "
              "rows are noise-dominated).\n"
              "Our measured gap is larger than the paper's because this "
              "baseline removes result caching entirely, on which our "
              "engine leans harder than JaVerT 2.0 did (J2 cached inside "
              "its custom solver); see bench_ablation_engine for the "
              "decomposition.\n"
              "Time(P4) explores each test on a 4-worker work-stealing "
              "pool sharing one solver cache; ParSpd = Time(GJS)/Time(P4) "
              "tracks core count (expect ~1x on a single-core runner, "
              ">=2x on 4 cores).\n");

  // Per-layer attribution check (ISSUE 4 acceptance): over the
  // single-threaded GJS rows, the mutually-exclusive span self times
  // summed across every layer must reconstruct the measured wall clock
  // to within 10%.
  double SpanSelfSum = GjsSpans.sumSelfNs() / 1e9;
  double SpanCover = Total.TimeGjs > 0 ? SpanSelfSum / Total.TimeGjs : 0.0;
  std::printf("Span attribution (GJS rows): per-layer self times sum to "
              "%.3fs of %.3fs measured wall = %.1f%% coverage (target: "
              "within 10%%)\n",
              SpanSelfSum, Total.TimeGjs, 100.0 * SpanCover);

  // Hot-query attribution check (ISSUE 5 acceptance): the profiler's
  // per-site wall times, summed over the top-N table, must account for
  // >= 80% of the solver wall time the span table measured — i.e. the
  // thread-local origin published by the interpreter reaches essentially
  // every query, and the top sites dominate.
  obs::QueryProfiler &QP = obs::QueryProfiler::instance();
  obs::SpanSnapshot AllSpans = obs::SpanTable::global().snapshot();
  double SolverWall = (AllSpans.totalNs(obs::SpanKind::Solver) +
                       AllSpans.totalNs(obs::SpanKind::ModelSearch)) /
                      1e9;
  constexpr size_t HotTableN = 32;
  uint64_t TopNs = 0;
  std::vector<obs::QueryProfiler::Site> All = QP.topN(SIZE_MAX);
  std::vector<obs::QueryProfiler::Site> Top(
      All.begin(), All.begin() + std::min(All.size(), HotTableN));
  for (const obs::QueryProfiler::Site &S : Top)
    TopNs += S.WallNs;
  // The smallest prefix of the wall-time-sorted site list that reaches
  // the 80% target — how concentrated the solver budget actually is.
  size_t K80 = 0;
  for (uint64_t Acc = 0; K80 < All.size() && Acc < SolverWall * 0.8e9;
       ++K80)
    Acc += All[K80].WallNs;
  double TopCover = SolverWall > 0 ? (TopNs / 1e9) / SolverWall : 0.0;
  double AttrCover =
      SolverWall > 0 ? (QP.attributedNs() / 1e9) / SolverWall : 0.0;
  std::printf("Hot-query attribution: top-%zu of %zu sites carry %.3fs of "
              "%.3fs measured solver wall = %.1f%% (target >= 80%%, reached "
              "at top-%zu); attributed total %.1f%%, unattributed %.3fs\n",
              Top.size(), All.size(), TopNs / 1e9, SolverWall,
              100.0 * TopCover, K80, 100.0 * AttrCover,
              QP.unattributedNs() / 1e9);
  if (!Top.empty()) {
    std::printf("%-28s %6s %10s %8s %8s %8s\n", "Hot site (proc:cmd)",
                "calls", "wall", "sat", "unsat", "miss");
    size_t Shown = std::min<size_t>(Top.size(), 8);
    for (size_t I = 0; I < Shown; ++I) {
      const obs::QueryProfiler::Site &S = Top[I];
      std::printf("%-28s %6llu %9.3fs %8llu %8llu %8llu\n",
                  (S.Proc + ":" + std::to_string(S.CmdIdx)).c_str(),
                  static_cast<unsigned long long>(S.Calls), S.WallNs / 1e9,
                  static_cast<unsigned long long>(S.Sat),
                  static_cast<unsigned long long>(S.Unsat),
                  static_cast<unsigned long long>(S.CacheMisses));
    }
  }

  // Target branch coverage over the whole run (all three configurations
  // explore the same programs, so this is the union).
  uint64_t CovCovered = 0, CovTotal = 0;
  obs::BranchCoverage::instance().totals(CovCovered, CovTotal);
  std::printf("Target branch coverage: %llu / %llu outcomes (%.1f%%)\n",
              static_cast<unsigned long long>(CovCovered),
              static_cast<unsigned long long>(CovTotal),
              CovTotal ? 100.0 * CovCovered / CovTotal : 0.0);

  // Journal-overhead check (ISSUE 10 acceptance; EXPERIMENTS.md): the
  // lossless execution journal must cost <= 3% wall. The first suite is
  // re-run journal-off and journal-on, interleaved, best-of-3 each (the
  // min filters scheduler noise). The check toggles and resets the
  // process journal, so any --journal-out capture of the measured run
  // above is written out first and finishObs is told not to rewrite it.
  bench::BenchArgs FinishArgs = Args;
  if (!Args.JournalOut.empty()) {
    obs::journal::JournalData JD = obs::journal::capture();
    std::string JErr;
    if (obs::journal::writeJournalFile(JD, Args.JournalOut, nullptr, &JErr))
      std::fprintf(stderr, "[bench] wrote journal (%zu events) to %s\n",
                   JD.Events.size(), Args.JournalOut.c_str());
    else
      std::fprintf(stderr, "[bench] failed to write journal to %s: %s\n",
                   Args.JournalOut.c_str(), JErr.c_str());
    FinishArgs.JournalOut.clear();
  }
  double JOff = 1e99, JOn = 1e99;
  uint64_t JEvents = 0;
  {
    // One sequential GJS pass over every suite per measurement: single
    // suites finish in milliseconds, below timer noise at a 3% bound.
    std::vector<std::pair<std::string_view, Prog>> Progs;
    for (const BucketsSuite &S : bucketsSuites()) {
      Result<Prog> P = compileMjsSource(std::string(bucketsLibrary()) + "\n" +
                                        std::string(S.Source));
      if (P.ok())
        Progs.emplace_back(S.Name, std::move(*P));
    }
    auto MeasureOnce = [&](bool JournalOn) {
      coldStart();
      obs::journal::reset();
      obs::journal::setEnabled(JournalOn);
      EngineOptions G;
      G.UseSummaries = Args.Summaries;
      auto T0 = std::chrono::steady_clock::now();
      for (auto &[Name, P] : Progs)
        runSuite<MjsSMem>(Name, P, G);
      double T = seconds(T0);
      if (JournalOn)
        JEvents = obs::journal::eventsEmitted();
      obs::journal::setEnabled(false);
      obs::journal::reset();
      return T;
    };
    for (int I = 0; I < 3 && !Progs.empty(); ++I) {
      JOff = std::min(JOff, MeasureOnce(false));
      JOn = std::min(JOn, MeasureOnce(true));
    }
  }
  double JOverhead = JOff > 0 && JOff < 1e98 ? (JOn - JOff) / JOff : 0.0;
  bool JOk = JOverhead <= 0.03;
  std::printf("Journal overhead (all suites, sequential GJS, best of 3): "
              "off %.3fs, on %.3fs (%llu events) = %+.2f%% "
              "(target <= 3%%: %s)\n",
              JOff, JOn, static_cast<unsigned long long>(JEvents),
              100.0 * JOverhead, JOk ? "ok" : "EXCEEDED");

  if (Args.Json) {
    obs::JsonWriter W;
    W.beginObject();
    W.field("bench", "table1_buckets");
    W.field("summaries", Args.Summaries);
    W.key("suites");
    W.beginArray();
    W.raw(SuitesJson);
    W.endArray();
    W.key("total");
    W.raw(rowJson(Total));
    W.key("span_check");
    W.beginObject();
    W.field("wall_gjs_s", Total.TimeGjs, 6);
    W.field("span_self_sum_s", SpanSelfSum, 6);
    W.field("cover", SpanCover, 4);
    W.key("spans");
    W.raw(GjsSpans.json());
    W.endObject();
    W.key("hot_query_check");
    W.beginObject();
    W.field("solver_wall_s", SolverWall, 6);
    W.field("top_n", static_cast<uint64_t>(Top.size()));
    W.field("sites", static_cast<uint64_t>(All.size()));
    W.field("top_sites_s", TopNs / 1e9, 6);
    W.field("top_cover", TopCover, 4);
    W.field("sites_for_80pct", static_cast<uint64_t>(K80));
    W.field("attributed_cover", AttrCover, 4);
    W.endObject();
    W.key("journal_check");
    W.beginObject();
    W.field("wall_off_s", JOff, 6);
    W.field("wall_on_s", JOn, 6);
    W.field("events", JEvents);
    W.field("overhead_frac", JOverhead, 4);
    W.field("bound", 0.03, 2);
    W.field("ok", JOk);
    W.endObject();
    W.key("coverage");
    W.raw(obs::BranchCoverage::instance().json());
    W.key("obs");
    W.raw(obs::obsStatsJson(obs::SpanTable::global().snapshot()));
    W.endObject();
    std::printf("\n%s\n", W.take().c_str());
  }
  bench::finishObs(FinishArgs);
  return Total.Bugs == 0 ? 0 : 1;
}
