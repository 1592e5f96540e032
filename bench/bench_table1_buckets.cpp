//===- bench/bench_table1_buckets.cpp -------------------------------------===//
//
// Regenerates Table 1 of the paper (§4.1): symbolic testing of the
// Buckets-style library with Gillian-JS (our MJS instantiation).
//
// Columns, as in the paper: per data structure, the number of symbolic
// tests (#T), the number of executed GIL commands, the time in the
// JaVerT 2.0 baseline configuration (no simplifier, no solver caching),
// and the time in the Gillian configuration, plus the time the front end
// took to compile the row's library + suite. Absolute numbers differ from
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
#include "obs/journal/analysis.h"
#include "obs/json_writer.h"
#include "obs/span.h"
#include "targets/buckets_mjs.h"
#include "targets/suite_runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace gillian;
using namespace gillian::mjs;
using namespace gillian::targets;

namespace {

struct Row {
  std::string Name;
  uint64_t Tests = 0;
  uint64_t GilCmds = 0;
  double TimeCompile = 0; ///< the compileMjsSource call
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

std::string rowJson(const Row &R) {
  obs::JsonWriter W;
  W.beginObject();
  W.field("name", R.Name);
  W.field("tests", R.Tests);
  W.field("gil_cmds", R.GilCmds);
  W.field("compile_s", R.TimeCompile, 6);
  W.field("time_j2_s", R.TimeJ2, 6);
  W.field("time_gjs_s", R.TimeGjs, 6);
  W.field("time_par_s", R.TimePar, 6);
  W.field("par_workers", ParWorkers);
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
  std::printf("Table 1: Buckets.js-style symbolic test suites "
              "(Gillian-JS / MJS)\n");
  std::printf("%-8s %4s %12s %10s %10s %10s %8s %10s %8s %9s\n", "Name",
              "#T", "GIL Cmds", "Compile", "Time(J2)", "Time(GJS)", "Speedup",
              "Time(P4)", "ParSpd", "HitRate");

  Row Total;
  Total.Name = "Total";
  obs::SpanSnapshot GjsSpans; // span deltas over the sequential GJS rows
  std::string SuitesJson;
  for (const BucketsSuite &S : bucketsSuites()) {
    std::string Src =
        std::string(bucketsLibrary()) + "\n" + std::string(S.Source);
    auto C0 = std::chrono::steady_clock::now();
    Result<Prog> P = compileMjsSource(Src);
    double CompileS = seconds(C0);
    if (!P) {
      std::fprintf(stderr, "compile error in %s: %s\n",
                   std::string(S.Name).c_str(), P.error().c_str());
      return 1;
    }

    Row R;
    R.Name = std::string(S.Name);
    R.TimeCompile = CompileS;

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
    obs::SpanSnapshot SpansBefore = obs::SpanTable::global().snapshot();
    T0 = std::chrono::steady_clock::now();
    SuiteResult RGjs = runSuite<MjsSMem>(S.Name, *P, Gjs);
    R.TimeGjs = seconds(T0);
    addInto(GjsSpans, obs::SpanTable::global().snapshot() - SpansBefore);
    R.SolverGjs = RGjs.Solver;

    // Gillian configuration, parallel exploration (4 workers).
    coldStart();
    EngineOptions Par;
    Par.Scheduler.Workers = ParWorkers;
    T0 = std::chrono::steady_clock::now();
    SuiteResult RPar = runSuite<MjsSMem>(S.Name, *P, Par);
    R.TimePar = seconds(T0);
    R.SolverPar = RPar.Solver;

    R.Tests = RGjs.Tests;
    R.GilCmds = RGjs.GilCmds;
    R.Bugs = RGjs.Bugs.size() + RJ2.Bugs.size() + RPar.Bugs.size();

    std::printf("%-8s %4llu %12llu %9.4fs %9.3fs %9.3fs %7.2fx %9.3fs "
                "%7.2fx %8.1f%%\n",
                R.Name.c_str(), static_cast<unsigned long long>(R.Tests),
                static_cast<unsigned long long>(R.GilCmds), R.TimeCompile,
                R.TimeJ2,
                R.TimeGjs, R.TimeGjs > 0 ? R.TimeJ2 / R.TimeGjs : 0.0,
                R.TimePar, R.TimePar > 0 ? R.TimeGjs / R.TimePar : 0.0,
                100.0 * R.SolverGjs.cacheHitRate());

    if (!SuitesJson.empty())
      SuitesJson += ",";
    SuitesJson += rowJson(R);

    Total.Tests += R.Tests;
    Total.GilCmds += R.GilCmds;
    Total.TimeCompile += R.TimeCompile;
    Total.TimeJ2 += R.TimeJ2;
    Total.TimeGjs += R.TimeGjs;
    Total.TimePar += R.TimePar;
    Total.Bugs += R.Bugs;
    Total.SolverJ2 += R.SolverJ2;
    Total.SolverGjs += R.SolverGjs;
    Total.SolverPar += R.SolverPar;
  }
  std::printf("%-8s %4llu %12llu %9.4fs %9.3fs %9.3fs %7.2fx %9.3fs "
              "%7.2fx %8.1f%%\n",
              "Total", static_cast<unsigned long long>(Total.Tests),
              static_cast<unsigned long long>(Total.GilCmds),
              Total.TimeCompile, Total.TimeJ2,
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
              "The baseline runs without the result cache and slicing "
              "(its Z3 checks run on the same thread solver as GJS's), so "
              "its gap grows with the solver queries a row repeats; "
              "see bench_ablation_engine for the decomposition.\n"
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

  // Target branch coverage over the whole run (all three configurations
  // explore the same programs, so this is the union).
  uint64_t CovCovered = 0, CovTotal = 0;
  obs::BranchCoverage::instance().totals(CovCovered, CovTotal);
  std::printf("Target branch coverage: %llu / %llu outcomes (%.1f%%)\n",
              static_cast<unsigned long long>(CovCovered),
              static_cast<unsigned long long>(CovTotal),
              CovTotal ? 100.0 * CovCovered / CovTotal : 0.0);

  // Journal cost check (EXPERIMENTS.md): sequential GJS passes over every
  // suite with the journal off and on, alternating. The verdict is the
  // deterministic events per GIL command of a journal-on pass; the wall
  // overhead, the median over the pairs, is reported alongside (a ~0.05 s
  // pass cannot resolve a few per cent reliably). The check toggles and
  // resets the process journal, so the --journal-out and --trace-out
  // views of the measured run above are written out first.
  bench::BenchArgs FinishArgs = Args;
  bench::writeJournalOutputs(FinishArgs);
  constexpr int JournalPairs = 5;
  constexpr double EventsPerCmdBound = 1.0, WallBound = 0.03;
  std::vector<double> OffWalls, OnWalls, Overheads;
  uint64_t JEvents = 0, JCmds = 0, SolverSpanNs = 0;
  std::vector<obs::journal::SiteProfile> Sites;
  {
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
      obs::SpanSnapshot Spans0 = obs::SpanTable::global().snapshot();
      uint64_t Cmds = 0;
      auto T0 = std::chrono::steady_clock::now();
      for (auto &[Name, P] : Progs)
        Cmds += runSuite<MjsSMem>(Name, P, G).GilCmds;
      double T = seconds(T0);
      obs::journal::setEnabled(false);
      if (JournalOn) {
        // The hot-query view of this pass: the journal's per-site solver
        // wall against the solver span total of the same queries.
        JEvents = obs::journal::eventsEmitted();
        JCmds = Cmds;
        Sites = obs::journal::topSites(obs::journal::capture(), SIZE_MAX);
        SolverSpanNs = (obs::SpanTable::global().snapshot() - Spans0)
                           .totalNs(obs::SpanKind::Solver);
      }
      obs::journal::reset();
      return T;
    };
    for (int I = 0; I < JournalPairs && !Progs.empty(); ++I) {
      OffWalls.push_back(MeasureOnce(false));
      OnWalls.push_back(MeasureOnce(true));
      Overheads.push_back(OnWalls.back() / OffWalls.back() - 1.0);
    }
  }
  auto Median = [](std::vector<double> V) {
    if (V.empty())
      return 0.0;
    std::sort(V.begin(), V.end());
    return V[V.size() / 2];
  };
  double JOff = Median(OffWalls), JOn = Median(OnWalls);
  double JOverhead = Median(Overheads);
  double EventsPerCmd =
      JCmds ? static_cast<double>(JEvents) / static_cast<double>(JCmds) : 0;
  bool JOk = JEvents > 0 && EventsPerCmd <= EventsPerCmdBound;
  bool WallOk = JOverhead <= WallBound;
  std::printf("Journal cost (all suites, sequential GJS): %llu events for "
              "%llu GIL commands = %.3f per command (bound %.1f: %s); wall "
              "off %.3fs, on %.3fs, median overhead of %d pairs %+.2f%% "
              "(%.0f%%: %s)\n",
              static_cast<unsigned long long>(JEvents),
              static_cast<unsigned long long>(JCmds), EventsPerCmd,
              EventsPerCmdBound, JOk ? "ok" : "EXCEEDED", JOff, JOn,
              JournalPairs, 100.0 * JOverhead, 100.0 * WallBound,
              WallOk ? "ok" : "over");

  // Hot-query attribution (from the last journal-on pass above): the
  // journal's per-site solver wall, summed over every site, must account
  // for >= 90% of the solver span total — the branch decisions and memory
  // actions that carry wall reach essentially every query — and the top
  // sites show where the solver budget went.
  constexpr size_t HotTableN = 32;
  const double SolverWall = SolverSpanNs / 1e9;
  uint64_t TopNs = 0, AllNs = 0;
  for (size_t I = 0; I < Sites.size(); ++I) {
    AllNs += Sites[I].WallNs;
    if (I < HotTableN)
      TopNs += Sites[I].WallNs;
  }
  // The smallest prefix of the wall-sorted site list that reaches 80% of
  // the solver wall — how concentrated the budget is.
  size_t K80 = 0;
  for (uint64_t Acc = 0; K80 < Sites.size() && Acc < SolverSpanNs * 0.8;
       ++K80)
    Acc += Sites[K80].WallNs;
  const size_t TopN = std::min(Sites.size(), HotTableN);
  double TopCover = SolverSpanNs ? static_cast<double>(TopNs) / SolverSpanNs
                                 : 0.0;
  double AttrCover = SolverSpanNs ? static_cast<double>(AllNs) / SolverSpanNs
                                  : 0.0;
  std::printf("Hot-query attribution (journal-on pass): top-%zu of %zu "
              "sites carry %.3fs of %.3fs solver wall = %.1f%% (80%% "
              "reached at top-%zu); all sites %.1f%% (target >= 90%%)\n",
              TopN, Sites.size(), TopNs / 1e9, SolverWall, 100.0 * TopCover,
              K80, 100.0 * AttrCover);
  if (!Sites.empty()) {
    std::printf("%-28s %6s %10s\n", "Hot site (proc:cmd)", "calls", "wall");
    for (size_t I = 0; I < std::min<size_t>(Sites.size(), 8); ++I) {
      const obs::journal::SiteProfile &S = Sites[I];
      std::printf("%-28s %6llu %9.3fs\n",
                  (S.Proc + ":" + std::to_string(S.Cmd)).c_str(),
                  static_cast<unsigned long long>(S.Queries), S.WallNs / 1e9);
    }
  }

  if (Args.Json) {
    obs::JsonWriter W;
    W.beginObject();
    W.field("bench", "table1_buckets");
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
    W.field("top_n", static_cast<uint64_t>(TopN));
    W.field("sites", static_cast<uint64_t>(Sites.size()));
    W.field("top_sites_s", TopNs / 1e9, 6);
    W.field("top_cover", TopCover, 4);
    W.field("sites_for_80pct", static_cast<uint64_t>(K80));
    W.field("attributed_cover", AttrCover, 4);
    W.endObject();
    W.key("journal_check");
    W.beginObject();
    W.field("events", JEvents);
    W.field("gil_cmds", JCmds);
    W.field("events_per_cmd", EventsPerCmd, 4);
    W.field("events_per_cmd_bound", EventsPerCmdBound, 2);
    W.field("ok", JOk);
    W.field("pairs", JournalPairs);
    W.field("wall_off_s", JOff, 6);
    W.field("wall_on_s", JOn, 6);
    W.field("overhead_frac", JOverhead, 4);
    W.field("bound", WallBound, 2);
    W.field("wall_ok", WallOk);
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
