//===- tests/engine/summary_persist_test.cpp ------------------------------===//
//
// Persistence and cold-reset of the procedure summary store: save/load
// round-trips recorded execution trees through a text file so a second
// run replays without re-recording (warm-start); Solver::resetCache()
// demonstrably colds the process-wide store through the registered hook;
// garbage files load what parses and skip the rest; a failed save leaves
// the target untouched and cleans its staging temp — the same contract
// cache_persist_test pins for the solver result cache.
//
//===----------------------------------------------------------------------===//

#include "engine/summary/summary_store.h"

#include "engine/interpreter.h"
#include "engine/scheduler/exploration_scheduler.h"
#include "obs/summary_stats.h"
#include "solver/solver.h"
#include "while_lang/compiler.h"
#include "while_lang/memory.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include <sys/stat.h>
#include <unistd.h>

using namespace gillian;
using namespace gillian::whilelang;

namespace {

// Two eligible helpers, called with symbolic and concrete arguments under
// several path conditions: the run populates the store with a handful of
// distinct (fingerprint, argument, slice) entries.
constexpr const char *Src = R"(
  function main() {
    x := fresh_int();
    assume (0 <= x && x < 4);
    a := clamppos(x);
    b := clamppos(x - 2);
    c := double(3);
    s := a + b + c;
    assert (0 <= s);
    return s;
  }
  function clamppos(v) {
    if (v < 0) { return 0; }
    return v;
  }
  function double(v) { return v * 2; })";

using St = SymbolicState<WhileSMem>;

/// Explores Src's main with summaries on (the default), sharing the
/// process-wide store.
void runOnce(Solver &Slv) {
  Result<Prog> P = compileWhileSource(Src);
  ASSERT_TRUE(P.ok()) << P.error();
  EngineOptions Opts;
  ExecStats Stats;
  St Init(WhileSMem(), &Slv, &Opts);
  Interpreter<St> Interp(*P, Opts, Stats);
  Result<std::vector<TraceResult<St>>> Traces = runExploration(
      Interp, InternedString::get("main"), Expr::list({}), std::move(Init));
  ASSERT_TRUE(Traces.ok()) << Traces.error();
  EXPECT_FALSE(Traces->empty());
}

std::string tempPath(const char *Name) {
  return ::testing::TempDir() + Name;
}

/// The sibling temp file save() stages its writes through.
std::string tempSibling(const std::string &Path) {
  return Path + "." + std::to_string(::getpid()) + ".tmp";
}

} // namespace

TEST(SummaryPersistTest, SaveLoadRoundTripReplaysWithoutReRecording) {
  const std::string Path = tempPath("gillian_summaries_roundtrip.txt");
  ProcedureSummaryStore &Store = ProcedureSummaryStore::process();
  Store.clear();
  Solver Slv;
  runOnce(Slv);
  ASSERT_GT(Store.size(), 0u) << "run recorded no summaries";
  long Saved = Store.save(Path);
  ASSERT_GE(Saved, 1);
  EXPECT_EQ(static_cast<size_t>(Saved), Store.size());

  // Cold reset, then seed from the file: the second run must answer every
  // eligible call from the loaded store — hits move, misses (fresh
  // recordings) do not. That is the warm-start regression: a process that
  // loads a persisted store replays immediately.
  Store.clear();
  ASSERT_EQ(Store.size(), 0u);
  EXPECT_EQ(Store.load(Path), Saved);
  EXPECT_EQ(static_cast<size_t>(Saved), Store.size());
  EXPECT_GT(Store.bytes(), 0u);

  obs::SummaryGlobalStats &G = obs::summaryGlobalStats();
  uint64_t Hits0 = G.Hits.load(), Misses0 = G.Misses.load();
  Solver Slv2;
  runOnce(Slv2);
  EXPECT_GT(G.Hits.load(), Hits0)
      << "loaded store took no hit: entries did not round-trip";
  EXPECT_EQ(G.Misses.load(), Misses0)
      << "warm run re-recorded a summary the file should have supplied";
}

TEST(SummaryPersistTest, SolverResetCacheColdsTheSummaryStore) {
  // The store registers itself as a Solver::resetCache() hook on first
  // process() access, so the solver-layer reset entry point colds the
  // engine-layer store too — "cold start" means cold across both layers.
  ProcedureSummaryStore &Store = ProcedureSummaryStore::process();
  Store.clear();
  Solver Slv;
  runOnce(Slv);
  ASSERT_GT(Store.size(), 0u);
  uint64_t Gen = Store.generation();
  Slv.resetCache();
  EXPECT_EQ(Store.size(), 0u)
      << "resetCache() left summary entries resident";
  EXPECT_EQ(Store.bytes(), 0u);
  EXPECT_GT(Store.generation(), Gen);

  // A second solver's reset colds the same process-wide store.
  Solver Slv2;
  runOnce(Slv2);
  ASSERT_GT(Store.size(), 0u);
  Slv2.resetCache();
  EXPECT_EQ(Store.size(), 0u);
}

TEST(SummaryPersistTest, ReplayOutlivesItsStoreEntry) {
  // A replaying configuration can be the last owner of its entry: a
  // racing worker replaced it, or the store was cleared. Clear the store
  // as soon as a replay is armed; the replay must finish without reading
  // the entry after letting go of it (the ASan job catches such a read).
  Result<Prog> P = compileWhileSource(R"(
    function main() {
      x := fresh_int();
      r := inc(x);
      return r;
    }
    function inc(v) { return v + 1; })");
  ASSERT_TRUE(P.ok()) << P.error();
  ProcedureSummaryStore::process().clear();
  EngineOptions Opts;
  Solver Slv(Opts.Solver);
  ExecStats Stats;
  using Config = Interpreter<St>::Config;
  Interpreter<St> Interp(*P, Opts, Stats);
  Result<Config> Start =
      Interp.makeInitialConfig(InternedString::get("main"), Expr::list({}),
                               St(WhileSMem(), &Slv, &Opts));
  ASSERT_TRUE(Start.ok()) << Start.error();
  struct Worklist {
    std::vector<Config> Work;
    std::vector<std::string> Returned;
    void cont(Config C) { Work.push_back(std::move(C)); }
    void done(OutcomeKind K, Expr V, St) {
      if (K == OutcomeKind::Return)
        Returned.push_back(V.toString());
    }
  } W;
  W.Work.push_back(Start.take());
  bool Cleared = false;
  while (!W.Work.empty()) {
    Config C = std::move(W.Work.back());
    W.Work.pop_back();
    if (C.Replay && !Cleared) {
      ProcedureSummaryStore::process().clear();
      Cleared = true;
    }
    Interp.step(std::move(C), W);
  }
  ASSERT_TRUE(Cleared) << "no replay was armed: the test exercised nothing";
  ASSERT_EQ(W.Returned.size(), 1u);
  EXPECT_NE(W.Returned[0].find("+ 1"), std::string::npos) << W.Returned[0];
}

TEST(SummaryPersistTest, LoadSkipsGarbageAndMissingFilesFail) {
  ProcedureSummaryStore &Store = ProcedureSummaryStore::process();
  Store.clear();
  EXPECT_EQ(Store.load(::testing::TempDir() +
                       "gillian_no_such_summary_file.txt"),
            -1);

  // A saved file with garbage spliced between entries: the loader skips
  // malformed records, resyncs on the next SUMMARY header, and loads
  // exactly the well-formed entries.
  const std::string Path = tempPath("gillian_summaries_garbage.txt");
  Solver Slv;
  runOnce(Slv);
  long Saved = Store.save(Path);
  ASSERT_GE(Saved, 1);
  {
    std::ofstream Out(Path, std::ios::app);
    Out << "not a summary record\n";
    Out << "SUMMARY\tbroken\tnothex\t0\t2\n"; // bad fingerprint
    Out << "N\tR\t1\t0\t0\t-\t0\t)(bad expr\n";
  }
  Store.clear();
  EXPECT_EQ(Store.load(Path), Saved);
  EXPECT_EQ(static_cast<size_t>(Saved), Store.size());

  // A file of pure garbage loads nothing — and is not an I/O error.
  const std::string Junk = tempPath("gillian_summaries_junk.txt");
  {
    std::ofstream Out(Junk, std::ios::trunc);
    Out << "SAT\t(0 <= #x)\n"; // a solver-cache line, not a summary
    Out << "garbage\n";
  }
  Store.clear();
  EXPECT_EQ(Store.load(Junk), 0);
  EXPECT_EQ(Store.size(), 0u);
}

TEST(SummaryPersistTest, FailedSaveKeepsTargetAndRemovesTemp) {
  // Rename onto a non-empty directory fails after a fully-successful temp
  // write: save() must report -1, clean up the temp, and leave the target
  // directory untouched.
  const std::string Dir = tempPath("gillian_summaries_dir.d");
  ::mkdir(Dir.c_str(), 0755);
  const std::string Inner = Dir + "/occupant";
  {
    std::ofstream Out(Inner, std::ios::trunc);
    Out << "x\n";
  }
  ProcedureSummaryStore &Store = ProcedureSummaryStore::process();
  Store.clear();
  Solver Slv;
  runOnce(Slv);
  ASSERT_GT(Store.size(), 0u);
  EXPECT_EQ(Store.save(Dir), -1);

  struct stat StBuf;
  EXPECT_NE(::stat(tempSibling(Dir).c_str(), &StBuf), 0)
      << "temp file not cleaned up after failed rename";
  ASSERT_EQ(::stat(Dir.c_str(), &StBuf), 0);
  EXPECT_TRUE(S_ISDIR(StBuf.st_mode));
  EXPECT_EQ(::stat(Inner.c_str(), &StBuf), 0);

  // An unopenable temp location (missing parent directory) also fails
  // cleanly with -1.
  EXPECT_EQ(Store.save(::testing::TempDir() +
                       "gillian_no_such_dir/summaries.txt"),
            -1);
}
