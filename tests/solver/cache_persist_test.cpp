//===- tests/solver/cache_persist_test.cpp --------------------------------===//
//
// Persistence of the canonical solver result cache: saveCache/loadCache
// round-trip decided verdicts through a text file, re-canonicalising on
// load so the keys match what the current solver would build; Unknown is
// never persisted; a loaded cache answers queries without touching the
// deeper layers.
//
//===----------------------------------------------------------------------===//

#include "gil/parser.h"
#include "solver/solver.h"
#include "solver/solver_cache.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include <sys/stat.h>
#include <unistd.h>

using namespace gillian;

namespace {

Expr parse(const char *S) {
  Result<Expr> R = parseGilExpr(S);
  EXPECT_TRUE(R.ok()) << S << ": " << (R.ok() ? "" : R.error());
  return *R;
}

PathCondition satPc() {
  PathCondition PC;
  PC.add(parse("typeof(#x) == ^Int"));
  PC.add(parse("0 <= #x"));
  PC.add(parse("#x < 32"));
  return PC;
}

PathCondition unsatPc() {
  PathCondition PC;
  PC.add(parse("typeof(#y) == ^Int"));
  PC.add(parse("#y < 0"));
  PC.add(parse("0 < #y"));
  return PC;
}

std::string tempPath(const char *Name) {
  return ::testing::TempDir() + Name;
}

} // namespace

TEST(CachePersistTest, SaveLoadRoundTripServesFromCache) {
  const std::string Path = tempPath("gillian_cache_roundtrip.txt");
  {
    Solver S;
    EXPECT_EQ(S.checkSat(satPc()), SatResult::Sat);
    EXPECT_EQ(S.checkSat(unsatPc()), SatResult::Unsat);
    long Saved = S.saveCache(Path);
    EXPECT_GE(Saved, 2);
  }

  // A solver whose only decision procedure is the cache: syntactic, Z3
  // and slicing are all off, so a decided answer proves the loaded entry
  // matched the re-canonicalised key.
  SolverOptions CacheOnly;
  CacheOnly.UseSyntactic = false;
  CacheOnly.UseZ3 = false;
  CacheOnly.UseSlicing = false;
  SolverCache Fresh;
  Solver Loaded(CacheOnly, Fresh);
  long N = Loaded.loadCache(Path);
  EXPECT_GE(N, 2);
  EXPECT_EQ(Fresh.size(), static_cast<size_t>(N));
  EXPECT_EQ(Loaded.checkSat(satPc()), SatResult::Sat);
  EXPECT_EQ(Loaded.checkSat(unsatPc()), SatResult::Unsat);
  EXPECT_EQ(Loaded.stats().Z3Calls.load(), 0u);
  EXPECT_GE(Loaded.stats().CacheHits.load(), 2u);
}

TEST(CachePersistTest, Int64MinKeysSurviveSaveAndLoad) {
  // INT64_MIN renders as -9223372036854775808; a loader that read it back
  // as INT64_MIN + 1 would turn this Unsat entry into a verdict on a
  // feasible condition and prune its path on a warm start.
  constexpr int64_t Min = std::numeric_limits<int64_t>::min();
  Expr X = Expr::lvar("#x");
  PathCondition Clash;
  Clash.add(parse("typeof(#x) == ^Int"));
  Clash.add(Expr::eq(X, Expr::intE(Min)));
  Clash.add(Expr::eq(X, Expr::intE(Min + 1)));
  PathCondition Feasible;
  Feasible.add(parse("typeof(#x) == ^Int"));
  Feasible.add(parse("#x == -9223372036854775807"));

  const std::string Path = tempPath("gillian_cache_int64_min.txt");
  {
    SolverCache Cold;
    EXPECT_EQ(Solver(SolverOptions(), Cold).checkSat(Feasible),
              SatResult::Sat);
  }
  {
    SolverCache Cache;
    Solver S(SolverOptions(), Cache);
    EXPECT_EQ(S.checkSat(Clash), SatResult::Unsat);
    ASSERT_GE(S.saveCache(Path), 1);
  }
  SolverCache Fresh;
  Solver Warm(SolverOptions(), Fresh);
  ASSERT_GE(Warm.loadCache(Path), 1);
  EXPECT_EQ(Warm.checkSat(Feasible), SatResult::Sat);
  std::remove(Path.c_str());
}

TEST(CachePersistTest, FileHoldsOnlyDecidedVerdictLines) {
  const std::string Path = tempPath("gillian_cache_verdicts.txt");
  Solver S;
  S.checkSat(satPc());
  S.checkSat(unsatPc());
  ASSERT_GE(S.saveCache(Path), 2);
  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::string Line;
  size_t Lines = 0;
  while (std::getline(In, Line)) {
    ++Lines;
    bool Decided = Line.rfind("SAT\t", 0) == 0 ||
                   Line.rfind("UNSAT\t", 0) == 0;
    EXPECT_TRUE(Decided) << "line " << Lines << ": " << Line;
    EXPECT_EQ(Line.find("UNKNOWN"), std::string::npos);
  }
  EXPECT_GE(Lines, 2u);
}

TEST(CachePersistTest, UndecidedQueriesAreNeverPersisted) {
  // With every decision layer off the solver can only answer Unknown —
  // and Unknown must not reach the persisted file.
  const std::string Path = tempPath("gillian_cache_unknown.txt");
  SolverOptions NoLayers;
  NoLayers.UseSyntactic = false;
  NoLayers.UseZ3 = false;
  NoLayers.UseSlicing = false;
  Solver S(NoLayers);
  EXPECT_EQ(S.checkSat(satPc()), SatResult::Unknown);
  EXPECT_EQ(S.saveCache(Path), 0);
}

/// The sibling temp file saveCache stages its writes through.
std::string tempSibling(const std::string &Path) {
  return Path + "." + std::to_string(::getpid()) + ".tmp";
}

TEST(CachePersistTest, SaveReplacesPartiallyWrittenFileAtomically) {
  // Simulate the crash artefact of a non-atomic saver: the destination
  // holds a truncated cache whose last line is half a condition. A fresh
  // save must fully replace it (not append, not merge), and must leave no
  // staging file behind.
  const std::string Path = tempPath("gillian_cache_atomic.txt");
  {
    std::ofstream Out(Path, std::ios::trunc);
    Out << "SAT\t(typeof(#old) == ^Int) && (0 <"; // cut mid-write
  }
  Solver S;
  EXPECT_EQ(S.checkSat(satPc()), SatResult::Sat);
  EXPECT_EQ(S.checkSat(unsatPc()), SatResult::Unsat);
  long Saved = S.saveCache(Path);
  EXPECT_GE(Saved, 2);

  struct stat St;
  EXPECT_NE(::stat(tempSibling(Path).c_str(), &St), 0)
      << "staging temp file left behind";

  // Every line of the replaced file is a decided verdict; the truncated
  // remnant is gone, and a load round-trips the full save.
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line))
    EXPECT_EQ(Line.find("#old"), std::string::npos) << Line;
  SolverCache Fresh;
  Solver Loaded(SolverOptions(), Fresh);
  EXPECT_EQ(Loaded.loadCache(Path), Saved);
}

TEST(CachePersistTest, FailedSaveKeepsTargetAndRemovesTemp) {
  // Rename onto an existing non-empty directory fails, exercising the
  // failure path after a fully-successful temp write: saveCache must
  // report -1, clean up its temp, and leave the target untouched.
  const std::string Dir = tempPath("gillian_cache_dir.d");
  ::mkdir(Dir.c_str(), 0755);
  const std::string Inner = Dir + "/occupant";
  {
    std::ofstream Out(Inner, std::ios::trunc);
    Out << "x\n";
  }
  Solver S;
  EXPECT_EQ(S.checkSat(satPc()), SatResult::Sat);
  EXPECT_EQ(S.saveCache(Dir), -1);

  struct stat St;
  EXPECT_NE(::stat(tempSibling(Dir).c_str(), &St), 0)
      << "temp file not cleaned up after failed rename";
  ASSERT_EQ(::stat(Dir.c_str(), &St), 0);
  EXPECT_TRUE(S_ISDIR(St.st_mode));
  EXPECT_EQ(::stat(Inner.c_str(), &St), 0);

  // An unopenable temp location (missing parent directory) also fails
  // cleanly with -1.
  EXPECT_EQ(S.saveCache(::testing::TempDir() +
                        "gillian_no_such_dir/cache.txt"),
            -1);
}

TEST(CachePersistTest, LoadSkipsGarbageAndMissingFilesFail) {
  Solver S;
  EXPECT_EQ(S.loadCache(::testing::TempDir() +
                        "gillian_no_such_cache_file.txt"),
            -1);

  const std::string Path = tempPath("gillian_cache_garbage.txt");
  {
    std::ofstream Out(Path, std::ios::trunc);
    Out << "SAT\t(0 <= #z) && (typeof(#z) == ^Int)\n"; // good
    Out << "MAYBE\t(0 <= #w)\n";                       // bad verdict
    Out << "no tab separator on this line\n";          // bad shape
    Out << "UNSAT\t)(not an expression\n";             // bad syntax
  }
  SolverCache Fresh;
  Solver Loaded(SolverOptions(), Fresh);
  EXPECT_EQ(Loaded.loadCache(Path), 1);
  EXPECT_EQ(Fresh.size(), 1u);
}
