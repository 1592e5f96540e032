//===- tests/targets/native_differential_test.cpp -------------------------===//
//
// Verdict-identity of the native theory layer and the async query service
// on the evaluation workloads: every MJS (Buckets) and MC (Collections)
// example suite, plus solver-shape-diverse While programs, explored with
// the native layer ON and OFF, at workers ∈ {1, 4}, yields the identical
// multiset of (outcome kind, outcome value, final path condition)
// signatures — and the same verified counter-models. Both are pure
// performance transforms: the native layer answers Unknown (and delegates
// to Z3) on anything it cannot decide with a proof or a verified model,
// and the async service only moves where the same solve closure runs.
//
// A randomized differential rides along: equality/disequality walks over a
// small variable universe, native verdict vs the cold Z3 backend — the
// native layer must never contradict it.
//
//===----------------------------------------------------------------------===//

#include "targets/buckets_mjs.h"
#include "targets/collections_mc.h"

#include "engine/test_runner.h"
#include "mc/compiler.h"
#include "mc/memory.h"
#include "mjs/compiler.h"
#include "mjs/memory.h"
#include "solver/native/native_session.h"
#include "solver/z3_backend.h"
#include "targets/suite_runner.h"
#include "while_lang/compiler.h"
#include "while_lang/memory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace gillian;
using namespace gillian::targets;

namespace {

struct NativeRunConfig {
  uint32_t Workers = 1;
  bool Native = false;
  uint32_t Async = 0;
};

struct RunTraces {
  std::vector<std::string> Sigs; ///< sorted path signatures
  uint64_t NativeQueries = 0;
  uint64_t NativeDecided = 0;
};

/// Runs every `test_*` procedure of \p P and renders each finished path
/// as "test|kind|value|path-condition|model?" (same signature scheme as
/// the incremental differential, so failures read identically).
template <typename M>
RunTraces suiteTraces(const Prog &P, const NativeRunConfig &C) {
  EngineOptions Opts;
  Opts.Scheduler.Workers = C.Workers;
  Opts.Solver.UseNative = C.Native;
  Opts.Solver.AsyncSolvers = C.Async;
  Solver Slv(Opts.Solver); // private cache: runs are independent
  ExecStats Stats;
  using St = SymbolicState<M>;
  RunTraces Out;
  for (const std::string &T : testProcs(P)) {
    St Init(M(), &Slv, &Opts);
    Interpreter<St> Interp(P, Opts, Stats);
    Result<std::vector<TraceResult<St>>> Traces = runExploration(
        Interp, InternedString::get(T), Expr::list({}), std::move(Init));
    EXPECT_TRUE(Traces.ok()) << T << ": "
                             << (Traces.ok() ? "" : Traces.error());
    if (!Traces.ok())
      continue;
    int ModelChecks = 0;
    for (TraceResult<St> &R : *Traces) {
      std::string Sig = T + "|" + std::string(outcomeKindName(R.Kind)) +
                        "|" + R.Val.toString() + "|" +
                        R.Final.pathCondition().toString();
      const PathCondition &PC = R.Final.pathCondition();
      if (PC.size() > 0 && ModelChecks < 3) {
        ++ModelChecks;
        Sig += Slv.verifiedModel(PC).has_value() ? "|model" : "|nomodel";
      }
      Out.Sigs.push_back(std::move(Sig));
    }
  }
  std::sort(Out.Sigs.begin(), Out.Sigs.end());
  Out.NativeQueries = Slv.stats().NativeQueries;
  Out.NativeDecided =
      Slv.stats().NativeSat.load() + Slv.stats().NativeUnsat.load();
  return Out;
}

template <typename M>
void expectNativeTransparent(const Prog &P, std::string_view Name) {
  for (uint32_t Workers : {1u, 4u}) {
    NativeRunConfig C;
    C.Workers = Workers;
    C.Native = false;
    RunTraces Off = suiteTraces<M>(P, C);
    C.Native = true;
    RunTraces On = suiteTraces<M>(P, C);
    EXPECT_FALSE(Off.Sigs.empty()) << Name;
    EXPECT_EQ(Off.Sigs, On.Sigs)
        << Name << " at workers=" << Workers
        << ": the native layer changed an outcome";
    EXPECT_EQ(Off.NativeQueries, 0u) << Name;
  }
  // Async service transparency rides on the worker dimension: same
  // outcomes when undecided queries route through the service.
  NativeRunConfig C;
  C.Workers = 4;
  C.Native = true;
  RunTraces Sync = suiteTraces<M>(P, C);
  C.Async = 2;
  RunTraces Async = suiteTraces<M>(P, C);
  EXPECT_EQ(Sync.Sigs, Async.Sigs)
      << Name << ": the async solver service changed an outcome";
}

class BucketsNativeTest : public ::testing::TestWithParam<BucketsSuite> {};
class CollectionsNativeTest
    : public ::testing::TestWithParam<CollectionsSuite> {};

/// While programs picked for solver-shape diversity (as in the
/// incremental differential), plus a disequality-chain shape that the
/// native layer decides end-to-end.
const char *const WhileSources[] = {
    "function test_branch() {\n"
    "  x := fresh_int();\n"
    "  assume (0 <= x && x < 8);\n"
    "  y := 0;\n"
    "  if (x < 4) { y := x + 1; }\n"
    "  if (3 < x) { y := x - 1; }\n"
    "  assert (0 <= y && y < 7);\n"
    "  return y;\n}\n",
    "function test_diseq_chain() {\n"
    "  a := fresh_num(); b := fresh_num(); c := fresh_num();\n"
    "  assume (0.5 <= a && a < 100.0);\n"
    "  assume (0.5 <= b && b < 100.0);\n"
    "  assume (0.5 <= c && c < 100.0);\n"
    "  assume (!(a == b) && !(b == c) && !(a == c));\n"
    "  d := 0;\n"
    "  if (a < b) { d := d + 1; }\n"
    "  if (b < c) { d := d + 1; }\n"
    "  assert (d <= 2);\n"
    "  return d;\n}\n",
    "function test_violation() {\n"
    "  x := fresh_int();\n"
    "  assume (0 <= x && x <= 100);\n"
    "  assert (x < 100);\n"
    "  return x;\n}\n",
};

} // namespace

TEST_P(BucketsNativeTest, VerdictsMatchWithNativeOnAndOff) {
  const BucketsSuite &S = GetParam();
  std::string Src =
      std::string(bucketsLibrary()) + "\n" + std::string(S.Source);
  Result<Prog> P = mjs::compileMjsSource(Src);
  ASSERT_TRUE(P.ok()) << P.error();
  expectNativeTransparent<mjs::MjsSMem>(*P, S.Name);
}

INSTANTIATE_TEST_SUITE_P(
    AllStructures, BucketsNativeTest, ::testing::ValuesIn(bucketsSuites()),
    [](const ::testing::TestParamInfo<BucketsSuite> &Info) {
      return std::string(Info.param.Name);
    });

TEST_P(CollectionsNativeTest, VerdictsMatchWithNativeOnAndOff) {
  const CollectionsSuite &S = GetParam();
  std::string Src = std::string(collectionsLibrary()) + "\n" +
                    std::string(S.Source);
  Result<Prog> P = mc::compileMcSource(Src);
  ASSERT_TRUE(P.ok()) << P.error();
  expectNativeTransparent<mc::McSMem>(*P, S.Name);
}

INSTANTIATE_TEST_SUITE_P(
    AllStructures, CollectionsNativeTest,
    ::testing::ValuesIn(collectionsSuites()),
    [](const ::testing::TestParamInfo<CollectionsSuite> &Info) {
      return std::string(Info.param.Name);
    });

TEST(WhileNativeTest, VerdictsMatchWithNativeOnAndOff) {
  for (const char *Src : WhileSources) {
    Result<Prog> P = whilelang::compileWhileSource(Src);
    ASSERT_TRUE(P.ok()) << P.error();
    expectNativeTransparent<whilelang::WhileSMem>(*P, "while");
  }
}

TEST(WhileNativeTest, NativeLayerActuallyEngages) {
  // Guard against the differential passing vacuously: with the layer on,
  // queries must reach it, and on the disequality-chain program it must
  // *decide* some of them (not just fall through).
  Result<Prog> P = whilelang::compileWhileSource(WhileSources[1]);
  ASSERT_TRUE(P.ok()) << P.error();
  NativeRunConfig C;
  C.Native = true;
  RunTraces On = suiteTraces<whilelang::WhileSMem>(*P, C);
  EXPECT_GT(On.NativeQueries, 0u);
  EXPECT_GT(On.NativeDecided, 0u);
}

//===----------------------------------------------------------------------===//
// Randomized equality/disequality walks vs the cold Z3 backend
//===----------------------------------------------------------------------===//

namespace {

/// Deterministic xorshift64* — fixed seed, so a failure reproduces.
struct Rng {
  uint64_t S;
  uint64_t next() {
    S ^= S >> 12;
    S ^= S << 25;
    S ^= S >> 27;
    return S * 0x2545F4914F6CDD1Dull;
  }
  uint64_t below(uint64_t N) { return next() % N; }
};

PathCondition randomEqDiseqWalk(Rng &R, int Vars, int Conjuncts) {
  std::vector<Expr> Xs;
  for (int I = 0; I < Vars; ++I)
    Xs.push_back(Expr::lvar("#v" + std::to_string(I)));
  PathCondition PC;
  for (int I = 0; I < Conjuncts; ++I) {
    Expr A = Xs[R.below(Xs.size())];
    Expr B = R.below(3) == 0 ? Expr::intE(static_cast<int64_t>(R.below(3)))
                             : Xs[R.below(Xs.size())];
    Expr Atom = Expr::eq(A, B);
    PC.add(R.below(2) == 0 ? Atom : Expr::notE(Atom));
  }
  return PC;
}

} // namespace

TEST(NativeFuzzTest, NeverContradictsZ3OnEqDiseqWalks) {
  if (!z3Available())
    GTEST_SKIP() << "built without Z3";
  Rng R{0x9E3779B97F4A7C15ull};
  native::NativeSessionPool &Pool = native::NativeSessionPool::forThread();
  Pool.reset();
  SolverStats St;
  int Decided = 0;
  for (int Iter = 0; Iter < 200; ++Iter) {
    PathCondition PC = randomEqDiseqWalk(R, /*Vars=*/4, /*Conjuncts=*/6);
    if (PC.isTriviallyFalse() || PC.empty())
      continue;
    TypeEnv Types;
    if (!inferTypes(PC.conjuncts(), Types))
      continue; // both layers would answer Unsat upstream of this test
    SatResult Native = Pool.checkSat(PC, Types, St);
    SatResult Z3 = checkSatZ3(PC, Types, /*WantModel=*/false).Verdict;
    if (Native == SatResult::Sat)
      EXPECT_NE(Z3, SatResult::Unsat) << PC.toString();
    if (Native == SatResult::Unsat)
      EXPECT_NE(Z3, SatResult::Sat) << PC.toString();
    if (Native != SatResult::Unknown)
      ++Decided;
  }
  // The walks are pure equality logic: the native layer must decide the
  // overwhelming majority, or it is not pulling its weight.
  EXPECT_GT(Decided, 150);
}
