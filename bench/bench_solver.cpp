//===- bench/bench_solver.cpp ---------------------------------------------===//
//
// Micro-benchmarks of the first-order solver layers (google-benchmark):
// simplification, syntactic SAT, Z3 round-trips, Z3 solver set-up and the
// result cache. These support the timing claims of Tables 1/2 — solver
// work dominates symbolic execution time.
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"
#include "gil/parser.h"
#include "solver/simplifier.h"
#include "solver/solver.h"
#include "solver/z3_backend.h"

#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

using namespace gillian;

namespace {

Expr parse(const char *S) {
  Result<Expr> R = parseGilExpr(S);
  if (!R)
    std::abort();
  return *R;
}

PathCondition typicalPc() {
  PathCondition PC;
  PC.add(parse("typeof(#x) == ^Int"));
  PC.add(parse("typeof(#y) == ^Int"));
  PC.add(parse("0 <= #x"));
  PC.add(parse("#x < 32"));
  PC.add(parse("#y == #x + 1"));
  PC.add(parse("!(#y == 7)"));
  return PC;
}

/// Single-conjunct queries `0 < #z_i` over \p N fresh variables, with
/// their types: no two share a conjunct.
std::vector<std::pair<PathCondition, TypeEnv>> freshVariableQueries(int N) {
  std::vector<std::pair<PathCondition, TypeEnv>> Queries;
  for (int I = 0; I < N; ++I) {
    PathCondition PC;
    PC.add(parse(("0 < #z" + std::to_string(I)).c_str()));
    TypeEnv Types;
    if (!inferTypes(PC.conjuncts(), Types))
      std::abort();
    Queries.emplace_back(std::move(PC), std::move(Types));
  }
  return Queries;
}

} // namespace

static void BM_SimplifyOffsetChain(benchmark::State &State) {
  TypeEnv Env;
  Env.assign(InternedString::get("#p"), GilType::Int);
  Expr E = parse("((((#p + 8) + 8) + 16) + 8) == 48");
  for (auto _ : State)
    benchmark::DoNotOptimize(simplify(E, &Env));
}
BENCHMARK(BM_SimplifyOffsetChain);

static void BM_SimplifyListDecomposition(benchmark::State &State) {
  Expr E = parse("[$a, #x + 4] == [$a, 12]");
  for (auto _ : State)
    benchmark::DoNotOptimize(simplify(E));
}
BENCHMARK(BM_SimplifyListDecomposition);

static void BM_SyntacticSatTypical(benchmark::State &State) {
  PathCondition PC = typicalPc();
  for (auto _ : State)
    benchmark::DoNotOptimize(checkSatSyntactic(PC));
}
BENCHMARK(BM_SyntacticSatTypical);

static void BM_SyntacticUnsatConflict(benchmark::State &State) {
  PathCondition PC = typicalPc();
  PC.add(parse("#x == 40"));
  for (auto _ : State)
    benchmark::DoNotOptimize(checkSatSyntactic(PC));
}
BENCHMARK(BM_SyntacticUnsatConflict);

static void BM_SolverCachedQuery(benchmark::State &State) {
  Solver S;
  PathCondition PC = typicalPc();
  S.checkSat(PC); // warm the cache
  for (auto _ : State)
    benchmark::DoNotOptimize(S.checkSat(PC));
}
BENCHMARK(BM_SolverCachedQuery);

static void BM_SolverPermutedOrderCacheHit(benchmark::State &State) {
  // Branch interleavings produce the same conjunct set in different
  // orders; the canonical form makes every permutation a cache hit.
  Solver S;
  PathCondition PC = typicalPc();
  S.checkSat(PC); // warm the cache with one order
  PathCondition Reversed;
  Reversed.add(parse("!(#y == 7)"));
  Reversed.add(parse("#y == #x + 1"));
  Reversed.add(parse("#x < 32"));
  Reversed.add(parse("0 <= #x"));
  Reversed.add(parse("typeof(#y) == ^Int"));
  Reversed.add(parse("typeof(#x) == ^Int"));
  for (auto _ : State)
    benchmark::DoNotOptimize(S.checkSat(Reversed));
}
BENCHMARK(BM_SolverPermutedOrderCacheHit);

static void BM_SolverSlicedSupersetQuery(benchmark::State &State) {
  // The path-growth shape: a superset query with one fresh-variable slice
  // reuses the cached verdicts of the old slices and only decides the new
  // one. The added conjunct varies per iteration so the full key is never
  // a whole-query cache hit and the slicing path stays on.
  Solver S;
  PathCondition PC;
  for (int I = 0; I < 8; ++I) {
    std::string V = "#s" + std::to_string(I);
    PC.add(parse(("typeof(" + V + ") == ^Int").c_str()));
    PC.add(parse(("0 <= " + V).c_str()));
  }
  S.checkSat(PC); // warm the slice cache
  Expr Fresh = Expr::lvar("#fresh");
  Expr IntTy = Expr::hasType(Fresh, GilType::Int);
  int64_t K = 0;
  for (auto _ : State) {
    PathCondition Super = PC;
    Super.add(IntTy);
    Super.add(Expr::eq(Fresh, Expr::intE(++K)));
    benchmark::DoNotOptimize(S.checkSat(Super));
  }
}
BENCHMARK(BM_SolverSlicedSupersetQuery);

static void BM_SolverUncachedSyntactic(benchmark::State &State) {
  SolverOptions Opts;
  Opts.UseCache = false;
  Opts.UseZ3 = false;
  Solver S(Opts);
  PathCondition PC = typicalPc();
  PC.add(parse("#x == 40")); // syntactic UNSAT
  for (auto _ : State)
    benchmark::DoNotOptimize(S.checkSat(PC));
}
BENCHMARK(BM_SolverUncachedSyntactic);

static void BM_Z3RoundTrip(benchmark::State &State) {
  // A query through the Solver facade down to Z3: type inference, then a
  // push, encode, check and pop on the thread's live solver.
  SolverOptions Opts;
  Opts.UseCache = false;
  Opts.UseSyntactic = false; // force the SMT layer
  Solver S(Opts);
  PathCondition PC;
  PC.add(parse("typeof(#x) == ^Int"));
  PC.add(parse("typeof(#y) == ^Int"));
  PC.add(parse("#x + #y == 10"));
  PC.add(parse("#x - #y == 4"));
  for (auto _ : State)
    benchmark::DoNotOptimize(S.checkSat(PC));
}
BENCHMARK(BM_Z3RoundTrip);

static void BM_SolverSharedCacheHitThreaded(benchmark::State &State) {
  // N threads hammer ONE solver backed by the sharded concurrent cache
  // with the same repeated query — the parallel scheduler's hot shape
  // (branch-feasibility checks repeat across sibling paths). Scaling here
  // is pure concurrent-read throughput of the cache shards.
  static SolverCache Shared;
  static Solver S(SolverOptions(), Shared);
  PathCondition PC = typicalPc();
  S.checkSat(PC); // warm (first thread pays, the rest hit)
  for (auto _ : State)
    benchmark::DoNotOptimize(S.checkSat(PC));
}
BENCHMARK(BM_SolverSharedCacheHitThreaded)->ThreadRange(1, 8)->UseRealTime();

static void BM_SolverSharedCacheInsertThreaded(benchmark::State &State) {
  // Every iteration of every thread issues a distinct superset query:
  // concurrent slice-cache lookups plus insertions, exercising shard
  // mutex contention on the write path.
  static SolverCache Shared;
  static Solver S(SolverOptions(), Shared);
  PathCondition PC = typicalPc();
  Expr Fresh = Expr::lvar("#t");
  Expr IntTy = Expr::hasType(Fresh, GilType::Int);
  int64_t K = static_cast<int64_t>(State.thread_index()) * 1'000'000'000;
  for (auto _ : State) {
    PathCondition Super = PC;
    Super.add(IntTy);
    Super.add(Expr::eq(Fresh, Expr::intE(++K)));
    benchmark::DoNotOptimize(S.checkSat(Super));
  }
}
BENCHMARK(BM_SolverSharedCacheInsertThreaded)
    ->ThreadRange(1, 8)
    ->UseRealTime();

static void BM_LiveThreadSolverCheck(benchmark::State &State) {
  // Single-conjunct queries over fresh variables, straight into Z3 on the
  // thread's live solver: each check pushes, asserts one conjunct, checks
  // and pops. This is the shape of a vanish-edge slice.
  const auto Queries = freshVariableQueries(256);
  resetZ3Solvers();
  size_t Q = 0;
  for (auto _ : State) {
    const auto &[PC, Types] = Queries[Q++ % Queries.size()];
    benchmark::DoNotOptimize(checkSatZ3(PC, Types, /*WantModel=*/false));
  }
  State.SetLabel("the thread's live solver");
}
BENCHMARK(BM_LiveThreadSolverCheck);

static void BM_NewThreadSolverCheck(benchmark::State &State) {
  // The same queries as BM_LiveThreadSolverCheck, each right after the
  // thread's solver was dropped, so each builds a new one: what a cold
  // start (or a rebuild after an unknown) pays on top of a live check.
  const auto Queries = freshVariableQueries(256);
  size_t Q = 0;
  for (auto _ : State) {
    const auto &[PC, Types] = Queries[Q++ % Queries.size()];
    resetZ3Solvers();
    benchmark::DoNotOptimize(checkSatZ3(PC, Types, /*WantModel=*/false));
  }
  State.SetLabel("a new solver per check");
}
BENCHMARK(BM_NewThreadSolverCheck);

static void BM_DiseqChain(benchmark::State &State) {
  // The bst/pqueue shape (EXPERIMENTS.md): Num-typed variables in a
  // bounded real window, pairwise distinct (the argument is the chain
  // length). The syntactic witness proposer keeps values distinct across
  // disequality edges inside the window, so the default stack decides
  // every query in-process with a verified model and never reaches Z3 —
  // the z3_calls_per_iter counter proves it.
  const int Len = static_cast<int>(State.range(0));
  SolverOptions Opts;
  Opts.UseCache = false; // every iteration must reach the decision layers
  Solver S(Opts);
  // 64 structurally identical queries over disjoint variable sets, cycled:
  // the regime exploration produces (each branch point asks a new
  // condition once).
  std::vector<PathCondition> Queries;
  for (int G = 0; G < 64; ++G) {
    PathCondition PC;
    for (int I = 0; I < Len; ++I) {
      std::string V = "#k" + std::to_string(G) + "_" + std::to_string(I);
      PC.add(parse(("0.5 <= " + V).c_str()));
      PC.add(parse((V + " < 100.0").c_str()));
      for (int J = 0; J < I; ++J)
        PC.add(parse(("!(" + V + " == #k" + std::to_string(G) + "_" +
                      std::to_string(J) + ")")
                         .c_str()));
    }
    Queries.push_back(std::move(PC));
  }
  size_t Q = 0;
  for (auto _ : State)
    benchmark::DoNotOptimize(S.checkSat(Queries[Q++ % Queries.size()]));
  State.counters["z3_calls_per_iter"] =
      benchmark::Counter(static_cast<double>(S.stats().Z3Calls),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_DiseqChain)->Arg(6);

static void BM_VerifiedModelExtraction(benchmark::State &State) {
  Solver S;
  PathCondition PC = typicalPc();
  for (auto _ : State)
    benchmark::DoNotOptimize(S.verifiedModel(PC));
}
BENCHMARK(BM_VerifiedModelExtraction);

static void BM_PathConditionGrowth(benchmark::State &State) {
  // Cost of building the long conjunct chains loops produce.
  std::vector<Expr> Conjs;
  for (int I = 0; I < 64; ++I)
    Conjs.push_back(parse(("#i" + std::to_string(I) + " < " +
                           std::to_string(I + 100))
                              .c_str()));
  for (auto _ : State) {
    PathCondition PC;
    for (const Expr &C : Conjs)
      PC.add(C);
    benchmark::DoNotOptimize(PC.size());
  }
}
BENCHMARK(BM_PathConditionGrowth);

int main(int argc, char **argv) {
  const gillian::bench::BenchArgs Args =
      gillian::bench::parseBenchArgs(argc, argv);
  gillian::bench::setupObs(Args);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  gillian::bench::finishObs(Args);
  return 0;
}
