//===- solver/solver.h - Layered first-order solver ------------*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The first-order solver behind the symbolic engine's SAT checks (the
/// "π ∧ π' SAT" side conditions of Def 2.6 and the action rules). It is
/// layered — simplification happens upstream, then the result cache, then
/// independence slicing, then the syntactic core, then Z3 (every check on
/// the calling thread's one Z3 solver, z3_backend.h) — and every layer
/// after simplification can be disabled; without the cache and slicing
/// it reproduces the JaVerT 2.0 baseline configuration ("better
/// simplifications and better caching of results", §4.1). DESIGN.md §4b
/// describes the one Z3 path.
///
/// Caching is built on the *canonical form* of path conditions (sorted,
/// deduplicated conjuncts), so cache keys are insertion-order-insensitive.
/// On a cache miss the query is sliced into variable-connected components;
/// each slice is answered from the cache or the syntactic core on its own,
/// and only undecided slices pay a Z3 round-trip. A superset query whose
/// new conjuncts touch fresh variables — the common shape along a symbolic
/// path — then costs one small slice instead of a full re-solve. Only
/// Sat/Unsat verdicts are cached: Unknown is retriable (a later identical
/// query may be decided once Z3 or a verified syntactic model succeeds).
///
/// Unknown is treated as possibly-satisfiable by the engine (sound for
/// bounded symbolic testing: it keeps paths alive). Bug reports are gated
/// on a *verified* counter-model, so the no-false-positives guarantee of
/// §3 survives solver incompleteness.
///
/// Every query runs the whole pipeline on the thread that asks; there is
/// no solver thread or queue, so the scheduler's workers are the only
/// threads that solve. The Solver is *thread-safe*: its result cache is
/// the sharded concurrent SolverCache, its statistics are relaxed atomics,
/// and the Z3 backend keeps one context per thread (Z3 contexts are not
/// thread-safe). One Solver instance can therefore be shared by every
/// worker of the parallel exploration scheduler — which is required, since
/// symbolic states carry a Solver pointer and migrate between workers when
/// stolen.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_SOLVER_SOLVER_H
#define GILLIAN_SOLVER_SOLVER_H

#include "obs/counters.h"
#include "solver/model.h"
#include "solver/path_condition.h"
#include "solver/solver_cache.h"
#include "solver/syntactic.h"

#include <memory>
#include <optional>
#include <string>

namespace gillian {

struct SolverOptions {
  bool UseCache = true;
  bool UseSyntactic = true;
  bool UseZ3 = true;
  /// Partition queries into variable-disjoint slices answered (and cached)
  /// independently. Sound because slices share no logical variables: the
  /// conjunction is Unsat iff a slice is, and Sat when every slice is.
  bool UseSlicing = true;
  /// Read by nothing: every query is solved on the thread that asks. Kept
  /// only because perfbench/symbench.cpp assigns it; ROADMAP item 2
  /// deletes it.
  uint32_t AsyncSolvers = 0;

  /// The paper's baseline configuration: no result caching, no slicing
  /// (JaVerT 2.0 had its own first-order layer, so the syntactic core
  /// stays on — the improvements §4.1 credits are "better simplifications
  /// and better caching of results").
  static SolverOptions legacyJaVerT2() {
    SolverOptions O;
    O.UseCache = false;
    O.UseSlicing = false;
    return O;
  }
};

/// Per-layer decision counts and wall-times of one Solver. Wall-times are
/// nanoseconds of std::chrono::steady_clock; under the parallel scheduler
/// they accumulate *across* workers, so they measure cumulative solver
/// effort, not elapsed wall-clock.
///
/// SolverStats is an obs::CounterSet: every counter self-registers its
/// JSON key and layer category, so copy / merge / delta / JSON emission
/// are schema walks (solverStatsJson appends only the derived rates).
/// Counters are relaxed atomics so concurrent workers hitting one shared
/// Solver sum exactly (no lost increments); copies and arithmetic
/// (snapshot, +=, -) read and write with relaxed ordering — they are meant
/// for quiescent aggregation points, not for cross-thread synchronisation.
struct SolverStats : obs::CounterSet<SolverStats> {
  obs::Counter Queries{*this, "queries", "solver"};
  /// Empty / trivially-false queries.
  obs::Counter TrivialAnswers{*this, "trivial", "solver"};

  // Cache layer (canonical full-query keys and per-slice keys).
  obs::Counter CacheLookups{*this, "cache_lookups", "cache"};
  obs::Counter CacheHits{*this, "cache_hits", "cache"}; ///< full-query hits
  obs::Counter SliceCacheLookups{*this, "slice_cache_lookups", "cache"};
  obs::Counter SliceCacheHits{*this, "slice_cache_hits", "cache"};

  // Slicing layer.
  /// Queries split into >= 2 slices.
  obs::Counter SlicedQueries{*this, "sliced_queries", "slice"};
  obs::Counter Slices{*this, "slices", "slice"}; ///< slices examined

  // Syntactic core and SMT layers.
  obs::Counter SyntacticUnsat{*this, "syntactic_unsat", "syntactic"};
  /// Verified syntactic models.
  obs::Counter SyntacticSat{*this, "syntactic_sat", "syntactic"};
  obs::Counter Z3Calls{*this, "z3_calls", "z3"};

  // Read 0; kept because `perfbench/run.py --trace 1` reads these keys
  // (and native_ns).
  obs::Counter NativeQueries{*this, "native_queries", "solver"};
  obs::Counter NativeSat{*this, "native_sat", "solver"};
  obs::Counter NativeUnsat{*this, "native_unsat", "solver"};
  obs::Counter RetiredExtends{*this, "inc_extends", "solver"};
  obs::Counter RetiredResets{*this, "inc_resets", "solver"};
  obs::Counter RetiredMemoMisses{*this, "encode_memo_misses", "solver"};

  obs::Counter Sat{*this, "sat", "verdict"};
  obs::Counter Unsat{*this, "unsat", "verdict"};
  obs::Counter Unknown{*this, "unknown", "verdict"};
  obs::Counter ModelsProposed{*this, "models_proposed", "verdict"};
  obs::Counter ModelsVerified{*this, "models_verified", "verdict"};

  // Per-layer wall-time (ns), cumulative across threads; fed by the obs
  // span slots so the per-solver numbers and the global span table agree.
  obs::Counter SyntacticNs{*this, "syntactic_ns", "time"};
  obs::Counter NativeNs{*this, "native_ns", "time"};   ///< always 0
  obs::Counter Z3Ns{*this, "z3_ns", "time"};           ///< SMT round-trips
  obs::Counter TotalNs{*this, "total_ns", "time"};     ///< inside checkSat

  SolverStats() = default;
  SolverStats(const SolverStats &O) { copyFrom(O); }
  SolverStats &operator=(const SolverStats &O) {
    copyFrom(O);
    return *this;
  }

  /// Fraction of cache lookups (full-query and slice) answered from the
  /// cache; 0 when no lookup happened.
  double cacheHitRate() const {
    uint64_t Lookups = CacheLookups + SliceCacheLookups;
    return Lookups ? static_cast<double>(CacheHits + SliceCacheHits) /
                         static_cast<double>(Lookups)
                   : 0.0;
  }

  SolverStats &operator+=(const SolverStats &O) {
    addFrom(O);
    return *this;
  }
  /// Explicit name for summing per-worker snapshots into an aggregate.
  void merge(const SolverStats &O) { *this += O; }
  /// Counter-wise delta (for before/after snapshots around one test).
  SolverStats operator-(const SolverStats &O) const { return deltaSince(O); }
};

/// Renders \p S as a JSON object (single line, no trailing newline) for
/// the bench harness output; includes the derived cache_hit_rate.
std::string solverStatsJson(const SolverStats &S);

/// A stateful (caching) satisfiability oracle for path conditions.
/// Thread-safe; see the file comment.
class Solver {
public:
  /// A solver with its own private result cache (isolated, as every
  /// pre-existing unit test expects).
  explicit Solver(SolverOptions Opts = SolverOptions())
      : Opts(Opts), OwnedCache(std::make_unique<SolverCache>()),
        Cache(OwnedCache.get()) {}

  /// A solver answering from (and feeding) \p Shared — typically
  /// SolverCache::process(), so suite re-runs start warm.
  Solver(SolverOptions Opts, SolverCache &Shared)
      : Opts(Opts), Cache(&Shared) {}

  /// Is \p PC satisfiable? Unknown means "could not decide" and is treated
  /// as possibly-Sat by the engine. Unknown verdicts are never cached.
  SatResult checkSat(const PathCondition &PC);

  /// True unless \p PC is *provably* unsatisfiable — the engine's branch
  /// feasibility test.
  bool maybeSat(const PathCondition &PC) {
    return checkSat(PC) != SatResult::Unsat;
  }

  /// Produces a model of \p PC that has been *verified* by evaluating every
  /// conjunct to true, or nullopt. Verified models are the counter-models
  /// reported to users and the ε environments used by the §3 replay tests.
  std::optional<Model> verifiedModel(const PathCondition &PC);

  const SolverStats &stats() const { return Stats; }
  void resetStats() { Stats = SolverStats(); }
  const SolverOptions &options() const { return Opts; }

  /// Clears every memoised solver layer: the attached result cache
  /// (shared or private) and every thread's Z3 solver — so tests and bench
  /// configurations that reset between timed runs measure a genuinely
  /// cold solver.
  void resetCache();
  SolverCache &cache() { return *Cache; }

  /// Persists the attached result cache to \p Path (one `SAT`/`UNSAT` +
  /// tab + canonical-condition line per entry; Unknown is never cached so
  /// never persisted). Returns the number of entries written, or -1 on
  /// I/O failure.
  long saveCache(const std::string &Path) const;
  /// Seeds the attached result cache from a file written by saveCache().
  /// Entries are re-parsed and re-canonicalised, so a warm start stays
  /// valid across simplifier changes (unparseable lines are skipped).
  /// Returns the number of entries loaded, or -1 if \p Path can't be read.
  long loadCache(const std::string &Path);

private:
  /// checkSat minus the per-query accounting wrapper (journal
  /// attribution, progress counter).
  SatResult checkSatImpl(const PathCondition &PC);
  /// verifiedModel minus the same accounting wrapper.
  std::optional<Model> verifiedModelImpl(const PathCondition &PC);
  /// The syntactic-core + Z3 pipeline on one (sub-)condition; no caching.
  SatResult solveLayers(const PathCondition &PC);
  /// One slice: per-slice cache, then solveLayers; caches Sat/Unsat.
  SatResult solveSlice(const PathCondition &Slice);
  /// Partition into variable-disjoint slices and combine slice verdicts.
  SatResult checkSatSliced(const PathCondition &PC);

  SolverOptions Opts;
  SolverStats Stats;
  /// Backing storage when this solver owns its cache (default ctor).
  std::unique_ptr<SolverCache> OwnedCache;
  /// The canonical-key result cache shared by full queries and slices
  /// (slices are path conditions themselves). Never stores Unknown.
  SolverCache *Cache;
};

} // namespace gillian

#endif // GILLIAN_SOLVER_SOLVER_H
