//===- solver/incremental_session.h - Scoped Z3 push/pop ------*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Layer 2 of the solver stack: incremental Z3 sessions that amortise
/// encode+assert work across the path-growth query shape. Path conditions
/// grow monotonically along a symbolic path — each branch appends
/// conjuncts to the prefix it forked from — so successive solver queries
/// of one exploration worker usually share a long canonical prefix. A
/// session owns one scoped Z3 solver and tracks the currently-asserted
/// prefix as a stack of *frames* (one push scope per query delta):
///
///  - a query extending the asserted prefix pushes only its delta
///    conjuncts (one new scope) and re-checks;
///  - on divergence the frames that no longer belong to the query are
///    popped, and when the surviving share drops below a threshold the
///    session resets: every frame pops back to the base scope. The Z3
///    solver lives as long as the session (a new one, built by
///    newZ3Solver(), costs 0.1–0.2 ms up to its first check,
///    pop/push/check on a live one tens of microseconds); only a Z3
///    exception, after which the scope stack may not match the frames,
///    builds a new one;
///  - encoding reuse is independent of scope reuse: a per-session
///    Z3EncodingMemo hash-conses GIL→Z3 translation per (expression
///    identity, TypeEnv fingerprint), so re-encoding unchanged conjuncts
///    after a reset is a table lookup.
///
/// Soundness is verdict-identity with the cold path (z3_backend):
///  - every asserted conjunct is a conjunct of the current query, so
///    Unsat remains sound;
///  - each frame records the *type assumptions* (per-variable
///    `optional<GilType>`, nullopt = unconstrained-defaulting) its
///    conjuncts were encoded under; a frame is only reused when the new
///    query's TypeEnv agrees exactly, since sorts — and droppability —
///    depend on them;
///  - frames record whether any of their conjuncts was dropped
///    (unencodable); Sat is downgraded to Unknown whenever a live frame
///    dropped something, per-frame, exactly as the cold path downgrades
///    per-query. Verdicts are never cached here — caching stays in layer 1.
///
/// Sessions are thread-confined (Z3 contexts are not thread-safe, and all
/// handles of a thread's sessions belong to that thread's shared context).
/// IncrementalSessionPool keeps a small pool of sessions per thread —
/// an approximate prefix *trie*: divergent paths claim their own session
/// instead of thrashing one hot prefix — and is keyed off the exploration
/// scheduler's threads via thread-local storage. Cross-thread invalidation
/// (Solver::resetCache, bench cold starts) bumps a generation counter;
/// each pool lazily drops its sessions on next use from its own thread,
/// because Z3 handles must be destructed by the thread that owns them.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_SOLVER_INCREMENTAL_SESSION_H
#define GILLIAN_SOLVER_INCREMENTAL_SESSION_H

#include "solver/path_condition.h"
#include "solver/syntactic.h"
#include "solver/type_infer.h"

#include <memory>
#include <vector>

namespace gillian {

struct SolverStats;

/// One scoped Z3 solver tracking an asserted path-condition prefix as a
/// stack of frames. Thread-confined: construct, query, and destroy on one
/// thread (handles live in that thread's shared Z3 context). Without the
/// Z3 backend every query answers Unknown.
class IncrementalSession {
public:
  IncrementalSession();
  ~IncrementalSession();
  IncrementalSession(const IncrementalSession &) = delete;
  IncrementalSession &operator=(const IncrementalSession &) = delete;

  /// How many of \p PC's conjuncts the longest reusable frame prefix
  /// already asserts under \p Types (0 when nothing is reusable). Pure
  /// inspection — used by the pool to route queries.
  size_t reusableConjuncts(const PathCondition &PC,
                           const TypeEnv &Types) const;

  /// Checks \p PC under \p Types, reusing the asserted prefix: pops
  /// diverging frames, resets entirely when the retained share falls
  /// below \p ResetThreshold (fraction of \p PC's conjuncts), then pushes
  /// the delta as one new frame and re-checks. Counters accumulate into
  /// \p Stats. Verdict-identical to the cold checkSatZ3 path.
  SatResult checkSat(const PathCondition &PC, const TypeEnv &Types,
                     double ResetThreshold, SolverStats &Stats);

  /// Pops every frame back to the base scope, keeping the solver (the
  /// encoding memo survives too — it is keyed on environment
  /// fingerprints, not on solver state).
  void reset();

  size_t depth() const;             ///< live frames (push scopes)
  size_t assertedConjuncts() const; ///< conjuncts covered by live frames
  size_t encodeMemoSize() const;    ///< entries in the encoding memo

private:
  struct Impl;
  std::unique_ptr<Impl> P;
};

/// A small per-thread pool of incremental sessions — an approximate prefix
/// trie: a query is routed to the session sharing the most conjuncts, and
/// a query sharing nothing claims a fresh session (up to MaxSessions)
/// before evicting the least-recently-used one. Obtain via forThread();
/// never share an instance across threads.
class IncrementalSessionPool {
public:
  /// Sessions a thread keeps alive at once. Small: each holds a Z3 solver,
  /// and the exploration scheduler's LIFO pop order means few distinct hot
  /// prefixes exist per worker at a time (typically the current path plus
  /// the independence slices of its queries).
  static constexpr size_t MaxSessions = 4;

  /// The calling thread's pool (created on first use, destroyed at thread
  /// exit after the thread's shared Z3 context users).
  static IncrementalSessionPool &forThread();

  /// Invalidates every thread's sessions: bumps a global generation; each
  /// pool drops its sessions on next use from its own thread (Z3 handles
  /// must be destructed by their owning thread, so the drop is lazy).
  static void invalidateAll();

  /// Routes \p PC to the best-sharing session (see class comment) and
  /// checks it there.
  SatResult checkSat(const PathCondition &PC, const TypeEnv &Types,
                     double ResetThreshold, SolverStats &Stats);

  /// Live sessions (after applying any pending invalidation).
  size_t sessions();

  /// Drops this pool's sessions immediately (owning thread only).
  void reset();

private:
  void maybeGenerationReset();

  std::vector<std::unique_ptr<IncrementalSession>> Pool; ///< LRU→MRU order
  uint64_t LocalGen = 0;
};

} // namespace gillian

#endif // GILLIAN_SOLVER_INCREMENTAL_SESSION_H
