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
///    pop/push/check on a live one tens of microseconds). Two events
///    build a new one: a Z3 exception, after which the scope stack may
///    not match the frames, and an `unknown` from Z3, after which the
///    solver keeps the work of the check that ran out of its resource
///    limit and later checks on it slow down (a standalone z3++ probe of
///    `#x * #x == #y * #y + 1 ∧ 5 < #x` over Int with the same limit, on
///    a 4-core container: 1.1–1.3 s for the first check, 11.2–12.5 s for
///    a second one on the same solver, 0.25–0.33 s on a new one);
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
/// handles of a thread's session belong to that thread's shared context).
/// IncrementalSessionPool holds one session per thread, keyed off the
/// exploration scheduler's threads via thread-local storage. Cross-thread
/// invalidation (Solver::resetCache, bench cold starts) bumps a
/// generation counter; each thread lazily drops its session on next use,
/// because Z3 handles must be destructed by the thread that owns them.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_SOLVER_INCREMENTAL_SESSION_H
#define GILLIAN_SOLVER_INCREMENTAL_SESSION_H

#include "solver/path_condition.h"
#include "solver/syntactic.h"
#include "solver/type_infer.h"

#include <memory>

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
  /// inspection.
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

/// The calling thread's incremental session, built on first use and
/// dropped by reset() or invalidateAll(). Obtain via forThread(); never
/// share an instance across threads.
class IncrementalSessionPool {
public:
  /// The calling thread's holder (created on first use, destroyed at
  /// thread exit after the thread's shared Z3 context users).
  static IncrementalSessionPool &forThread();

  /// Invalidates every thread's session: bumps a global generation; each
  /// thread drops its session on next use (Z3 handles must be destructed
  /// by their owning thread, so the drop is lazy).
  static void invalidateAll();

  /// Checks \p PC on the thread's session, building it first if needed.
  SatResult checkSat(const PathCondition &PC, const TypeEnv &Types,
                     double ResetThreshold, SolverStats &Stats);

  /// Live sessions, 0 or 1 (after applying any pending invalidation).
  size_t sessions();

  /// Drops the session immediately (owning thread only), so the next
  /// check builds a new Z3 solver.
  void reset();

private:
  void maybeGenerationReset();

  std::unique_ptr<IncrementalSession> Session;
  uint64_t LocalGen = 0;
};

} // namespace gillian

#endif // GILLIAN_SOLVER_INCREMENTAL_SESSION_H
