//===- solver/incremental_session.cpp -------------------------------------===//

#include "solver/incremental_session.h"

#include "solver/solver.h"

#include <atomic>

#ifdef GILLIAN_HAVE_Z3

#include "solver/z3_encoder.h"

#include <optional>
#include <set>
#include <unordered_set>
#include <utility>

using namespace gillian;

namespace {
constexpr auto Relaxed = std::memory_order_relaxed;
}

struct IncrementalSession::Impl {
  /// One query's delta: the conjuncts asserted (or dropped) in this push
  /// scope, the type assumptions they were encoded under, and whether any
  /// of them had no encoding.
  struct Frame {
    std::vector<Expr> Conjuncts;
    std::vector<std::pair<InternedString, std::optional<GilType>>> Assumptions;
    bool Dropped = false;
  };

  z3::solver Solver;
  Z3EncodingMemo Memo;
  std::vector<Frame> Frames;
  /// Union of every live frame's conjuncts (frames are disjoint by
  /// construction: a delta never repeats an asserted conjunct).
  std::unordered_set<Expr> Asserted;

  Impl() : Solver(newZ3Solver()) {}

  /// Is \p F sound to keep for a query with conjunct set \p Query under
  /// \p Types? Every frame conjunct must still be a query conjunct, and
  /// the types its encoding depended on must be unchanged — a variable the
  /// frame saw as unconstrained (encoded with the Int-default sort, or
  /// dropped as untypeable) must still be unconstrained, and a pinned one
  /// pinned to the same type.
  bool frameReusable(const Frame &F, const std::unordered_set<Expr> &Query,
                     const TypeEnv &Types) const {
    for (const Expr &C : F.Conjuncts)
      if (!Query.count(C))
        return false;
    for (const auto &[Var, T] : F.Assumptions)
      if (Types.lookup(Var) != T)
        return false;
    return true;
  }

  /// Longest reusable frame prefix for \p Query, and the number of query
  /// conjuncts it covers.
  std::pair<size_t, size_t>
  reusablePrefix(const std::unordered_set<Expr> &Query,
                 const TypeEnv &Types) const {
    size_t Keep = 0, Retained = 0;
    for (const Frame &F : Frames) {
      if (!frameReusable(F, Query, Types))
        break;
      ++Keep;
      Retained += F.Conjuncts.size();
    }
    return {Keep, Retained};
  }

  /// Pops every frame above the first \p Keep; a reset is popTo(0), back
  /// to the base scope of the same solver (see the header on why).
  void popTo(size_t Keep) {
    if (Keep == Frames.size())
      return;
    Solver.pop(static_cast<unsigned>(Frames.size() - Keep));
    for (size_t F = Keep; F < Frames.size(); ++F)
      for (const Expr &C : Frames[F].Conjuncts)
        Asserted.erase(C);
    Frames.resize(Keep);
  }

  /// Replaces the solver outright: after a Z3 exception, when the scope
  /// stack may no longer match the frames, and after an `unknown`, which
  /// leaves the solver slower for every later check (see the header).
  void rebuild() {
    Solver = newZ3Solver();
    Frames.clear();
    Asserted.clear();
  }
};

IncrementalSession::IncrementalSession() : P(std::make_unique<Impl>()) {}
IncrementalSession::~IncrementalSession() = default;

size_t IncrementalSession::depth() const { return P->Frames.size(); }
size_t IncrementalSession::assertedConjuncts() const {
  return P->Asserted.size();
}
size_t IncrementalSession::encodeMemoSize() const { return P->Memo.size(); }

void IncrementalSession::reset() { P->popTo(0); }

size_t IncrementalSession::reusableConjuncts(const PathCondition &PC,
                                             const TypeEnv &Types) const {
  std::unordered_set<Expr> Query(PC.conjuncts().begin(), PC.conjuncts().end());
  return P->reusablePrefix(Query, Types).second;
}

SatResult IncrementalSession::checkSat(const PathCondition &PC,
                                       const TypeEnv &Types,
                                       double ResetThreshold,
                                       SolverStats &Stats) {
  Impl &I = *P;
  try {
    std::unordered_set<Expr> Query(PC.conjuncts().begin(),
                                   PC.conjuncts().end());
    auto [Keep, Retained] = I.reusablePrefix(Query, Types);

    // Divergence: pop what no longer belongs. When the surviving share is
    // below the threshold, re-asserting from the base scope is cheaper
    // than it looks (encoding is memoised) and sheds the abandoned
    // branch's scopes, so reset: pop every frame.
    if (Keep < I.Frames.size() &&
        static_cast<double>(Retained) <
            ResetThreshold * static_cast<double>(PC.size())) {
      Keep = 0;
      Retained = 0;
    }
    if (size_t Popped = I.Frames.size() - Keep) {
      Stats.IncPoppedFrames.fetch_add(Popped, Relaxed);
      if (Keep == 0)
        Stats.IncResets.fetch_add(1, Relaxed);
      I.popTo(Keep);
    }

    std::vector<Expr> Delta;
    for (const Expr &C : PC.conjuncts())
      if (!I.Asserted.count(C))
        Delta.push_back(C);

    uint64_t Hits0 = I.Memo.Hits, Misses0 = I.Memo.Misses;
    if (!Delta.empty()) {
      I.Solver.push();
      Impl::Frame F;
      Encoder Enc(threadZ3Context(), Types, &I.Memo);
      std::set<InternedString> Vars;
      for (const Expr &C : Delta) {
        F.Conjuncts.push_back(C);
        C.collectLVars(Vars);
        try {
          I.Solver.add(Enc.encode(C));
        } catch (const Unsupported &) {
          F.Dropped = true;
        }
      }
      F.Assumptions.reserve(Vars.size());
      for (InternedString V : Vars)
        F.Assumptions.emplace_back(V, Types.lookup(V));
      for (const Expr &C : F.Conjuncts)
        I.Asserted.insert(C);
      I.Frames.push_back(std::move(F));
    }
    Stats.EncodeMemoHits.fetch_add(I.Memo.Hits - Hits0, Relaxed);
    Stats.EncodeMemoMisses.fetch_add(I.Memo.Misses - Misses0, Relaxed);

    Stats.IncQueries.fetch_add(1, Relaxed);
    if (Retained) {
      Stats.IncExtends.fetch_add(1, Relaxed);
      Stats.IncReusedConjuncts.fetch_add(Retained, Relaxed);
      Stats.IncPrefixDepth.fetch_add(Keep, Relaxed);
    }

    z3::check_result R = I.Solver.check();
    if (R == z3::unsat)
      return SatResult::Unsat; // asserted subset already contradictory
    if (R == z3::unknown) {
      I.rebuild();
      return SatResult::Unknown;
    }
    for (const Impl::Frame &F : I.Frames)
      if (F.Dropped)
        return SatResult::Unknown; // weakened formula: Sat is not trusted
    return SatResult::Sat;
  } catch (const z3::exception &) {
    // The solver state may be mid-scope; discard it rather than risk a
    // stack that no longer matches the frame bookkeeping.
    try {
      I.rebuild();
    } catch (...) {
    }
    return SatResult::Unknown;
  }
}

#else // !GILLIAN_HAVE_Z3

using namespace gillian;

struct IncrementalSession::Impl {};

IncrementalSession::IncrementalSession() = default;
IncrementalSession::~IncrementalSession() = default;
size_t IncrementalSession::depth() const { return 0; }
size_t IncrementalSession::assertedConjuncts() const { return 0; }
size_t IncrementalSession::encodeMemoSize() const { return 0; }
void IncrementalSession::reset() {}
size_t IncrementalSession::reusableConjuncts(const PathCondition &,
                                             const TypeEnv &) const {
  return 0;
}
SatResult IncrementalSession::checkSat(const PathCondition &, const TypeEnv &,
                                       double, SolverStats &) {
  return SatResult::Unknown;
}

#endif // GILLIAN_HAVE_Z3

namespace {
/// Bumped by invalidateAll(); every thread compares on use and lazily
/// drops its session when behind (Z3 handles are destructed by their
/// owner).
std::atomic<uint64_t> PoolGeneration{0};
} // namespace

gillian::IncrementalSessionPool &gillian::IncrementalSessionPool::forThread() {
#ifdef GILLIAN_HAVE_Z3
  // Touch the thread's Z3 context first: thread-local destruction runs in
  // reverse construction order, so the context outlives the session's
  // solver, which references it.
  (void)threadZ3Context();
#endif
  static thread_local IncrementalSessionPool P;
  return P;
}

void gillian::IncrementalSessionPool::invalidateAll() {
  PoolGeneration.fetch_add(1, std::memory_order_relaxed);
}

void gillian::IncrementalSessionPool::maybeGenerationReset() {
  uint64_t G = PoolGeneration.load(std::memory_order_relaxed);
  if (G != LocalGen) {
    Session.reset();
    LocalGen = G;
  }
}

void gillian::IncrementalSessionPool::reset() {
  Session.reset();
  LocalGen = PoolGeneration.load(std::memory_order_relaxed);
}

size_t gillian::IncrementalSessionPool::sessions() {
  maybeGenerationReset();
  return Session ? 1 : 0;
}

SatResult gillian::IncrementalSessionPool::checkSat(const PathCondition &PC,
                                                    const TypeEnv &Types,
                                                    double ResetThreshold,
                                                    SolverStats &Stats) {
  maybeGenerationReset();
  if (!Session)
    Session = std::make_unique<IncrementalSession>();
  return Session->checkSat(PC, Types, ResetThreshold, Stats);
}
