//===- engine/memlib/pmap.h - Partial-map combinator -----------*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The partial-map combinator and, at its heart, THE may-alias branch
/// loop: the one place in the engine that turns "look this key up in a
/// symbolically-keyed map" into the branch set of the paper's [S-Lookup] /
/// [S-Mutate-Present] / [S-Mutate-Absent] rules. Before this library the
/// loop existed seven times across the While, MJS and MC models (object
/// lookup/mutate/dispose, property get/set/delete/has, block resolution);
/// all of them now call resolveAliases.
///
/// The loop, exactly as the rules prescribe:
///
///   for every stored key K:
///     classify (Key == K) under the path condition (alias.h):
///       Yes   -> visit K under the accumulated Live condition; no other
///                entry or the miss world is reachable — stop;
///       No    -> skip;
///       Maybe -> visit K under Live ∧ (Key == K); conjoin
///                ¬(Key == K) into the running miss condition;
///   if the miss world is still possible (π ∧ Miss SAT), emit it.
///
/// What happens on a visit or on a miss is the caller's miss-policy:
/// While lookup faults, MJS getProp returns $undefined, MJS setProp
/// extends the map ([S-Mutate-Absent]), linear load returns 0 (zero-
/// initialised Wasm memory). The loop itself is policy-free.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_ENGINE_MEMLIB_PMAP_H
#define GILLIAN_ENGINE_MEMLIB_PMAP_H

#include "engine/action_args.h"
#include "engine/memlib/branch.h"
#include "engine/memlib/cell.h"
#include "engine/memlib/freeable.h"
#include "engine/memlib/print.h"
#include "engine/state.h"
#include "solver/model.h"
#include "support/cow_map.h"

namespace gillian::memlib {

/// Tuning of the resolve loop.
struct ResolveOpts {
  /// Check for a structural (pointer-equal key) hit before consulting the
  /// solver. MC turns this on — block names are distinct uSym symbols, so
  /// a structural hit is a definite alias and skips the loop entirely.
  /// While/MJS leave it off to keep their historical branch evaluation
  /// order (the solver loop classifies a structural hit as Yes anyway).
  bool StructuralFastPath = false;
};

/// The shared may-alias branch loop over any CowMap keyed by Expr.
/// \p OnAlias(storedKey, storedValue, takenCond, definite) is invoked per
/// possible alias; \p OnMiss(missCond) once if no-alias is feasible.
/// \p Live is the condition already accumulated by the caller (e.g. the
/// SFreedSet guard); conditions passed on are conjoined under it.
template <typename M, typename MapT, typename AliasFn, typename MissFn>
void resolveAliases(BranchCtx<M> &Ctx, const MapT &Map, const Expr &Key,
                    const Expr &Live, const ResolveOpts &Opts,
                    AliasFn OnAlias, MissFn OnMiss) {
  if (Opts.StructuralFastPath) {
    if (const auto *Hit = Map.lookup(Key)) {
      OnAlias(Key, *Hit, Live, /*Definite=*/true);
      return;
    }
  }
  Expr MissCond = Live;
  for (const auto &[K, V] : Map) {
    Expr Cond;
    Tri T = decideEq(Key, K, Ctx.PC, Ctx.S, Cond);
    if (T == Tri::No)
      continue;
    if (T == Tri::Yes) {
      OnAlias(K, V, Live, /*Definite=*/true);
      return; // a definite alias: no other branch is reachable
    }
    OnAlias(K, V, conj(Live, Cond), /*Definite=*/false);
    MissCond = conj(MissCond, Expr::notE(Cond));
  }
  if (MissCond.isFalse())
    return;
  if (Ctx.feasible(MissCond))
    OnMiss(MissCond);
}

//===----------------------------------------------------------------------===//
// PMap<Cell>: the combinator pair
//===----------------------------------------------------------------------===//

// Action names are interned once; every dispatch compares the handles.
inline InternedString actMapGet() {
  static const InternedString A = InternedString::get("mget");
  return A;
}
inline InternedString actMapSet() {
  static const InternedString A = InternedString::get("mset");
  return A;
}
inline InternedString actMapHas() {
  static const InternedString A = InternedString::get("mhas");
  return A;
}
inline InternedString actMapFree() {
  static const InternedString A = InternedString::get("mfree");
  return A;
}

/// A partial map from locations to cells, with use-after-free tracking in
/// the key-index form (freed cells drop their payload; see freeable.h).
/// Symbolically the map is keyed by arbitrary expressions and every
/// action runs the resolveAliases loop; concretely keys are symbols.
///
/// Action set (the [S-Lookup]/[S-Mutate-*] rules, with faults):
///   mget [k]     — value at k; fault on unknown or freed key
///   mset [k, v]  — write at k, extending on a definite miss
///   mhas [k]     — Bool membership; never faults on a miss
///   mfree [k]    — dispose k; fault on unknown key or double free
template <typename Cell = ExprCell> struct PMap {
  static bool hasAction(InternedString Act) {
    return Act == actMapGet() || Act == actMapSet() || Act == actMapHas() ||
           Act == actMapFree();
  }

  class Concrete {
  public:
    using CellT = typename Cell::Concrete;
    using MapT = CowMap<InternedString, CellT>;

    const MapT &entries() const { return Entries; }
    const CFreedSet &freedSet() const { return Freed; }
    void set(InternedString K, CellT V) { Entries.set(K, std::move(V)); }
    void markFreed(InternedString K) {
      Entries.erase(K);
      Freed.mark(K);
    }

    Result<Value> execAction(InternedString Act, const Value &Arg) {
      size_t N = Act == actMapSet() ? 2 : 1;
      Result<std::vector<Value>> A = splitArgs(Arg, N);
      if (!A)
        return Err(A.error());
      if (!(*A)[0].isSym())
        return Err("memory fault: " + std::string(Act.str()) +
                   " on non-location " + (*A)[0].toString());
      InternedString K = (*A)[0].asSym();
      if (Act == actMapHas())
        return Value::boolV(Entries.contains(K));
      if (Freed.contains(K))
        return Err("memory fault: " + std::string(Act.str()) +
                   " on freed location " + (*A)[0].toString());
      if (Act == actMapGet()) {
        const CellT *C = Entries.lookup(K);
        if (!C)
          return Err("memory fault: mget on unknown location " +
                     (*A)[0].toString());
        return C->read();
      }
      if (Act == actMapSet()) {
        Entries.set(K, CellT((*A)[1]));
        return (*A)[1];
      }
      if (Act == actMapFree()) {
        if (!Entries.contains(K))
          return Err("memory fault: mfree of unknown location " +
                     (*A)[0].toString());
        markFreed(K);
        return Value::boolV(true);
      }
      return Err("unknown PMap action '" + std::string(Act.str()) + "'");
    }

    std::string toString() const;

    friend bool operator==(const Concrete &A, const Concrete &B) {
      return A.Entries == B.Entries && A.Freed == B.Freed;
    }

  private:
    MapT Entries;
    CFreedSet Freed;
  };

  class Symbolic {
  public:
    using CellT = typename Cell::Symbolic;
    using MapT = CowMap<Expr, CellT, ExprOrdering>;

    const MapT &entries() const { return Entries; }
    const SFreedSet &freedSet() const { return Freed; }
    void set(const Expr &K, CellT V) { Entries.set(K, std::move(V)); }
    void markFreed(const Expr &K) {
      Entries.erase(K);
      Freed.mark(K);
    }

    /// The alias loop over this map's entries (see resolveAliases).
    template <typename M, typename AliasFn, typename MissFn>
    void resolve(BranchCtx<M> &Ctx, const Expr &Key, const Expr &Live,
                 const ResolveOpts &Opts, AliasFn OnAlias,
                 MissFn OnMiss) const {
      resolveAliases(Ctx, Entries, Key, Live, Opts, OnAlias, OnMiss);
    }

    Result<std::vector<SymActionBranch<Symbolic>>>
    execAction(InternedString Act, const Expr &Arg, const PathCondition &PC,
               Solver &S) const {
      size_t N = Act == actMapSet() ? 2 : 1;
      Result<std::vector<Expr>> A = splitArgsE(Arg, N);
      if (!A)
        return Err(A.error());
      const Expr &K = (*A)[0];
      BranchCtx<Symbolic> Ctx(*this, PC, S);

      if (!hasAction(Act))
        return Err("unknown PMap action '" + std::string(Act.str()) + "'");

      Expr Live = Expr::boolE(true);
      // mhas observes freed locations as absent rather than faulting.
      auto FreedMsg = [Act] {
        return "memory fault: " + std::string(Act.str()) +
               " on freed location";
      };
      if (Act != actMapHas() && !Freed.guard(Ctx, K, FreedMsg, Live))
        return Ctx.Out;

      if (Act == actMapGet()) {
        resolve(
            Ctx, K, Live, ResolveOpts{},
            [&](const Expr &, const CellT &C, const Expr &Taken, bool) {
              Ctx.ok(*this, C.read(), Taken);
            },
            [&](const Expr &Miss) {
              Ctx.error("memory fault: mget on unknown location", Miss);
            });
        return Ctx.Out;
      }
      if (Act == actMapSet()) {
        const Expr &V = (*A)[1];
        resolve(
            Ctx, K, Live, ResolveOpts{},
            [&](const Expr &Key, const CellT &, const Expr &Taken, bool) {
              Symbolic Next = *this;
              Next.Entries.set(Key, CellT(V));
              Ctx.ok(std::move(Next), V, Taken);
            },
            [&](const Expr &Miss) {
              // [S-Mutate-Absent]: extend at the queried key.
              Symbolic Next = *this;
              Next.Entries.set(K, CellT(V));
              Ctx.ok(std::move(Next), V, Miss);
            });
        return Ctx.Out;
      }
      if (Act == actMapHas()) {
        resolve(
            Ctx, K, Live, ResolveOpts{},
            [&](const Expr &, const CellT &, const Expr &Taken, bool) {
              Ctx.ok(*this, Expr::boolE(true), Taken);
            },
            [&](const Expr &Miss) {
              Ctx.ok(*this, Expr::boolE(false), Miss);
            });
        return Ctx.Out;
      }
      // mfree
      resolve(
          Ctx, K, Live, ResolveOpts{},
          [&](const Expr &Key, const CellT &, const Expr &Taken, bool) {
            Symbolic Next = *this;
            Next.markFreed(Key);
            Ctx.ok(std::move(Next), Expr::boolE(true), Taken);
          },
          [&](const Expr &Miss) {
            Ctx.error("memory fault: mfree of unknown location", Miss);
          });
      return Ctx.Out;
    }

    /// Generic I(·): evaluate every key under ε to a distinct symbol, then
    /// interpret each cell — the ⊎-is-undefined check of [Union].
    Result<Concrete> interpret(const Model &Eps) const {
      Concrete Out;
      for (const auto &[KE, C] : Entries) {
        Result<Value> K = Eps.eval(KE);
        if (!K)
          return Err("interpretation failure on location " + KE.toString() +
                     ": " + K.error());
        if (!K->isSym())
          return Err("location " + KE.toString() +
                     " interprets to a non-symbol " + K->toString());
        if (Out.entries().contains(K->asSym()))
          return Err("locations collapse under the model: " + K->toString());
        Result<typename Cell::Concrete> CC = C.interpret(Eps);
        if (!CC)
          return Err(CC.error());
        Out.set(K->asSym(), CC.take());
      }
      Result<CFreedSet> F = Freed.interpret(Eps, "freed location");
      if (!F)
        return Err(F.error());
      for (const auto &[D, Unused] : F->keys()) {
        (void)Unused;
        Out.markFreed(D);
      }
      return Out;
    }

    std::string toString() const;

    friend bool operator==(const Symbolic &A, const Symbolic &B) {
      return A.Entries == B.Entries && A.Freed == B.Freed;
    }

  private:
    MapT Entries;
    SFreedSet Freed;
  };
};

template <typename Cell>
std::string PMap<Cell>::Concrete::toString() const {
  std::string S = printEntries(Entries, [](InternedString K, const CellT &C) {
    return std::string(K.str()) + " -> " + C.toString();
  });
  if (!Freed.keys().empty()) {
    S += " freed:";
    for (const auto &[K, Unused] : Freed.keys()) {
      (void)Unused;
      S += " " + std::string(K.str());
    }
  }
  return S;
}

template <typename Cell>
std::string PMap<Cell>::Symbolic::toString() const {
  std::string S = printEntries(Entries, [](const Expr &K, const CellT &C) {
    return K.toString() + " -> " + C.toString();
  });
  if (!Freed.empty()) {
    S += " freed:";
    for (const auto &[K, Unused] : Freed.keys()) {
      (void)Unused;
      S += " " + K.toString();
    }
  }
  return S;
}

static_assert(ConcreteMemoryModel<PMap<>::Concrete>);
static_assert(SymbolicMemoryModel<PMap<>::Symbolic>);

} // namespace gillian::memlib

#endif // GILLIAN_ENGINE_MEMLIB_PMAP_H
