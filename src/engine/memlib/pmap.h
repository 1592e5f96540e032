//===- engine/memlib/pmap.h - The may-alias branch loop --------*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// THE may-alias branch loop: the one place in the engine that turns "look
/// this key up in a symbolically-keyed map" into the branch set of the
/// paper's [S-Lookup] / [S-Mutate-Present] / [S-Mutate-Absent] rules. The
/// loop once existed seven times across the While, MJS and MC models
/// (object lookup/mutate/dispose, property get/set/delete/has, block
/// resolution); all of them, and linear's load and store, call
/// resolveAliases.
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

#include "engine/memlib/branch.h"

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

} // namespace gillian::memlib

#endif // GILLIAN_ENGINE_MEMLIB_PMAP_H
