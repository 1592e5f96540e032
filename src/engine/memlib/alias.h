//===- engine/memlib/alias.h - May-alias classification --------*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solver-driven condition classification the symbolic memory models
/// share: a branch condition is definitely true, definitely
/// false, or contingent under the current path condition. This is the
/// "π ∧ π' SAT" side condition of the Fig. 3 action rules, factored out of
/// the three hand-written memory models (While's aliasKind, MJS's
/// equalUnder, MC's condTri were byte-for-byte the same decision).
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_ENGINE_MEMLIB_ALIAS_H
#define GILLIAN_ENGINE_MEMLIB_ALIAS_H

#include "gil/expr.h"
#include "solver/simplifier.h"
#include "solver/solver.h"

namespace gillian::memlib {

/// Three-valued verdict on a condition under a path condition.
enum class Tri { Yes, No, Maybe };

/// Classifies \p C under \p PC: simplification first (a definite verdict
/// needs no solver), then a satisfiability check on π ∧ C. On Maybe,
/// \p CondOut receives the simplified condition for the branch's π'.
inline Tri decide(Expr C, const PathCondition &PC, Solver &S, Expr &CondOut) {
  C = simplify(C);
  if (C.isTrue())
    return Tri::Yes;
  if (C.isFalse())
    return Tri::No;
  PathCondition Ext = PC;
  Ext.add(C);
  if (!S.maybeSat(Ext))
    return Tri::No;
  CondOut = C;
  return Tri::Maybe;
}

/// Classifies the aliasing condition A == B under \p PC — the core
/// question of the [S-Lookup]/[S-Mutate-*] branch loops. Two literals
/// are compared as values: simplify folds A == B through evalBinOp(Eq),
/// which is Value equality (bitwise on Num), so no node is built.
inline Tri decideEq(const Expr &A, const Expr &B, const PathCondition &PC,
                    Solver &S, Expr &CondOut) {
  if (A.isLit() && B.isLit())
    return A.litValue() == B.litValue() ? Tri::Yes : Tri::No;
  return decide(Expr::eq(A, B), PC, S, CondOut);
}

/// Simplified conjunction. Note simplify(true ∧ C) == simplify(C), so
/// accumulating from an initial `true` literal is exact (no spurious
/// conjuncts reach the path condition).
inline Expr conj(const Expr &A, const Expr &B) {
  return simplify(Expr::andE(A, B));
}

} // namespace gillian::memlib

#endif // GILLIAN_ENGINE_MEMLIB_ALIAS_H
