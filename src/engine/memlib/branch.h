//===- engine/memlib/branch.h - Branch emission context --------*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// BranchCtx bundles the plumbing every symbolic action needs: the source
/// memory, the path condition, the solver, and the accumulating branch
/// vector. On top of it sit the two branch-emission idioms of the Fig. 3
/// rules:
///
///  * error/ok — push a fault or success branch under a condition;
///  * checkOrError — split on a boolean side condition (bounds, alignment,
///    interior-pointer, ...), emitting the fault branch for the worlds
///    where it fails and continuing under the strengthened condition.
///
/// This is the layer the MC model's ActionCtx grew ad hoc. Every symbolic
/// action of the While, MJS, MC and linear models builds its branches in
/// a BranchCtx.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_ENGINE_MEMLIB_BRANCH_H
#define GILLIAN_ENGINE_MEMLIB_BRANCH_H

#include "engine/memlib/alias.h"
#include "engine/state.h"

#include <string>
#include <vector>

namespace gillian::memlib {

/// Returns the structured diagnostic for an allocation-sized action whose
/// size argument is symbolic. One message, written once here and
/// shared by every model that allocates (MC `alloc`, linear
/// `grow`): keeping it central means the "open research problem" of
/// symbolic-size allocation (EXPERIMENTS.md) is a single grep away from
/// every place it bites.
inline std::string symbolicSizeError(std::string_view Action,
                                     const Expr &Size) {
  return "unsupported: " + std::string(Action) +
         " with symbolic size " + Size.toString() +
         " (symbolic-size allocation is an open research problem; see "
         "EXPERIMENTS.md 'Known deviations' and paper §4.2 'Current "
         "Limitations')";
}

/// Per-action branching context over a symbolic memory model \p M.
template <typename M> struct BranchCtx {
  const M &Self; ///< the pre-action memory (error branches keep it)
  const PathCondition &PC;
  Solver &S;
  std::vector<SymActionBranch<M>> Out;

  BranchCtx(const M &Self, const PathCondition &PC, Solver &S)
      : Self(Self), PC(PC), S(S) {}

  /// Emits a memory-fault branch under \p Cond (null = unconditional).
  void error(std::string Msg, Expr Cond = Expr()) {
    Out.push_back(
        {Self, Expr::strE(std::move(Msg)), std::move(Cond), /*IsError=*/true});
  }

  /// Emits a success branch with memory \p Next and return value \p Ret.
  void ok(M Next, Expr Ret, Expr Cond = Expr()) {
    Out.push_back({std::move(Next), std::move(Ret), std::move(Cond), false});
  }

  /// Is π ∧ Cond satisfiable? The gate on every residual branch.
  bool feasible(const Expr &Cond) {
    PathCondition Ext = PC;
    Ext.add(Cond);
    return S.maybeSat(Ext);
  }

  /// Splits on a boolean side condition: \p OnTrue runs under
  /// Under ∧ Cond; the fault branch is emitted under Under ∧ ¬Cond when
  /// that world is possible.
  template <typename Fn>
  void checkOrError(Expr Cond, const Expr &Under, const std::string &Msg,
                    Fn OnTrue) {
    Expr C;
    Tri T = decide(Cond, PC, S, C);
    if (T == Tri::No) {
      error(Msg, Under);
      return;
    }
    Expr NotC;
    if (T == Tri::Maybe) {
      Tri TN = decide(Expr::notE(Cond), PC, S, NotC);
      if (TN != Tri::No)
        error(Msg, simplify(Expr::andE(Under, Expr::notE(Cond))));
      OnTrue(simplify(Expr::andE(Under, Cond)));
      return;
    }
    OnTrue(Under);
  }
};

} // namespace gillian::memlib

#endif // GILLIAN_ENGINE_MEMLIB_BRANCH_H
