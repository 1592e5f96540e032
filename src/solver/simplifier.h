//===- solver/simplifier.h - Algebraic simplification ----------*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The first-order simplifier the paper refers to in §2.3 ("Gillian's
/// first-order solver applies a number of algebraic identities to simplify
/// the resulting expression"). It constant-folds through the *same*
/// concrete operator semantics the interpreter uses, and applies algebraic
/// identities that are sound for GIL's dynamically typed values (identities
/// that depend on types, such as e*0 = 0, fire only when the operand type
/// is statically known).
///
/// Every symbolic state simplifies the expressions it builds (§2.3
/// [EvalExpr]); there is one path, with no memo in front of it.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_SOLVER_SIMPLIFIER_H
#define GILLIAN_SOLVER_SIMPLIFIER_H

#include "gil/expr.h"
#include "solver/type_infer.h"

namespace gillian {

/// Simplifies \p E bottom-up. Idempotent; never changes the meaning of the
/// expression (including its error behaviour being preserved *or refined*:
/// an expression that would fault concretely is never simplified into one
/// that succeeds with a different value, though a faulting expression may
/// remain unsimplified).
///
/// \p Env supplies logical-variable types (harvested from the path
/// condition); type-guarded identities such as (#p + 8) + 8 -> #p + 16
/// only fire when the operand types are known.
Expr simplify(const Expr &E, const TypeEnv *Env = nullptr);

} // namespace gillian

#endif // GILLIAN_SOLVER_SIMPLIFIER_H
