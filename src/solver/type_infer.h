//===- solver/type_infer.h - Type inference over logical exprs -*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lightweight type inference for logical variables, used by the solver
/// layers. GIL is dynamically typed, but path conditions in practice pin
/// down the type of almost every logical variable (symbolic-test inputs
/// carry `typeof(#x) == ^T` constraints, and operator usage determines the
/// rest). The Z3 backend requires types to pick sorts; the syntactic
/// solver uses them to refute heterogeneous equalities.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_SOLVER_TYPE_INFER_H
#define GILLIAN_SOLVER_TYPE_INFER_H

#include "gil/expr.h"

#include <map>
#include <optional>
#include <vector>

namespace gillian {

/// Maps logical variables to their inferred GIL types. Variables absent
/// from the map have unconstrained type.
class TypeEnv {
public:
  std::optional<GilType> lookup(InternedString LVar) const {
    auto It = Types.find(LVar);
    if (It == Types.end())
      return std::nullopt;
    return It->second;
  }

  /// Records #LVar : T. Returns false on a conflict with an earlier,
  /// different type (which makes the overall constraint set unsatisfiable).
  bool assign(InternedString LVar, GilType T) {
    auto [It, Inserted] = Types.emplace(LVar, T);
    return Inserted || It->second == T;
  }

  const std::map<InternedString, GilType> &all() const { return Types; }

private:
  std::map<InternedString, GilType> Types;
};

/// Harvests typing facts from one conjunct assumed true into \p Env
/// (conflicts are ignored — an inconsistent path condition is handled by
/// the solver, not here). Used by SymbolicState to keep an incremental
/// TypeEnv as its path condition grows.
void absorbConjunct(const Expr &Conjunct, TypeEnv &Env);

/// Bottom-up static type of \p E under \p Env; nullopt when undetermined.
std::optional<GilType> staticType(const Expr &E, const TypeEnv &Env);

/// Infers logical-variable types from the conjuncts of a path condition.
///
/// Runs to a fixpoint over: `typeof(#x) == ^T` constraints, equalities
/// whose one side has known type, and operator-imposed operand types.
/// \returns false if a type conflict proves the conjuncts unsatisfiable.
bool inferTypes(const std::vector<Expr> &Conjuncts, TypeEnv &Env);

} // namespace gillian

#endif // GILLIAN_SOLVER_TYPE_INFER_H
