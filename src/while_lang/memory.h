//===- while_lang/memory.h - While memories (Fig. 3, §3.3) -----*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concrete and symbolic While memory models of §2.4 and their
/// interpretation function I_W of §3.3.
///
/// Concrete memories µ : U × S ⇀ V map (location symbol, property name)
/// pairs to values; symbolic memories µ̂ : Ê × S ⇀ Ê map (location
/// *expression*, property name) pairs to expressions. Objects have static
/// (concrete-string) properties. Disposed locations are tracked so that
/// use-after-dispose is a detectable memory fault.
///
/// Symbolic actions implement the branching rules of Fig. 3: lookup and
/// mutate branch over every stored location that may alias the queried
/// one under the current path condition ([S-Lookup], [S-Mutate-Present]),
/// with a residual branch for absent locations ([S-Mutate-Absent], and an
/// error branch for lookups that can miss).
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_WHILE_MEMORY_H
#define GILLIAN_WHILE_MEMORY_H

#include "engine/memlib/memlib.h"
#include "engine/state.h"
#include "gil/expr.h"
#include "solver/model.h"
#include "solver/solver.h"
#include "support/cow_map.h"

namespace gillian::whilelang {

/// Concrete While memory (Def 2.3 instance).
class WhileCMem {
public:
  using PropMap = CowMap<InternedString, Value>;

  /// A_While = {lookup, mutate, dispose}; Err(...) is a memory fault.
  Result<Value> execAction(InternedString Act, const Value &Arg);

  // Introspection / construction (tests and memory interpretation).
  const CowMap<InternedString, PropMap> &objects() const { return Objects; }
  bool isDisposed(InternedString Loc) const { return Disposed.contains(Loc); }
  void setProp(InternedString Loc, InternedString P, Value V);
  void markDisposed(InternedString Loc) { Disposed.mark(Loc); }

  friend bool operator==(const WhileCMem &A, const WhileCMem &B) {
    return A.Objects == B.Objects && A.Disposed == B.Disposed;
  }

  std::string toString() const;

private:
  Result<Value> lookup(const Value &Loc, const Value &Prop);
  Result<Value> mutate(const Value &Loc, const Value &Prop, const Value &V);
  Result<Value> dispose(const Value &Loc);

  CowMap<InternedString, PropMap> Objects;
  memlib::CFreedSet Disposed;
};

/// Symbolic While memory (Def 2.4 instance), written by hand on the memlib
/// helpers: every action on the expression-keyed object table runs the
/// shared resolveAliases loop, and dispose tracking is the memlib
/// freed-key index (SFreedSet). Each action below is a miss-policy over
/// those two helpers.
class WhileSMem {
public:
  using PropMap = CowMap<InternedString, Expr>;
  using ObjMap = CowMap<Expr, PropMap, ExprOrdering>;

  Result<std::vector<SymActionBranch<WhileSMem>>>
  execAction(InternedString Act, const Expr &Arg, const PathCondition &PC,
             Solver &S) const;

  const ObjMap &objects() const { return Objects; }
  const CowMap<Expr, bool, ExprOrdering> &disposed() const {
    return Disposed.keys();
  }
  void setProp(const Expr &Loc, InternedString P, Expr V);

  std::string toString() const;

private:
  std::vector<SymActionBranch<WhileSMem>>
  lookup(const Expr &Loc, InternedString Prop, const PathCondition &PC,
         Solver &S) const;
  std::vector<SymActionBranch<WhileSMem>>
  mutate(const Expr &Loc, InternedString Prop, const Expr &V,
         const PathCondition &PC, Solver &S) const;
  std::vector<SymActionBranch<WhileSMem>>
  dispose(const Expr &Loc, const PathCondition &PC, Solver &S) const;

  ObjMap Objects;
  memlib::SFreedSet Disposed;
};

static_assert(ConcreteMemoryModel<WhileCMem>);
static_assert(SymbolicMemoryModel<WhileSMem>);

/// The memory interpretation function I_W of §3.3: evaluates every
/// location expression and stored expression under ε, producing a concrete
/// memory. Fails when ε does not determine a well-formed memory (a free
/// variable, or two symbolic locations collapsing onto one concrete
/// location — the ⊎ of the [Union] rule being undefined).
Result<WhileCMem> interpretMemory(const Model &Eps, const WhileSMem &SMem);

} // namespace gillian::whilelang

#endif // GILLIAN_WHILE_MEMORY_H
