//===- mjs/memory.h - MJS memories (§4.1) ----------------------*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JS memory models of §4.1: a memory is a pair of a heap and a
/// metadata table. Concretely, h : U × S ⇀ V and m : U ⇀ V. Symbolically
/// — and this is what distinguishes JS from While — *both* the location
/// and the property name are logical expressions: ĥ : Ê × Ê ⇀ Ê, because
/// JS has computed property access. The symbolic getProp implements the
/// paper's branching [SGetProp] rule: execution may branch on the looked-
/// up (location, property) pair equalling any stored pair permitted by
/// the path condition, with the branch condition el = e'l ∧ ep = e'p
/// passed back to the state.
///
/// The action set (eight actions): newObj, delObj, getProp, setProp,
/// delProp, hasProp, getMeta, setMeta. Reading an absent property of an
/// existing object yields $undefined (JS semantics); touching a deleted
/// or never-allocated object is a memory fault (TypeError analogue).
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_MJS_MEMORY_H
#define GILLIAN_MJS_MEMORY_H

#include "engine/memlib/memlib.h"
#include "engine/state.h"
#include "gil/expr.h"
#include "solver/model.h"
#include "support/cow_map.h"

namespace gillian::mjs {

// Action names.
InternedString actNewObj();
InternedString actDelObj();
InternedString actGetProp();
InternedString actSetProp();
InternedString actDelProp();
InternedString actHasProp();
InternedString actGetMeta();
InternedString actSetMeta();

/// The `undefined` and `null` constants (uninterpreted symbols, §2.1).
Value jsUndefined();
Value jsNull();

/// Concrete JS memory: heap + metadata table.
class MjsCMem {
public:
  using PropMap = CowMap<InternedString, Value>;

  Result<Value> execAction(InternedString Act, const Value &Arg);

  const CowMap<InternedString, PropMap> &heap() const { return Heap; }
  const CowMap<InternedString, Value> &metadata() const { return Meta; }
  bool isDeleted(InternedString Loc) const { return Deleted.contains(Loc); }

  // Construction hooks for tests and memory interpretation.
  void defineObject(InternedString Loc, Value MetaVal);
  void setProp(InternedString Loc, InternedString P, Value V);
  void setMetaValue(InternedString Loc, Value V) { Meta.set(Loc, std::move(V)); }
  void markDeleted(InternedString Loc) { Deleted.mark(Loc); }

  std::string toString() const;

private:
  Result<InternedString> liveLoc(const Value &Loc, const char *What) const;

  CowMap<InternedString, PropMap> Heap;
  CowMap<InternedString, Value> Meta;
  memlib::CFreedSet Deleted;
};

/// Symbolic JS memory: ĥ : Ê × Ê ⇀ Ê plus metadata and deletion tracking,
/// written by hand on the memlib helpers. The heap is a two-level map —
/// the shared resolveAliases loop runs over the object table *and* over
/// each object's property table (JS computed property names make the inner
/// keys symbolic too) — and deletion is the memlib freed-key index.
class MjsSMem {
public:
  using PropMap = CowMap<Expr, Expr, ExprOrdering>;
  using ObjMap = CowMap<Expr, PropMap, ExprOrdering>;

  Result<std::vector<SymActionBranch<MjsSMem>>>
  execAction(InternedString Act, const Expr &Arg, const PathCondition &PC,
             Solver &S) const;

  const ObjMap &heap() const { return Heap; }
  const CowMap<Expr, Expr, ExprOrdering> &metadata() const { return Meta; }
  const CowMap<Expr, bool, ExprOrdering> &deleted() const {
    return Deleted.keys();
  }

  void defineObject(const Expr &Loc, Expr MetaVal);
  void setProp(const Expr &Loc, const Expr &P, Expr V);

  std::string toString() const;

private:
  ObjMap Heap;
  CowMap<Expr, Expr, ExprOrdering> Meta;
  memlib::SFreedSet Deleted;
};

static_assert(ConcreteMemoryModel<MjsCMem>);
static_assert(SymbolicMemoryModel<MjsSMem>);

/// Memory interpretation I_JS: evaluates locations, property names and
/// values under ε (Def 3.7 instance for the JS memory).
Result<MjsCMem> interpretMemory(const Model &Eps, const MjsSMem &SMem);

} // namespace gillian::mjs

#endif // GILLIAN_MJS_MEMORY_H
