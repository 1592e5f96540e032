//===- mjs/memory.cpp -----------------------------------------------------===//

#include "mjs/memory.h"

#include "engine/action_args.h"
#include "obs/action_counters.h"

using namespace gillian;
using namespace gillian::mjs;
using memlib::BranchCtx;
using memlib::resolveAliases;

// Action names are interned once; every dispatch compares the handles.
InternedString gillian::mjs::actNewObj() {
  static const InternedString A = InternedString::get("newObj");
  return A;
}
InternedString gillian::mjs::actDelObj() {
  static const InternedString A = InternedString::get("delObj");
  return A;
}
InternedString gillian::mjs::actGetProp() {
  static const InternedString A = InternedString::get("getProp");
  return A;
}
InternedString gillian::mjs::actSetProp() {
  static const InternedString A = InternedString::get("setProp");
  return A;
}
InternedString gillian::mjs::actDelProp() {
  static const InternedString A = InternedString::get("delProp");
  return A;
}
InternedString gillian::mjs::actHasProp() {
  static const InternedString A = InternedString::get("hasProp");
  return A;
}
InternedString gillian::mjs::actGetMeta() {
  static const InternedString A = InternedString::get("getMeta");
  return A;
}
InternedString gillian::mjs::actSetMeta() {
  static const InternedString A = InternedString::get("setMeta");
  return A;
}

Value gillian::mjs::jsUndefined() { return Value::symV("$undefined"); }
Value gillian::mjs::jsNull() { return Value::symV("$null"); }

//===----------------------------------------------------------------------===//
// Concrete memory
//===----------------------------------------------------------------------===//

void MjsCMem::defineObject(InternedString Loc, Value MetaVal) {
  Heap.set(Loc, PropMap());
  Meta.set(Loc, std::move(MetaVal));
}

void MjsCMem::setProp(InternedString Loc, InternedString P, Value V) {
  const PropMap *Props = Heap.lookup(Loc);
  PropMap NewProps = Props ? *Props : PropMap();
  NewProps.set(P, std::move(V));
  Heap.set(Loc, std::move(NewProps));
}

Result<InternedString> MjsCMem::liveLoc(const Value &Loc,
                                        const char *What) const {
  if (!Loc.isSym())
    return Err(std::string("TypeError: ") + What + " on non-object " +
               Loc.toString());
  if (Deleted.contains(Loc.asSym()))
    return Err(std::string("TypeError: ") + What + " on deleted object " +
               Loc.toString());
  if (!Heap.contains(Loc.asSym()))
    return Err(std::string("TypeError: ") + What + " on unknown object " +
               Loc.toString());
  return Loc.asSym();
}

Result<Value> MjsCMem::execAction(InternedString Act, const Value &Arg) {
  if (Act == actNewObj()) {
    Result<std::vector<Value>> A = splitArgs(Arg, 2);
    if (!A)
      return Err(A.error());
    if (!(*A)[0].isSym())
      return Err("newObj expects a fresh location symbol");
    defineObject((*A)[0].asSym(), (*A)[1]);
    return (*A)[0];
  }
  if (Act == actDelObj()) {
    Result<std::vector<Value>> A = splitArgs(Arg, 1);
    if (!A)
      return Err(A.error());
    Result<InternedString> L = liveLoc((*A)[0], "delObj");
    if (!L)
      return Err(L.error());
    Heap.erase(*L);
    Meta.erase(*L);
    Deleted.mark(*L);
    return Value::boolV(true);
  }
  if (Act == actGetProp()) {
    Result<std::vector<Value>> A = splitArgs(Arg, 2);
    if (!A)
      return Err(A.error());
    Result<InternedString> L = liveLoc((*A)[0], "getProp");
    if (!L)
      return Err(L.error());
    if (!(*A)[1].isStr())
      return Err("TypeError: property name " + (*A)[1].toString() +
                 " is not a string");
    const Value *V = Heap.lookup(*L)->lookup((*A)[1].asStr());
    return V ? *V : jsUndefined();
  }
  if (Act == actSetProp()) {
    Result<std::vector<Value>> A = splitArgs(Arg, 3);
    if (!A)
      return Err(A.error());
    Result<InternedString> L = liveLoc((*A)[0], "setProp");
    if (!L)
      return Err(L.error());
    if (!(*A)[1].isStr())
      return Err("TypeError: property name " + (*A)[1].toString() +
                 " is not a string");
    setProp(*L, (*A)[1].asStr(), (*A)[2]);
    return (*A)[2];
  }
  if (Act == actDelProp()) {
    Result<std::vector<Value>> A = splitArgs(Arg, 2);
    if (!A)
      return Err(A.error());
    Result<InternedString> L = liveLoc((*A)[0], "delProp");
    if (!L)
      return Err(L.error());
    if (!(*A)[1].isStr())
      return Err("TypeError: property name is not a string");
    PropMap Props = *Heap.lookup(*L);
    Props.erase((*A)[1].asStr()); // deleting an absent property is a no-op
    Heap.set(*L, std::move(Props));
    return Value::boolV(true);
  }
  if (Act == actHasProp()) {
    Result<std::vector<Value>> A = splitArgs(Arg, 2);
    if (!A)
      return Err(A.error());
    Result<InternedString> L = liveLoc((*A)[0], "hasProp");
    if (!L)
      return Err(L.error());
    if (!(*A)[1].isStr())
      return Err("TypeError: property name is not a string");
    return Value::boolV(Heap.lookup(*L)->contains((*A)[1].asStr()));
  }
  if (Act == actGetMeta()) {
    Result<std::vector<Value>> A = splitArgs(Arg, 1);
    if (!A)
      return Err(A.error());
    Result<InternedString> L = liveLoc((*A)[0], "getMeta");
    if (!L)
      return Err(L.error());
    const Value *V = Meta.lookup(*L);
    return V ? *V : jsUndefined();
  }
  if (Act == actSetMeta()) {
    Result<std::vector<Value>> A = splitArgs(Arg, 2);
    if (!A)
      return Err(A.error());
    Result<InternedString> L = liveLoc((*A)[0], "setMeta");
    if (!L)
      return Err(L.error());
    Meta.set(*L, (*A)[1]);
    return (*A)[1];
  }
  return Err("unknown MJS action '" + std::string(Act.str()) + "'");
}

std::string MjsCMem::toString() const {
  return memlib::printEntries(Heap, [](InternedString Loc,
                                       const PropMap &Props) {
    return std::string(Loc.str()) + " -> " +
           memlib::printObject(
               Props, [](InternedString P) { return std::string(P.str()); },
               [](const Value &V) { return V.toString(); });
  });
}

//===----------------------------------------------------------------------===//
// Symbolic memory
//===----------------------------------------------------------------------===//

void MjsSMem::defineObject(const Expr &Loc, Expr MetaVal) {
  Heap.set(Loc, PropMap());
  Meta.set(Loc, std::move(MetaVal));
}

void MjsSMem::setProp(const Expr &Loc, const Expr &P, Expr V) {
  const PropMap *Props = Heap.lookup(Loc);
  PropMap NewProps = Props ? *Props : PropMap();
  NewProps.set(P, std::move(V));
  Heap.set(Loc, std::move(NewProps));
}

Result<std::vector<SymActionBranch<MjsSMem>>>
MjsSMem::execAction(InternedString Act, const Expr &Arg,
                    const PathCondition &PC, Solver &S) const {
  obs::ActionCounters::bump("mjs", Act);
  // newObj: registration of a freshly-allocated location; never branches.
  if (Act == actNewObj()) {
    Result<std::vector<Expr>> A = splitArgsE(Arg, 2);
    if (!A)
      return Err(A.error());
    MjsSMem Next = *this;
    Next.defineObject((*A)[0], (*A)[1]);
    std::vector<SymActionBranch<MjsSMem>> Out;
    Out.push_back({std::move(Next), (*A)[0], Expr(), false});
    return Out;
  }

  auto argCount = [&]() -> size_t {
    if (Act == actGetProp() || Act == actDelProp() || Act == actHasProp() ||
        Act == actSetMeta())
      return 2;
    if (Act == actSetProp())
      return 3;
    return 1; // delObj / getMeta
  };
  Result<std::vector<Expr>> A = splitArgsE(Arg, argCount());
  if (!A)
    return Err(A.error());
  const Expr &Loc = (*A)[0];

  BranchCtx<MjsSMem> Ctx(*this, PC, S);
  Expr Live = Expr::boolE(true);
  auto DeletedMsg = [Act] {
    return "TypeError: " + std::string(Act.str()) + " on deleted object";
  };
  if (!Deleted.guard(Ctx, Loc, DeletedMsg, Live))
    return Ctx.Out;

  /// Runs \p Body(objectKey, props, takenCond) for every stored object the
  /// location may alias (the outer resolveAliases level); the no-object
  /// world is a TypeError.
  auto forEachAlias = [&](const char *What, auto Body) {
    resolveAliases(
        Ctx, Heap, Loc, Live, {},
        [&](const Expr &Key, const PropMap &Props, const Expr &Taken, bool) {
          Body(Key, Props, Taken);
        },
        [&](const Expr &Miss) {
          Ctx.error(std::string("TypeError: ") + What + " on unknown object",
                    Miss);
        });
  };

  if (Act == actGetProp()) {
    const Expr &P = (*A)[1];
    forEachAlias("getProp", [&](const Expr &, const PropMap &Props,
                                const Expr &Taken) {
      // [SGetProp]: the inner resolveAliases level branches over stored
      // properties this name may equal; an absent property on an existing
      // object is $undefined (JS semantics), not a fault.
      resolveAliases(
          Ctx, Props, P, Taken, {},
          [&](const Expr &, const Expr &V, const Expr &Br, bool) {
            Ctx.ok(*this, V, Br);
          },
          [&](const Expr &Absent) {
            Ctx.ok(*this, Expr::lit(jsUndefined()), Absent);
          });
    });
    return Ctx.Out;
  }

  if (Act == actSetProp()) {
    const Expr &P = (*A)[1];
    const Expr &V = (*A)[2];
    forEachAlias("setProp", [&](const Expr &Key, const PropMap &Props,
                                const Expr &Taken) {
      resolveAliases(
          Ctx, Props, P, Taken, {},
          [&](const Expr &PK, const Expr &, const Expr &Br, bool) {
            MjsSMem Next = *this;
            Next.setProp(Key, PK, V);
            Ctx.ok(std::move(Next), V, Br);
          },
          [&](const Expr &Fresh) {
            MjsSMem Next = *this;
            Next.setProp(Key, P, V);
            Ctx.ok(std::move(Next), V, Fresh);
          });
    });
    return Ctx.Out;
  }

  if (Act == actDelProp()) {
    const Expr &P = (*A)[1];
    forEachAlias("delProp", [&](const Expr &Key, const PropMap &Props,
                                const Expr &Taken) {
      resolveAliases(
          Ctx, Props, P, Taken, {},
          [&](const Expr &PK, const Expr &, const Expr &Br, bool) {
            MjsSMem Next = *this;
            PropMap NewProps = Props;
            NewProps.erase(PK);
            Next.Heap.set(Key, std::move(NewProps));
            Ctx.ok(std::move(Next), Expr::boolE(true), Br);
          },
          [&](const Expr &Untouched) {
            Ctx.ok(*this, Expr::boolE(true), Untouched);
          });
    });
    return Ctx.Out;
  }

  if (Act == actHasProp()) {
    const Expr &P = (*A)[1];
    forEachAlias("hasProp", [&](const Expr &, const PropMap &Props,
                                const Expr &Taken) {
      resolveAliases(
          Ctx, Props, P, Taken, {},
          [&](const Expr &, const Expr &, const Expr &Br, bool) {
            Ctx.ok(*this, Expr::boolE(true), Br);
          },
          [&](const Expr &Absent) {
            Ctx.ok(*this, Expr::boolE(false), Absent);
          });
    });
    return Ctx.Out;
  }

  if (Act == actDelObj()) {
    forEachAlias("delObj", [&](const Expr &Key, const PropMap &,
                               const Expr &Taken) {
      MjsSMem Next = *this;
      Next.Heap.erase(Key);
      Next.Meta.erase(Key);
      Next.Deleted.mark(Key);
      Ctx.ok(std::move(Next), Expr::boolE(true), Taken);
    });
    return Ctx.Out;
  }

  if (Act == actGetMeta()) {
    forEachAlias("getMeta", [&](const Expr &Key, const PropMap &,
                                const Expr &Taken) {
      const Expr *MV = Meta.lookup(Key);
      Ctx.ok(*this, MV ? *MV : Expr::lit(jsUndefined()), Taken);
    });
    return Ctx.Out;
  }

  if (Act == actSetMeta()) {
    const Expr &V = (*A)[1];
    forEachAlias("setMeta", [&](const Expr &Key, const PropMap &,
                                const Expr &Taken) {
      MjsSMem Next = *this;
      Next.Meta.set(Key, V);
      Ctx.ok(std::move(Next), V, Taken);
    });
    return Ctx.Out;
  }

  return Err("unknown MJS action '" + std::string(Act.str()) + "'");
}

std::string MjsSMem::toString() const {
  return memlib::printEntries(Heap, [](const Expr &Loc,
                                       const PropMap &Props) {
    return Loc.toString() + " -> " +
           memlib::printObject(
               Props, [](const Expr &P) { return P.toString(); },
               [](const Expr &V) { return V.toString(); });
  });
}

//===----------------------------------------------------------------------===//
// Memory interpretation
//===----------------------------------------------------------------------===//

Result<MjsCMem> gillian::mjs::interpretMemory(const Model &Eps,
                                              const MjsSMem &SMem) {
  MjsCMem Out;
  for (const auto &[LocE, Props] : SMem.heap()) {
    Result<Value> Loc = Eps.eval(LocE);
    if (!Loc)
      return Err("interpretation failure on location " + LocE.toString());
    if (!Loc->isSym())
      return Err("location interprets to a non-symbol: " + Loc->toString());
    if (Out.heap().contains(Loc->asSym()))
      return Err("locations collapse under the model");
    Out.defineObject(Loc->asSym(), jsUndefined());
    for (const auto &[PE, VE] : Props) {
      Result<Value> P = Eps.eval(PE);
      Result<Value> V = Eps.eval(VE);
      if (!P || !V)
        return Err("interpretation failure on property of " +
                   LocE.toString());
      if (!P->isStr())
        return Err("property name interprets to a non-string");
      Out.setProp(Loc->asSym(), P->asStr(), V.take());
    }
  }
  for (const auto &[LocE, MetaE] : SMem.metadata()) {
    Result<Value> Loc = Eps.eval(LocE);
    Result<Value> MV = Eps.eval(MetaE);
    if (!Loc || !MV || !Loc->isSym())
      return Err("interpretation failure on metadata");
    Out.setMetaValue(Loc->asSym(), MV.take());
  }
  for (const auto &[DE, _] : SMem.deleted()) {
    Result<Value> D = Eps.eval(DE);
    if (!D || !D->isSym())
      return Err("interpretation failure on deleted location");
    Out.markDeleted(D->asSym());
  }
  return Out;
}
