//===- while_lang/memory.cpp ----------------------------------------------===//

#include "while_lang/memory.h"

#include "engine/action_args.h"
#include "obs/action_counters.h"
#include "while_lang/compiler.h"

using namespace gillian;
using namespace gillian::whilelang;
using memlib::BranchCtx;
using memlib::resolveAliases;

//===----------------------------------------------------------------------===//
// Concrete memory
//===----------------------------------------------------------------------===//

void WhileCMem::setProp(InternedString Loc, InternedString P, Value V) {
  const PropMap *Props = Objects.lookup(Loc);
  PropMap NewProps = Props ? *Props : PropMap();
  NewProps.set(P, std::move(V));
  Objects.set(Loc, std::move(NewProps));
}

Result<Value> WhileCMem::execAction(InternedString Act, const Value &Arg) {
  if (Act == actLookup()) {
    Result<std::vector<Value>> A = splitArgs(Arg, 2);
    if (!A)
      return Err(A.error());
    return lookup((*A)[0], (*A)[1]);
  }
  if (Act == actMutate()) {
    Result<std::vector<Value>> A = splitArgs(Arg, 3);
    if (!A)
      return Err(A.error());
    return mutate((*A)[0], (*A)[1], (*A)[2]);
  }
  if (Act == actDispose()) {
    Result<std::vector<Value>> A = splitArgs(Arg, 1);
    if (!A)
      return Err(A.error());
    return dispose((*A)[0]);
  }
  return Err("unknown While action '" + std::string(Act.str()) + "'");
}

Result<Value> WhileCMem::lookup(const Value &Loc, const Value &Prop) {
  // [C-Lookup]: µ = _ ⊎ l.p -> v.
  if (!Loc.isSym())
    return Err("memory fault: lookup on non-location " + Loc.toString());
  if (!Prop.isStr())
    return Err("memory fault: non-string property " + Prop.toString());
  if (Disposed.contains(Loc.asSym()))
    return Err("memory fault: lookup on disposed object " + Loc.toString());
  const PropMap *Props = Objects.lookup(Loc.asSym());
  if (!Props)
    return Err("memory fault: lookup on unknown object " + Loc.toString());
  const Value *V = Props->lookup(Prop.asStr());
  if (!V)
    return Err("memory fault: object " + Loc.toString() +
               " has no property " + Prop.toString());
  return *V;
}

Result<Value> WhileCMem::mutate(const Value &Loc, const Value &Prop,
                                const Value &V) {
  // [C-Mutate-Present] / [C-Mutate-Absent].
  if (!Loc.isSym())
    return Err("memory fault: mutate on non-location " + Loc.toString());
  if (!Prop.isStr())
    return Err("memory fault: non-string property " + Prop.toString());
  if (Disposed.contains(Loc.asSym()))
    return Err("memory fault: mutate on disposed object " + Loc.toString());
  setProp(Loc.asSym(), Prop.asStr(), V);
  return V;
}

Result<Value> WhileCMem::dispose(const Value &Loc) {
  if (!Loc.isSym())
    return Err("memory fault: dispose on non-location " + Loc.toString());
  if (Disposed.contains(Loc.asSym()))
    return Err("memory fault: double dispose of " + Loc.toString());
  if (!Objects.contains(Loc.asSym()))
    return Err("memory fault: dispose of unknown object " + Loc.toString());
  Objects.erase(Loc.asSym());
  Disposed.mark(Loc.asSym());
  return Value::boolV(true);
}

std::string WhileCMem::toString() const {
  return memlib::printEntries(Objects, [](InternedString Loc,
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

void WhileSMem::setProp(const Expr &Loc, InternedString P, Expr V) {
  const PropMap *Props = Objects.lookup(Loc);
  PropMap NewProps = Props ? *Props : PropMap();
  NewProps.set(P, std::move(V));
  Objects.set(Loc, std::move(NewProps));
}

Result<std::vector<SymActionBranch<WhileSMem>>>
WhileSMem::execAction(InternedString Act, const Expr &Arg,
                      const PathCondition &PC, Solver &S) const {
  obs::ActionCounters::bump("while", Act);
  if (Act == actLookup()) {
    Result<std::vector<Expr>> A = splitArgsE(Arg, 2);
    if (!A)
      return Err(A.error());
    Result<InternedString> P = concreteStr((*A)[1]);
    if (!P)
      return Err(P.error());
    return lookup((*A)[0], *P, PC, S);
  }
  if (Act == actMutate()) {
    Result<std::vector<Expr>> A = splitArgsE(Arg, 3);
    if (!A)
      return Err(A.error());
    Result<InternedString> P = concreteStr((*A)[1]);
    if (!P)
      return Err(P.error());
    return mutate((*A)[0], *P, (*A)[2], PC, S);
  }
  if (Act == actDispose()) {
    Result<std::vector<Expr>> A = splitArgsE(Arg, 1);
    if (!A)
      return Err(A.error());
    return dispose((*A)[0], PC, S);
  }
  return Err("unknown While action '" + std::string(Act.str()) + "'");
}

std::vector<SymActionBranch<WhileSMem>>
WhileSMem::lookup(const Expr &Loc, InternedString Prop,
                  const PathCondition &PC, Solver &S) const {
  BranchCtx<WhileSMem> Ctx(*this, PC, S);
  Expr Live = Expr::boolE(true);
  if (!Disposed.guard(
          Ctx, Loc, [] { return "memory fault: lookup on disposed object"; },
          Live))
    return std::move(Ctx.Out);

  // [S-Lookup]: branch over every potentially-aliasing stored location;
  // the residual (no stored location matches) is a fault.
  resolveAliases(
      Ctx, Objects, Loc, Live, {},
      [&](const Expr &, const PropMap &Props, const Expr &Taken, bool) {
        if (const Expr *V = Props.lookup(Prop))
          Ctx.ok(*this, *V, Taken);
        else
          Ctx.error("memory fault: object has no property " +
                        std::string(Prop.str()),
                    Taken);
      },
      [&](const Expr &Miss) {
        Ctx.error("memory fault: lookup on unknown object", Miss);
      });
  return std::move(Ctx.Out);
}

std::vector<SymActionBranch<WhileSMem>>
WhileSMem::mutate(const Expr &Loc, InternedString Prop, const Expr &V,
                  const PathCondition &PC, Solver &S) const {
  BranchCtx<WhileSMem> Ctx(*this, PC, S);
  Expr Live = Expr::boolE(true);
  if (!Disposed.guard(
          Ctx, Loc, [] { return "memory fault: mutate on disposed object"; },
          Live))
    return std::move(Ctx.Out);

  // [S-Mutate-Present] per alias; [S-Mutate-Absent] extends on the miss.
  resolveAliases(
      Ctx, Objects, Loc, Live, {},
      [&](const Expr &Key, const PropMap &, const Expr &Taken, bool) {
        WhileSMem Next = *this;
        Next.setProp(Key, Prop, V);
        Ctx.ok(std::move(Next), Expr::boolE(true), Taken);
      },
      [&](const Expr &Absent) {
        WhileSMem Next = *this;
        Next.setProp(Loc, Prop, V);
        Ctx.ok(std::move(Next), Expr::boolE(true), Absent);
      });
  return std::move(Ctx.Out);
}

std::vector<SymActionBranch<WhileSMem>>
WhileSMem::dispose(const Expr &Loc, const PathCondition &PC,
                   Solver &S) const {
  BranchCtx<WhileSMem> Ctx(*this, PC, S);
  Expr Live = Expr::boolE(true);
  if (!Disposed.guard(
          Ctx, Loc, [] { return "memory fault: double dispose"; }, Live))
    return std::move(Ctx.Out);

  resolveAliases(
      Ctx, Objects, Loc, Live, {},
      [&](const Expr &Key, const PropMap &, const Expr &Taken, bool) {
        WhileSMem Next = *this;
        Next.Objects.erase(Key);
        Next.Disposed.mark(Key);
        Ctx.ok(std::move(Next), Expr::boolE(true), Taken);
      },
      [&](const Expr &Miss) {
        Ctx.error("memory fault: dispose of unknown object", Miss);
      });
  return std::move(Ctx.Out);
}

std::string WhileSMem::toString() const {
  return memlib::printEntries(Objects, [](const Expr &Loc,
                                          const PropMap &Props) {
    return Loc.toString() + " -> " +
           memlib::printObject(
               Props, [](InternedString P) { return std::string(P.str()); },
               [](const Expr &V) { return V.toString(); });
  });
}

//===----------------------------------------------------------------------===//
// Memory interpretation I_W (§3.3)
//===----------------------------------------------------------------------===//

Result<WhileCMem> gillian::whilelang::interpretMemory(const Model &Eps,
                                                      const WhileSMem &SMem) {
  WhileCMem Out;
  for (const auto &[LocE, Props] : SMem.objects()) {
    Result<Value> Loc = Eps.eval(LocE);
    if (!Loc)
      return Err("interpretation failure on location " + LocE.toString() +
                 ": " + Loc.error());
    if (!Loc->isSym())
      return Err("location " + LocE.toString() +
                 " interprets to a non-symbol " + Loc->toString());
    if (Out.objects().contains(Loc->asSym()))
      return Err("locations collapse under the model: " + Loc->toString());
    // Ensure the object exists even when it has no properties.
    for (const auto &[P, VE] : Props) {
      Result<Value> V = Eps.eval(VE);
      if (!V)
        return Err("interpretation failure on " + VE.toString() + ": " +
                   V.error());
      Out.setProp(Loc->asSym(), P, V.take());
    }
    if (Props.empty())
      Out.setProp(Loc->asSym(), InternedString::get("__exists"),
                  Value::boolV(true));
  }
  for (const auto &[DE, _] : SMem.disposed()) {
    Result<Value> D = Eps.eval(DE);
    if (!D)
      return Err("interpretation failure on disposed location " +
                 DE.toString());
    if (!D->isSym())
      return Err("disposed location interprets to a non-symbol");
    Out.markDisposed(D->asSym());
  }
  return Out;
}
