//===- engine/memlib/freeable.h - Use-after-dispose tracking ---*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The freeable combinator: use-after-dispose fault tracking, in the two
/// isomorphic representations the models need.
///
///  * Freeable<Cell> — the cell form: a payload plus a freed bit. This is
///    the shape of MC's blocks (CompCert's "freed" blocks keep their
///    identity but fault on access) and of the standalone kit model.
///
///  * SFreedSet / CFreedSet — the key-index form used by PMaps whose
///    freed cells drop their payload: the freed keys move into a side
///    index so the alias branch loop only walks live entries. While's
///    `Disposed` and MJS's `Deleted` sets are exactly this; the symbolic
///    guard below is their (previously triplicated) pre-pass that emits a
///    fault branch for every stored key the queried location may equal
///    under the path condition.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_ENGINE_MEMLIB_FREEABLE_H
#define GILLIAN_ENGINE_MEMLIB_FREEABLE_H

#include "engine/action_args.h"
#include "engine/memlib/branch.h"
#include "engine/state.h"
#include "solver/model.h"
#include "support/cow_map.h"

namespace gillian::memlib {

//===----------------------------------------------------------------------===//
// Key-index form
//===----------------------------------------------------------------------===//

/// Concrete freed-key index.
class CFreedSet {
public:
  bool contains(InternedString K) const { return Keys.contains(K); }
  void mark(InternedString K) { Keys.set(K, true); }
  const CowMap<InternedString, bool> &keys() const { return Keys; }

  friend bool operator==(const CFreedSet &A, const CFreedSet &B) {
    return A.Keys == B.Keys;
  }

private:
  CowMap<InternedString, bool> Keys;
};

/// Symbolic freed-key index with the shared use-after-dispose guard.
class SFreedSet {
public:
  using Map = CowMap<Expr, bool, ExprOrdering>;

  const Map &keys() const { return Keys; }
  bool empty() const { return Keys.empty(); }
  void mark(const Expr &K) { Keys.set(K, true); }

  /// Emits a fault branch (message \p Msg(), built only for a fault that
  /// is emitted) for every freed key that \p Loc may alias under the path
  /// condition. Returns false when the alias is definite — the action is
  /// over, the caller returns its branches. Otherwise \p LiveOut
  /// accumulates the "aliases none of the freed keys" condition under
  /// which the action proceeds.
  template <typename M, typename MsgFn>
  bool guard(BranchCtx<M> &Ctx, const Expr &Loc, const MsgFn &Msg,
             Expr &LiveOut) const {
    for (const auto &[D, Unused] : Keys) {
      (void)Unused;
      Expr Cond;
      switch (decideEq(Loc, D, Ctx.PC, Ctx.S, Cond)) {
      case Tri::Yes:
        Ctx.error(Msg());
        return false;
      case Tri::No:
        break;
      case Tri::Maybe:
        Ctx.error(Msg(), Cond);
        LiveOut = conj(LiveOut, Expr::notE(Cond));
        break;
      }
    }
    return true;
  }

  /// I(·) on the index: every freed key must evaluate to a symbol.
  Result<CFreedSet> interpret(const Model &Eps, const char *What) const {
    CFreedSet Out;
    for (const auto &[DE, Unused] : Keys) {
      (void)Unused;
      Result<Value> D = Eps.eval(DE);
      if (!D)
        return Err(std::string("interpretation failure on ") + What + " " +
                   DE.toString());
      if (!D->isSym())
        return Err(std::string(What) + " interprets to a non-symbol");
      Out.mark(D->asSym());
    }
    return Out;
  }

  friend bool operator==(const SFreedSet &A, const SFreedSet &B) {
    return A.Keys == B.Keys;
  }

private:
  Map Keys;
};

//===----------------------------------------------------------------------===//
// Cell form
//===----------------------------------------------------------------------===//

// Action names are interned once; every dispatch compares the handles.
inline InternedString actFreeableFree() {
  static const InternedString A = InternedString::get("ffree");
  return A;
}

/// Freeable<Cell>: the payload keeps its identity after free, but every
/// inner-cell action on a freed payload is a memory fault, and a double
/// free is a memory fault. Action set: the inner cell's actions plus
/// ffree [].
template <typename Cell> struct Freeable {
  static bool hasAction(InternedString Act) {
    return Act == actFreeableFree() || Cell::hasAction(Act);
  }

  class Concrete {
  public:
    using CellT = typename Cell::Concrete;

    Concrete() = default;
    explicit Concrete(CellT V) : Val(std::move(V)) {}

    const CellT &value() const { return Val; }
    CellT &value() { return Val; }
    bool freed() const { return Freed; }
    void markFreed() { Freed = true; }

    Result<Value> execAction(InternedString Act, const Value &Arg) {
      if (Act == actFreeableFree()) {
        Result<std::vector<Value>> A = splitArgs(Arg, 0);
        if (!A)
          return Err(A.error());
        if (Freed)
          return Err("memory fault: double free");
        Freed = true;
        return Value::boolV(true);
      }
      if (Freed)
        return Err("memory fault: use after free");
      return Val.execAction(Act, Arg);
    }

    std::string toString() const {
      return Val.toString() + (Freed ? " [freed]" : "");
    }

    friend bool operator==(const Concrete &A, const Concrete &B) {
      return A.Freed == B.Freed && A.Val == B.Val;
    }

  private:
    CellT Val;
    bool Freed = false;
  };

  class Symbolic {
  public:
    using CellT = typename Cell::Symbolic;

    Symbolic() = default;
    explicit Symbolic(CellT V) : Val(std::move(V)) {}

    const CellT &value() const { return Val; }
    CellT &value() { return Val; }
    bool freed() const { return Freed; }

    Result<std::vector<SymActionBranch<Symbolic>>>
    execAction(InternedString Act, const Expr &Arg, const PathCondition &PC,
               Solver &S) const {
      std::vector<SymActionBranch<Symbolic>> Out;
      if (Act == actFreeableFree()) {
        Result<std::vector<Expr>> A = splitArgsE(Arg, 0);
        if (!A)
          return Err(A.error());
        if (Freed) {
          Out.push_back({*this, Expr::strE("memory fault: double free"),
                         Expr(), /*IsError=*/true});
          return Out;
        }
        Symbolic Next = *this;
        Next.Freed = true;
        Out.push_back({std::move(Next), Expr::boolE(true), Expr(), false});
        return Out;
      }
      if (Freed) {
        Out.push_back({*this, Expr::strE("memory fault: use after free"),
                       Expr(), /*IsError=*/true});
        return Out;
      }
      Result<std::vector<SymActionBranch<CellT>>> Inner =
          Val.execAction(Act, Arg, PC, S);
      if (!Inner)
        return Err(Inner.error());
      for (SymActionBranch<CellT> &B : *Inner) {
        Symbolic Next = *this;
        Next.Val = std::move(B.Mem);
        Out.push_back({std::move(Next), std::move(B.Ret), std::move(B.Cond),
                       B.IsError});
      }
      return Out;
    }

    Result<Concrete> interpret(const Model &Eps) const {
      Result<typename Cell::Concrete> V = Val.interpret(Eps);
      if (!V)
        return Err(V.error());
      Concrete Out(V.take());
      if (Freed)
        Out.markFreed();
      return Out;
    }

    std::string toString() const {
      return Val.toString() + (Freed ? " [freed]" : "");
    }

    friend bool operator==(const Symbolic &A, const Symbolic &B) {
      return A.Freed == B.Freed && A.Val == B.Val;
    }

  private:
    CellT Val;
    bool Freed = false;
  };
};

} // namespace gillian::memlib

#endif // GILLIAN_ENGINE_MEMLIB_FREEABLE_H
