//===- engine/memlib/freeable.h - Use-after-dispose tracking ---*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The freed-key index of a memory whose freed entries drop their payload:
/// the freed keys move into a side index, so the alias branch loop walks
/// only live entries. While's `Disposed` and MJS's `Deleted` sets are this
/// index, concretely (CFreedSet, keyed by symbol) and symbolically
/// (SFreedSet, keyed by expression). SFreedSet::guard is their shared
/// pre-pass: it emits a fault branch for every freed key the queried
/// location may equal under the path condition.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_ENGINE_MEMLIB_FREEABLE_H
#define GILLIAN_ENGINE_MEMLIB_FREEABLE_H

#include "engine/memlib/branch.h"
#include "solver/model.h"
#include "support/cow_map.h"

namespace gillian::memlib {

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

} // namespace gillian::memlib

#endif // GILLIAN_ENGINE_MEMLIB_FREEABLE_H
