//===- engine/state.h - State models and memory liftings -------*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's state-model machinery:
///
///  * Def 2.1 (state model): realised as the compile-time interface the
///    GIL interpreter consumes (see the StateModel concept in
///    interpreter.h). C++ class templates play the role of OCaml functors.
///  * Def 2.3 / 2.4 (concrete / symbolic memory models): the
///    ConcreteMemoryModel and SymbolicMemoryModel concepts below, which a
///    tool developer implements for a new target language.
///  * Def 2.5 / 2.6 (state constructors CSC / SSC): the ConcreteState and
///    SymbolicState class templates, which lift a memory model to a proper
///    state model by pairing it with a variable store, one of the built-in
///    allocators and (symbolically) a path condition, and by providing the
///    A_proper actions (setVar / setStore / getStore / eval / assume /
///    uSym / iSym).
///
/// Restriction (§3.1) is implemented on symbolic states as path-condition
/// strengthening plus allocator-record strengthening (restrictWith).
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_ENGINE_STATE_H
#define GILLIAN_ENGINE_STATE_H

#include "engine/allocator.h"
#include "engine/options.h"
#include "gil/expr.h"
#include "solver/simplifier.h"
#include "solver/solver.h"
#include "support/cow_map.h"

#include <concepts>
#include <optional>
#include <vector>

namespace gillian {

/// One outcome of a symbolic memory action (the (µ̂', ê', π') triples of
/// Def 2.4). IsError marks language-level memory faults (out-of-bounds,
/// use-after-free, missing property, ...) which the interpreter turns into
/// GIL error outcomes E(Ret) on that branch.
template <typename M> struct SymActionBranch {
  M Mem;
  Expr Ret;
  Expr Cond;            ///< branch condition π' (null or true = no split)
  bool IsError = false;
};

/// Def 2.3: a concrete memory model. Actions execute in place and return
/// the value output; Err(...) is a language-level memory fault (an E
/// outcome, e.g. "lookup of a disposed object"), not an engine failure.
template <typename M>
concept ConcreteMemoryModel =
    std::default_initializable<M> && std::copyable<M> &&
    requires(M Mem, InternedString Act, const Value &Arg) {
      { Mem.execAction(Act, Arg) } -> std::same_as<Result<Value>>;
    };

/// Def 2.4: a symbolic memory model. Actions may branch; each branch
/// carries the condition under which it is taken. The path condition and
/// solver are provided for the "π ∧ π' SAT" side conditions of the action
/// rules (Fig. 3); Err(...) signals malformed action arguments (an engine
/// bug), not a memory fault — faults are IsError branches.
template <typename M>
concept SymbolicMemoryModel =
    std::default_initializable<M> && std::copyable<M> &&
    requires(const M Mem, InternedString Act, const Expr &Arg,
             const PathCondition &PC, Solver &S) {
      {
        Mem.execAction(Act, Arg, PC, S)
      } -> std::same_as<Result<std::vector<SymActionBranch<M>>>>;
    };

/// One outcome of an action at the *state* level.
template <typename St> struct StateBranch {
  St State;
  typename St::ValueT Ret;
  bool IsError = false;
};

//===----------------------------------------------------------------------===//
// Concrete states — CSC (Def 2.5)
//===----------------------------------------------------------------------===//

/// The concrete state constructor: lifts a concrete memory model to a
/// proper state model over GIL values.
template <ConcreteMemoryModel M> class ConcreteState {
public:
  using ValueT = Value;
  using MemT = M;
  using StoreT = CowMap<InternedString, Value>;

  ConcreteState() = default;
  explicit ConcreteState(M Mem) : Mem(std::move(Mem)) {}

  // -- A_proper ----------------------------------------------------------

  Result<Value> evalExpr(const Expr &E) const {
    return E.evalConcrete(
        [this](InternedString X) { return Store.lookup(X); });
  }

  void setVar(InternedString X, Value V) { Store.set(X, std::move(V)); }
  StoreT getStore() const { return Store; }
  void setStore(StoreT S) { Store = std::move(S); }

  /// assume(v): keeps the state iff v is `true` (§2.3). A non-boolean
  /// condition is a GIL type error.
  Result<std::optional<ConcreteState>> assumeValue(const Value &V) const {
    if (!V.isBool())
      return Err("type error: condition " + V.toString() + " is not a Bool");
    if (!V.asBool())
      return std::optional<ConcreteState>();
    return std::optional<ConcreteState>(*this);
  }

  Value allocUSym(uint32_t Site) { return Alloc.allocUSym(Site); }
  Value allocISym(uint32_t Site) { return Alloc.allocISym(Site); }

  Result<std::vector<StateBranch<ConcreteState>>>
  execAction(InternedString Act, const Value &Arg) const {
    ConcreteState Next = *this;
    Result<Value> R = Next.Mem.execAction(Act, Arg);
    std::vector<StateBranch<ConcreteState>> Out;
    if (!R) {
      // Memory faults surface as error branches carrying the message.
      Out.push_back({*this, Value::strV(R.error()), /*IsError=*/true});
      return Out;
    }
    Out.push_back({std::move(Next), R.take(), /*IsError=*/false});
    return Out;
  }

  /// Extracts a procedure identifier from an evaluated callee (Proc values
  /// and Str values both denote procedures, as front ends call by name).
  std::optional<InternedString> asProcId(const Value &V) const {
    if (V.isProc())
      return V.asProc();
    if (V.isStr())
      return V.asStr();
    return std::nullopt;
  }

  static Value errorValue(const std::string &Msg) {
    return Value::strV(Msg);
  }

  M &memory() { return Mem; }
  const M &memory() const { return Mem; }
  ConcreteAllocator &allocator() { return Alloc; }
  const ConcreteAllocator &allocator() const { return Alloc; }
  const StoreT &store() const { return Store; }

private:
  M Mem;
  StoreT Store;
  ConcreteAllocator Alloc;
};

//===----------------------------------------------------------------------===//
// Symbolic states — SSC (Def 2.6)
//===----------------------------------------------------------------------===//

/// The symbolic state constructor: lifts a symbolic memory model to a
/// proper state model over logical expressions, adding a path condition.
/// The solver and engine options are shared across the states of one run.
template <SymbolicMemoryModel M> class SymbolicState {
public:
  using ValueT = Expr;
  using MemT = M;
  using StoreT = CowMap<InternedString, Expr>;

  SymbolicState() = default;
  SymbolicState(M Mem, Solver *Slv, const EngineOptions *Opts)
      : Mem(std::move(Mem)), Slv(Slv), Opts(Opts) {}

  // -- A_proper ----------------------------------------------------------

  /// [EvalExpr] of §2.3: substitute program variables by their store
  /// expressions, then simplify.
  ///
  /// When every program variable \p E reads is bound to a literal, the
  /// simplifier would fold the substituted tree to one literal through
  /// evalUnOp/evalBinOp; that literal is computed here on values instead,
  /// without building the tree (DESIGN.md §4j). Anything else — an
  /// unbound or symbolic binding, an evaluation error, a state without
  /// options (which does not simplify) — takes the symbolic path.
  Result<Expr> evalExpr(const Expr &E) const {
    if (Opts) {
      // A bare literal, or a variable bound to one, is its own node.
      if (E.isLit())
        return E;
      if (E.isPVar()) {
        const Expr *B = Store.lookup(E.varName());
        if (B && B->isLit())
          return *B;
      } else if (std::optional<Value> V = foldLiterals(E)) {
        return Expr::lit(std::move(*V));
      }
    }
    std::string Unbound;
    Expr S = E.substPVars([&](InternedString X) -> Expr {
      const Expr *B = Store.lookup(X);
      if (!B && Unbound.empty())
        Unbound = std::string(X.str());
      return B ? *B : Expr();
    });
    if (!S)
      return Err("unbound program variable '" + Unbound + "'");
    return simplified(S);
  }

  void setVar(InternedString X, Expr E) { Store.set(X, std::move(E)); }
  StoreT getStore() const { return Store; }
  void setStore(StoreT S) { Store = std::move(S); }

  /// assume(π'): strengthens the path condition and keeps the state iff
  /// π ∧ π' is not provably unsatisfiable (§2.3).
  Result<std::optional<SymbolicState>> assumeValue(const Expr &Cond) const {
    Expr C = simplified(Cond);
    if (C.isFalse())
      return std::optional<SymbolicState>();
    SymbolicState Next = *this;
    Next.addConjunct(C);
    if (Next.PC.isTriviallyFalse() || !Slv->maybeSat(Next.PC))
      return std::optional<SymbolicState>();
    return std::optional<SymbolicState>(std::move(Next));
  }

  Expr allocUSym(uint32_t Site) {
    return Expr::lit(Alloc.allocUSym(Site));
  }
  Expr allocISym(uint32_t Site) { return Alloc.allocISym(Site); }

  /// [Action] of Fig. 3, leaving this state as it was.
  Result<std::vector<StateBranch<SymbolicState>>>
  execAction(InternedString Act, const Expr &Arg) const & {
    return SymbolicState(*this).execAction(Act, Arg);
  }

  /// [Action] of Fig. 3, consuming this state: every branch but the last
  /// copies the store, allocator, path condition and type environment,
  /// and the last takes them. A branch that conjoins π' to the path
  /// condition is kept only when π ∧ π' is not provably unsatisfiable.
  /// On Err (malformed arguments) the state is left untouched.
  Result<std::vector<StateBranch<SymbolicState>>>
  execAction(InternedString Act, const Expr &Arg) && {
    Result<std::vector<SymActionBranch<M>>> Branches =
        Mem.execAction(Act, Arg, PC, *Slv);
    if (!Branches)
      return Err(Branches.error());
    std::vector<StateBranch<SymbolicState>> Out;
    Out.reserve(Branches->size());
    for (size_t I = 0, N = Branches->size(); I != N; ++I) {
      SymActionBranch<M> &B = (*Branches)[I];
      SymbolicState Next =
          I + 1 == N
              ? SymbolicState(std::move(B.Mem), std::move(Store),
                              std::move(Alloc), std::move(PC),
                              std::move(Types), Slv, Opts)
              : SymbolicState(std::move(B.Mem), Store, Alloc, PC, Types, Slv,
                              Opts);
      // `this` may have been moved from: simplify under Next, whose type
      // environment is still the pre-action one.
      Expr Ret = Next.simplified(B.Ret);
      if (B.Cond) {
        Expr C = Next.simplified(B.Cond);
        if (C.isFalse())
          continue;
        size_t Before = Next.PC.size();
        Next.addConjunct(C);
        if (Next.PC.isTriviallyFalse() ||
            (Next.PC.size() != Before && !Slv->maybeSat(Next.PC)))
          continue;
      }
      Out.push_back({std::move(Next), std::move(Ret), B.IsError});
    }
    return Out;
  }

  std::optional<InternedString> asProcId(const Expr &V) const {
    if (!V.isLit())
      return std::nullopt;
    const Value &L = V.litValue();
    if (L.isProc())
      return L.asProc();
    if (L.isStr())
      return L.asStr();
    return std::nullopt;
  }

  static Expr errorValue(const std::string &Msg) { return Expr::strE(Msg); }

  // -- Symbolic-only surface ----------------------------------------------

  const PathCondition &pathCondition() const { return PC; }
  void addToPathCondition(const Expr &E) { addConjunct(simplified(E)); }

  /// The type assignment harvested from this state's path condition;
  /// drives type-guarded simplification and is reused by the solver.
  const TypeEnv &typeEnv() const { return Types; }

  /// Restriction (§3.1): σ ⇃σ' strengthens this state with the path
  /// condition and allocation knowledge of \p Other, leaving store and
  /// memory untouched (Def 3.9's lifted restriction).
  void restrictWith(const SymbolicState &Other) {
    for (const Expr &C : Other.PC.conjuncts())
      absorbConjunct(C, Types);
    PC.addAll(Other.PC);
    Alloc.record().restrictWith(Other.Alloc.record());
  }

  /// The ⊑ pre-order induced by restriction.
  bool refines(const SymbolicState &Other) const {
    return PC.contains(Other.PC) &&
           Alloc.record().refines(Other.Alloc.record());
  }

  M &memory() { return Mem; }
  const M &memory() const { return Mem; }
  SymbolicAllocator &allocator() { return Alloc; }
  const SymbolicAllocator &allocator() const { return Alloc; }
  const StoreT &store() const { return Store; }

private:
  SymbolicState(M Mem, StoreT Store, SymbolicAllocator Alloc,
                PathCondition PC, TypeEnv Types, Solver *Slv,
                const EngineOptions *Opts)
      : Mem(std::move(Mem)), Store(std::move(Store)), Alloc(std::move(Alloc)),
        PC(std::move(PC)), Types(std::move(Types)), Slv(Slv), Opts(Opts) {}

  /// The value of \p E over the store when every program variable it
  /// reads is bound to a literal and no operator faults; nullopt
  /// otherwise. Both operands of && and || are evaluated: short-circuiting
  /// past an unbound variable would answer where substitution reports it.
  std::optional<Value> foldLiterals(const Expr &E) const {
    switch (E.kind()) {
    case ExprKind::Lit:
      return E.litValue();
    case ExprKind::PVar: {
      const Expr *B = Store.lookup(E.varName());
      if (!B || !B->isLit())
        return std::nullopt;
      return B->litValue();
    }
    case ExprKind::LVar:
      return std::nullopt;
    case ExprKind::UnOp: {
      std::optional<Value> C = foldLiterals(E.child(0));
      if (!C)
        return std::nullopt;
      Result<Value> R = evalUnOp(E.unOpKind(), *C);
      if (!R)
        return std::nullopt;
      return R.take();
    }
    case ExprKind::BinOp: {
      std::optional<Value> A = foldLiterals(E.child(0));
      if (!A)
        return std::nullopt;
      std::optional<Value> B = foldLiterals(E.child(1));
      if (!B)
        return std::nullopt;
      Result<Value> R = evalBinOp(E.binOpKind(), *A, *B);
      if (!R)
        return std::nullopt;
      return R.take();
    }
    case ExprKind::List: {
      std::vector<Value> Elems;
      Elems.reserve(E.numChildren());
      for (size_t I = 0, N = E.numChildren(); I != N; ++I) {
        std::optional<Value> V = foldLiterals(E.child(I));
        if (!V)
          return std::nullopt;
        Elems.push_back(std::move(*V));
      }
      return Value::listV(std::move(Elems));
    }
    }
    return std::nullopt;
  }

  Expr simplified(const Expr &E) const {
    if (!Opts)
      return E;
    return simplify(E, &Types);
  }

  /// Adds a conjunct, harvesting its typing facts first so later
  /// simplification benefits from them.
  void addConjunct(const Expr &C) {
    absorbConjunct(C, Types);
    PC.add(C);
  }

  M Mem;
  StoreT Store;
  SymbolicAllocator Alloc;
  PathCondition PC;
  TypeEnv Types;
  Solver *Slv = nullptr;
  const EngineOptions *Opts = nullptr;
};

} // namespace gillian

#endif // GILLIAN_ENGINE_STATE_H
