//===- engine/memlib/cell.h - Leaf cell combinator -------------*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The leaf of the memory-model algebra: a single mutable cell. Concretely
/// it holds a GIL value, symbolically a logical expression. Like every
/// combinator, it exposes a *paired* concrete/symbolic type, both
/// satisfying the engine's memory-model concepts (Defs 2.3/2.4), plus the
/// §3.3 interpretation from the symbolic side to the concrete side.
///
/// Actions: cget [] and cset [v]. A cell action never branches — all
/// branching in composed models comes from the PMap alias loop and the
/// Freeable liveness guard wrapped around cells.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_ENGINE_MEMLIB_CELL_H
#define GILLIAN_ENGINE_MEMLIB_CELL_H

#include "engine/action_args.h"
#include "engine/memlib/branch.h"
#include "engine/state.h"
#include "solver/model.h"

namespace gillian::memlib {

// Action names are interned once; every dispatch compares the handles.
inline InternedString actCellGet() {
  static const InternedString A = InternedString::get("cget");
  return A;
}
inline InternedString actCellSet() {
  static const InternedString A = InternedString::get("cset");
  return A;
}

/// A single expression-valued cell; the default codomain of PMap.
struct ExprCell {
  static bool hasAction(InternedString Act) {
    return Act == actCellGet() || Act == actCellSet();
  }

  class Concrete {
  public:
    Concrete() = default;
    explicit Concrete(Value V) : Val(std::move(V)) {}

    const Value &read() const { return Val; }
    void write(Value V) { Val = std::move(V); }

    Result<Value> execAction(InternedString Act, const Value &Arg) {
      if (Act == actCellGet()) {
        Result<std::vector<Value>> A = splitArgs(Arg, 0);
        if (!A)
          return Err(A.error());
        return Val;
      }
      if (Act == actCellSet()) {
        Result<std::vector<Value>> A = splitArgs(Arg, 1);
        if (!A)
          return Err(A.error());
        Val = (*A)[0];
        return Val;
      }
      return Err("unknown cell action '" + std::string(Act.str()) + "'");
    }

    std::string toString() const { return Val.toString(); }

    friend bool operator==(const Concrete &A, const Concrete &B) {
      return A.Val == B.Val;
    }

  private:
    Value Val;
  };

  class Symbolic {
  public:
    Symbolic() = default;
    explicit Symbolic(Expr E) : Val(std::move(E)) {}

    const Expr &read() const { return Val; }
    void write(Expr E) { Val = std::move(E); }

    Result<std::vector<SymActionBranch<Symbolic>>>
    execAction(InternedString Act, const Expr &Arg, const PathCondition &PC,
               Solver &S) const {
      (void)PC;
      (void)S;
      std::vector<SymActionBranch<Symbolic>> Out;
      if (Act == actCellGet()) {
        Result<std::vector<Expr>> A = splitArgsE(Arg, 0);
        if (!A)
          return Err(A.error());
        Out.push_back({*this, Val, Expr(), false});
        return Out;
      }
      if (Act == actCellSet()) {
        Result<std::vector<Expr>> A = splitArgsE(Arg, 1);
        if (!A)
          return Err(A.error());
        Symbolic Next = *this;
        Next.Val = (*A)[0];
        Out.push_back({std::move(Next), (*A)[0], Expr(), false});
        return Out;
      }
      return Err("unknown cell action '" + std::string(Act.str()) + "'");
    }

    /// I(·) for a cell: evaluate the held expression under ε.
    Result<Concrete> interpret(const Model &Eps) const {
      if (!Val)
        return Concrete();
      Result<Value> V = Eps.eval(Val);
      if (!V)
        return Err("interpretation failure on cell " + Val.toString() +
                   ": " + V.error());
      return Concrete(V.take());
    }

    std::string toString() const {
      return Val ? Val.toString() : std::string("<unset>");
    }

    friend bool operator==(const Symbolic &A, const Symbolic &B) {
      if (!A.Val || !B.Val)
        return !A.Val && !B.Val;
      return A.Val == B.Val;
    }

  private:
    Expr Val;
  };
};

static_assert(ConcreteMemoryModel<ExprCell::Concrete>);
static_assert(SymbolicMemoryModel<ExprCell::Symbolic>);

} // namespace gillian::memlib

#endif // GILLIAN_ENGINE_MEMLIB_CELL_H
