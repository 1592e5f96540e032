//===- linear/memory.h - Wasm-style linear memory --------------*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fourth memory-model instantiation: a Wasm-style flat linear memory,
/// written by hand on the memlib helpers — this one file is the whole
/// model (see DESIGN.md §4h and the README quickstart "add your own
/// language in one file").
///
/// The state is a size register next to a sparse cell array keyed by
/// integer-offset expressions (zero-initialised like Wasm memory).
/// All branching goes through the memlib helpers: bounds checks are
/// BranchCtx::checkOrError splits, symbolic-offset loads and stores run
/// the shared resolveAliases loop with linear's miss policies (load
/// misses read 0; store misses extend at the queried offset), and a
/// symbolic grow amount is the structured memlib::symbolicSizeError.
///
/// Actions (the Wasm memory instruction core):
///   grow [d]      — extend the memory by d cells; returns the old size.
///                   Negative d and growing by a symbolic amount are
///                   faults (the latter an engine-level Err, as for MC
///                   alloc).
///   msize []      — current size in cells.
///   load [i]      — cell at offset i; 0 when never written;
///                   out-of-bounds is a fault.
///   store [i, v]  — write v at offset i; out-of-bounds is a fault.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_LINEAR_MEMORY_H
#define GILLIAN_LINEAR_MEMORY_H

#include "engine/action_args.h"
#include "engine/memlib/memlib.h"
#include "engine/state.h"
#include "obs/action_counters.h"
#include "solver/model.h"
#include "solver/simplifier.h"
#include "support/cow_map.h"

#include <string>

namespace gillian::linear {

// Action names, interned once; every dispatch compares the handles.
inline InternedString actGrow() {
  static const InternedString A = InternedString::get("grow");
  return A;
}
inline InternedString actMSize() {
  static const InternedString A = InternedString::get("msize");
  return A;
}
inline InternedString actLoad() {
  static const InternedString A = InternedString::get("load");
  return A;
}
inline InternedString actStore() {
  static const InternedString A = InternedString::get("store");
  return A;
}

//===----------------------------------------------------------------------===//
// Concrete linear memory
//===----------------------------------------------------------------------===//

class LinearCMem {
public:
  Result<Value> execAction(InternedString Act, const Value &Arg) {
    if (Act == actGrow()) {
      Result<std::vector<Value>> A = splitArgs(Arg, 1);
      if (!A)
        return Err(A.error());
      if (!(*A)[0].isInt())
        return Err(memlib::symbolicSizeError("grow", Expr::lit((*A)[0])));
      int64_t D = (*A)[0].asInt();
      if (D < 0)
        return Err("UB: grow by negative size");
      int64_t Old = Size;
      Size += D;
      return Value::intV(Old);
    }
    if (Act == actMSize()) {
      Result<std::vector<Value>> A = splitArgs(Arg, 0);
      if (!A)
        return Err(A.error());
      return Value::intV(Size);
    }
    if (Act == actLoad() || Act == actStore()) {
      bool IsStore = Act == actStore();
      Result<std::vector<Value>> A = splitArgs(Arg, IsStore ? 2 : 1);
      if (!A)
        return Err(A.error());
      if (!(*A)[0].isInt())
        return Err("memory fault: non-integer offset " + (*A)[0].toString());
      int64_t Off = (*A)[0].asInt();
      if (Off < 0 || Off >= Size)
        return Err(std::string("UB: out-of-bounds ") +
                   (IsStore ? "store" : "load"));
      if (IsStore) {
        Cells.set(Off, (*A)[1]);
        return (*A)[1];
      }
      const Value *V = Cells.lookup(Off);
      return V ? *V : Value::intV(0); // zero-initialised, as in Wasm
    }
    return Err("unknown linear action '" + std::string(Act.str()) + "'");
  }

  int64_t size() const { return Size; }
  const CowMap<int64_t, Value> &cells() const { return Cells; }
  void setCell(int64_t Off, Value V) { Cells.set(Off, std::move(V)); }
  void setSize(int64_t S) { Size = S; }

  std::string toString() const {
    return "size=" + std::to_string(Size) + " " +
           memlib::printEntries(Cells, [](int64_t Off, const Value &V) {
             return std::to_string(Off) + " -> " + V.toString();
           });
  }

private:
  int64_t Size = 0;
  CowMap<int64_t, Value> Cells;
};

//===----------------------------------------------------------------------===//
// Symbolic linear memory
//===----------------------------------------------------------------------===//

class LinearSMem {
public:
  using CellMap = CowMap<Expr, Expr, ExprOrdering>;

  Result<std::vector<SymActionBranch<LinearSMem>>>
  execAction(InternedString Act, const Expr &Arg, const PathCondition &PC,
             Solver &S) const {
    obs::ActionCounters::bump("linear", Act);
    memlib::BranchCtx<LinearSMem> C(*this, PC, S);

    if (Act == actGrow()) {
      Result<std::vector<Expr>> A = splitArgsE(Arg, 1);
      if (!A)
        return Err(A.error());
      Expr D = simplify((*A)[0]);
      // Growing by a symbolic amount would make the size register
      // symbolic; like MC alloc, this is the kit's structured
      // symbolic-size fault.
      if (!D.isLit() || !D.litValue().isInt())
        return Err(memlib::symbolicSizeError("grow", D));
      if (D.litValue().asInt() < 0) {
        C.error("UB: grow by negative size");
        return C.Out;
      }
      LinearSMem Next = *this;
      Next.Size += D.litValue().asInt();
      C.ok(std::move(Next), Expr::intE(Size));
      return C.Out;
    }

    if (Act == actMSize()) {
      Result<std::vector<Expr>> A = splitArgsE(Arg, 0);
      if (!A)
        return Err(A.error());
      C.ok(*this, Expr::intE(Size));
      return C.Out;
    }

    if (Act == actLoad() || Act == actStore()) {
      bool IsStore = Act == actStore();
      Result<std::vector<Expr>> A = splitArgsE(Arg, IsStore ? 2 : 1);
      if (!A)
        return Err(A.error());
      Expr Off = simplify((*A)[0]);
      const char *What = IsStore ? "store" : "load";
      // Bounds: 0 <= i < size. The size register is concrete, so this is
      // one checkOrError split.
      Expr InBounds = Expr::andE(Expr::le(Expr::intE(0), Off),
                                 Expr::lt(Off, Expr::intE(Size)));
      C.checkOrError(
          InBounds, Expr::boolE(true),
          std::string("UB: out-of-bounds ") + What, [&](Expr U) {
            if (IsStore) {
              const Expr &V = (*A)[1];
              memlib::resolveAliases(
                  C, Cells, Off, U, {},
                  [&](const Expr &Key, const Expr &, const Expr &Taken,
                      bool) {
                    LinearSMem Next = *this;
                    Next.Cells.set(Key, V);
                    C.ok(std::move(Next), V, Taken);
                  },
                  [&](const Expr &Miss) {
                    // [S-Mutate-Absent]: extend at the queried offset.
                    LinearSMem Next = *this;
                    Next.Cells.set(Off, V);
                    C.ok(std::move(Next), V, Miss);
                  });
            } else {
              memlib::resolveAliases(
                  C, Cells, Off, U, {},
                  [&](const Expr &, const Expr &V, const Expr &Taken,
                      bool) { C.ok(*this, V, Taken); },
                  [&](const Expr &Miss) {
                    // Never-written memory reads as 0 (Wasm
                    // zero-initialisation) — a miss is not a fault.
                    C.ok(*this, Expr::intE(0), Miss);
                  });
            }
          });
      return C.Out;
    }

    return Err("unknown linear action '" + std::string(Act.str()) + "'");
  }

  int64_t size() const { return Size; }
  const CellMap &cells() const { return Cells; }
  void setCell(const Expr &Off, Expr V) { Cells.set(Off, std::move(V)); }
  void setSize(int64_t S) { Size = S; }

  std::string toString() const {
    return "size=" + std::to_string(Size) + " " +
           memlib::printEntries(Cells, [](const Expr &Off, const Expr &V) {
             return Off.toString() + " -> " + V.toString();
           });
  }

  friend bool operator==(const LinearSMem &A, const LinearSMem &B) {
    return A.Size == B.Size && A.Cells == B.Cells;
  }

private:
  int64_t Size = 0;
  CellMap Cells;
};

static_assert(ConcreteMemoryModel<LinearCMem>);
static_assert(SymbolicMemoryModel<LinearSMem>);

/// Memory interpretation I_L (Def 3.7 instance): offsets evaluate to
/// distinct in-bounds integers, cells evaluate pointwise.
inline Result<LinearCMem> interpretMemory(const Model &Eps,
                                          const LinearSMem &SMem) {
  LinearCMem Out;
  Out.setSize(SMem.size());
  for (const auto &[OffE, VE] : SMem.cells()) {
    Result<Value> Off = Eps.eval(OffE);
    if (!Off)
      return Err("interpretation failure on offset " + OffE.toString() +
                 ": " + Off.error());
    if (!Off->isInt())
      return Err("offset " + OffE.toString() +
                 " interprets to a non-integer " + Off->toString());
    if (Off->asInt() < 0 || Off->asInt() >= SMem.size())
      return Err("offset " + Off->toString() +
                 " interprets outside the memory");
    if (Out.cells().contains(Off->asInt()))
      return Err("offsets collapse under the model: " + Off->toString());
    Result<Value> V = Eps.eval(VE);
    if (!V)
      return Err("interpretation failure on " + VE.toString() + ": " +
                 V.error());
    Out.setCell(Off->asInt(), V.take());
  }
  return Out;
}

} // namespace gillian::linear

#endif // GILLIAN_LINEAR_MEMORY_H
