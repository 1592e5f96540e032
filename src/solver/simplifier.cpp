//===- solver/simplifier.cpp ----------------------------------------------===//

#include "solver/simplifier.h"

#include "solver/type_infer.h"

#include <cstdlib>

using namespace gillian;

namespace {

/// True when evaluating \p E can never fault (no type errors, no division
/// by zero, no out-of-bounds). Simplification rules that *discard* a
/// subexpression (e.g. e && false -> false) require the discarded operand
/// to be total, so a concretely-faulting expression is never simplified
/// into a succeeding one.
bool isTotal(const Expr &E, const TypeEnv &Env) {
  if (!E)
    return false;
  switch (E.kind()) {
  case ExprKind::Lit:
  case ExprKind::LVar:
    return true;
  case ExprKind::PVar:
    // Unbound program variables fault; substitution happens before
    // simplification in the symbolic engine, so PVars here are
    // conservative.
    return false;
  case ExprKind::List:
    for (size_t I = 0, N = E.numChildren(); I != N; ++I)
      if (!isTotal(E.child(I), Env))
        return false;
    return true;
  case ExprKind::UnOp: {
    const Expr &C = E.child(0);
    if (!isTotal(C, Env))
      return false;
    auto T = staticType(C, Env);
    switch (E.unOpKind()) {
    case UnOpKind::TypeOf:
      return true;
    case UnOpKind::Not:
      return T == GilType::Bool;
    case UnOpKind::Neg:
      return T == GilType::Int || T == GilType::Num;
    case UnOpKind::BitNot:
      return T == GilType::Int;
    case UnOpKind::StrLen:
      return T == GilType::Str;
    case UnOpKind::ListLen:
      return T == GilType::List;
    case UnOpKind::ToNum:
      return T == GilType::Int || T == GilType::Num;
    case UnOpKind::ToInt:
      return T == GilType::Int; // Num -> Int faults on non-finite input
    case UnOpKind::NumToStr:
      return T == GilType::Int || T == GilType::Num;
    default:
      return false; // Head/Tail/StrToNum can fault
    }
  }
  case ExprKind::BinOp: {
    const Expr &A = E.child(0), &B = E.child(1);
    if (!isTotal(A, Env) || !isTotal(B, Env))
      return false;
    auto TA = staticType(A, Env), TB = staticType(B, Env);
    auto numeric = [](std::optional<GilType> T) {
      return T == GilType::Int || T == GilType::Num;
    };
    switch (E.binOpKind()) {
    case BinOpKind::Eq:
      return true;
    case BinOpKind::And:
    case BinOpKind::Or:
      return TA == GilType::Bool && TB == GilType::Bool;
    case BinOpKind::Add:
    case BinOpKind::Sub:
    case BinOpKind::Mul:
      return numeric(TA) && numeric(TB);
    case BinOpKind::Div:
    case BinOpKind::Mod:
      // Faults when an Int divisor is zero; safe only for nonzero literal.
      return numeric(TA) && B.isLit() && B.litValue().isInt() &&
             B.litValue().asInt() != 0;
    case BinOpKind::Lt:
    case BinOpKind::Le:
      return (numeric(TA) && numeric(TB)) ||
             (TA == GilType::Str && TB == GilType::Str);
    case BinOpKind::StrCat:
      return TA == GilType::Str && TB == GilType::Str;
    case BinOpKind::ListConcat:
      return TA == GilType::List && TB == GilType::List;
    case BinOpKind::Cons:
      return TB == GilType::List;
    case BinOpKind::BitAnd:
    case BinOpKind::BitOr:
    case BinOpKind::BitXor:
      return TA == GilType::Int && TB == GilType::Int;
    default:
      return false; // ListNth/StrNth/Shl/Shr can fault
    }
  }
  }
  return false;
}

/// If \p E is a literal list or a List expression whose elements are all
/// literals or general exprs, exposes it as a uniform element view.
/// Returns true and fills \p Elems on success.
bool asListElems(const Expr &E, std::vector<Expr> &Elems) {
  if (E.kind() == ExprKind::List) {
    for (size_t I = 0, N = E.numChildren(); I != N; ++I)
      Elems.push_back(E.child(I));
    return true;
  }
  if (E.isLit() && E.litValue().isList()) {
    for (const Value &V : E.litValue().asList())
      Elems.push_back(Expr::lit(V));
    return true;
  }
  return false;
}

Expr simplifyNode(const Expr &E, const TypeEnv &Env);

Expr simplifyUnOp(UnOpKind Op, const Expr &C, const Expr &Orig,
                  const TypeEnv &Env) {
  // Constant folding through the interpreter's own operator semantics.
  if (C.isLit()) {
    Result<Value> R = evalUnOp(Op, C.litValue());
    if (R)
      return Expr::lit(R.take());
  }
  switch (Op) {
  case UnOpKind::Not:
    // !!e -> e (only when e is Bool-typed, so the inner fault behaviour of
    // the double negation is the same as e's own).
    if (C.kind() == ExprKind::UnOp && C.unOpKind() == UnOpKind::Not &&
        staticType(C.child(0), Env) == GilType::Bool)
      return C.child(0);
    // !(a < b) over Ints -> b <= a (total order; not valid for Num/NaN).
    if (C.kind() == ExprKind::BinOp &&
        (C.binOpKind() == BinOpKind::Lt || C.binOpKind() == BinOpKind::Le)) {
      const Expr &A = C.child(0), &B = C.child(1);
      if (staticType(A, Env) == GilType::Int &&
          staticType(B, Env) == GilType::Int)
        return C.binOpKind() == BinOpKind::Lt
                   ? Expr::le(B, A)
                   : Expr::lt(B, A);
    }
    break;
  case UnOpKind::Neg:
    // -(-e) -> e for numeric e.
    if (C.kind() == ExprKind::UnOp && C.unOpKind() == UnOpKind::Neg) {
      auto T = staticType(C.child(0), Env);
      if (T == GilType::Int || T == GilType::Num)
        return C.child(0);
    }
    break;
  case UnOpKind::TypeOf: {
    auto T = staticType(C, Env);
    if (T && isTotal(C, Env))
      return Expr::lit(Value::typeV(*T));
    break;
  }
  case UnOpKind::ListLen: {
    std::vector<Expr> Elems;
    if (asListElems(C, Elems) && isTotal(C, Env))
      return Expr::intE(static_cast<int64_t>(Elems.size()));
    // len(a ++ b) -> len(a) + len(b)
    if (C.kind() == ExprKind::BinOp &&
        C.binOpKind() == BinOpKind::ListConcat)
      return simplifyNode(Expr::add(Expr::unOp(UnOpKind::ListLen, C.child(0)),
                    Expr::unOp(UnOpKind::ListLen, C.child(1))),
          Env);
    break;
  }
  case UnOpKind::Head: {
    std::vector<Expr> Elems;
    if (asListElems(C, Elems) && !Elems.empty() && isTotal(C, Env))
      return Elems.front();
    break;
  }
  case UnOpKind::Tail: {
    std::vector<Expr> Elems;
    if (asListElems(C, Elems) && !Elems.empty() && isTotal(C, Env))
      return Expr::list(std::vector<Expr>(Elems.begin() + 1, Elems.end()));
    break;
  }
  case UnOpKind::ToNum:
    if (staticType(C, Env) == GilType::Num)
      return C;
    break;
  case UnOpKind::ToInt:
    if (staticType(C, Env) == GilType::Int)
      return C;
    break;
  default:
    break;
  }
  if (C == Orig.child(0))
    return Orig;
  return Expr::unOp(Op, C);
}

/// Recognises e + c / e - c shapes over Int (c literal); used to combine
/// chained offsets into a canonical e + c.
bool asIntOffset(const Expr &E, Expr &Base, int64_t &Off) {
  if (E.kind() == ExprKind::BinOp && E.binOpKind() == BinOpKind::Add &&
      E.child(1).isLit() && E.child(1).litValue().isInt()) {
    Base = E.child(0);
    Off = E.child(1).litValue().asInt();
    return true;
  }
  return false;
}

Expr simplifyBinOp(BinOpKind Op, const Expr &A, const Expr &B,
                   const Expr &Orig, const TypeEnv &Env) {
  if (A.isLit() && B.isLit()) {
    Result<Value> R = evalBinOp(Op, A.litValue(), B.litValue());
    if (R)
      return Expr::lit(R.take());
  }
  auto intTyped = [&](const Expr &E) {
    return staticType(E, Env) == GilType::Int;
  };
  auto rebuild = [&]() {
    if (A == Orig.child(0) && B == Orig.child(1))
      return Orig;
    return Expr::binOp(Op, A, B);
  };

  switch (Op) {
  case BinOpKind::And:
    if (A.isTrue())
      return B;
    if (B.isTrue())
      return A;
    // Discarding rules need the discarded side total (see isTotal).
    if (A.isFalse()) // concrete && short-circuits, so B is never evaluated
      return Expr::boolE(false);
    if (B.isFalse() && isTotal(A, Env))
      return Expr::boolE(false);
    if (A == B && staticType(A, Env) == GilType::Bool)
      return A;
    break;
  case BinOpKind::Or:
    if (A.isFalse())
      return B;
    if (B.isFalse())
      return A;
    if (A.isTrue())
      return Expr::boolE(true);
    if (B.isTrue() && isTotal(A, Env))
      return Expr::boolE(true);
    if (A == B && staticType(A, Env) == GilType::Bool)
      return A;
    break;
  case BinOpKind::Eq: {
    if (A == B && isTotal(A, Env))
      return Expr::boolE(true);
    auto TA = staticType(A, Env), TB = staticType(B, Env);
    // Structurally different types are never equal (GIL equality does not
    // coerce; 1 != 1.0).
    if (TA && TB && *TA != *TB && isTotal(A, Env) && isTotal(B, Env))
      return Expr::boolE(false);
    // Element-wise decomposition of list equality; crucial for pointer
    // values ([block, offset] lists) in the MC instantiation.
    std::vector<Expr> EA, EB;
    if (asListElems(A, EA) && asListElems(B, EB)) {
      bool AllTotal = isTotal(A, Env) && isTotal(B, Env);
      if (EA.size() != EB.size()) {
        if (AllTotal)
          return Expr::boolE(false);
        break;
      }
      if (AllTotal) {
        Expr Conj = Expr::boolE(true);
        for (size_t I = 0; I != EA.size(); ++I)
          Conj = simplifyNode(
              Expr::andE(Conj, simplifyNode(Expr::eq(EA[I], EB[I]), Env)),
              Env);
        return Conj;
      }
    }
    // num_to_str is injective on Num (our rendering is canonical), so
    // equality of renderings is equality of the numbers. This is what
    // lets computed property keys of symbolic numbers alias correctly.
    {
      auto isNumToStrOfNum = [&](const Expr &E) {
        return E.kind() == ExprKind::UnOp &&
               E.unOpKind() == UnOpKind::NumToStr &&
               staticType(E.child(0), Env) == GilType::Num;
      };
      if (isNumToStrOfNum(A) && isNumToStrOfNum(B))
        return simplifyNode(Expr::eq(A.child(0), B.child(0)), Env);
      // num_to_str(x) == "s": decode "s" back to the unique double that
      // renders as it (or refute when "s" is not a canonical rendering).
      const Expr *NS = isNumToStrOfNum(A) ? &A : nullptr;
      const Expr *LitStr = nullptr;
      if (NS && B.isLit() && B.litValue().isStr())
        LitStr = &B;
      if (!NS && isNumToStrOfNum(B) && A.isLit() && A.litValue().isStr()) {
        NS = &B;
        LitStr = &A;
      }
      if (NS && LitStr) {
        std::string S(LitStr->litValue().asStr().str());
        char *End = nullptr;
        double D = std::strtod(S.c_str(), &End);
        bool Parsed = !S.empty() && End == S.c_str() + S.size();
        if (Parsed) {
          Result<Value> Render = evalUnOp(UnOpKind::NumToStr, Value::numV(D));
          if (Render && Render->isStr() && Render->asStr().str() == S)
            return simplifyNode(Expr::eq(NS->child(0), Expr::numE(D)), Env);
        }
        return Expr::boolE(false); // no double renders as this string
      }
    }
    // Distinct uninterpreted symbols are distinct values (folded already
    // by the literal case). Normalise literal to the right.
    if (A.isLit() && !B.isLit())
      return simplifyNode(Expr::eq(B, A), Env);
    // (e + c1) == c2  ->  e == c2 - c1 over Int.
    {
      Expr Base;
      int64_t Off;
      if (asIntOffset(A, Base, Off) && B.isLit() && B.litValue().isInt() &&
          intTyped(Base))
        return simplifyNode(
            Expr::eq(Base, Expr::intE(wrappingSub(B.litValue().asInt(), Off))),
            Env);
    }
    break;
  }
  case BinOpKind::Add: {
    if (B.isLit() && B.litValue().isInt() && B.litValue().asInt() == 0 &&
        intTyped(A))
      return A;
    if (A.isLit() && B.isLit())
      break; // folded above when well-typed
    // Move the literal right: c + e -> e + c (Int only; addition on Int is
    // commutative and total given numeric typing).
    if (A.isLit() && A.litValue().isInt() && intTyped(B))
      return simplifyNode(Expr::add(B, A), Env);
    // (e + c1) + c2 -> e + (c1 + c2).
    Expr Base;
    int64_t Off;
    if (asIntOffset(A, Base, Off) && B.isLit() && B.litValue().isInt() &&
        intTyped(Base))
      return simplifyNode(
          Expr::add(Base, Expr::intE(wrappingAdd(Off, B.litValue().asInt()))),
          Env);
    break;
  }
  case BinOpKind::Sub: {
    if (B.isLit() && B.litValue().isInt() && intTyped(A)) {
      if (B.litValue().asInt() == 0)
        return A;
      // e - c -> e + (-c), canonicalising offset chains.
      return simplifyNode(
          Expr::add(A, Expr::intE(wrappingNeg(B.litValue().asInt()))), Env);
    }
    if (A == B && intTyped(A) && isTotal(A, Env))
      return Expr::intE(0);
    break;
  }
  case BinOpKind::Mul:
    if (B.isLit() && B.litValue().isInt() && intTyped(A)) {
      if (B.litValue().asInt() == 1)
        return A;
      if (B.litValue().asInt() == 0 && isTotal(A, Env))
        return Expr::intE(0);
    }
    if (A.isLit() && A.litValue().isInt() && intTyped(B))
      return simplifyNode(Expr::binOp(BinOpKind::Mul, B, A), Env);
    break;
  case BinOpKind::Div:
    if (B.isLit() && B.litValue().isInt() && B.litValue().asInt() == 1 &&
        intTyped(A))
      return A;
    break;
  case BinOpKind::Lt:
  case BinOpKind::Le: {
    // (e + c1) < c2 -> e < c2 - c1 over Int.
    Expr Base;
    int64_t Off;
    if (asIntOffset(A, Base, Off) && B.isLit() && B.litValue().isInt() &&
        intTyped(Base))
      return simplifyNode(Expr::binOp(
          Op, Base, Expr::intE(wrappingSub(B.litValue().asInt(), Off))), Env);
    if (asIntOffset(B, Base, Off) && A.isLit() && A.litValue().isInt() &&
        intTyped(Base))
      return simplifyNode(Expr::binOp(
          Op, Expr::intE(wrappingSub(A.litValue().asInt(), Off)), Base), Env);
    if (A == B && isTotal(A, Env) &&
        (intTyped(A) || staticType(A, Env) == GilType::Str))
      return Expr::boolE(Op == BinOpKind::Le);
    break;
  }
  case BinOpKind::ListNth: {
    std::vector<Expr> Elems;
    if (B.isLit() && B.litValue().isInt() && asListElems(A, Elems)) {
      int64_t I = B.litValue().asInt();
      if (I >= 0 && static_cast<size_t>(I) < Elems.size() && isTotal(A, Env))
        return Elems[static_cast<size_t>(I)];
    }
    break;
  }
  case BinOpKind::ListConcat: {
    std::vector<Expr> EA, EB;
    if (asListElems(A, EA) && asListElems(B, EB)) {
      EA.insert(EA.end(), EB.begin(), EB.end());
      return Expr::list(std::move(EA));
    }
    if (asListElems(A, EA) && EA.empty())
      return B;
    if (asListElems(B, EB) && EB.empty())
      return A;
    break;
  }
  case BinOpKind::Cons: {
    std::vector<Expr> EB;
    if (asListElems(B, EB)) {
      std::vector<Expr> Out;
      Out.reserve(EB.size() + 1);
      Out.push_back(A);
      Out.insert(Out.end(), EB.begin(), EB.end());
      return Expr::list(std::move(Out));
    }
    break;
  }
  case BinOpKind::StrCat:
    if (B.isLit() && B.litValue().isStr() && B.litValue().asStr().str().empty() &&
        staticType(A, Env) == GilType::Str)
      return A;
    if (A.isLit() && A.litValue().isStr() && A.litValue().asStr().str().empty() &&
        staticType(B, Env) == GilType::Str)
      return B;
    break;
  default:
    break;
  }
  return rebuild();
}

Expr simplifyNode(const Expr &E, const TypeEnv &Env) {
  if (!E)
    return E;
  switch (E.kind()) {
  case ExprKind::Lit:
  case ExprKind::PVar:
  case ExprKind::LVar:
    return E;
  case ExprKind::UnOp: {
    Expr C = simplifyNode(E.child(0), Env);
    return simplifyUnOp(E.unOpKind(), C, E, Env);
  }
  case ExprKind::BinOp: {
    Expr A = simplifyNode(E.child(0), Env);
    Expr B = simplifyNode(E.child(1), Env);
    return simplifyBinOp(E.binOpKind(), A, B, E, Env);
  }
  case ExprKind::List: {
    std::vector<Expr> Kids;
    Kids.reserve(E.numChildren());
    bool Changed = false, AllLit = true;
    for (size_t I = 0, N = E.numChildren(); I != N; ++I) {
      Expr S = simplifyNode(E.child(I), Env);
      Changed |= S != E.child(I);
      AllLit &= S.isLit();
      Kids.push_back(std::move(S));
    }
    if (AllLit) {
      std::vector<Value> Vals;
      Vals.reserve(Kids.size());
      for (const Expr &K : Kids)
        Vals.push_back(K.litValue());
      return Expr::lit(Value::listV(std::move(Vals)));
    }
    if (!Changed)
      return E;
    return Expr::list(std::move(Kids));
  }
  }
  return E;
}

const TypeEnv &emptyEnv() {
  static const TypeEnv E;
  return E;
}

} // namespace

Expr gillian::simplify(const Expr &E, const TypeEnv *Env) {
  return simplifyNode(E, Env ? *Env : emptyEnv());
}
