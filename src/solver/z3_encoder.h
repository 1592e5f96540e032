//===- solver/z3_encoder.h - GIL→Z3 term encoding (private) ----*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The GIL→Z3 term encoder of the Z3 backend (z3_backend.cpp). This header
/// is *private* to the solver library: it exposes z3++ types, so it must
/// only be included from .cpp files compiled with GILLIAN_HAVE_Z3 (the
/// define is PRIVATE to gillian_solver; public headers never leak Z3).
///
/// The encoder maps Int to SMT Int, Num to Real, Bool to Bool, Str to
/// String, and Sym/Type/Proc to tagged integers. Subterms without an
/// encoding throw Unsupported, caught at conjunct granularity by callers so
/// the conjunct is dropped rather than the query aborted. Every check
/// encodes each of its conjuncts anew: no translation outlives its query.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_SOLVER_Z3_ENCODER_H
#define GILLIAN_SOLVER_Z3_ENCODER_H

#ifdef GILLIAN_HAVE_Z3

#include "solver/type_infer.h"

#include <z3++.h>

#include <cmath>
#include <map>
#include <optional>
#include <string>

namespace gillian {

/// Thrown (internally only) when a subterm has no Z3 encoding; caught at
/// conjunct granularity so the conjunct is dropped rather than the query
/// aborted.
struct Unsupported {
  std::string What;
};

/// Encodes GIL expressions of one query into Z3 terms, recording the
/// symbol codes it meets so model extraction can decode them.
class Encoder {
public:
  Encoder(z3::context &Ctx, const TypeEnv &Types) : Ctx(Ctx), Types(Types) {}

  /// The inferred GIL type of \p E; throws Unsupported when undetermined.
  GilType typeOf(const Expr &E) {
    auto T = staticType(E, Types);
    if (!T)
      throw Unsupported{"untypeable term " + E.toString()};
    return *T;
  }

  z3::expr var(InternedString Name, GilType T) {
    std::string N(Name.str());
    switch (T) {
    case GilType::Int: return Ctx.int_const(N.c_str());
    case GilType::Num: return Ctx.real_const(N.c_str());
    case GilType::Bool: return Ctx.bool_const(N.c_str());
    case GilType::Str: return Ctx.constant(N.c_str(), Ctx.string_sort());
    case GilType::Sym:
    case GilType::Type:
    case GilType::Proc:
      // Tagged-integer encodings share the Int sort; tags never mix
      // because equality across differently-typed terms folds to false
      // before reaching Z3.
      return Ctx.int_const(N.c_str());
    case GilType::List:
      throw Unsupported{"list-typed logical variable " + N};
    }
    throw Unsupported{"bad type"};
  }

  z3::expr lit(const Value &V) {
    switch (V.type()) {
    case GilType::Int:
      return Ctx.int_val(static_cast<int64_t>(V.asInt()));
    case GilType::Num: {
      double D = V.asNum();
      if (std::isnan(D) || std::isinf(D))
        throw Unsupported{"non-finite Num literal"};
      // Exact binary-to-rational conversion.
      int Exp = 0;
      double Frac = std::frexp(D, &Exp); // D = Frac * 2^Exp, |Frac| in [0.5,1)
      int64_t Mant = static_cast<int64_t>(std::ldexp(Frac, 53));
      Exp -= 53;
      z3::expr M = Ctx.real_val(Mant);
      z3::expr Two = Ctx.real_val(2);
      z3::expr Scale = Ctx.real_val(1);
      for (int I = 0; I < std::abs(Exp); ++I)
        Scale = Scale * Two;
      return Exp >= 0 ? M * Scale : M / Scale;
    }
    case GilType::Bool:
      return Ctx.bool_val(V.asBool());
    case GilType::Str:
      return Ctx.string_val(std::string(V.asStr().str()));
    case GilType::Sym:
      SymByCode[V.asSym().id()] = V.asSym();
      return Ctx.int_val(static_cast<int64_t>(V.asSym().id()));
    case GilType::Type:
      return Ctx.int_val(static_cast<int64_t>(V.asType()));
    case GilType::Proc:
      return Ctx.int_val(static_cast<int64_t>(V.asProc().id()));
    case GilType::List:
      throw Unsupported{"list literal in SMT position"};
    }
    throw Unsupported{"bad literal"};
  }

  /// Widens an Int term to Real when the other operand is Num.
  z3::expr widen(z3::expr E, GilType From, GilType To) {
    if (From == GilType::Int && To == GilType::Num)
      return z3::to_real(E);
    return E;
  }

  z3::expr encode(const Expr &E) {
    switch (E.kind()) {
    case ExprKind::Lit:
      return lit(E.litValue());
    case ExprKind::LVar:
      return var(E.varName(), Types.lookup(E.varName()).value_or(GilType::Int));
    case ExprKind::PVar:
      throw Unsupported{"program variable in pure formula"};
    case ExprKind::List:
      throw Unsupported{"list construction in SMT position"};
    case ExprKind::UnOp:
      return encodeUnOp(E);
    case ExprKind::BinOp:
      return encodeBinOp(E);
    }
    throw Unsupported{"bad expression"};
  }

  const std::map<uint32_t, InternedString> &symbolCodes() const {
    return SymByCode;
  }

private:
  z3::expr encodeUnOp(const Expr &E) {
    const Expr &C = E.child(0);
    switch (E.unOpKind()) {
    case UnOpKind::Neg:
      return -encode(C);
    case UnOpKind::Not:
      return !encode(C);
    case UnOpKind::ToNum: {
      GilType T = typeOf(C);
      z3::expr X = encode(C);
      return T == GilType::Int ? z3::to_real(X) : X;
    }
    case UnOpKind::ToInt: {
      GilType T = typeOf(C);
      z3::expr X = encode(C);
      if (T == GilType::Int)
        return X;
      // GIL to_int truncates toward zero; SMT real2int floors.
      auto Real2Int = [&](const z3::expr &R) {
        Z3_ast A = Z3_mk_real2int(Ctx, R);
        Ctx.check_error();
        return z3::expr(Ctx, A);
      };
      z3::expr F = Real2Int(X);
      return z3::ite(X >= Ctx.real_val(0), F, -Real2Int(-X));
    }
    case UnOpKind::StrLen: {
      z3::expr X = encode(C);
      return X.length();
    }
    case UnOpKind::TypeOf: {
      // Only reachable for terms whose type is statically known (other
      // cases fold earlier or bail).
      GilType T = typeOf(C);
      return Ctx.int_val(static_cast<int64_t>(T));
    }
    default:
      throw Unsupported{std::string("unary ") +
                        std::string(unOpSpelling(E.unOpKind()))};
    }
  }

  /// Truncating division/modulo over SMT's Euclidean div/mod.
  z3::expr truncDiv(z3::expr A, z3::expr B, bool WantMod) {
    z3::expr Q = A / B;          // SMT-LIB Euclidean quotient over Int
    z3::expr R = z3::mod(A, B);  // non-negative remainder
    z3::expr Zero = Ctx.int_val(0);
    z3::expr One = Ctx.int_val(1);
    z3::expr Qt = z3::ite(
        R == Zero, Q,
        z3::ite(A < Zero, z3::ite(B > Zero, Q + One, Q - One), Q));
    if (!WantMod)
      return Qt;
    return A - B * Qt;
  }

  z3::expr encodeBinOp(const Expr &E) {
    BinOpKind Op = E.binOpKind();
    const Expr &EA = E.child(0), &EB = E.child(1);
    switch (Op) {
    case BinOpKind::And:
      return encode(EA) && encode(EB);
    case BinOpKind::Or:
      return encode(EA) || encode(EB);
    case BinOpKind::Eq: {
      auto TA = staticType(EA, Types), TB = staticType(EB, Types);
      if (!TA || !TB)
        throw Unsupported{"equality between untyped terms"};
      if (*TA != *TB)
        return Ctx.bool_val(false); // GIL equality is structural
      if (*TA == GilType::List)
        throw Unsupported{"list equality (should have been decomposed)"};
      return encode(EA) == encode(EB);
    }
    case BinOpKind::Lt:
    case BinOpKind::Le: {
      GilType TA = typeOf(EA), TB = typeOf(EB);
      if (TA == GilType::Str || TB == GilType::Str)
        throw Unsupported{"string comparison"};
      GilType W = (TA == GilType::Num || TB == GilType::Num) ? GilType::Num
                                                             : GilType::Int;
      z3::expr A = widen(encode(EA), TA, W);
      z3::expr B = widen(encode(EB), TB, W);
      return Op == BinOpKind::Lt ? A < B : A <= B;
    }
    case BinOpKind::Add:
    case BinOpKind::Sub:
    case BinOpKind::Mul:
    case BinOpKind::Div: {
      GilType TA = typeOf(EA), TB = typeOf(EB);
      GilType W = (TA == GilType::Num || TB == GilType::Num) ? GilType::Num
                                                             : GilType::Int;
      z3::expr A = widen(encode(EA), TA, W);
      z3::expr B = widen(encode(EB), TB, W);
      switch (Op) {
      case BinOpKind::Add: return A + B;
      case BinOpKind::Sub: return A - B;
      case BinOpKind::Mul: return A * B;
      case BinOpKind::Div:
        // Int division is truncating in GIL; Real division is exact.
        return W == GilType::Int ? truncDiv(A, B, /*WantMod=*/false) : A / B;
      default: break;
      }
      throw Unsupported{"unreachable"};
    }
    case BinOpKind::Mod: {
      GilType TA = typeOf(EA), TB = typeOf(EB);
      if (TA != GilType::Int || TB != GilType::Int)
        throw Unsupported{"non-integer modulo"};
      return truncDiv(encode(EA), encode(EB), /*WantMod=*/true);
    }
    case BinOpKind::StrCat: {
      z3::expr A = encode(EA), B = encode(EB);
      z3::expr_vector Parts(Ctx);
      Parts.push_back(A);
      Parts.push_back(B);
      return z3::concat(Parts);
    }
    default:
      throw Unsupported{std::string("binary ") +
                        std::string(binOpSpelling(Op))};
    }
  }

  z3::context &Ctx;
  const TypeEnv &Types;
  std::map<uint32_t, InternedString> SymByCode;
};

} // namespace gillian

#endif // GILLIAN_HAVE_Z3

#endif // GILLIAN_SOLVER_Z3_ENCODER_H
