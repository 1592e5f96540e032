//===- gil/ops.cpp --------------------------------------------------------===//

#include "gil/ops.h"

#include <cmath>
#include <cstdlib>

using namespace gillian;

std::string_view gillian::unOpSpelling(UnOpKind Op) {
  switch (Op) {
  case UnOpKind::Neg: return "-";
  case UnOpKind::Not: return "!";
  case UnOpKind::BitNot: return "~";
  case UnOpKind::TypeOf: return "typeof";
  case UnOpKind::ListLen: return "len";
  case UnOpKind::StrLen: return "slen";
  case UnOpKind::Head: return "hd";
  case UnOpKind::Tail: return "tl";
  case UnOpKind::ToNum: return "to_num";
  case UnOpKind::ToInt: return "to_int";
  case UnOpKind::NumToStr: return "num_to_str";
  case UnOpKind::StrToNum: return "str_to_num";
  }
  return "<bad-unop>";
}

std::string_view gillian::binOpSpelling(BinOpKind Op) {
  switch (Op) {
  case BinOpKind::Add: return "+";
  case BinOpKind::Sub: return "-";
  case BinOpKind::Mul: return "*";
  case BinOpKind::Div: return "/";
  case BinOpKind::Mod: return "%";
  case BinOpKind::Eq: return "==";
  case BinOpKind::Lt: return "<";
  case BinOpKind::Le: return "<=";
  case BinOpKind::And: return "&&";
  case BinOpKind::Or: return "||";
  case BinOpKind::StrCat: return "@+";
  case BinOpKind::StrNth: return "s_nth";
  case BinOpKind::ListNth: return "l_nth";
  case BinOpKind::ListConcat: return "++";
  case BinOpKind::Cons: return "::";
  case BinOpKind::BitAnd: return "&";
  case BinOpKind::BitOr: return "|";
  case BinOpKind::BitXor: return "^^";
  case BinOpKind::Shl: return "<<";
  case BinOpKind::Shr: return ">>";
  }
  return "<bad-binop>";
}

bool gillian::isBooleanResult(BinOpKind Op) {
  switch (Op) {
  case BinOpKind::Eq:
  case BinOpKind::Lt:
  case BinOpKind::Le:
  case BinOpKind::And:
  case BinOpKind::Or:
    return true;
  default:
    return false;
  }
}

bool gillian::isArithmetic(BinOpKind Op) {
  switch (Op) {
  case BinOpKind::Add:
  case BinOpKind::Sub:
  case BinOpKind::Mul:
  case BinOpKind::Div:
    return true;
  default:
    return false;
  }
}

static Err typeError(std::string_view Op, const Value &V) {
  return Err("type error: operator '" + std::string(Op) +
             "' not applicable to " + V.toString());
}

static Err typeError(std::string_view Op, const Value &A, const Value &B) {
  return Err("type error: operator '" + std::string(Op) +
             "' not applicable to " + A.toString() + " and " + B.toString());
}

Result<Value> gillian::evalUnOp(UnOpKind Op, const Value &V) {
  switch (Op) {
  case UnOpKind::Neg:
    if (V.isInt())
      return Value::intV(wrappingNeg(V.asInt()));
    if (V.isNum())
      return Value::numV(-V.asNum());
    return typeError("-", V);
  case UnOpKind::Not:
    if (V.isBool())
      return Value::boolV(!V.asBool());
    return typeError("!", V);
  case UnOpKind::BitNot:
    if (V.isInt())
      return Value::intV(~V.asInt());
    return typeError("~", V);
  case UnOpKind::TypeOf:
    return Value::typeV(V.type());
  case UnOpKind::ListLen:
    if (V.isList())
      return Value::intV(static_cast<int64_t>(V.asList().size()));
    return typeError("len", V);
  case UnOpKind::StrLen:
    if (V.isStr())
      return Value::intV(static_cast<int64_t>(V.asStr().str().size()));
    return typeError("slen", V);
  case UnOpKind::Head:
    if (V.isList() && !V.asList().empty())
      return V.asList().front();
    return typeError("hd", V);
  case UnOpKind::Tail:
    if (V.isList() && !V.asList().empty())
      return Value::listV(std::vector<Value>(V.asList().begin() + 1,
                                             V.asList().end()));
    return typeError("tl", V);
  case UnOpKind::ToNum:
    if (V.isNumeric())
      return Value::numV(V.asDouble());
    return typeError("to_num", V);
  case UnOpKind::ToInt:
    if (V.isInt())
      return V;
    if (V.isNum()) {
      double D = V.asNum();
      if (std::isnan(D) || std::isinf(D))
        return Err("to_int applied to non-finite number");
      // Truncations outside [-2^63, 2^63) have no int64 value.
      double T = std::trunc(D);
      if (T < -0x1p63 || T >= 0x1p63)
        return Err("to_int applied to out-of-range number " + V.toString());
      return Value::intV(static_cast<int64_t>(T));
    }
    return typeError("to_int", V);
  case UnOpKind::NumToStr: {
    if (!V.isNumeric())
      return typeError("num_to_str", V);
    if (V.isInt())
      return Value::strV(std::to_string(V.asInt()));
    // JS-style rendering: integral doubles print without a fraction, so
    // computed property names o[0] and the literal key "0" coincide.
    double D = V.asNum();
    if (std::trunc(D) == D && std::abs(D) < 9.007199254740992e15)
      return Value::strV(std::to_string(static_cast<int64_t>(D)));
    return Value::strV(Value::numV(D).toString());
  }
  case UnOpKind::StrToNum: {
    if (!V.isStr())
      return typeError("str_to_num", V);
    std::string S(V.asStr().str());
    char *End = nullptr;
    double D = std::strtod(S.c_str(), &End);
    if (End != S.c_str() + S.size() || S.empty())
      return Err("str_to_num applied to malformed numeral " + V.toString());
    return Value::numV(D);
  }
  }
  return Err("unknown unary operator");
}

/// Shared arithmetic: two's-complement int64 on Int×Int, double otherwise.
static Result<Value> arith(BinOpKind Op, const Value &A, const Value &B) {
  if (!A.isNumeric() || !B.isNumeric())
    return typeError(binOpSpelling(Op), A, B);
  if (A.isInt() && B.isInt()) {
    int64_t X = A.asInt(), Y = B.asInt();
    switch (Op) {
    case BinOpKind::Add: return Value::intV(wrappingAdd(X, Y));
    case BinOpKind::Sub: return Value::intV(wrappingSub(X, Y));
    case BinOpKind::Mul: return Value::intV(wrappingMul(X, Y));
    case BinOpKind::Div:
      if (Y == 0)
        return Err("integer division by zero");
      // INT64_MIN / -1 traps in hardware; it wraps to INT64_MIN.
      if (Y == -1)
        return Value::intV(wrappingNeg(X));
      return Value::intV(X / Y);
    default: break;
    }
  }
  double X = A.asDouble(), Y = B.asDouble();
  switch (Op) {
  case BinOpKind::Add: return Value::numV(X + Y);
  case BinOpKind::Sub: return Value::numV(X - Y);
  case BinOpKind::Mul: return Value::numV(X * Y);
  case BinOpKind::Div: return Value::numV(X / Y);
  default: break;
  }
  return Err("unreachable arithmetic operator");
}

static Result<Value> compare(BinOpKind Op, const Value &A, const Value &B) {
  bool Strict = Op == BinOpKind::Lt;
  if (A.isNumeric() && B.isNumeric()) {
    double X = A.asDouble(), Y = B.asDouble();
    return Value::boolV(Strict ? X < Y : X <= Y);
  }
  if (A.isStr() && B.isStr()) {
    auto X = A.asStr().str(), Y = B.asStr().str();
    return Value::boolV(Strict ? X < Y : X <= Y);
  }
  return typeError(binOpSpelling(Op), A, B);
}

Result<Value> gillian::evalBinOp(BinOpKind Op, const Value &A,
                                 const Value &B) {
  switch (Op) {
  case BinOpKind::Add:
  case BinOpKind::Sub:
  case BinOpKind::Mul:
  case BinOpKind::Div:
    return arith(Op, A, B);
  case BinOpKind::Mod:
    if (A.isInt() && B.isInt()) {
      if (B.asInt() == 0)
        return Err("integer modulo by zero");
      // INT64_MIN % -1 traps in hardware; every Int is divisible by -1.
      if (B.asInt() == -1)
        return Value::intV(0);
      return Value::intV(A.asInt() % B.asInt());
    }
    if (A.isNumeric() && B.isNumeric())
      return Value::numV(std::fmod(A.asDouble(), B.asDouble()));
    return typeError("%", A, B);
  case BinOpKind::Eq:
    return Value::boolV(A == B);
  case BinOpKind::Lt:
  case BinOpKind::Le:
    return compare(Op, A, B);
  case BinOpKind::And:
    if (A.isBool() && B.isBool())
      return Value::boolV(A.asBool() && B.asBool());
    return typeError("&&", A, B);
  case BinOpKind::Or:
    if (A.isBool() && B.isBool())
      return Value::boolV(A.asBool() || B.asBool());
    return typeError("||", A, B);
  case BinOpKind::StrCat:
    if (A.isStr() && B.isStr())
      return Value::strV(std::string(A.asStr().str()) +
                         std::string(B.asStr().str()));
    return typeError("@+", A, B);
  case BinOpKind::StrNth: {
    if (!A.isStr() || !B.isInt())
      return typeError("s_nth", A, B);
    auto S = A.asStr().str();
    int64_t I = B.asInt();
    if (I < 0 || static_cast<size_t>(I) >= S.size())
      return Err("string index " + std::to_string(I) + " out of bounds for " +
                 A.toString());
    return Value::strV(std::string(1, S[static_cast<size_t>(I)]));
  }
  case BinOpKind::ListNth: {
    if (!A.isList() || !B.isInt())
      return typeError("l_nth", A, B);
    int64_t I = B.asInt();
    if (I < 0 || static_cast<size_t>(I) >= A.asList().size())
      return Err("list index " + std::to_string(I) + " out of bounds for " +
                 A.toString());
    return A.asList()[static_cast<size_t>(I)];
  }
  case BinOpKind::ListConcat: {
    if (!A.isList() || !B.isList())
      return typeError("++", A, B);
    std::vector<Value> Out = A.asList();
    Out.insert(Out.end(), B.asList().begin(), B.asList().end());
    return Value::listV(std::move(Out));
  }
  case BinOpKind::Cons: {
    if (!B.isList())
      return typeError("::", A, B);
    std::vector<Value> Out;
    Out.reserve(B.asList().size() + 1);
    Out.push_back(A);
    Out.insert(Out.end(), B.asList().begin(), B.asList().end());
    return Value::listV(std::move(Out));
  }
  case BinOpKind::BitAnd:
  case BinOpKind::BitOr:
  case BinOpKind::BitXor: {
    if (!A.isInt() || !B.isInt())
      return typeError(binOpSpelling(Op), A, B);
    int64_t X = A.asInt(), Y = B.asInt();
    if (Op == BinOpKind::BitAnd)
      return Value::intV(X & Y);
    if (Op == BinOpKind::BitOr)
      return Value::intV(X | Y);
    return Value::intV(X ^ Y);
  }
  case BinOpKind::Shl:
  case BinOpKind::Shr: {
    if (!A.isInt() || !B.isInt())
      return typeError(binOpSpelling(Op), A, B);
    int64_t Sh = B.asInt();
    if (Sh < 0 || Sh > 63)
      return Err("shift amount " + std::to_string(Sh) + " out of range");
    if (Op == BinOpKind::Shl)
      return Value::intV(static_cast<int64_t>(
          static_cast<uint64_t>(A.asInt()) << static_cast<uint64_t>(Sh)));
    return Value::intV(A.asInt() >> Sh);
  }
  }
  return Err("unknown binary operator");
}
