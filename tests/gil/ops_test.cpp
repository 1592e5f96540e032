//===- tests/gil/ops_test.cpp ---------------------------------------------===//

#include "gil/ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

using namespace gillian;

namespace {

Value unop(UnOpKind Op, Value V) {
  Result<Value> R = evalUnOp(Op, V);
  EXPECT_TRUE(R.ok()) << (R.ok() ? "" : R.error());
  return R.ok() ? R.take() : Value();
}

Value binop(BinOpKind Op, Value A, Value B) {
  Result<Value> R = evalBinOp(Op, A, B);
  EXPECT_TRUE(R.ok()) << (R.ok() ? "" : R.error());
  return R.ok() ? R.take() : Value();
}

} // namespace

TEST(Ops, IntArithmeticIsExact) {
  EXPECT_EQ(binop(BinOpKind::Add, Value::intV(1) , Value::intV(2)).asInt(), 3);
  EXPECT_EQ(binop(BinOpKind::Mul, Value::intV(5), Value::intV(0)).asInt(), 0);
  // Exactness beyond double precision (2^60 + 1).
  int64_t Big = (1ll << 60) + 1;
  EXPECT_EQ(binop(BinOpKind::Add, Value::intV(Big), Value::intV(1)).asInt(),
            Big + 1);
}

TEST(Ops, IntArithmeticWrapsInTwosComplement) {
  const int64_t Max = std::numeric_limits<int64_t>::max();
  const int64_t Min = std::numeric_limits<int64_t>::min();
  auto I = [](int64_t X) { return Value::intV(X); };
  EXPECT_EQ(binop(BinOpKind::Add, I(Max), I(1)).asInt(), Min);
  EXPECT_EQ(binop(BinOpKind::Sub, I(Min), I(1)).asInt(), Max);
  EXPECT_EQ(binop(BinOpKind::Mul, I(Max), I(2)).asInt(), -2);
  EXPECT_EQ(binop(BinOpKind::Mul, I(Min), I(-1)).asInt(), Min);
  EXPECT_EQ(unop(UnOpKind::Neg, I(Min)).asInt(), Min);
  EXPECT_EQ(unop(UnOpKind::Neg, I(Max)).asInt(), Min + 1);
}

TEST(Ops, DivisionByMinusOneNeverTraps) {
  // INT64_MIN / -1 and INT64_MIN % -1 raise SIGFPE on x86-64 when done
  // natively; they wrap to INT64_MIN and 0.
  const int64_t Min = std::numeric_limits<int64_t>::min();
  auto I = [](int64_t X) { return Value::intV(X); };
  EXPECT_EQ(binop(BinOpKind::Div, I(Min), I(-1)).asInt(), Min);
  EXPECT_EQ(binop(BinOpKind::Mod, I(Min), I(-1)).asInt(), 0);
  EXPECT_EQ(binop(BinOpKind::Div, I(7), I(-1)).asInt(), -7);
  EXPECT_EQ(binop(BinOpKind::Mod, I(7), I(-1)).asInt(), 0);
  EXPECT_EQ(binop(BinOpKind::Div, I(Min), I(1)).asInt(), Min);
  EXPECT_EQ(binop(BinOpKind::Mod, I(Min), I(2)).asInt(), 0);
}

TEST(Ops, MixedArithmeticWidensToNum) {
  Value R = binop(BinOpKind::Add, Value::intV(1), Value::numV(0.5));
  ASSERT_TRUE(R.isNum());
  EXPECT_DOUBLE_EQ(R.asNum(), 1.5);
}

TEST(Ops, IntDivisionTruncatesTowardZero) {
  EXPECT_EQ(binop(BinOpKind::Div, Value::intV(7), Value::intV(2)).asInt(), 3);
  EXPECT_EQ(binop(BinOpKind::Div, Value::intV(-7), Value::intV(2)).asInt(),
            -3);
  EXPECT_EQ(binop(BinOpKind::Div, Value::intV(7), Value::intV(-2)).asInt(),
            -3);
  EXPECT_EQ(binop(BinOpKind::Div, Value::intV(-7), Value::intV(-2)).asInt(),
            3);
}

TEST(Ops, DivisionByZeroFaults) {
  EXPECT_FALSE(evalBinOp(BinOpKind::Div, Value::intV(1), Value::intV(0)).ok());
  EXPECT_FALSE(evalBinOp(BinOpKind::Mod, Value::intV(1), Value::intV(0)).ok());
  // Num division by zero is IEEE, not a fault.
  Result<Value> R = evalBinOp(BinOpKind::Div, Value::numV(1), Value::numV(0));
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(std::isinf(R->asNum()));
}

TEST(Ops, ModMatchesCppTruncatedSemantics) {
  EXPECT_EQ(binop(BinOpKind::Mod, Value::intV(7), Value::intV(3)).asInt(), 1);
  EXPECT_EQ(binop(BinOpKind::Mod, Value::intV(-7), Value::intV(3)).asInt(),
            -1);
  EXPECT_EQ(binop(BinOpKind::Mod, Value::intV(7), Value::intV(-3)).asInt(), 1);
}

TEST(Ops, ComparisonOnNumbersAndStrings) {
  EXPECT_TRUE(binop(BinOpKind::Lt, Value::intV(1), Value::numV(1.5)).asBool());
  EXPECT_TRUE(binop(BinOpKind::Le, Value::intV(2), Value::intV(2)).asBool());
  EXPECT_TRUE(
      binop(BinOpKind::Lt, Value::strV("abc"), Value::strV("abd")).asBool());
  EXPECT_FALSE(
      evalBinOp(BinOpKind::Lt, Value::strV("a"), Value::intV(1)).ok());
}

TEST(Ops, EqIsTotalOnAllKinds) {
  EXPECT_TRUE(binop(BinOpKind::Eq, Value::symV("$a"), Value::symV("$a"))
                  .asBool());
  EXPECT_FALSE(binop(BinOpKind::Eq, Value::symV("$a"), Value::symV("$b"))
                   .asBool());
  EXPECT_FALSE(binop(BinOpKind::Eq, Value::intV(1), Value::numV(1.0))
                   .asBool());
}

TEST(Ops, BooleanOpsRequireBooleans) {
  EXPECT_TRUE(binop(BinOpKind::And, Value::boolV(true), Value::boolV(true))
                  .asBool());
  EXPECT_FALSE(evalBinOp(BinOpKind::And, Value::intV(1), Value::boolV(true))
                   .ok());
  EXPECT_FALSE(evalUnOp(UnOpKind::Not, Value::intV(0)).ok());
}

TEST(Ops, StringOperations) {
  EXPECT_EQ(binop(BinOpKind::StrCat, Value::strV("ab"), Value::strV("cd"))
                .asStr()
                .str(),
            "abcd");
  EXPECT_EQ(unop(UnOpKind::StrLen, Value::strV("abc")).asInt(), 3);
  EXPECT_EQ(binop(BinOpKind::StrNth, Value::strV("abc"), Value::intV(1))
                .asStr()
                .str(),
            "b");
  EXPECT_FALSE(
      evalBinOp(BinOpKind::StrNth, Value::strV("abc"), Value::intV(3)).ok());
}

TEST(Ops, ListOperations) {
  Value L = Value::listV({Value::intV(1), Value::intV(2)});
  EXPECT_EQ(unop(UnOpKind::ListLen, L).asInt(), 2);
  EXPECT_EQ(unop(UnOpKind::Head, L).asInt(), 1);
  EXPECT_EQ(unop(UnOpKind::Tail, L).asList().size(), 1u);
  EXPECT_EQ(binop(BinOpKind::ListNth, L, Value::intV(1)).asInt(), 2);
  EXPECT_FALSE(evalBinOp(BinOpKind::ListNth, L, Value::intV(-1)).ok());
  Value C = binop(BinOpKind::Cons, Value::intV(0), L);
  EXPECT_EQ(C.asList().size(), 3u);
  EXPECT_EQ(C.asList()[0].asInt(), 0);
  Value CC = binop(BinOpKind::ListConcat, L, L);
  EXPECT_EQ(CC.asList().size(), 4u);
  EXPECT_FALSE(evalUnOp(UnOpKind::Head, Value::listV({})).ok());
}

TEST(Ops, TypeOfReturnsTypes) {
  EXPECT_EQ(unop(UnOpKind::TypeOf, Value::intV(1)).asType(), GilType::Int);
  EXPECT_EQ(unop(UnOpKind::TypeOf, Value::listV({})).asType(), GilType::List);
  EXPECT_EQ(unop(UnOpKind::TypeOf, Value::typeV(GilType::Int)).asType(),
            GilType::Type);
}

TEST(Ops, Conversions) {
  EXPECT_DOUBLE_EQ(unop(UnOpKind::ToNum, Value::intV(3)).asNum(), 3.0);
  EXPECT_EQ(unop(UnOpKind::ToInt, Value::numV(-2.7)).asInt(), -2)
      << "to_int truncates toward zero";
  EXPECT_FALSE(evalUnOp(UnOpKind::ToInt, Value::numV(INFINITY)).ok());
  EXPECT_FALSE(evalUnOp(UnOpKind::ToInt, Value::numV(NAN)).ok());
  EXPECT_EQ(unop(UnOpKind::NumToStr, Value::intV(12)).asStr().str(), "12");
  EXPECT_DOUBLE_EQ(unop(UnOpKind::StrToNum, Value::strV("2.5")).asNum(), 2.5);
  EXPECT_FALSE(evalUnOp(UnOpKind::StrToNum, Value::strV("2x")).ok());
}

TEST(Ops, ToIntOutsideInt64Faults) {
  // Truncations in [-2^63, 2^63) convert; anything outside has no int64.
  auto ToInt = [](double D) {
    return evalUnOp(UnOpKind::ToInt, Value::numV(D));
  };
  EXPECT_EQ(ToInt(-0x1p63)->asInt(), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(ToInt(0x1.fffffffffffffp62)->asInt(), 9223372036854774784);
  EXPECT_EQ(ToInt(-0.0)->asInt(), 0);
  EXPECT_FALSE(ToInt(0x1p63).ok());
  EXPECT_FALSE(ToInt(-0x1.0000000000001p63).ok());
  EXPECT_FALSE(ToInt(9.3e18).ok());
  EXPECT_FALSE(ToInt(-1e300).ok());
  EXPECT_NE(ToInt(1e19).error().find("out-of-range"), std::string::npos);
}

TEST(Ops, BitwiseAndShifts) {
  EXPECT_EQ(binop(BinOpKind::BitAnd, Value::intV(0b1100), Value::intV(0b1010))
                .asInt(),
            0b1000);
  EXPECT_EQ(binop(BinOpKind::BitXor, Value::intV(5), Value::intV(3)).asInt(),
            6);
  EXPECT_EQ(binop(BinOpKind::Shl, Value::intV(1), Value::intV(4)).asInt(), 16);
  EXPECT_EQ(binop(BinOpKind::Shr, Value::intV(-8), Value::intV(1)).asInt(),
            -4);
  EXPECT_FALSE(evalBinOp(BinOpKind::Shl, Value::intV(1), Value::intV(64)).ok());
  EXPECT_EQ(unop(UnOpKind::BitNot, Value::intV(0)).asInt(), -1);
}
