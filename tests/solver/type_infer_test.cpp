//===- tests/solver/type_infer_test.cpp -----------------------------------===//

#include "solver/type_infer.h"

#include "gil/parser.h"

#include <gtest/gtest.h>

#include <utility>

using namespace gillian;

namespace {

Expr parse(std::string_view S) {
  Result<Expr> R = parseGilExpr(S);
  EXPECT_TRUE(R.ok()) << (R.ok() ? "" : R.error());
  return *R;
}

} // namespace

TEST(TypeInfer, TypeOfConstraintPinsVariable) {
  TypeEnv Env;
  ASSERT_TRUE(inferTypes({parse("typeof(#x) == ^Int")}, Env));
  EXPECT_EQ(Env.lookup(InternedString::get("#x")), GilType::Int);
}

TEST(TypeInfer, EqualityPropagatesTypes) {
  TypeEnv Env;
  ASSERT_TRUE(inferTypes({parse("#x == \"abc\""), parse("#y == #x")}, Env));
  EXPECT_EQ(Env.lookup(InternedString::get("#x")), GilType::Str);
  EXPECT_EQ(Env.lookup(InternedString::get("#y")), GilType::Str);
}

TEST(TypeInfer, OperatorUsagePinsOperands) {
  TypeEnv Env;
  ASSERT_TRUE(inferTypes({parse("slen(#s) == 3"), parse("#b && true"),
                          parse("(#i & 7) == 1")},
                         Env));
  EXPECT_EQ(Env.lookup(InternedString::get("#s")), GilType::Str);
  EXPECT_EQ(Env.lookup(InternedString::get("#b")), GilType::Bool);
  EXPECT_EQ(Env.lookup(InternedString::get("#i")), GilType::Int);
}

TEST(TypeInfer, ConflictIsUnsat) {
  TypeEnv Env;
  EXPECT_FALSE(inferTypes(
      {parse("typeof(#x) == ^Int"), parse("typeof(#x) == ^Str")}, Env));
}

TEST(TypeInfer, ConflictViaEqualityChain) {
  TypeEnv Env;
  EXPECT_FALSE(inferTypes(
      {parse("#x == 1"), parse("#y == \"s\""), parse("#x == #y")}, Env));
}

TEST(TypeInfer, FixpointThroughChains) {
  // Type information must flow #a -> #b -> #c regardless of order.
  TypeEnv Env;
  ASSERT_TRUE(inferTypes(
      {parse("#c == #b"), parse("#b == #a"), parse("typeof(#a) == ^Num")},
      Env));
  EXPECT_EQ(Env.lookup(InternedString::get("#c")), GilType::Num);
}

TEST(TypeInfer, StaticTypeOfCompounds) {
  TypeEnv Env;
  Env.assign(InternedString::get("#i"), GilType::Int);
  Env.assign(InternedString::get("#n"), GilType::Num);
  EXPECT_EQ(staticType(parse("#i + 1"), Env), GilType::Int);
  EXPECT_EQ(staticType(parse("#i + #n"), Env), GilType::Num);
  EXPECT_EQ(staticType(parse("#i < 3"), Env), GilType::Bool);
  EXPECT_EQ(staticType(parse("[#i]"), Env), GilType::List);
  EXPECT_EQ(staticType(parse("#unknown"), Env), std::nullopt);
}

TEST(TypeInfer, AbsorbConjunctAccumulates) {
  TypeEnv Env;
  absorbConjunct(parse("typeof(#x) == ^Int"), Env);
  absorbConjunct(parse("#y == #x + 1"), Env);
  EXPECT_EQ(Env.lookup(InternedString::get("#x")), GilType::Int);
  EXPECT_EQ(Env.lookup(InternedString::get("#y")), GilType::Int);
}

TEST(TypeInfer, MixedIntNumComparisonDoesNotPin) {
  // GIL allows ordering comparisons across Int and Num (3 < 3.5), so a
  // comparison with a Num side must not force the other side to Num — and
  // must not conflict with the other side independently being Int.
  TypeEnv Env;
  ASSERT_TRUE(inferTypes({parse("typeof(#n) == ^Num"), parse("#i < #n"),
                          parse("#n <= #j")},
                         Env));
  EXPECT_EQ(Env.lookup(InternedString::get("#n")), GilType::Num);
  EXPECT_EQ(Env.lookup(InternedString::get("#i")), std::nullopt)
      << "comparison operands keep their own numeric type";
  EXPECT_EQ(Env.lookup(InternedString::get("#j")), std::nullopt);

  TypeEnv Env2;
  ASSERT_TRUE(inferTypes({parse("typeof(#n) == ^Num"),
                          parse("typeof(#i) == ^Int"), parse("#i < #n")},
                         Env2))
      << "an Int/Num comparison is not a type conflict";
  EXPECT_EQ(Env2.lookup(InternedString::get("#i")), GilType::Int);
}

TEST(TypeInfer, MixedIntNumArithmeticDoesNotPinSibling) {
  // #i + #m with Int #i stays untyped: the sum may be Num when #m is.
  TypeEnv Env;
  ASSERT_TRUE(inferTypes(
      {parse("typeof(#i) == ^Int"), parse("#x == #i + #m")}, Env));
  EXPECT_EQ(Env.lookup(InternedString::get("#m")), std::nullopt);
  EXPECT_EQ(Env.lookup(InternedString::get("#x")), std::nullopt);
}

TEST(TypeInfer, StringComparisonPropagatesAcrossSides) {
  TypeEnv Env;
  ASSERT_TRUE(inferTypes({parse("#a < \"abc\""), parse("#b <= #a")}, Env));
  EXPECT_EQ(Env.lookup(InternedString::get("#a")), GilType::Str);
  EXPECT_EQ(Env.lookup(InternedString::get("#b")), GilType::Str);
}

TEST(TypeInfer, StringIndexingPinsOperands) {
  // s_nth(S, I): S must be Str, I must be Int, and the result is Str.
  TypeEnv Env;
  ASSERT_TRUE(
      inferTypes({parse("s_nth(#s, #i) == #c"), parse("0 <= #i")}, Env));
  EXPECT_EQ(Env.lookup(InternedString::get("#s")), GilType::Str);
  EXPECT_EQ(Env.lookup(InternedString::get("#i")), GilType::Int);
  EXPECT_EQ(Env.lookup(InternedString::get("#c")), GilType::Str)
      << "the 1-character result types the equated variable";
}

TEST(TypeInfer, StringIndexingConflictsAreUnsat) {
  TypeEnv Env;
  EXPECT_FALSE(inferTypes(
      {parse("typeof(#i) == ^Str"), parse("s_nth(#s, #i) == \"a\"")}, Env))
      << "a Str-typed index contradicts s_nth's Int operand";
  TypeEnv Env2;
  EXPECT_FALSE(inferTypes(
      {parse("typeof(#s) == ^List"), parse("s_nth(#s, 0) == \"a\"")}, Env2));
}

TEST(TypeInfer, NestedConjunction) {
  TypeEnv Env;
  ASSERT_TRUE(inferTypes(
      {parse("(typeof(#x) == ^Int) && (typeof(#y) == ^Bool)")}, Env));
  EXPECT_EQ(Env.lookup(InternedString::get("#x")), GilType::Int);
  EXPECT_EQ(Env.lookup(InternedString::get("#y")), GilType::Bool);
}
