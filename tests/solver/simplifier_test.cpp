//===- tests/solver/simplifier_test.cpp -----------------------------------===//

#include "solver/simplifier.h"

#include "gil/parser.h"

#include <gtest/gtest.h>

using namespace gillian;

namespace {

/// Parses, simplifies and renders — the workhorse for table-driven checks.
std::string simp(std::string_view Src) {
  Result<Expr> E = parseGilExpr(Src);
  EXPECT_TRUE(E.ok()) << (E.ok() ? "" : E.error());
  return simplify(*E).toString();
}

/// Like simp, but with the named logical variables typed — the setting the
/// symbolic engine runs in, where types are harvested from the path
/// condition.
std::string simpT(std::string_view Src,
                  std::initializer_list<std::pair<const char *, GilType>>
                      Types) {
  TypeEnv Env;
  for (auto &[Name, T] : Types)
    Env.assign(InternedString::get(Name), T);
  Result<Expr> E = parseGilExpr(Src);
  EXPECT_TRUE(E.ok()) << (E.ok() ? "" : E.error());
  return simplify(*E, &Env).toString();
}

} // namespace

TEST(Simplifier, ConstantFolding) {
  EXPECT_EQ(simp("1 + 2 * 3"), "7");
  EXPECT_EQ(simp("\"a\" @+ \"b\""), "\"ab\"");
  EXPECT_EQ(simp("3 < 5"), "true");
  EXPECT_EQ(simp("len([1, 2, 3])"), "3");
  EXPECT_EQ(simp("typeof(\"x\")"), "^Str");
}

TEST(Simplifier, FaultingExpressionsAreNotFolded) {
  // 1/0 faults at runtime; the simplifier must leave it alone.
  EXPECT_EQ(simp("1 / 0"), "(1 / 0)");
  EXPECT_EQ(simp("l_nth([1], 5)"), "l_nth([1], 5)");
}

TEST(Simplifier, BooleanIdentities) {
  EXPECT_EQ(simp("true && #b"), "#b");
  EXPECT_EQ(simp("#b && true"), "#b");
  EXPECT_EQ(simp("false && #b"), "false");
  EXPECT_EQ(simp("#b || false"), "#b");
  EXPECT_EQ(simp("true || #b"), "true");
}

TEST(Simplifier, DiscardingRulesRequireTotalOperand) {
  // (1/0 == 1) && false would fault concretely; must NOT fold to false.
  EXPECT_EQ(simp("(1 / 0 == 1) && false"), "(((1 / 0) == 1) && false)");
  // A total operand can be discarded.
  EXPECT_EQ(simp("(#x == 1) && false"), "false");
}

TEST(Simplifier, EqualityRules) {
  EXPECT_EQ(simp("#x == #x"), "true");
  EXPECT_EQ(simp("$a == $b"), "false") << "distinct symbols are distinct";
  EXPECT_EQ(simp("1 == 1.0"), "false") << "structural equality, no coercion";
  // Statically different types (needs #s : Str so slen is total).
  EXPECT_EQ(simpT("slen(#s) == \"a\"", {{"#s", GilType::Str}}), "false");
  // Without typing, the potentially-faulting slen blocks the rewrite.
  EXPECT_EQ(simp("slen(#s) == \"a\""), "(slen(#s) == \"a\")");
}

TEST(Simplifier, ListEqualityDecomposes) {
  // Pointer-shaped lists: [b1, o1] == [b2, o2] decomposes element-wise.
  EXPECT_EQ(simp("[$a, #x] == [$a, 3]"), "(#x == 3)");
  EXPECT_EQ(simp("[$a, #x] == [$b, #x]"), "false");
  EXPECT_EQ(simp("[#x] == [#x, #y]"), "false") << "length mismatch";
}

TEST(Simplifier, IntIdentities) {
  auto IntX = {std::pair<const char *, GilType>{"#x", GilType::Int}};
  EXPECT_EQ(simpT("(#x + 0) + 0", IntX), "#x");
  EXPECT_EQ(simpT("1 * (#x * 1)", IntX), "#x");
  EXPECT_EQ(simpT("#x - 0", IntX), "#x");
  EXPECT_EQ(simpT("#x - #x", IntX), "0");
  // Num identities must NOT fire: x + 0 is not the identity on -0.0, and
  // our rules require Int typing.
  EXPECT_EQ(simp("to_num(#x) + 0"), "(to_num(#x) + 0)");
}

TEST(Simplifier, OffsetChainsCanonicalise) {
  // ((p + 8) + 8) -> p + 16 — pointer offset arithmetic in MC. Requires
  // Int typing of the base, as harvested from the path condition.
  auto IntP = {std::pair<const char *, GilType>{"#p", GilType::Int}};
  auto IntI = {std::pair<const char *, GilType>{"#i", GilType::Int}};
  EXPECT_EQ(simpT("((#p + 8) + 8)", IntP), "(#p + 16)");
  EXPECT_EQ(simpT("(#p + 8) - 8", IntP), "#p");
  EXPECT_EQ(simpT("(#i + 3) == 7", IntI), "(#i == 4)");
  EXPECT_EQ(simpT("(#i + 3) < 7", IntI), "(#i < 4)");
}

TEST(Simplifier, UntypedOperandsBlockIntIdentities) {
  // Without typing, Int-only identities must not fire (a Num or Str #x
  // would change meaning).
  EXPECT_EQ(simp("#x - #x"), "(#x - #x)");
  EXPECT_EQ(simp("((#p + 8) + 8)"), "((#p + 8) + 8)");
  EXPECT_EQ(simp("#x + 0"), "(#x + 0)");
}

TEST(Simplifier, ListPrimitives) {
  EXPECT_EQ(simp("hd([#x, 2])"), "#x");
  EXPECT_EQ(simp("tl([1, #y])"), "[#y]");
  EXPECT_EQ(simp("l_nth([#a, #b, #c], 1)"), "#b");
  EXPECT_EQ(simp("[1] ++ [#x]"), "[1, #x]");
  EXPECT_EQ(simp("#x :: [2, 3]"), "[#x, 2, 3]");
  EXPECT_EQ(simp("len([#x] ++ #rest)"), "(len(#rest) + 1)")
      << "literal moved right by canonicalisation";
}

TEST(Simplifier, NotNormalisation) {
  EXPECT_EQ(simp("!(3 < 5)"), "false");
  EXPECT_EQ(simp("!!(#x == 1)"), "(#x == 1)");
  // !(a < b) over Int -> b <= a.
  EXPECT_EQ(simp("!(to_int(#x) < 3)"), "(3 <= to_int(#x))");
}

TEST(Simplifier, Idempotent) {
  for (const char *Src :
       {"((#p + 8) + 8)", "[$a, #x] == [$a, 3]", "len([#x] ++ #rest)",
        "true && (#b || false)", "(1 / 0)"}) {
    Result<Expr> E = parseGilExpr(Src);
    ASSERT_TRUE(E.ok());
    Expr S1 = simplify(*E);
    Expr S2 = simplify(S1);
    EXPECT_EQ(S1, S2) << Src;
  }
}

TEST(Simplifier, SemanticsPreservedOnClosedExprs) {
  // Property: for closed total expressions, simplify must not change the
  // evaluated value.
  for (const char *Src :
       {"1 + 2 * 3 - 4", "(2 < 3) && !(4 < 3)", "hd([7, 8]) + len([1, 2])",
        "\"a\" @+ (\"b\" @+ \"c\")", "to_int(5.9) * 2",
        "l_nth([10, 20, 30], 1 + 1)"}) {
    Result<Expr> E = parseGilExpr(Src);
    ASSERT_TRUE(E.ok());
    Result<Value> Before = E->evalClosed();
    Result<Value> After = simplify(*E).evalClosed();
    ASSERT_TRUE(Before.ok() && After.ok()) << Src;
    EXPECT_EQ(*Before, *After) << Src;
  }
}
