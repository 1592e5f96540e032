//===- tests/gil/parser_test.cpp ------------------------------------------===//

#include "gil/parser.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

using namespace gillian;

namespace {

Expr parseOk(std::string_view S) {
  Result<Expr> R = parseGilExpr(S);
  EXPECT_TRUE(R.ok()) << (R.ok() ? "" : R.error());
  return R.ok() ? R.take() : Expr();
}

} // namespace

TEST(GilParser, Literals) {
  EXPECT_EQ(parseOk("42").litValue().asInt(), 42);
  EXPECT_DOUBLE_EQ(parseOk("2.5").litValue().asNum(), 2.5);
  EXPECT_EQ(parseOk("\"hi\"").litValue().asStr().str(), "hi");
  EXPECT_TRUE(parseOk("true").litValue().asBool());
  EXPECT_EQ(parseOk("$loc").litValue().asSym().str(), "$loc");
  EXPECT_EQ(parseOk("^Int").litValue().asType(), GilType::Int);
  EXPECT_EQ(parseOk("&main").litValue().asProc().str(), "main");
}

TEST(GilParser, Variables) {
  EXPECT_EQ(parseOk("x").kind(), ExprKind::PVar);
  EXPECT_EQ(parseOk("#lv").kind(), ExprKind::LVar);
}

TEST(GilParser, PrecedenceArithOverComparison) {
  EXPECT_EQ(parseOk("a + b * c < d").toString(), "((a + (b * c)) < d)");
  EXPECT_EQ(parseOk("a && b || c").toString(), "((a && b) || c)");
  EXPECT_EQ(parseOk("! a && b").toString(), "((! a) && b)");
}

TEST(GilParser, GtDesugarsToSwappedLt) {
  EXPECT_EQ(parseOk("a > b").toString(), "(b < a)");
  EXPECT_EQ(parseOk("a >= b").toString(), "(b <= a)");
  EXPECT_EQ(parseOk("a != b").toString(), "(! (a == b))");
}

TEST(GilParser, ConsIsRightAssociative) {
  EXPECT_EQ(parseOk("a :: b :: l").toString(), "(a :: (b :: l))");
}

TEST(GilParser, KeywordOperators) {
  EXPECT_EQ(parseOk("typeof(x)").unOpKind(), UnOpKind::TypeOf);
  EXPECT_EQ(parseOk("len(l) + slen(s)").toString(), "(len(l) + slen(s))");
  EXPECT_EQ(parseOk("l_nth(l, i)").binOpKind(), BinOpKind::ListNth);
  // Keyword not followed by '(' is an ordinary variable.
  EXPECT_EQ(parseOk("len").kind(), ExprKind::PVar);
}

TEST(GilParser, Lists) {
  Expr E = parseOk("[1, x, [2]]");
  ASSERT_EQ(E.kind(), ExprKind::List);
  EXPECT_EQ(E.numChildren(), 3u);
  EXPECT_EQ(parseOk("[]").numChildren(), 0u);
}

TEST(GilParser, ExprRoundTripsThroughToString) {
  for (const char *Src :
       {"((x + 1) * (y - 2))", "(typeof(#v) == ^Str)",
        "l_nth([1, 2, \"three\"], (i % 3))", "(- (x << 2))",
        "((a @+ \"x\") == \"yx\")", "(hd(tl(l)) :: [])"}) {
    Expr E = parseOk(Src);
    Expr R = parseOk(E.toString());
    EXPECT_EQ(E, R) << Src << " vs " << E.toString();
  }
}

TEST(GilParser, Int64BoundsRoundTripThroughToString) {
  constexpr int64_t Min = std::numeric_limits<int64_t>::min();
  constexpr int64_t Max = std::numeric_limits<int64_t>::max();
  for (int64_t V : {Min, Max, Min + 1}) {
    Expr E = Expr::intE(V);
    EXPECT_EQ(parseOk(E.toString()), E) << E.toString();
  }
  // The negation fold wraps like GIL's Neg.
  EXPECT_EQ(parseOk("- -9223372036854775808"), Expr::intE(Min));
  Result<Expr> R = parseGilExpr("9223372036854775808");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error(), "line 1:1: expected an expression (integer literal "
                       "out of range)");
}

TEST(GilParser, ErrorsReportPosition) {
  Result<Expr> R = parseGilExpr("1 + ");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().find("line 1"), std::string::npos);
  EXPECT_FALSE(parseGilExpr("1 2").ok()) << "trailing input";
  EXPECT_FALSE(parseGilExpr("^NotAType").ok());
}

TEST(GilParser, ProgramParsesAndRoundTrips) {
  const char *Src = R"(
    proc main(args) {
      0: x := 1;
      1: ifgoto (x < 10) 3;
      2: return x;
      3: y := @lookup([$l, "p"]);
      4: z := "helper"(x);
      5: u := usym(0);
      6: v := isym(1);
      7: fail "nope";
    }
    proc helper(n) {
      return n + 1;
    }
  )";
  Result<Prog> P = parseGilProg(Src);
  ASSERT_TRUE(P.ok()) << P.error();
  EXPECT_EQ(P->size(), 2u);
  const Proc *Main = P->find("main");
  ASSERT_NE(Main, nullptr);
  EXPECT_EQ(Main->Body.size(), 8u);
  EXPECT_EQ(Main->Body[1].Kind, CmdKind::IfGoto);
  EXPECT_EQ(Main->Body[1].Target, 3u);
  EXPECT_EQ(Main->Body[3].Kind, CmdKind::Action);
  EXPECT_EQ(Main->Body[3].Action.str(), "lookup");
  EXPECT_EQ(Main->Body[4].Kind, CmdKind::Call);
  EXPECT_EQ(Main->Body[5].Kind, CmdKind::USym);
  EXPECT_EQ(Main->Body[6].Kind, CmdKind::ISym);
  EXPECT_EQ(Main->Body[6].Site, 1u);

  // Round trip: print, reparse, print again — fixpoint.
  std::string Printed = P->toString();
  Result<Prog> P2 = parseGilProg(Printed);
  ASSERT_TRUE(P2.ok()) << P2.error() << "\n" << Printed;
  EXPECT_EQ(P2->toString(), Printed);
}

TEST(GilParser, UnterminatedCommentHidesNoProcedure) {
  Result<Prog> R = parseGilProg("proc a(x) { return x; }\n"
                                "/* unclosed\n"
                                "proc b(x) { return x; }\n");
  ASSERT_FALSE(R.ok()) << "parsed " << R->size() << " procedure(s)";
  EXPECT_EQ(R.error(), "line 2:1: expected 'proc' (unterminated block "
                       "comment)");
}

TEST(GilParser, GotoSugar) {
  Result<Prog> P = parseGilProg("proc f(x) { 0: goto 2; 1: vanish; 2: return x; }");
  ASSERT_TRUE(P.ok()) << P.error();
  const Cmd &C = P->find("f")->Body[0];
  EXPECT_EQ(C.Kind, CmdKind::IfGoto);
  EXPECT_TRUE(C.E.isTrue());
  EXPECT_EQ(C.Target, 2u);
}

TEST(GilParser, MismatchedLabelIsError) {
  Result<Prog> P = parseGilProg("proc f(x) { 1: return x; }");
  EXPECT_FALSE(P.ok());
  EXPECT_NE(P.error().find("label"), std::string::npos);
}

TEST(GilParser, CallWithStringCallee) {
  Result<Prog> P = parseGilProg("proc f(x) { r := \"g\"(x + 1); return r; }");
  ASSERT_TRUE(P.ok()) << P.error();
  const Cmd &C = P->find("f")->Body[0];
  EXPECT_EQ(C.Kind, CmdKind::Call);
  EXPECT_EQ(C.E.litValue().asStr().str(), "g");
}
