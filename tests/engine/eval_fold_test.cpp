//===- tests/engine/eval_fold_test.cpp ------------------------------------===//
//
// [EvalExpr] (§2.3) on symbolic states decides literal-only expressions on
// values. These tests pin that the answer is exactly the symbolic path's:
// simplify(e[store]) when substitution succeeds, the same "unbound program
// variable" error when it does not — over random expressions on a store
// of edge-case literals, symbolic bindings and unbound names, and over
// hand-picked faulting shapes.
//
//===----------------------------------------------------------------------===//

#include "engine/null_memory.h"
#include "engine/state.h"
#include "gil/parser.h"
#include "solver/simplifier.h"
#include "support/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

using namespace gillian;

namespace {

using St = SymbolicState<NullSMem>;

/// What evalExpr must return: the substituted expression, simplified the
/// way the state simplifies, or the unbound-variable error.
Result<Expr> reference(const St &S, const Expr &E) {
  std::string Unbound;
  Expr Sub = E.substPVars([&](InternedString X) -> Expr {
    const Expr *B = S.store().lookup(X);
    if (!B && Unbound.empty())
      Unbound = std::string(X.str());
    return B ? *B : Expr();
  });
  if (!Sub)
    return Err("unbound program variable '" + Unbound + "'");
  return simplify(Sub, &S.typeEnv());
}

/// True when \p A and \p B are the same result: the same expression
/// (structural, so Num literals compare bitwise) or the same error.
::testing::AssertionResult sameResult(const Result<Expr> &A,
                                      const Result<Expr> &B) {
  if (A.ok() != B.ok())
    return ::testing::AssertionFailure()
           << (A.ok() ? A->toString() : "error: " + A.error()) << " vs "
           << (B.ok() ? B->toString() : "error: " + B.error());
  if (!A.ok())
    return A.error() == B.error()
               ? ::testing::AssertionSuccess()
               : ::testing::AssertionFailure()
                     << A.error() << " vs " << B.error();
  return *A == *B ? ::testing::AssertionSuccess()
                  : ::testing::AssertionFailure()
                        << A->toString() << " vs " << B->toString();
}

/// The store's literal bindings: the edges where Int and Num arithmetic,
/// comparison and equality are easiest to get wrong.
std::vector<Value> edgeValues() {
  constexpr double Inf = std::numeric_limits<double>::infinity();
  return {Value::intV(std::numeric_limits<int64_t>::max()),
          Value::intV(std::numeric_limits<int64_t>::min()),
          Value::intV(-1),
          Value::intV(0),
          Value::intV(1),
          Value::intV(2),
          Value::intV(1ll << 53),
          Value::numV(0.0),
          Value::numV(-0.0),
          Value::numV(std::nan("")),
          Value::numV(Inf),
          Value::numV(-Inf),
          Value::numV(0.5),
          Value::numV(9.3e18),
          Value::strV(""),
          Value::strV("0"),
          Value::strV("ab"),
          Value::boolV(true),
          Value::boolV(false),
          Value::listV({}),
          Value::listV({Value::intV(1), Value::strV("a")}),
          Value::symV("$u1"),
          Value::symV("$u2"),
          Value::typeV(GilType::Int)};
}

/// Random program expressions over a store: literal bindings, two
/// variables bound to symbolic expressions, and two unbound names.
class FoldGen {
public:
  explicit FoldGen(uint64_t Seed) : R(Seed), Vals(edgeValues()) {}

  /// A store binding v0..v9 to literals, s0/s1 to symbolic expressions;
  /// u0/u1 stay unbound.
  St state(const EngineOptions *Opts, Solver *Slv) {
    St S(NullSMem(), Slv, Opts);
    for (int I = 0; I < LitVars; ++I)
      S.setVar(name("v", I), Expr::lit(pick()));
    S.setVar(name("s", 0), Expr::lvar("#y"));
    S.setVar(name("s", 1), Expr::add(Expr::lvar("#y"), Expr::intE(1)));
    return S;
  }

  Expr gen(int Depth) {
    if (Depth <= 0 || R.below(4) == 0)
      return leaf();
    switch (R.below(6)) {
    case 0:
      return Expr::unOp(UnOps[R.below(std::size(UnOps))], gen(Depth - 1));
    case 1: {
      std::vector<Expr> Elems;
      for (uint64_t I = 0, N = R.below(3); I < N; ++I)
        Elems.push_back(gen(Depth - 1));
      return Expr::list(std::move(Elems));
    }
    case 2:
      // && and || often: their short-circuit values are the trap.
      return Expr::binOp(R.flip() ? BinOpKind::And : BinOpKind::Or,
                         gen(Depth - 1), gen(Depth - 1));
    default:
      return Expr::binOp(BinOps[R.below(std::size(BinOps))], gen(Depth - 1),
                         gen(Depth - 1));
    }
  }

private:
  static constexpr int LitVars = 10;
  static constexpr UnOpKind UnOps[] = {
      UnOpKind::Neg,  UnOpKind::Not,     UnOpKind::BitNot,  UnOpKind::TypeOf,
      UnOpKind::ListLen, UnOpKind::StrLen, UnOpKind::Head,  UnOpKind::Tail,
      UnOpKind::ToNum, UnOpKind::ToInt,  UnOpKind::NumToStr,
      UnOpKind::StrToNum};
  static constexpr BinOpKind BinOps[] = {
      BinOpKind::Add,    BinOpKind::Sub,     BinOpKind::Mul,
      BinOpKind::Div,    BinOpKind::Mod,     BinOpKind::Eq,
      BinOpKind::Lt,     BinOpKind::Le,      BinOpKind::And,
      BinOpKind::Or,     BinOpKind::StrCat,  BinOpKind::StrNth,
      BinOpKind::ListNth, BinOpKind::ListConcat, BinOpKind::Cons,
      BinOpKind::BitAnd, BinOpKind::BitOr,   BinOpKind::BitXor,
      BinOpKind::Shl,    BinOpKind::Shr};

  static InternedString name(const char *Prefix, int I) {
    return InternedString::get(Prefix + std::to_string(I));
  }

  Value pick() { return Vals[R.below(Vals.size())]; }

  Expr leaf() {
    switch (R.below(10)) {
    case 0:
      return Expr::pvar(name("s", static_cast<int>(R.below(2))));
    case 1:
      return Expr::pvar(name("u", static_cast<int>(R.below(2))));
    case 2:
    case 3:
      return Expr::lit(pick());
    default:
      return Expr::pvar(name("v", static_cast<int>(R.below(LitVars))));
    }
  }

  Rng R;
  std::vector<Value> Vals;
};

Expr parse(std::string_view Src) {
  Result<Expr> E = parseGilExpr(Src);
  EXPECT_TRUE(E.ok()) << Src << ": " << (E.ok() ? "" : E.error());
  return E.ok() ? E.take() : Expr::boolE(false);
}

} // namespace

TEST(EvalFold, RandomExpressionsMatchSubstituteThenSimplify) {
  Solver Slv;
  int Literal = 0, Symbolic = 0, Unbound = 0;
  EngineOptions Opts;
  for (uint64_t Seed = 1; Seed <= 6000; ++Seed) {
    FoldGen G(Seed);
    St S = G.state(&Opts, &Slv);
    Expr E = G.gen(4);
    Result<Expr> Got = S.evalExpr(E);
    ASSERT_TRUE(sameResult(Got, reference(S, E))) << E.toString();
    if (!Got.ok())
      ++Unbound;
    else if (Got->isLit())
      ++Literal;
    else
      ++Symbolic;
  }
  // Every kind of answer must be exercised, literal ones the most.
  EXPECT_GT(Literal, 1500);
  EXPECT_GT(Symbolic, 500);
  EXPECT_GT(Unbound, 300);
}

TEST(EvalFold, FaultingShapesTakeTheSymbolicPath) {
  Solver Slv;
  EngineOptions Opts;
  St S(NullSMem(), &Slv, &Opts);
  S.setVar(InternedString::get("zero"), Expr::intE(0));
  S.setVar(InternedString::get("min"),
           Expr::intE(std::numeric_limits<int64_t>::min()));
  S.setVar(InternedString::get("f"), Expr::boolE(false));
  S.setVar(InternedString::get("t"), Expr::boolE(true));
  S.setVar(InternedString::get("str"), Expr::strE("ab"));
  S.setVar(InternedString::get("lst"), Expr::lit(Value::listV(
                                           {Value::intV(1)})));
  S.setVar(InternedString::get("sym"), Expr::lvar("#y"));
  S.setVar(InternedString::get("big"), Expr::numE(9.3e18));
  for (const char *Src : {
           "1 / zero",            // Int division by zero
           "1 % zero",            // Int modulo by zero
           "str + 1",             // type error
           "!str",                // type error on a unary operator
           "l_nth(lst, 1)",       // list index out of range
           "s_nth(str, 2)",       // string index out of range
           "s_nth(str, -1)",      // negative string index
           "f && (1 / zero)",     // discarded fault: folds to false
           "t || (1 / zero)",     // discarded fault: folds to true
           "(1 / zero) && f",     // fault first: stays a term
           "f && unbound",        // unbound under &&: an error
           "t || unbound",        // unbound under ||: an error
           "f && sym",            // symbolic under &&
           "sym + 1",             // symbolic binding
           "to_int(big)",         // out-of-range truncation
           "min / -1",            // wraps to INT64_MIN
           "min % -1",            // 0
           "-min",                // wraps to INT64_MIN
           "min - 1",             // wraps to INT64_MAX
           "t && 5",              // the simplifier's `true && e -> e`
           "hd([])",              // head of an empty list
       })
    EXPECT_TRUE(sameResult(S.evalExpr(parse(Src)), reference(S, parse(Src))))
        << Src;
  // The discarded faults still fold; the unbound ones still fail.
  EXPECT_TRUE(S.evalExpr(parse("f && (1 / zero)"))->isFalse());
  EXPECT_FALSE(S.evalExpr(parse("f && unbound")).ok());
  EXPECT_EQ(*S.evalExpr(parse("min % -1")), Expr::intE(0));
}

TEST(EvalFold, StateWithoutOptionsReturnsTheSubstitutedTree) {
  // A state without options does not simplify, so a literal-only
  // expression comes back as the substituted tree, not as its value.
  St S;
  S.setVar(InternedString::get("x"), Expr::intE(2));
  Result<Expr> R = S.evalExpr(parse("x + 1"));
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(*R, Expr::add(Expr::intE(2), Expr::intE(1)));
}

TEST(EvalFold, BoundVariableReturnsItsOwnLiteral) {
  Solver Slv;
  EngineOptions Opts;
  St S(NullSMem(), &Slv, &Opts);
  S.setVar(InternedString::get("x"), Expr::strE("k"));
  Result<Expr> R = S.evalExpr(Expr::pvar("x"));
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R->identity(), S.store().lookup(InternedString::get("x"))
                               ->identity());
}
