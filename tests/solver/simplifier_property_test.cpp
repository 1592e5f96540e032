//===- tests/solver/simplifier_property_test.cpp --------------------------===//
//
// Property-based testing of the simplifier over randomly generated
// expressions (deterministic splitmix64 seeds):
//
//  * closed expressions: simplification never changes the evaluated value
//    and never turns a faulting evaluation into a succeeding one;
//  * open expressions: simplification commutes with substitution of a
//    random environment (simplify-then-substitute evaluates like
//    substitute-then-evaluate) — the semantic core of the §2.3 [EvalExpr]
//    lifting;
//  * idempotence on every generated expression.
//
//===----------------------------------------------------------------------===//

#include "solver/simplifier.h"

#include "solver/model.h"

#include "support/rng.h"

#include <gtest/gtest.h>

using namespace gillian;

namespace {

/// Random expression generator. Depth-bounded; mixes every operator and
/// all value kinds, with a small pool of logical variables.
class ExprGen {
public:
  explicit ExprGen(uint64_t Seed) : R(Seed) {}

  Expr gen(int Depth) {
    if (Depth <= 0 || R.below(4) == 0)
      return leaf();
    switch (R.below(3)) {
    case 0:
      return Expr::unOp(randomUnOp(), gen(Depth - 1));
    case 1:
      return Expr::binOp(randomBinOp(), gen(Depth - 1), gen(Depth - 1));
    default: {
      std::vector<Expr> Elems;
      for (uint64_t I = 0, N = R.below(3); I <= N; ++I)
        Elems.push_back(gen(Depth - 1));
      return Expr::list(std::move(Elems));
    }
    }
  }

  /// A model binding every pool variable to a random value.
  Model randomModel() {
    Model M;
    for (int I = 0; I < PoolSize; ++I)
      M.bind(InternedString::get("#p" + std::to_string(I)), leafValue());
    return M;
  }

private:
  static constexpr int PoolSize = 4;
  Rng R;

  Value leafValue() {
    switch (R.below(6)) {
    case 0: return Value::intV(R.range(-4, 4));
    case 1: return Value::numV(static_cast<double>(R.range(-4, 4)) / 2.0);
    case 2: return Value::boolV(R.flip());
    case 3: return Value::strV(R.flip() ? "a" : "bc");
    case 4: return Value::symV(R.flip() ? "$s1" : "$s2");
    default:
      return Value::listV({Value::intV(R.range(0, 2))});
    }
  }

  Expr leaf() {
    if (R.below(3) == 0)
      return Expr::lvar("#p" + std::to_string(R.below(PoolSize)));
    return Expr::lit(leafValue());
  }

  UnOpKind randomUnOp() {
    constexpr UnOpKind Ops[] = {
        UnOpKind::Neg,     UnOpKind::Not,      UnOpKind::TypeOf,
        UnOpKind::ListLen, UnOpKind::StrLen,   UnOpKind::Head,
        UnOpKind::Tail,    UnOpKind::ToNum,    UnOpKind::ToInt,
        UnOpKind::NumToStr};
    return Ops[R.below(std::size(Ops))];
  }

  BinOpKind randomBinOp() {
    constexpr BinOpKind Ops[] = {
        BinOpKind::Add,     BinOpKind::Sub,       BinOpKind::Mul,
        BinOpKind::Div,     BinOpKind::Mod,       BinOpKind::Eq,
        BinOpKind::Lt,      BinOpKind::Le,        BinOpKind::And,
        BinOpKind::Or,      BinOpKind::StrCat,    BinOpKind::ListNth,
        BinOpKind::ListConcat, BinOpKind::Cons};
    return Ops[R.below(std::size(Ops))];
  }
};

} // namespace

TEST(SimplifierProperty, ClosedExpressionsPreserveValueOrFault) {
  int Evaluated = 0;
  for (uint64_t Seed = 1; Seed <= 400; ++Seed) {
    ExprGen G(Seed);
    Model Empty = G.randomModel(); // also closes over pool vars
    Expr E = G.gen(4).substLVars([&](InternedString X) -> Expr {
      const Value *V = Empty.lookup(X);
      return V ? Expr::lit(*V) : Expr();
    });
    Result<Value> Before = E.evalClosed();
    Expr S = simplify(E);
    Result<Value> After = S.evalClosed();
    if (Before.ok()) {
      ++Evaluated;
      ASSERT_TRUE(After.ok())
          << "simplification must not introduce a fault: " << E.toString()
          << " -> " << S.toString();
      EXPECT_EQ(*Before, *After)
          << E.toString() << " -> " << S.toString();
    }
    // A faulting expression may stay faulting or (for discarded total
    // subterms) become defined; both are allowed by the [EvalExpr]
    // contract. What must never happen is a *different* defined value,
    // which the Before.ok() branch above pins down.
  }
  EXPECT_GT(Evaluated, 50) << "generator must produce evaluable cases";
}

TEST(SimplifierProperty, OpenExpressionsCommuteWithSubstitution) {
  int Compared = 0;
  for (uint64_t Seed = 1000; Seed <= 1300; ++Seed) {
    ExprGen G(Seed);
    Expr E = G.gen(4);
    Model M = G.randomModel();
    Result<Value> Direct = M.eval(E);
    Result<Value> Simplified = M.eval(simplify(E));
    if (Direct.ok()) {
      ++Compared;
      ASSERT_TRUE(Simplified.ok())
          << E.toString() << " -> " << simplify(E).toString()
          << " under " << M.toString();
      EXPECT_EQ(*Direct, *Simplified)
          << E.toString() << " under " << M.toString();
    }
  }
  EXPECT_GT(Compared, 40);
}

TEST(SimplifierProperty, Idempotent) {
  for (uint64_t Seed = 2000; Seed <= 2300; ++Seed) {
    ExprGen G(Seed);
    Expr E = G.gen(5);
    Expr S1 = simplify(E);
    Expr S2 = simplify(S1);
    EXPECT_EQ(S1, S2) << E.toString();
  }
}
