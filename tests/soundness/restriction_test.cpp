//===- tests/soundness/restriction_test.cpp -------------------------------===//
//
// Executable §3.1: the restriction axioms (Def 3.1) and compatibility
// properties (Def 3.4) on symbolic states, plus monotonicity of action
// execution w.r.t. restriction (Def 3.2).
//
// The whole suite is TYPED over the symbolic memory model: the axioms are
// properties of SymbolicState<M> for *any* M, so they run against every
// model — the three language models (While, MJS, MC) and the
// linear-memory instantiation. Per-model knowledge (how to seed two
// may-aliasing entries and which action branches over them) lives in the
// ModelTraits specialisations.
//
//===----------------------------------------------------------------------===//

#include "engine/state.h"

#include "gil/parser.h"
#include "linear/memory.h"
#include "mc/memory.h"
#include "mjs/memory.h"
#include "while_lang/compiler.h"
#include "while_lang/memory.h"

#include <gtest/gtest.h>

#include <string>

using namespace gillian;

namespace {

EngineOptions Opts;
Solver *solver() {
  static Solver S;
  return &S;
}

/// Per-model setup for the branching-action monotonicity test: seed the
/// memory with two entries the queried logical variable may alias, name
/// the action that runs the alias loop over them, and give the PC typing
/// of the query variable.
template <typename M> struct ModelTraits;

template <> struct ModelTraits<whilelang::WhileSMem> {
  static constexpr const char *Name = "While";
  static constexpr const char *PCSetup = "typeof(#l) == ^Sym";
  static void seed(whilelang::WhileSMem &M) {
    M.setProp(Expr::lit(Value::symV("$a")), InternedString::get("p"),
              Expr::intE(1));
    M.setProp(Expr::lit(Value::symV("$b")), InternedString::get("p"),
              Expr::intE(2));
  }
  static InternedString action() { return whilelang::actLookup(); }
  static Expr arg() {
    return Expr::list({Expr::lvar("#l"), Expr::strE("p")});
  }
  static constexpr size_t MinBranches = 2;
};

template <> struct ModelTraits<mjs::MjsSMem> {
  static constexpr const char *Name = "Mjs";
  static constexpr const char *PCSetup = "typeof(#l) == ^Sym";
  static void seed(mjs::MjsSMem &M) {
    M.setProp(Expr::lit(Value::symV("$a")), Expr::strE("p"), Expr::intE(1));
    M.setProp(Expr::lit(Value::symV("$b")), Expr::strE("p"), Expr::intE(2));
  }
  static InternedString action() { return mjs::actGetProp(); }
  static Expr arg() {
    return Expr::list({Expr::lvar("#l"), Expr::strE("p")});
  }
  static constexpr size_t MinBranches = 2;
};

template <> struct ModelTraits<mc::McSMem> {
  static constexpr const char *Name = "Mc";
  static constexpr const char *PCSetup = "typeof(#l) == ^Sym";
  static void seed(mc::McSMem &M) {
    mc::SBlock A;
    A.Size = 8;
    M.putBlock(Expr::lit(Value::symV("$a")), std::move(A));
    mc::SBlock B;
    B.Size = 8;
    M.putBlock(Expr::lit(Value::symV("$b")), std::move(B));
  }
  static InternedString action() { return mc::actFree(); }
  static Expr arg() {
    return Expr::list({Expr::list({Expr::lvar("#l"), Expr::intE(0)})});
  }
  static constexpr size_t MinBranches = 2;
};

template <> struct ModelTraits<linear::LinearSMem> {
  static constexpr const char *Name = "Linear";
  static constexpr const char *PCSetup = "typeof(#i) == ^Int";
  static void seed(linear::LinearSMem &M) {
    M.setSize(8);
    M.setCell(Expr::intE(1), Expr::intE(10));
    M.setCell(Expr::intE(2), Expr::intE(20));
  }
  static InternedString action() { return linear::actLoad(); }
  static Expr arg() { return Expr::list({Expr::lvar("#i")}); }
  static constexpr size_t MinBranches = 2;
};

template <typename M> class RestrictionTest : public ::testing::Test {
protected:
  using St = SymbolicState<M>;

  static St stateWithPC(std::initializer_list<const char *> Conjuncts) {
    St S(M(), solver(), &Opts);
    for (const char *C : Conjuncts) {
      Result<Expr> E = parseGilExpr(C);
      EXPECT_TRUE(E.ok()) << (E.ok() ? "" : E.error());
      S.addToPathCondition(*E);
    }
    return S;
  }

  static bool pcEqual(const St &A, const St &B) {
    return A.refines(B) && B.refines(A);
  }
};

struct ModelNames {
  template <typename T> static std::string GetName(int) {
    return ModelTraits<T>::Name;
  }
};

using AllModels =
    ::testing::Types<whilelang::WhileSMem, mjs::MjsSMem, mc::McSMem,
                     linear::LinearSMem>;
TYPED_TEST_SUITE(RestrictionTest, AllModels, ModelNames);

} // namespace

TYPED_TEST(RestrictionTest, Idempotence) {
  // x |x = x (Def 3.1).
  auto X = this->stateWithPC({"typeof(#a) == ^Int", "0 <= #a"});
  auto XX = X;
  XX.restrictWith(X);
  EXPECT_TRUE(this->pcEqual(XX, X));
}

TYPED_TEST(RestrictionTest, RightCommutativity) {
  // (x |y) |z = (x |z) |y.
  auto X = this->stateWithPC({"typeof(#a) == ^Int"});
  auto Y = this->stateWithPC({"0 <= #a"});
  auto Z = this->stateWithPC({"#a <= 10"});
  auto A = X, B = X;
  A.restrictWith(Y);
  A.restrictWith(Z);
  B.restrictWith(Z);
  B.restrictWith(Y);
  EXPECT_TRUE(this->pcEqual(A, B));
}

TYPED_TEST(RestrictionTest, Weakening) {
  // x |y |z = x  =>  x |y = x and x |z = x.
  auto Y = this->stateWithPC({"0 <= #a"});
  auto Z = this->stateWithPC({"#a <= 10"});
  auto X = this->stateWithPC({"0 <= #a", "#a <= 10", "typeof(#a) == ^Int"});
  auto XYZ = X;
  XYZ.restrictWith(Y);
  XYZ.restrictWith(Z);
  ASSERT_TRUE(this->pcEqual(XYZ, X)) << "precondition of the axiom";
  auto XY = X;
  XY.restrictWith(Y);
  EXPECT_TRUE(this->pcEqual(XY, X));
  auto XZ = X;
  XZ.restrictWith(Z);
  EXPECT_TRUE(this->pcEqual(XZ, X));
}

TYPED_TEST(RestrictionTest, InducedPreorder) {
  // x2 ⊑ x1 iff x2 |x1 = x2: stronger states refine weaker ones.
  auto Weak = this->stateWithPC({"typeof(#a) == ^Int"});
  auto Strong = this->stateWithPC({"typeof(#a) == ^Int", "5 <= #a"});
  EXPECT_TRUE(Strong.refines(Weak));
  EXPECT_FALSE(Weak.refines(Strong));
  auto SW = Strong;
  SW.restrictWith(Weak);
  EXPECT_TRUE(this->pcEqual(SW, Strong))
      << "restricting by weaker adds nothing";
}

TYPED_TEST(RestrictionTest, CompatRestrictionIncreasesPrecision) {
  // ⇃-≤ compat (Def 3.4): x1 ⇃x2 describes no more models than x1. We
  // check the model-theoretic statement directly: every verified model of
  // the restricted PC satisfies the original PC.
  auto X1 = this->stateWithPC({"typeof(#a) == ^Int", "0 <= #a"});
  auto X2 = this->stateWithPC({"#a <= 3"});
  auto R = X1;
  R.restrictWith(X2);
  std::optional<Model> M = solver()->verifiedModel(R.pathCondition());
  ASSERT_TRUE(M.has_value());
  EXPECT_TRUE(M->satisfies(X1.pathCondition()));
  EXPECT_TRUE(M->satisfies(X2.pathCondition()));
}

TYPED_TEST(RestrictionTest, MonotoneUnderAssume) {
  // Def 3.2: action execution only refines states (σ' ⊑ σ). assume is the
  // A_proper action that grows the PC.
  auto S = this->stateWithPC({"typeof(#a) == ^Int"});
  auto Next = S.assumeValue(parseGilExpr("3 <= #a").take());
  ASSERT_TRUE(Next.ok());
  ASSERT_TRUE(Next->has_value());
  EXPECT_TRUE((*Next)->refines(S));
  EXPECT_FALSE(S.refines(**Next));
}

TYPED_TEST(RestrictionTest, MonotoneUnderMemoryActions) {
  // A branching memory action strengthens each branch with its condition
  // — for every model: the seeded memory holds two entries the queried
  // variable may alias, so the action runs the alias loop and splits.
  using Traits = ModelTraits<TypeParam>;
  auto S = this->stateWithPC({Traits::PCSetup});
  Traits::seed(S.memory());
  auto Branches = S.execAction(Traits::action(), Traits::arg());
  ASSERT_TRUE(Branches.ok()) << (Branches.ok() ? "" : Branches.error());
  ASSERT_GE(Branches->size(), Traits::MinBranches);
  for (auto &B : *Branches)
    EXPECT_TRUE(B.State.refines(S))
        << "every action branch must refine its source state";
}

TYPED_TEST(RestrictionTest, AllocatorKnowledgeAccumulates) {
  // Restriction carries allocation knowledge (Def 3.3): restricting an
  // early state by a later one transfers the later allocation counters.
  auto Early = this->stateWithPC({});
  auto Late = Early;
  (void)Late.allocUSym(7);
  (void)Late.allocISym(7);
  ASSERT_TRUE(Late.refines(Early));
  auto Restricted = Early;
  Restricted.restrictWith(Late);
  EXPECT_TRUE(Restricted.allocator().record().refines(
      Late.allocator().record()));
}

TYPED_TEST(RestrictionTest, StrengtheningProperty) {
  // Strengthening (Def 3.4): restricting both sides of a refinement by
  // respectively stronger conditions preserves the refinement.
  auto X1 = this->stateWithPC({"typeof(#a) == ^Int"});
  auto X2 = this->stateWithPC({"typeof(#a) == ^Int", "0 <= #a"}); // X2 ≤ X1
  auto Y1 = this->stateWithPC({"#a <= 10"});
  auto Y2 = this->stateWithPC({"#a <= 10", "#a <= 5"}); // Y2 ⊑ Y1
  auto L = X2;
  L.restrictWith(Y2);
  auto R = X1;
  R.restrictWith(Y1);
  EXPECT_TRUE(L.refines(R));
}
