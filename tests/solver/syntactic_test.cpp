//===- tests/solver/syntactic_test.cpp ------------------------------------===//

#include "solver/syntactic.h"

#include "gil/parser.h"
#include "solver/simplifier.h"

#include <gtest/gtest.h>

using namespace gillian;

namespace {

PathCondition pc(std::initializer_list<const char *> Conjuncts) {
  PathCondition P;
  for (const char *C : Conjuncts) {
    Result<Expr> E = parseGilExpr(C);
    EXPECT_TRUE(E.ok()) << (E.ok() ? "" : E.error());
    P.add(simplify(*E));
  }
  return P;
}

} // namespace

TEST(Syntactic, EmptyIsSat) {
  EXPECT_EQ(checkSatSyntactic(PathCondition()), SatResult::Sat);
}

TEST(Syntactic, EqualityConflict) {
  EXPECT_EQ(checkSatSyntactic(pc({"#x == 1", "#x == 2"})), SatResult::Unsat);
  EXPECT_EQ(checkSatSyntactic(pc({"#x == 1", "#y == 1", "#x == #y"})),
            SatResult::Unknown);
}

TEST(Syntactic, DisequalityAgainstMergedClasses) {
  EXPECT_EQ(checkSatSyntactic(pc({"#x == #y", "!(#x == #y)"})),
            SatResult::Unsat);
  EXPECT_EQ(checkSatSyntactic(pc({"#x == 1", "#y == 1", "!(#x == #y)"})),
            SatResult::Unsat);
  EXPECT_EQ(checkSatSyntactic(pc({"!(#x == #y)"})), SatResult::Unknown);
}

TEST(Syntactic, IntIntervalConflicts) {
  EXPECT_EQ(checkSatSyntactic(pc({"typeof(#x) == ^Int", "#x < 3", "5 < #x"})),
            SatResult::Unsat);
  EXPECT_EQ(checkSatSyntactic(pc({"typeof(#x) == ^Int", "#x < 3", "#x == 7"})),
            SatResult::Unsat);
  EXPECT_EQ(
      checkSatSyntactic(pc({"typeof(#x) == ^Int", "3 <= #x", "#x <= 3"})),
      SatResult::Unknown)
      << "x == 3 is satisfiable";
}

TEST(Syntactic, IntervalsThroughOffsets) {
  // (#x + 2) < 3 /\ 5 < #x is unsat over Int.
  EXPECT_EQ(checkSatSyntactic(
                pc({"typeof(#x) == ^Int", "(#x + 2) < 3", "5 < #x"})),
            SatResult::Unsat);
}

TEST(Syntactic, NumVarBetweenIntegersIsNotRefuted) {
  // A Num variable strictly between 5 and 6 is satisfiable; integer
  // interval reasoning must not apply.
  EXPECT_NE(checkSatSyntactic(
                pc({"typeof(#x) == ^Num", "5.0 < #x", "#x < 6.0"})),
            SatResult::Unsat);
  EXPECT_NE(
      checkSatSyntactic(pc({"typeof(#x) == ^Num", "5 <= #x", "#x <= 6"})),
      SatResult::Unsat);
}

TEST(Syntactic, ReflexiveStrictInequalityIsUnsat) {
  EXPECT_EQ(checkSatSyntactic(pc({"#x < #x"})), SatResult::Unsat);
}

TEST(Syntactic, BooleanLiteralsOfLVars) {
  EXPECT_EQ(checkSatSyntactic(pc({"#b", "!#b"})), SatResult::Unsat);
  EXPECT_EQ(checkSatSyntactic(pc({"#b == true", "#b == false"})),
            SatResult::Unsat);
}

TEST(Syntactic, TypeConflictIsUnsat) {
  EXPECT_EQ(checkSatSyntactic(
                pc({"typeof(#x) == ^Int", "typeof(#x) == ^Str"})),
            SatResult::Unsat);
}

TEST(Syntactic, OpaqueTermCongruence) {
  // f-free congruence via opaque terms: len(#l) == 2 and len(#l) == 3.
  EXPECT_EQ(checkSatSyntactic(pc({"len(#l) == 2", "len(#l) == 3"})),
            SatResult::Unsat);
}

TEST(Syntactic, ProposedModelsVerify) {
  for (auto Conjuncts :
       {pc({"typeof(#x) == ^Int", "3 <= #x", "#x <= 7"}),
        pc({"#x == 5", "#y == #x"}),
        pc({"typeof(#s) == ^Str", "#s == \"abc\""}),
        pc({"typeof(#b) == ^Bool", "#b"}),
        pc({"!(#x == #y)"})}) {
    std::optional<Model> M = proposeModelSyntactic(Conjuncts);
    ASSERT_TRUE(M.has_value()) << Conjuncts.toString();
    EXPECT_TRUE(M->satisfies(Conjuncts))
        << Conjuncts.toString() << " model " << M->toString();
  }
}

TEST(Syntactic, NoModelForContradiction) {
  EXPECT_FALSE(proposeModelSyntactic(pc({"#x == 1", "#x == 2"})).has_value());
}

TEST(Syntactic, ModelPicksIntervalPoint) {
  std::optional<Model> M = proposeModelSyntactic(
      pc({"typeof(#x) == ^Int", "10 <= #x", "#x <= 12"}));
  ASSERT_TRUE(M.has_value());
  const Value *V = M->lookup(InternedString::get("#x"));
  ASSERT_NE(V, nullptr);
  EXPECT_GE(V->asInt(), 10);
  EXPECT_LE(V->asInt(), 12);
}

TEST(Syntactic, ExcludedTypeGetsAVerifiedWitnessOfAnother) {
  // The vanish edge of a typed symbolic input: an untyped variable that
  // is only constrained not to be an Int.
  PathCondition P = pc({"!(typeof(#x) == ^Int)"});
  std::optional<Model> M = proposeModelSyntactic(P);
  ASSERT_TRUE(M.has_value());
  EXPECT_TRUE(M->satisfies(P)) << M->toString();
  const Value *V = M->lookup(InternedString::get("#x"));
  ASSERT_NE(V, nullptr);
  EXPECT_FALSE(V->isInt()) << V->toString();
}

TEST(Syntactic, WitnessSkipsEveryExcludedType) {
  PathCondition P = pc({"!(typeof(#x) == ^Int)", "!(^Num == typeof(#x))"});
  std::optional<Model> M = proposeModelSyntactic(P);
  ASSERT_TRUE(M.has_value());
  EXPECT_TRUE(M->satisfies(P)) << M->toString();
  const Value *V = M->lookup(InternedString::get("#x"));
  ASSERT_NE(V, nullptr);
  EXPECT_TRUE(V->isStr()) << V->toString();
}

TEST(Syntactic, NoVerifiedWitnessWhenAllFourTypesAreExcluded) {
  PathCondition P =
      pc({"!(typeof(#x) == ^Int)", "!(typeof(#x) == ^Num)",
          "!(typeof(#x) == ^Str)", "!(typeof(#x) == ^Bool)"});
  std::optional<Model> M = proposeModelSyntactic(P);
  EXPECT_FALSE(M && M->satisfies(P)) << M->toString();
}

TEST(Syntactic, PinnedAndExcludedTypeStaysUnsat) {
  PathCondition P =
      pc({"typeof(#x) == ^Int && !(typeof(#x) == ^Int)"});
  EXPECT_EQ(checkSatSyntactic(P), SatResult::Unsat);
  EXPECT_FALSE(proposeModelSyntactic(P).has_value());
}

TEST(Syntactic, ExcludedTypeNeverYieldsAFalseWitness) {
  // `#x + 1 == 3` only holds for the Int 2, which the exclusion rules
  // out: whatever is proposed must fail verification.
  PathCondition P = pc({"!(typeof(#x) == ^Int)", "#x + 1 == 3"});
  std::optional<Model> M = proposeModelSyntactic(P);
  EXPECT_FALSE(M && M->satisfies(P)) << M->toString();
}
