//===- tests/solver/solver_test.cpp ---------------------------------------===//

#include "solver/solver.h"

#include "gil/parser.h"
#include "solver/simplifier.h"
#include "solver/z3_backend.h"

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

TEST(PathConditionT, FlattensAndDeduplicates) {
  PathCondition P;
  Result<Expr> E = parseGilExpr("(#a && #b) && #a");
  ASSERT_TRUE(E.ok());
  P.add(*E);
  EXPECT_EQ(P.size(), 2u);
  P.add(parseGilExpr("#b").take());
  EXPECT_EQ(P.size(), 2u) << "duplicate conjuncts are skipped";
}

TEST(PathConditionT, FalseCollapses) {
  PathCondition P = pc({"#a"});
  P.add(Expr::boolE(false));
  EXPECT_TRUE(P.isTriviallyFalse());
  EXPECT_EQ(P.size(), 0u);
  EXPECT_EQ(P.toString(), "false");
}

TEST(PathConditionT, ContainsIsRestrictionOrder) {
  PathCondition Weak = pc({"#a"});
  PathCondition Strong = pc({"#a", "#b"});
  EXPECT_TRUE(Strong.contains(Weak));
  EXPECT_FALSE(Weak.contains(Strong));
  EXPECT_TRUE(Weak.contains(PathCondition()));
}

TEST(PathConditionT, EqualityAndHashAreOrderInsensitive) {
  PathCondition A = pc({"typeof(#x) == ^Int", "0 <= #x", "#x < 9"});
  PathCondition B = pc({"#x < 9", "typeof(#x) == ^Int", "0 <= #x"});
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.hash(), B.hash());
  EXPECT_EQ(A.toString(), B.toString()) << "canonical rendering";
  // Supersets still differ.
  PathCondition C = B;
  C.add(parseGilExpr("#y == 1").take());
  EXPECT_FALSE(A == C);
}

TEST(PathConditionT, ConjunctsAreCanonicallySorted) {
  PathCondition A = pc({"#b == 2", "#a == 1", "#c == 3"});
  PathCondition B = pc({"#c == 3", "#b == 2", "#a == 1"});
  ASSERT_EQ(A.size(), 3u);
  EXPECT_EQ(A.conjuncts(), B.conjuncts());
  ExprOrdering Less;
  for (size_t I = 1; I < A.size(); ++I)
    EXPECT_FALSE(Less(A.conjuncts()[I], A.conjuncts()[I - 1]));
}

TEST(PathConditionT, ContainsOnLargePermutedSets) {
  // The sorted canonical form makes containment a merge-walk; check it
  // against permuted insertion orders and strict sub/supersets.
  std::vector<std::string> Conjs;
  for (int I = 0; I < 40; ++I)
    Conjs.push_back("#v" + std::to_string(I) + " < " + std::to_string(I));
  PathCondition Full, Sub;
  for (int I = 39; I >= 0; --I)
    Full.add(parseGilExpr(Conjs[static_cast<size_t>(I)].c_str()).take());
  for (int I = 0; I < 40; I += 2)
    Sub.add(parseGilExpr(Conjs[static_cast<size_t>(I)].c_str()).take());
  EXPECT_TRUE(Full.contains(Sub));
  EXPECT_FALSE(Sub.contains(Full));
  EXPECT_TRUE(Full.contains(Full));
}

TEST(SolverFacade, TrivialAnswers) {
  Solver S;
  EXPECT_EQ(S.checkSat(PathCondition()), SatResult::Sat);
  PathCondition F;
  F.add(Expr::boolE(false));
  EXPECT_EQ(S.checkSat(F), SatResult::Unsat);
  EXPECT_EQ(S.stats().TrivialAnswers, 2u);
}

TEST(SolverFacade, SyntacticLayerDecidesCheapUnsat) {
  Solver S;
  EXPECT_EQ(S.checkSat(pc({"#x == 1", "#x == 2"})), SatResult::Unsat);
  EXPECT_GE(S.stats().SyntacticUnsat, 1u);
  EXPECT_EQ(S.stats().Z3Calls, 0u) << "Z3 must not be consulted";
}

TEST(SolverFacade, CacheHitsOnRepeat) {
  Solver S;
  PathCondition P = pc({"typeof(#x) == ^Int", "#x < 3", "5 < #x"});
  SatResult R1 = S.checkSat(P);
  SatResult R2 = S.checkSat(P);
  EXPECT_EQ(R1, R2);
  EXPECT_GE(S.stats().CacheHits, 1u);
}

TEST(SolverFacade, CacheDisabledInLegacyConfig) {
  Solver S(SolverOptions::legacyJaVerT2());
  PathCondition P = pc({"typeof(#x) == ^Int", "#x < 3"});
  S.checkSat(P);
  S.checkSat(P);
  EXPECT_EQ(S.stats().CacheHits, 0u);
  EXPECT_EQ(S.stats().SliceCacheHits, 0u);
}

TEST(SolverFacade, PermutedConjunctOrderIsACacheHit) {
  // The seed cache keyed on the insertion-ordered conjunct vector, so the
  // same constraint set reached via two branch orders missed. Canonical
  // keys make it hit.
  Solver S;
  PathCondition Fwd = pc({"typeof(#x) == ^Int", "0 <= #x", "#x < 3"});
  PathCondition Rev = pc({"#x < 3", "0 <= #x", "typeof(#x) == ^Int"});
  SatResult R1 = S.checkSat(Fwd);
  uint64_t HitsBefore = S.stats().CacheHits;
  SatResult R2 = S.checkSat(Rev);
  EXPECT_EQ(R1, R2);
  EXPECT_EQ(S.stats().CacheHits, HitsBefore + 1)
      << "permuted insertion order must share the canonical cache entry";
}

TEST(SolverFacade, UnknownIsNeverCached) {
  // Regression: the seed permanently cached Unknown, so a query the
  // syntactic core punted on was never retried even when a stronger
  // backend could decide it. With Z3 off, "#x * 2 == 7" stays Unknown
  // (opaque product term; proposed models fail verification) — but it
  // must be *recomputed*, not served from the cache.
  SolverOptions NoZ3;
  NoZ3.UseZ3 = false;
  Solver S(NoZ3);
  PathCondition P =
      pc({"typeof(#x) == ^Int", "0 <= #x", "#x <= 10", "#x * 2 == 7"});
  EXPECT_EQ(S.checkSat(P), SatResult::Unknown);
  EXPECT_EQ(S.checkSat(P), SatResult::Unknown);
  EXPECT_EQ(S.stats().Queries, 2u);
  EXPECT_EQ(S.stats().CacheHits, 0u) << "Unknown must not be cached";
  EXPECT_EQ(S.stats().SliceCacheHits, 0u) << "not even at slice level";
  EXPECT_EQ(S.stats().Unknown, 2u) << "second query re-ran the layers";

  // The identical query on a Z3-backed solver decides Unsat — the verdict
  // a poisoned cache would have masked forever.
  if (z3Available()) {
    Solver Full;
    EXPECT_EQ(Full.checkSat(P), SatResult::Unsat);
  }
}

TEST(SolverFacade, DecidedSliceIsCachedNextToUnknownSlice) {
  // In a sliced query with one undecidable and one decidable component,
  // the decidable slice's verdict is banked even though the whole query
  // stays Unknown (and is itself not cached).
  SolverOptions NoZ3;
  NoZ3.UseZ3 = false;
  Solver S(NoZ3);
  PathCondition P = pc({"typeof(#x) == ^Int", "0 <= #x", "#x <= 10",
                        "#x * 2 == 7", "typeof(#y) == ^Int", "#y == 4"});
  EXPECT_EQ(S.checkSat(P), SatResult::Unknown);
  uint64_t SliceHits = S.stats().SliceCacheHits;
  EXPECT_EQ(S.checkSat(P), SatResult::Unknown);
  EXPECT_GT(S.stats().SliceCacheHits, SliceHits)
      << "the #y slice (Sat) must be answered from the slice cache";
  EXPECT_EQ(S.stats().CacheHits, 0u)
      << "the Unknown whole-query verdict must not be cached";
}

TEST(SolverFacade, VerifiedModelSatisfiesPC) {
  Solver S;
  PathCondition P = pc({"typeof(#x) == ^Int", "3 <= #x", "#x <= 3",
                        "typeof(#s) == ^Str", "slen(#s) == 0"});
  std::optional<Model> M = S.verifiedModel(P);
  ASSERT_TRUE(M.has_value());
  EXPECT_TRUE(M->satisfies(P));
  EXPECT_EQ(M->lookup(InternedString::get("#x"))->asInt(), 3);
}

TEST(SolverFacade, NoModelForUnsat) {
  Solver S;
  EXPECT_FALSE(S.verifiedModel(pc({"#x == 1", "#x == 2"})).has_value());
}

// --- Z3-backed checks (skipped when the backend is absent) --------------

class Z3Test : public ::testing::Test {
protected:
  void SetUp() override {
    if (!z3Available())
      GTEST_SKIP() << "built without Z3";
  }
};

TEST_F(Z3Test, DecidesArithmeticBeyondSyntactic) {
  Solver S;
  // x + y == 10 /\ x - y == 4 /\ y != 3  -> unsat over Int.
  PathCondition P =
      pc({"typeof(#x) == ^Int", "typeof(#y) == ^Int", "#x + #y == 10",
          "#x - #y == 4", "!(#y == 3)"});
  EXPECT_EQ(S.checkSat(P), SatResult::Unsat);
  EXPECT_GE(S.stats().Z3Calls, 1u);
}

TEST_F(Z3Test, SatWithModelExtraction) {
  Solver S;
  PathCondition P =
      pc({"typeof(#x) == ^Int", "typeof(#y) == ^Int", "#x + #y == 10",
          "#x - #y == 4"});
  EXPECT_EQ(S.checkSat(P), SatResult::Sat);
  std::optional<Model> M = S.verifiedModel(P);
  ASSERT_TRUE(M.has_value());
  EXPECT_EQ(M->lookup(InternedString::get("#x"))->asInt(), 7);
  EXPECT_EQ(M->lookup(InternedString::get("#y"))->asInt(), 3);
}

TEST_F(Z3Test, TruncatedDivisionSemantics) {
  Solver S;
  // In GIL, -7 / 2 == -3 (truncation): conjoining "#x == -7 / 2" with
  // "#x == -4" must be unsat, and with -3 it must be sat.
  EXPECT_EQ(S.checkSat(pc({"typeof(#x) == ^Int", "#x * 2 + 1 == -7",
                           "!(#x == -4)"})),
            SatResult::Unsat);
  PathCondition P = pc({"typeof(#q) == ^Int", "typeof(#a) == ^Int",
                        "#a == -7", "#q == #a / 2", "#q == -3"});
  EXPECT_NE(S.checkSat(P), SatResult::Unsat);
  std::optional<Model> M = S.verifiedModel(P);
  ASSERT_TRUE(M.has_value()) << "model must verify under GIL evaluation";
}

TEST_F(Z3Test, StringConstraints) {
  Solver S;
  PathCondition P = pc({"typeof(#s) == ^Str", "slen(#s) == 2",
                        "#s @+ \"!\" == \"ab!\""});
  EXPECT_EQ(S.checkSat(P), SatResult::Sat);
  std::optional<Model> M = S.verifiedModel(P);
  ASSERT_TRUE(M.has_value());
  EXPECT_EQ(M->lookup(InternedString::get("#s"))->asStr().str(), "ab");
}

TEST_F(Z3Test, NumConstraintsOverReals) {
  Solver S;
  PathCondition P = pc({"typeof(#x) == ^Num", "5.0 < #x", "#x < 6.0"});
  EXPECT_EQ(S.checkSat(P), SatResult::Sat);
  std::optional<Model> M = S.verifiedModel(P);
  ASSERT_TRUE(M.has_value());
  double D = M->lookup(InternedString::get("#x"))->asNum();
  EXPECT_GT(D, 5.0);
  EXPECT_LT(D, 6.0);
}

TEST_F(Z3Test, MixedIntNumEqualityIsStructurallyFalse) {
  Solver S;
  // GIL: 1 != 1.0 — so #i == #n with Int #i and Num #n is unsat.
  EXPECT_EQ(S.checkSat(pc({"typeof(#i) == ^Int", "typeof(#n) == ^Num",
                           "#i == #n"})),
            SatResult::Unsat);
}

TEST_F(Z3Test, SymbolsArePairwiseDistinct) {
  Solver S;
  EXPECT_EQ(S.checkSat(pc({"typeof(#l) == ^Sym", "#l == $a", "#l == $b"})),
            SatResult::Unsat);
  PathCondition P = pc({"typeof(#l) == ^Sym", "!(#l == $a)", "#l == $b"});
  EXPECT_EQ(S.checkSat(P), SatResult::Sat);
  std::optional<Model> M = S.verifiedModel(P);
  ASSERT_TRUE(M.has_value());
  EXPECT_EQ(M->lookup(InternedString::get("#l"))->asSym().str(), "$b");
}

TEST_F(Z3Test, UnsupportedConjunctsDegradeToUnknownNotWrong) {
  Solver S;
  // Bit-level ops on symbolic operands are dropped; answer must not be a
  // bogus Unsat.
  PathCondition P = pc({"typeof(#x) == ^Int", "(#x << 1) == 4"});
  EXPECT_NE(S.checkSat(P), SatResult::Unsat);
}

TEST(SolverFacade, ExcludedTypeIsSatWithoutZ3) {
  // The vanish edge of every typed symbolic input (MC symb_i64, While
  // fresh_int(), typed MJS symbols): decided in-process by a verified
  // witness of another type, and cached like any decided verdict.
  Solver S;
  PathCondition P = pc({"!(typeof(#x) == ^Int)"});
  EXPECT_EQ(S.checkSat(P), SatResult::Sat);
  EXPECT_EQ(S.checkSat(P), SatResult::Sat);
  EXPECT_EQ(S.stats().Z3Calls, 0u);
  EXPECT_EQ(S.stats().CacheHits, 1u);
}

//===----------------------------------------------------------------------===//
// The in-process layer (DESIGN.md §4f)
//===----------------------------------------------------------------------===//

TEST(SolverFacade, InProcessLayerDecidesPerfbenchShapes) {
  // One path condition per shape the syntactic core decides without Z3,
  // and one it must leave to Z3, verbatim from the perfbench buckets and
  // collections passes (simplified and canonical already, so added as
  // printed).
  struct Case {
    const char *Shape;
    SatResult Expected;
    std::vector<const char *> Conjuncts;
  };
  const Case Cases[] = {
      {"complementary comparison literals", SatResult::Unsat,
       {"typeof(#i_16_0) == ^Num", "#i_16_0 <= #i_17_0",
        "typeof(#i_17_0) == ^Num", "! (#i_16_0 <= #i_17_0)"}},
      {"complementary literal bound", SatResult::Unsat,
       {"#i_21_0 <= 1.0", "0.0 <= #i_21_0", "! (0.0 <= #i_21_0)",
        "typeof(#i_21_0) == ^Num"}},
      {"congruence through num_to_str", SatResult::Unsat,
       {"typeof(#i_19_0) == ^Num", "typeof(#i_20_0) == ^Num",
        "#i_19_0 == #i_20_0",
        "! (num_to_str(#i_20_0) == num_to_str(#i_19_0))"}},
      {"x == x + c over Int", SatResult::Unsat,
       {"#i_22_0 == (#i_22_0 + 1)", "typeof(#i_22_0) == ^Int"}},
      {"order plus disequality over Num", SatResult::Sat,
       {"! (#i_28_0 == #i_29_0)", "typeof(#i_29_0) == ^Num",
        "typeof(#i_28_0) == ^Num", "! (#i_29_0 < #i_28_0)",
        "! (#i_29_0 == #i_28_0)"}},
      {"order plus disequality over Int", SatResult::Sat,
       {"typeof(#i_24_0) == ^Int", "! (#i_25_0 == #i_24_0)",
        "! (#i_24_0 == #i_25_0)", "typeof(#i_25_0) == ^Int",
        "#i_24_0 <= #i_25_0"}},
      {"values a literal disequality forbids", SatResult::Sat,
       {"! (#i_27_0 < 1e+01)", "! (#i_27_0 == 15.0)",
        "! (#i_27_0 == 5.0)", "typeof(#i_27_0) == ^Num",
        "! (#i_27_0 == 1e+01)"}},
      {"distinct values under order edges", SatResult::Sat,
       {"typeof(#i_23_0) == ^Num", "! (#i_23_0 == #i_22_0)",
        "! (#i_22_0 == #i_23_0)", "#i_23_0 < #i_22_0",
        "typeof(#i_24_0) == ^Num", "! (#i_22_0 == #i_24_0)",
        "! (#i_24_0 == #i_22_0)", "! (#i_23_0 == #i_24_0)",
        "#i_24_0 < #i_22_0", "typeof(#i_22_0) == ^Num"}},
      {"offset class", SatResult::Sat,
       {"! (#i_19_0 == #i_20_0)", "typeof(#i_19_0) == ^Int",
        "typeof(#i_20_0) == ^Int", "#i_20_0 == (#i_19_0 + 1)"}},
      {"variables the analysis never met", SatResult::Sat,
       {"typeof(#i_23_0) == ^Num", "typeof(#i_24_0) == ^Num",
        "! (num_to_str(#i_24_0) == num_to_str(#i_23_0))"}},
      {"num_to_str collision witnessed by NaN payloads", SatResult::Sat,
       {"typeof(#i_16_0) == ^Num", "! (#i_16_0 == #i_17_0)",
        "typeof(#i_17_0) == ^Num", "! (#i_17_0 == #i_16_0)",
        "num_to_str(#i_17_0) == num_to_str(#i_16_0)",
        "! (#i_16_0 <= #i_17_0)"}},
      {"negated comparison over operands that are not NaN", SatResult::Unsat,
       {"#i_21_0 <= 1.0", "0.0 <= #i_21_0", "! (#i_21_0 < 2.0)",
        "typeof(#i_21_0) == ^Num"}},
      // Satisfied by NaN under GIL's evaluator, left to Z3.
      {"negated comparisons a NaN satisfies", SatResult::Unknown,
       {"! (#i_26_0 == #i_25_0)", "! (#i_25_0 <= #i_26_0)",
        "! (#i_26_0 < #i_25_0)", "typeof(#i_25_0) == ^Num",
        "typeof(#i_26_0) == ^Num"}},
  };
  SolverOptions O;
  O.UseCache = false;
  O.UseSlicing = false;
  O.UseZ3 = false;
  for (const Case &C : Cases) {
    PathCondition P;
    for (const char *Conj : C.Conjuncts)
      P.add(parseGilExpr(Conj).take());
    Solver S(O);
    EXPECT_EQ(S.checkSat(P), C.Expected) << C.Shape << ": " << P.toString();
    EXPECT_EQ(S.stats().SyntacticSat + S.stats().SyntacticUnsat,
              C.Expected == SatResult::Unknown ? 0u : 1u)
        << C.Shape;
    EXPECT_EQ(S.stats().Z3Calls, 0u) << C.Shape;
  }
}

TEST(SolverFacade, DiseqChainNeedsNoZ3RoundTrip) {
  // The BM_DiseqChain shape on the default stack: pairwise-distinct Num
  // keys in [0.5, 100.0), decided with a verified in-process model.
  SolverOptions O;
  O.UseCache = false;
  Solver S(O);
  S.resetCache();
  std::vector<Expr> Ks;
  PathCondition PC;
  for (int I = 0; I < 6; ++I) {
    Expr K = Expr::lvar("#k" + std::to_string(I));
    PC.add(Expr::le(Expr::numE(0.5), K));
    PC.add(Expr::lt(K, Expr::numE(100.0)));
    for (const Expr &J : Ks)
      PC.add(Expr::notE(Expr::eq(K, J)));
    Ks.push_back(K);
  }
  EXPECT_EQ(S.checkSat(PC), SatResult::Sat);
  EXPECT_EQ(S.stats().Z3Calls, 0u);
}
