//===- tests/solver/syntactic_test.cpp ------------------------------------===//

#include "solver/syntactic.h"

#include "gil/parser.h"
#include "solver/simplifier.h"
#include "solver/z3_backend.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <random>

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

//===----------------------------------------------------------------------===//
// Shapes the syntactic core decides in-process (DESIGN.md §4f)
//===----------------------------------------------------------------------===//

namespace {

/// The verdict of the in-process layer alone: the syntactic core, then a
/// proposed model that must survive evaluation.
SatResult decideInProcess(const PathCondition &P) {
  SatResult R = checkSatSyntactic(P);
  if (R != SatResult::Unknown)
    return R;
  std::optional<Model> M = proposeModelSyntactic(P);
  return M && M->satisfies(P) ? SatResult::Sat : SatResult::Unknown;
}

} // namespace

TEST(Syntactic, ComplementaryComparisonLiteralsAreUnsat) {
  EXPECT_EQ(checkSatSyntactic(pc({"#a <= #b", "!(#a <= #b)"})),
            SatResult::Unsat);
  EXPECT_EQ(checkSatSyntactic(pc({"typeof(#i) == ^Num", "0.0 <= #i",
                                  "#i <= 1.0", "!(0.0 <= #i)"})),
            SatResult::Unsat);
  // Int comparisons against literals feed intervals; the term is still
  // bound to true.
  EXPECT_EQ(checkSatSyntactic(
                pc({"typeof(#i) == ^Int", "#i < 5", "!(#i < 5)"})),
            SatResult::Unsat);
}

TEST(Syntactic, CongruenceThroughApplications) {
  EXPECT_EQ(checkSatSyntactic(pc({"#a == #b",
                                  "!(num_to_str(#b) == num_to_str(#a))"})),
            SatResult::Unsat);
  // Nested applications close too.
  EXPECT_EQ(checkSatSyntactic(
                pc({"#a == #b", "!(slen(num_to_str(#a)) == "
                                "slen(num_to_str(#b)))"})),
            SatResult::Unsat);
  // Different arguments: nothing to conclude.
  EXPECT_EQ(checkSatSyntactic(pc({"!(num_to_str(#b) == num_to_str(#a))"})),
            SatResult::Unknown);
}

TEST(Syntactic, CongruenceMeetsLiteralClasses) {
  EXPECT_EQ(checkSatSyntactic(pc({"#a == 1", "#b == 1",
                                  "num_to_str(#a) == \"1\"",
                                  "num_to_str(#b) == \"2\""})),
            SatResult::Unsat);
}

TEST(Syntactic, UnseenVariablesGetDistinctWitnesses) {
  // Neither variable is a node of the analysis before the proposer runs;
  // each still needs its own class, or both take one value and the
  // disequality fails its own proposal.
  PathCondition P = pc({"typeof(#a) == ^Num", "typeof(#b) == ^Num",
                        "!(num_to_str(#a) == num_to_str(#b))"});
  EXPECT_EQ(decideInProcess(P), SatResult::Sat);
}

TEST(Syntactic, OrderPlusDisequalityProposesStrictOrder) {
  EXPECT_EQ(decideInProcess(pc({"typeof(#a) == ^Num", "typeof(#b) == ^Num",
                                "!(#b == #a)", "!(#b < #a)"})),
            SatResult::Sat);
  EXPECT_EQ(decideInProcess(pc({"typeof(#a) == ^Int", "typeof(#b) == ^Int",
                                "#a <= #b", "!(#a == #b)"})),
            SatResult::Sat);
}

TEST(Syntactic, WitnessSkipsValuesDisequalitiesForbid) {
  PathCondition P =
      pc({"!(#x < 10.0)", "!(#x == 10.0)", "!(#x == 11.0)", "!(#x == 15.0)"});
  std::optional<Model> M = proposeModelSyntactic(P);
  ASSERT_TRUE(M.has_value());
  EXPECT_TRUE(M->satisfies(P)) << M->toString();
  // Compared against Num literals, an untyped variable is proposed as Num.
  const Value *V = M->lookup(InternedString::get("#x"));
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->type(), GilType::Num) << V->toString();
}

TEST(Syntactic, DisequalityChainStaysInsideItsWindow) {
  // The bst/pqueue shape: pairwise-distinct keys in [0.5, 100.0).
  std::vector<std::string> Store;
  for (int I = 0; I < 6; ++I) {
    std::string V = "#k" + std::to_string(I);
    Store.push_back("0.5 <= " + V);
    Store.push_back(V + " < 100.0");
    for (int J = 0; J < I; ++J)
      Store.push_back("!(" + V + " == #k" + std::to_string(J) + ")");
  }
  PathCondition P;
  for (const std::string &S : Store)
    P.add(parseGilExpr(S).take());
  EXPECT_EQ(decideInProcess(P), SatResult::Sat);
  // A narrow window takes fractions.
  EXPECT_EQ(decideInProcess(pc({"0.0 <= #p", "#p <= 1.0", "0.0 <= #q",
                                "#q <= 1.0", "0.0 <= #r", "#r <= 1.0",
                                "!(#p == #q)", "!(#q == #r)",
                                "!(#p == #r)"})),
            SatResult::Sat);
}

TEST(Syntactic, OffsetClassTakesItsBasePlusTheOffset) {
  EXPECT_EQ(decideInProcess(pc({"typeof(#i) == ^Int", "#j == #i + 1",
                                "!(#i == #j)"})),
            SatResult::Sat);
}

//===----------------------------------------------------------------------===//
// GIL's Num: NaN and ±0 (DESIGN.md §1, §4f). Shapes verbatim from a
// perfbench buckets pass, parsed without simplification.
//===----------------------------------------------------------------------===//

namespace {

PathCondition raw(const std::vector<const char *> &Conjuncts) {
  PathCondition P;
  for (const char *C : Conjuncts)
    P.add(parseGilExpr(C).take());
  return P;
}

double bitsOf(uint64_t B) { return std::bit_cast<double>(B); }

} // namespace

TEST(Syntactic, CollisionWitnessesAreSignedZerosThenNaNs) {
  // num_to_str renders 0.0 and -0.0 as "0" and every NaN as "nan", while
  // GIL == is bitwise: two Num keys that render alike may still differ.
  struct Case {
    const char *Shape;
    std::vector<const char *> Conjuncts;
    bool NeedsNaN;
  };
  const Case Cases[] = {
      {"plain",
       {"! (#i_21_0 == #i_22_0)", "! (#i_22_0 == #i_21_0)",
        "num_to_str(#i_22_0) == num_to_str(#i_21_0)",
        "typeof(#i_21_0) == ^Num", "typeof(#i_22_0) == ^Num"},
       false},
      {"with a <= b",
       {"typeof(#i_16_0) == ^Num", "#i_16_0 <= #i_17_0",
        "! (#i_16_0 == #i_17_0)", "num_to_str(#i_16_0) == num_to_str(#i_17_0)",
        "typeof(#i_17_0) == ^Num", "! (#i_17_0 == #i_16_0)"},
       false},
      {"with !(a <= b)",
       {"typeof(#i_16_0) == ^Num", "! (#i_16_0 == #i_17_0)",
        "typeof(#i_17_0) == ^Num", "! (#i_17_0 == #i_16_0)",
        "num_to_str(#i_17_0) == num_to_str(#i_16_0)",
        "! (#i_16_0 <= #i_17_0)"},
       true},
      {"without a disequality",
       {"typeof(#i_23_0) == ^Num", "typeof(#i_24_0) == ^Num",
        "num_to_str(#i_24_0) == num_to_str(#i_23_0)"},
       false},
  };
  for (const Case &C : Cases) {
    PathCondition P = raw(C.Conjuncts);
    EXPECT_EQ(checkSatSyntactic(P), SatResult::Unknown) << C.Shape;
    std::optional<Model> M = proposeModelSyntactic(P);
    ASSERT_TRUE(M) << C.Shape;
    EXPECT_TRUE(M->satisfies(P)) << C.Shape << ": " << M->toString();
    for (const auto &[X, V] : M->bindings()) {
      ASSERT_TRUE(V.isNum()) << C.Shape << ": " << M->toString();
      if (C.NeedsNaN)
        EXPECT_TRUE(std::isnan(V.asNum())) << C.Shape << ": " << M->toString();
      else
        EXPECT_EQ(V.asNum(), 0.0) << C.Shape << ": " << M->toString();
    }
  }
}

TEST(Syntactic, CollisionWitnessesNeedNumToStr) {
  // NaN and ±0 are proposed only for num_to_str collisions: without one,
  // disequal Num keys take ordinary values, and a condition only NaN
  // satisfies gets no model in-process.
  PathCondition P = raw({"typeof(#a) == ^Num", "typeof(#b) == ^Num",
                         "! (#a == #b)"});
  std::optional<Model> M = proposeModelSyntactic(P);
  ASSERT_TRUE(M);
  EXPECT_TRUE(M->satisfies(P));
  for (const auto &[X, V] : M->bindings())
    EXPECT_FALSE(std::isnan(V.asNum()) || std::signbit(V.asNum()))
        << M->toString();
  EXPECT_EQ(decideInProcess(raw({"typeof(#a) == ^Num", "! (#a <= #a)"})),
            SatResult::Unknown);
}

TEST(Syntactic, NaNAwareOrderRefutesBucketsShapes) {
  // An operand of a comparison assumed true is not NaN, so over such
  // operands !(a <= b) is b < a and !(a < b) is b <= a.
  const std::vector<std::vector<const char *>> Shapes = {
      {"typeof(#i_26_0) == ^Num", "typeof(#i_25_0) == ^Num",
       "! (#i_26_0 == #i_25_0)", "! (#i_26_0 <= #i_25_0)",
       "#i_26_0 < #i_25_0"},
      {"#i_21_0 <= 1.0", "0.0 <= #i_21_0", "! (#i_21_0 < 2.0)",
       "typeof(#i_21_0) == ^Num"},
      {"! (#i_21_0 <= 2.0)", "#i_21_0 <= 1.0", "0.0 <= #i_21_0",
       "typeof(#i_21_0) == ^Num", "#i_21_0 < 2.0"},
      {"typeof(#i_16_0) == ^Num", "! (#i_16_0 == #i_17_0)",
       "#i_16_0 < #i_17_0", "typeof(#i_17_0) == ^Num",
       "! (#i_17_0 == #i_16_0)", "! (#i_16_0 <= #i_17_0)"},
      {"typeof(#i_18_0) == ^Num", "typeof(#i_19_0) == ^Num",
       "#i_18_0 <= #i_20_0", "! (#i_19_0 < #i_20_0)",
       "typeof(#i_20_0) == ^Num", "! (#i_20_0 <= #i_19_0)",
       "#i_18_0 <= #i_19_0"},
      {"typeof(#i_18_0) == ^Num", "typeof(#i_19_0) == ^Num",
       "! (#i_18_0 <= #i_19_0)", "typeof(#i_20_0) == ^Num",
       "#i_19_0 <= #i_20_0", "#i_19_0 <= #i_18_0", "! (#i_18_0 <= #i_20_0)",
       "#i_18_0 < #i_20_0"},
      {"typeof(#i_18_0) == ^Num", "typeof(#i_19_0) == ^Num",
       "! (#i_18_0 <= #i_19_0)", "typeof(#i_20_0) == ^Num",
       "! (#i_19_0 <= #i_18_0)", "#i_19_0 <= #i_20_0", "#i_18_0 < #i_20_0"},
      {"typeof(#i_18_0) == ^Num", "! (#i_19_0 <= #i_20_0)",
       "typeof(#i_19_0) == ^Num", "#i_18_0 <= #i_20_0",
       "typeof(#i_20_0) == ^Num", "#i_19_0 < #i_20_0", "#i_18_0 <= #i_19_0"},
      {"typeof(#i_18_0) == ^Num", "! (#i_19_0 <= #i_20_0)",
       "typeof(#i_19_0) == ^Num", "! (#i_18_0 <= #i_19_0)",
       "typeof(#i_20_0) == ^Num", "#i_18_0 < #i_19_0"},
  };
  for (const auto &Conjuncts : Shapes) {
    PathCondition P = raw(Conjuncts);
    EXPECT_EQ(checkSatSyntactic(P), SatResult::Unsat) << P.toString();
  }
}

TEST(Syntactic, NaNAndSignedZeroShapesStayUnknown) {
  // Z3 reads Num as Real and refutes each of these, but under GIL's
  // evaluator NaN or ±0 satisfies every one (the witness below), so the
  // in-process layer must leave them undecided.
  const double NaN = bitsOf(0x7FF8000000000000ull);
  struct Case {
    std::vector<const char *> Conjuncts;
    std::vector<std::pair<const char *, double>> Witness;
  };
  const Case Cases[] = {
      {{"#i_26_0 == #i_25_0", "typeof(#i_25_0) == ^Num",
        "typeof(#i_26_0) == ^Num", "! (#i_25_0 <= #i_25_0)"},
       {{"#i_25_0", NaN}, {"#i_26_0", NaN}}},
      {{"! (#i_26_0 == #i_25_0)", "! (#i_25_0 <= #i_26_0)",
        "! (#i_26_0 < #i_25_0)", "typeof(#i_25_0) == ^Num",
        "typeof(#i_26_0) == ^Num"},
       {{"#i_25_0", NaN}, {"#i_26_0", 0.0}}},
      {{"! (#i_16_0 < #i_17_0)", "typeof(#i_16_0) == ^Num",
        "#i_16_0 <= #i_17_0", "! (#i_16_0 == #i_17_0)",
        "typeof(#i_17_0) == ^Num", "! (#i_17_0 == #i_16_0)"},
       {{"#i_16_0", 0.0}, {"#i_17_0", -0.0}}},
      {{"typeof(#i_18_0) == ^Num", "typeof(#i_19_0) == ^Num",
        "! (#i_18_0 <= #i_19_0)", "typeof(#i_20_0) == ^Num",
        "! (#i_18_0 < #i_20_0)", "! (#i_20_0 <= #i_18_0)",
        "#i_19_0 <= #i_20_0"},
       {{"#i_18_0", NaN}, {"#i_19_0", 0.0}, {"#i_20_0", 0.0}}},
      {{"typeof(#i_18_0) == ^Num", "! (#i_19_0 < #i_18_0)",
        "typeof(#i_19_0) == ^Num", "typeof(#i_20_0) == ^Num",
        "! (#i_20_0 <= #i_18_0)", "#i_18_0 <= #i_19_0",
        "! (#i_18_0 <= #i_20_0)"},
       {{"#i_18_0", 0.0}, {"#i_19_0", 0.0}, {"#i_20_0", NaN}}},
      {{"typeof(#i_18_0) == ^Num", "! (#i_18_0 < #i_19_0)",
        "! (#i_19_0 <= #i_20_0)", "typeof(#i_19_0) == ^Num",
        "! (#i_18_0 <= #i_19_0)", "typeof(#i_20_0) == ^Num",
        "#i_20_0 <= #i_19_0", "! (#i_19_0 <= #i_18_0)"},
       {{"#i_18_0", NaN}, {"#i_19_0", 1.0}, {"#i_20_0", 0.0}}},
      {{"typeof(#i_18_0) == ^Num", "! (#i_18_0 < #i_19_0)",
        "! (#i_19_0 <= #i_20_0)", "typeof(#i_19_0) == ^Num",
        "! (#i_18_0 <= #i_19_0)", "typeof(#i_20_0) == ^Num",
        "! (#i_20_0 <= #i_19_0)"},
       {{"#i_18_0", NaN}, {"#i_19_0", NaN}, {"#i_20_0", NaN}}},
  };
  for (const Case &C : Cases) {
    PathCondition P = raw(C.Conjuncts);
    Model W;
    for (const auto &[X, D] : C.Witness)
      W.bind(InternedString::get(X), Value::numV(D));
    EXPECT_TRUE(W.satisfies(P)) << P.toString() << " under " << W.toString();
    EXPECT_EQ(decideInProcess(P), SatResult::Unknown) << P.toString();
  }
}

TEST(SyntacticProperty, InProcessUnsatHasNoModelAmongEdgeValues) {
  // Random conjunctions of <, <= and == and their negations over three
  // Num variables and three literals: whenever the core refutes one, no
  // assignment of NaN, ±0, ±inf and a few ordinary values satisfies it.
  const double Values[] = {-INFINITY, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0,
                           INFINITY,  bitsOf(0x7FF8000000000000ull),
                           bitsOf(0xFFF8000000000000ull)};
  const Expr Vars[] = {Expr::lvar("#p"), Expr::lvar("#q"), Expr::lvar("#r")};
  const Expr Lits[] = {Expr::numE(-1.0), Expr::numE(0.0), Expr::numE(2.0)};
  std::mt19937 Rng(20261019);
  auto operand = [&] {
    unsigned K = Rng() % 5;
    return K < 3 ? Vars[K] : Lits[Rng() % 3];
  };
  int Refuted = 0;
  for (int Iter = 0; Iter < 1500; ++Iter) {
    PathCondition P;
    for (const Expr &V : Vars)
      if (Rng() % 2)
        P.add(Expr::eq(Expr::unOp(UnOpKind::TypeOf, V),
                       Expr::lit(Value::typeV(GilType::Num))));
    for (unsigned N = 2 + Rng() % 4; N; --N) {
      Expr A = operand(), B = operand();
      Expr Atom = Rng() % 3 == 0   ? Expr::eq(A, B)
                  : Rng() % 2 == 0 ? Expr::lt(A, B)
                                   : Expr::le(A, B);
      P.add(Rng() % 2 ? Expr::notE(Atom) : Atom);
    }
    if (P.isTriviallyFalse() || checkSatSyntactic(P) != SatResult::Unsat)
      continue;
    ++Refuted;
    for (double X : Values)
      for (double Y : Values)
        for (double Z : Values) {
          Model M;
          M.bind(Vars[0].varName(), Value::numV(X));
          M.bind(Vars[1].varName(), Value::numV(Y));
          M.bind(Vars[2].varName(), Value::numV(Z));
          ASSERT_FALSE(M.satisfies(P))
              << "refuted in-process but " << M.toString() << " satisfies "
              << P.toString();
        }
  }
  EXPECT_GT(Refuted, 200) << "the draws must exercise the refutations";
}

//===----------------------------------------------------------------------===//
// Randomized walks vs the cold Z3 backend
//===----------------------------------------------------------------------===//

namespace {

/// Deterministic xorshift64* — fixed seed, so a failure reproduces.
struct Rng {
  uint64_t S;
  uint64_t next() {
    S ^= S >> 12;
    S ^= S << 25;
    S ^= S >> 27;
    return S * 0x2545F4914F6CDD1Dull;
  }
  uint64_t below(uint64_t N) { return next() % N; }
};

/// Equalities, disequalities, Int order atoms and `num_to_str`
/// applications over a small variable universe, each negated half the
/// time.
PathCondition randomWalk(Rng &R, int Vars, int Conjuncts) {
  std::vector<Expr> Xs;
  for (int I = 0; I < Vars; ++I)
    Xs.push_back(Expr::lvar("#v" + std::to_string(I)));
  PathCondition PC;
  for (int I = 0; I < Conjuncts; ++I) {
    Expr A = Xs[R.below(Xs.size())];
    Expr B = R.below(3) == 0 ? Expr::intE(static_cast<int64_t>(R.below(3)))
                             : Xs[R.below(Xs.size())];
    Expr Atom;
    switch (R.below(6)) {
    case 0:
      Atom = Expr::lt(A, B);
      break;
    case 1:
      Atom = Expr::le(A, B);
      break;
    case 2:
      Atom = Expr::eq(Expr::unOp(UnOpKind::NumToStr, A),
                      Expr::unOp(UnOpKind::NumToStr, B));
      break;
    default:
      Atom = Expr::eq(A, B);
      break;
    }
    PC.add(R.below(2) == 0 ? Atom : Expr::notE(Atom));
  }
  return PC;
}

} // namespace

TEST(SyntacticFuzzTest, NeverContradictsZ3OnEqDiseqWalks) {
  if (!z3Available())
    GTEST_SKIP() << "built without Z3";
  Rng R{0x9E3779B97F4A7C15ull};
  int Decided = 0;
  for (int Iter = 0; Iter < 200; ++Iter) {
    PathCondition PC = randomWalk(R, /*Vars=*/4, /*Conjuncts=*/6);
    if (PC.isTriviallyFalse() || PC.empty())
      continue;
    SatResult Ours = decideInProcess(PC);
    TypeEnv Types;
    SatResult Z3 = inferTypes(PC.conjuncts(), Types)
                       ? checkSatZ3(PC, Types, /*WantModel=*/false).Verdict
                       : SatResult::Unsat;
    if (Ours == SatResult::Sat) {
      EXPECT_NE(Z3, SatResult::Unsat) << PC.toString();
    }
    if (Ours == SatResult::Unsat) {
      EXPECT_NE(Z3, SatResult::Sat) << PC.toString();
    }
    if (Ours != SatResult::Unknown)
      ++Decided;
  }
  // The walks are shallow: the in-process layer must decide the
  // overwhelming majority, or Z3 is doing its work.
  EXPECT_GT(Decided, 150);
}
