//===- tests/solver/incremental_session_test.cpp --------------------------===//
//
// Layer 2 of the solver stack: incremental Z3 sessions. Covers the frame
// lifecycle (pure extension pushes only the delta, divergence pops only
// the diverging frames, low sharing resets the whole session), the
// soundness guards (per-frame type assumptions, per-frame dropped-conjunct
// downgrades), the per-thread session (lazy cross-thread invalidation), a
// randomised differential check against the cold one-shot backend,
// nonlinear verdicts in sessions and one-shot checks, the per-check
// resource bound and the new solver after an `unknown`, and the
// Solver::resetCache contract that a reset clears every memo layer
// (result cache, sessions).
//
//===----------------------------------------------------------------------===//

#include "solver/incremental_session.h"

#include "gil/parser.h"
#include "solver/simplifier.h"
#include "solver/solver.h"
#include "solver/z3_backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

using namespace gillian;

namespace {

// Raw parse, no simplification: these tests sit below the simplifier
// layer and must control the exact conjunct set Z3 sees.
PathCondition pc(std::initializer_list<const char *> Conjuncts) {
  PathCondition P;
  for (const char *C : Conjuncts) {
    Result<Expr> E = parseGilExpr(C);
    EXPECT_TRUE(E.ok()) << (E.ok() ? "" : E.error());
    P.add(*E);
  }
  return P;
}

TypeEnv typesOf(const PathCondition &P) {
  TypeEnv Env;
  EXPECT_TRUE(inferTypes(P.conjuncts(), Env));
  return Env;
}

class IncrementalSessionTest : public ::testing::Test {
protected:
  void SetUp() override {
    if (!z3Available())
      GTEST_SKIP() << "built without Z3";
  }

  SatResult check(IncrementalSession &S, const PathCondition &P,
                  double Threshold = 0.25) {
    return S.checkSat(P, typesOf(P), Threshold, Stats);
  }

  SolverStats Stats;
};

} // namespace

TEST_F(IncrementalSessionTest, PureExtensionPushesOnlyTheDelta) {
  IncrementalSession S;
  PathCondition P1 = pc({"typeof(#x) == ^Int", "0 <= #x"});
  PathCondition P2 = pc({"typeof(#x) == ^Int", "0 <= #x", "#x < 10"});
  PathCondition P3 =
      pc({"typeof(#x) == ^Int", "0 <= #x", "#x < 10", "#x == 3"});

  EXPECT_EQ(check(S, P1), SatResult::Sat);
  EXPECT_EQ(S.depth(), 1u);
  EXPECT_EQ(S.assertedConjuncts(), 2u);

  EXPECT_EQ(check(S, P2), SatResult::Sat);
  EXPECT_EQ(check(S, P3), SatResult::Sat);
  EXPECT_EQ(S.depth(), 3u) << "one push scope per query delta";
  EXPECT_EQ(S.assertedConjuncts(), 4u);
  EXPECT_EQ(Stats.IncQueries, 3u);
  EXPECT_EQ(Stats.IncExtends, 2u) << "second and third queries extend";
  EXPECT_EQ(Stats.IncResets, 0u) << "pure extension never resets";
  EXPECT_EQ(S.reusableConjuncts(P3, typesOf(P3)), 4u);
}

TEST_F(IncrementalSessionTest, DivergencePopsOnlyDivergingFrames) {
  IncrementalSession S;
  check(S, pc({"typeof(#x) == ^Int", "0 <= #x"}));
  check(S, pc({"typeof(#x) == ^Int", "0 <= #x", "#x < 10"}));
  check(S, pc({"typeof(#x) == ^Int", "0 <= #x", "#x < 10", "#x == 3"}));
  ASSERT_EQ(S.depth(), 3u);

  // Sibling branch: shares {typeof, 0<=, <10}, contradicts with == 11.
  PathCondition Div =
      pc({"typeof(#x) == ^Int", "0 <= #x", "#x < 10", "#x == 11"});
  EXPECT_EQ(check(S, Div), SatResult::Unsat);
  EXPECT_EQ(Stats.IncPoppedFrames, 1u) << "only the '== 3' frame pops";
  EXPECT_EQ(Stats.IncResets, 0u) << "3/4 sharing is above the threshold";
  EXPECT_EQ(S.depth(), 3u) << "two kept frames plus the new delta";
  EXPECT_EQ(S.assertedConjuncts(), 4u);
}

TEST_F(IncrementalSessionTest, LowSharingTriggersFullReset) {
  IncrementalSession S;
  check(S, pc({"typeof(#x) == ^Int", "0 <= #x"}));
  check(S, pc({"typeof(#x) == ^Int", "0 <= #x", "#x < 10"}));
  ASSERT_EQ(S.depth(), 2u);

  // Nothing shared: retained share 0 < threshold -> pop to base scope.
  PathCondition Other = pc({"typeof(#y) == ^Int", "#y == 4"});
  EXPECT_EQ(check(S, Other), SatResult::Sat);
  EXPECT_EQ(Stats.IncResets, 1u);
  EXPECT_EQ(S.depth(), 1u);
  EXPECT_EQ(S.assertedConjuncts(), 2u);
}

TEST_F(IncrementalSessionTest, ThresholdResetBehavesLikeAFreshSession) {
  // A reset pops back to the base scope of the session's long-lived
  // solver; afterwards the session must be indistinguishable from a new
  // one, in its frames and in how a pure extension lands.
  IncrementalSession S, Fresh;
  SolverStats Reused, New;
  PathCondition X1 = pc({"typeof(#x) == ^Int", "0 <= #x"});
  PathCondition X2 = pc({"typeof(#x) == ^Int", "0 <= #x", "#x < 10"});
  S.checkSat(X1, typesOf(X1), 0.25, Reused);
  S.checkSat(X2, typesOf(X2), 0.25, Reused);
  ASSERT_EQ(S.depth(), 2u);

  PathCondition Y1 = pc({"typeof(#y) == ^Int", "#y == 4"});
  PathCondition Y2 = pc({"typeof(#y) == ^Int", "#y == 4", "#y < 3"});
  EXPECT_EQ(S.checkSat(Y1, typesOf(Y1), 0.25, Reused),
            Fresh.checkSat(Y1, typesOf(Y1), 0.25, New));
  EXPECT_EQ(Reused.IncResets, 1u);
  EXPECT_EQ(S.depth(), Fresh.depth());
  EXPECT_EQ(S.depth(), 1u);
  EXPECT_EQ(S.assertedConjuncts(), Fresh.assertedConjuncts());

  uint64_t ExtendsBefore = Reused.IncExtends;
  EXPECT_EQ(S.checkSat(Y2, typesOf(Y2), 0.25, Reused), SatResult::Unsat);
  EXPECT_EQ(Fresh.checkSat(Y2, typesOf(Y2), 0.25, New), SatResult::Unsat);
  EXPECT_EQ(Reused.IncExtends - ExtendsBefore, New.IncExtends.load())
      << "the pure extension lands on the reset session as on a new one";
  EXPECT_EQ(Reused.IncResets, 1u);
  EXPECT_EQ(S.depth(), Fresh.depth());
  EXPECT_EQ(S.depth(), 2u);
  EXPECT_EQ(S.assertedConjuncts(), Fresh.assertedConjuncts());
  EXPECT_EQ(S.reusableConjuncts(Y2, typesOf(Y2)),
            Fresh.reusableConjuncts(Y2, typesOf(Y2)));
}

TEST_F(IncrementalSessionTest, ZeroSharingChurnMatchesFreshSessions) {
  // Every query below shares no conjunct with anything asserted before
  // it, so each one resets a lone session and the thread's session alike.
  // Each is followed by a pure extension, so a reset pops two frames. On
  // every query the verdict must be a new session's.
  const std::vector<std::vector<std::string>> Shapes = {
      {"typeof(A) == ^Int", "0 < A"},
      {"typeof(A) == ^Int", "A < 0", "0 < A"},
      {"typeof(A) == ^Int", "typeof(B) == ^Int", "A + B == 10", "A - B == 4"},
      {"typeof(A) == ^Int", "(A << 1) == 4"},
      {"typeof(A) == ^Num", "0 < A", "A < 1"},
      {"typeof(A) == ^Int", "0 < A", "A < 1"},
  };
  auto instantiate = [](const std::string &T, int I) {
    std::string Out;
    for (char Ch : T) {
      if (Ch == 'A' || Ch == 'B')
        Out += (Ch == 'A' ? "#a_" : "#b_") + std::to_string(I);
      else
        Out += Ch;
    }
    return parseGilExpr(Out).take();
  };

  IncrementalSession Lone;
  IncrementalSessionPool Pool;
  SolverStats LoneStats, PoolStats, FreshStats;
  const int Queries = 210;
  std::map<SatResult, int> Seen;
  for (int I = 0; I < Queries; ++I) {
    const std::vector<std::string> &Shape = Shapes[I % Shapes.size()];
    PathCondition Q, Ext;
    for (const std::string &T : Shape)
      Q.add(instantiate(T, I));
    Ext = Q;
    Ext.add(instantiate("A < 100", I));

    IncrementalSession Fresh;
    for (const PathCondition *P : {&Q, &Ext}) {
      TypeEnv Types = typesOf(*P);
      SatResult Want = Fresh.checkSat(*P, Types, 0.25, FreshStats);
      ASSERT_EQ(Lone.checkSat(*P, Types, 0.25, LoneStats), Want)
          << "query " << I << ": " << P->toString();
      ASSERT_EQ(Pool.checkSat(*P, Types, 0.25, PoolStats), Want)
          << "query " << I << ": " << P->toString();
      ++Seen[Want];
    }
  }
  EXPECT_EQ(LoneStats.IncResets, static_cast<uint64_t>(Queries - 1))
      << "every zero-sharing query after the first resets the session";
  EXPECT_EQ(LoneStats.IncPoppedFrames, 2u * (Queries - 1));
  EXPECT_EQ(Pool.sessions(), 1u);
  EXPECT_EQ(PoolStats.IncResets, LoneStats.IncResets)
      << "the thread's one session resets as a lone one does";
  EXPECT_EQ(Seen.size(), 3u) << "the churn covers Sat, Unsat and Unknown";
}

TEST_F(IncrementalSessionTest, EncodingMemoSurvivesReset) {
  IncrementalSession S;
  PathCondition P = pc({"typeof(#x) == ^Int", "0 <= #x", "#x < 10"});
  check(S, P);
  size_t MemoAfterFirst = S.encodeMemoSize();
  EXPECT_GT(MemoAfterFirst, 0u);
  uint64_t MissesAfterFirst = Stats.EncodeMemoMisses;

  S.reset();
  EXPECT_EQ(S.depth(), 0u);
  EXPECT_EQ(S.encodeMemoSize(), MemoAfterFirst)
      << "the memo is keyed on (expr identity, TypeEnv), not solver state";

  // Re-asserting the identical conjuncts after the reset re-encodes
  // nothing: every term is a memo hit.
  EXPECT_EQ(check(S, P), SatResult::Sat);
  EXPECT_EQ(Stats.EncodeMemoMisses, MissesAfterFirst);
  EXPECT_GT(Stats.EncodeMemoHits, 0u);
}

TEST_F(IncrementalSessionTest, ChangedTypeAssumptionIsNeverReused) {
  // The same conjunct encodes to different sorts under different TypeEnvs
  // (Int -> SMT Int, Num -> Real). A frame asserted under one typing must
  // not be reused under another, even though the conjunct set matches.
  IncrementalSession S;
  PathCondition P1 = pc({"0 <= #x"});
  TypeEnv IntEnv;
  IntEnv.assign(InternedString::get("#x"), GilType::Int);
  EXPECT_EQ(S.checkSat(P1, IntEnv, 0.25, Stats), SatResult::Sat);
  ASSERT_EQ(S.depth(), 1u);

  TypeEnv NumEnv;
  NumEnv.assign(InternedString::get("#x"), GilType::Num);
  EXPECT_EQ(S.reusableConjuncts(P1, IntEnv), 1u);
  EXPECT_EQ(S.reusableConjuncts(P1, NumEnv), 0u)
      << "type assumptions are part of the frame identity";

  PathCondition P2 = pc({"0 <= #x", "#x < 10"});
  EXPECT_EQ(S.checkSat(P2, NumEnv, 0.25, Stats), SatResult::Sat);
  EXPECT_EQ(Stats.IncResets, 1u) << "mismatched typing forces a reset";
  EXPECT_EQ(Stats.IncExtends, 0u);
}

TEST_F(IncrementalSessionTest, SwappedTypingsNeverReuseStaleEncodings) {
  // Regression: environments that swap types between two variables used
  // to collide in TypeEnv::hash (id and type were mixed separately), and
  // the encoding memo — which survives session hard-resets — trusted that
  // hash as equality. Re-querying the same conjunct nodes under the
  // swapped typing then reused Int-sorted constants for Num variables,
  // flipping verdicts. The PathCondition is built once so both queries
  // share node identities, exactly the memo's key.
  IncrementalSession S;
  PathCondition P;
  P.add(parseGilExpr("0 < #x").take());
  P.add(parseGilExpr("#x < 1").take());
  P.add(parseGilExpr("0 <= #y").take());

  TypeEnv IntNum, NumInt;
  IntNum.assign(InternedString::get("#x"), GilType::Int);
  IntNum.assign(InternedString::get("#y"), GilType::Num);
  NumInt.assign(InternedString::get("#x"), GilType::Num);
  NumInt.assign(InternedString::get("#y"), GilType::Int);
  EXPECT_NE(IntNum.hash(), NumInt.hash())
      << "swapped typings must not share a fingerprint";

  EXPECT_EQ(S.checkSat(P, IntNum, 0.25, Stats), SatResult::Unsat)
      << "no integer lies strictly between 0 and 1";
  EXPECT_EQ(S.checkSat(P, NumInt, 0.25, Stats), SatResult::Sat)
      << "but a real one does — stale Int encodings must not be reused";
}

TEST_F(IncrementalSessionTest, DroppedConjunctDowngradesPerFrame) {
  IncrementalSession S;
  PathCondition Base = pc({"typeof(#x) == ^Int", "0 <= #x"});
  EXPECT_EQ(check(S, Base), SatResult::Sat);

  // Shifts on symbolic operands do not encode; the conjunct is dropped
  // inside its own frame and Sat is downgraded while that frame lives.
  PathCondition WithShift =
      pc({"typeof(#x) == ^Int", "0 <= #x", "(#x << 1) == 4"});
  EXPECT_EQ(check(S, WithShift), SatResult::Unknown);

  // Unsat is still sound under dropping: the encodable subset already
  // contradicts.
  PathCondition ShiftUnsat =
      pc({"typeof(#x) == ^Int", "0 <= #x", "(#x << 1) == 4", "#x < 0"});
  EXPECT_EQ(check(S, ShiftUnsat), SatResult::Unsat);

  // Diverging away pops the dropped frame; Sat answers come back.
  PathCondition Clean = pc({"typeof(#x) == ^Int", "0 <= #x", "#x < 10"});
  EXPECT_EQ(check(S, Clean), SatResult::Sat)
      << "the downgrade is per-frame, not sticky for the session";
}

TEST_F(IncrementalSessionTest, DifferentialAgainstColdBackend) {
  // Property test: along a random branch-and-backtrack walk (the engine's
  // query shape), the incremental session's verdict equals the cold
  // one-shot backend's on every query. Sibling branches retype variables
  // across backtracks (Int vs Num `typeof` conjuncts for the *same*
  // variables) — the regime where frame type assumptions and the encoding
  // memo's environment keys must hold — and each distinct conjunct is
  // parsed once, so the memo sees one node identity under changing
  // TypeEnvs, as engine branches sharing a prefix do.
  std::mt19937 Rng(20260806);
  const char *Vars[] = {"#v0", "#v1", "#v2", "#v3"};
  GilType VarType[4] = {GilType::Int, GilType::Num, GilType::Int,
                        GilType::Int};

  // Conjuncts must stay type-consistent with the walk's current typing:
  // equalities pin their LVar side to the other side's type, so they are
  // only generated between same-typed operands (mixed pairs fall back to
  // a comparison, which GIL allows across Int/Num), and shifts only over
  // Int operands. VarMask records the variables a conjunct mentions so a
  // retype can drop the conjuncts whose typing described the old world.
  struct Entry {
    std::string Text;
    unsigned VarMask;
  };
  auto RandConjunct = [&]() -> Entry {
    std::uniform_int_distribution<int> Pick(0, 4);
    std::uniform_int_distribution<int> V(0, 3);
    std::uniform_int_distribution<int> C(-8, 8);
    int IA = V(Rng), IB = V(Rng);
    std::string A = Vars[IA], B = Vars[IB];
    switch (Pick(Rng)) {
    case 0:
      return {std::to_string(C(Rng)) + " <= " + A, 1u << IA};
    case 1:
      return {A + " < " + std::to_string(C(Rng)), 1u << IA};
    case 2:
      if (VarType[IA] == VarType[IB])
        return {A + " == " + B + " + " + std::to_string(C(Rng)),
                (1u << IA) | (1u << IB)};
      return {A + " < " + B, (1u << IA) | (1u << IB)};
    case 3:
      return {A + " == " + std::to_string(C(Rng)) +
                  (VarType[IA] == GilType::Num ? ".5" : ""),
              1u << IA};
    default:
      if (VarType[IA] != GilType::Int)
        return {std::to_string(C(Rng)) + " <= " + A, 1u << IA};
      return {"(" + A + " << 1) == 4", 1u << IA}; // unsupported: drops
    }
  };

  // Parse each distinct conjunct once: identical conjuncts keep one node
  // identity across steps, which is what the identity-keyed encoding
  // memo actually caches on.
  std::map<std::string, Expr> Parsed;
  auto expr = [&Parsed](const std::string &Text) {
    auto It = Parsed.find(Text);
    if (It == Parsed.end())
      It = Parsed.emplace(Text, parseGilExpr(Text).take()).first;
    return It->second;
  };

  IncrementalSession S;
  std::vector<Entry> Stack;
  int Retypes = 0;
  for (int Step = 0; Step < 120; ++Step) {
    std::uniform_int_distribution<int> Act(0, 3);
    if (int A = Act(Rng); A == 0 && !Stack.empty()) {
      std::uniform_int_distribution<size_t> N(1, Stack.size());
      Stack.resize(Stack.size() - N(Rng)); // backtrack
      // The sibling branch sees one variable under the opposite typing;
      // surviving conjuncts that mention it are dropped (they were
      // generated to be consistent with the old typing).
      std::uniform_int_distribution<int> V(0, 3);
      int I = V(Rng);
      VarType[I] =
          VarType[I] == GilType::Int ? GilType::Num : GilType::Int;
      ++Retypes;
      Stack.erase(std::remove_if(Stack.begin(), Stack.end(),
                                 [I](const Entry &E) {
                                   return (E.VarMask >> I) & 1u;
                                 }),
                  Stack.end());
    } else {
      Stack.push_back(RandConjunct());
    }
    PathCondition P;
    for (int I = 0; I < 4; ++I)
      P.add(expr(std::string("typeof(") + Vars[I] + ") == ^" +
                 (VarType[I] == GilType::Int ? "Int" : "Num")));
    for (const Entry &E : Stack)
      P.add(expr(E.Text));
    TypeEnv Types;
    ASSERT_TRUE(inferTypes(P.conjuncts(), Types));
    SatResult Inc = S.checkSat(P, Types, 0.25, Stats);
    SatResult Cold = checkSatZ3(P, Types, /*WantModel=*/false).Verdict;
    ASSERT_EQ(Inc, Cold) << "step " << Step << " PC: " << P.toString();
  }
  EXPECT_GT(Stats.IncExtends, 0u) << "the walk must exercise extension";
  EXPECT_GT(Stats.IncPoppedFrames, 0u) << "... and divergence";
  EXPECT_GT(Retypes, 0) << "... and sibling branches with retyped vars";
}

//===----------------------------------------------------------------------===//
// The thread's session
//===----------------------------------------------------------------------===//

TEST_F(IncrementalSessionTest, InvalidateAllDropsThreadSessions) {
  IncrementalSessionPool &Pool = IncrementalSessionPool::forThread();
  Pool.reset();
  PathCondition P = pc({"typeof(#x) == ^Int", "0 <= #x"});
  Pool.checkSat(P, typesOf(P), 0.25, Stats);
  ASSERT_GE(Pool.sessions(), 1u);
  IncrementalSessionPool::invalidateAll();
  EXPECT_EQ(Pool.sessions(), 0u)
      << "the generation bump empties the pool on next use";
}

//===----------------------------------------------------------------------===//
// Nonlinear verdicts and bounded checks
//===----------------------------------------------------------------------===//

TEST_F(IncrementalSessionTest, NonlinearVerdictsHoldInSessionsAndOneShot) {
  // Every Z3 solver is Z3's SMT core without the default solver's tactics
  // (nlsat among them), which the default solver would retry an
  // incremental unknown with. The core must still decide these nonlinear
  // shapes, in a pooled session and in a one-shot check alike.
  struct Case {
    std::vector<std::string> Conjuncts;
    SatResult Want;
    /// Int witnesses decode exactly; the Real witness of x*x == 2 is
    /// irrational and has no GIL value.
    bool ModelVerifies = false;
  };
  const std::vector<Case> Cases = {
      {{"typeof(#x) == ^Num", "#x * #x == 2.0"}, SatResult::Sat},
      {{"typeof(#x) == ^Int", "typeof(#y) == ^Int", "#x * #y == 6",
        "1 < #x", "1 < #y"},
       SatResult::Sat,
       /*ModelVerifies=*/true},
      {{"typeof(#x) == ^Int", "#x * #x == 2"}, SatResult::Unsat},
      {{"typeof(#x) == ^Num", "#x * #x < 0.0"}, SatResult::Unsat},
      {{"typeof(#x) == ^Num", "typeof(#y) == ^Num", "0.0 < #x", "0.0 < #y",
        "#x * #y < 0.0"},
       SatResult::Unsat},
  };
  IncrementalSessionPool Pool;
  for (const Case &C : Cases) {
    PathCondition P;
    for (const std::string &T : C.Conjuncts)
      P.add(parseGilExpr(T).take());
    TypeEnv Types = typesOf(P);
    EXPECT_EQ(Pool.checkSat(P, Types, 0.25, Stats), C.Want)
        << "session: " << P.toString();
    Z3Outcome Cold = checkSatZ3(P, Types, /*WantModel=*/true);
    EXPECT_EQ(Cold.Verdict, C.Want) << "one-shot: " << P.toString();
    if (C.ModelVerifies) {
      ASSERT_TRUE(Cold.CandidateModel) << P.toString();
      EXPECT_TRUE(Cold.CandidateModel->satisfies(P)) << P.toString();
    }
  }
}

TEST_F(IncrementalSessionTest, HardCheckIsBoundedAndLeavesTheSessionUsable) {
  // x*x == y*y + 1 with 5 < x is Unsat over Int (x*x - y*y == 1 forces
  // x = ±1), but no Z3 solver kind decides it: left unbounded, the first
  // check outlasts the test's time bound. Every check is bounded by a
  // deterministic resource limit, so it answers Unknown instead. A solver
  // that answered unknown checks later queries slower, so the session
  // replaces it, dropping every frame, and decides the next query.
  PathCondition Hard = pc({"typeof(#x) == ^Int", "typeof(#y) == ^Int",
                           "#x * #x == #y * #y + 1", "5 < #x"});
  PathCondition Easy = pc({"typeof(#x) == ^Int", "3 < #x", "#x < 5"});
  IncrementalSession S;
  EXPECT_EQ(check(S, Hard), SatResult::Unknown);
  EXPECT_EQ(S.depth(), 0u) << "the unknown replaced the solver";
  EXPECT_EQ(S.assertedConjuncts(), 0u);
  EXPECT_EQ(check(S, Easy), SatResult::Sat)
      << "the bounded check left the session usable";
  EXPECT_EQ(S.depth(), 1u);
  EXPECT_NE(checkSatZ3(Hard, typesOf(Hard), /*WantModel=*/false).Verdict,
            SatResult::Sat);
}

//===----------------------------------------------------------------------===//
// Solver facade integration
//===----------------------------------------------------------------------===//

TEST_F(IncrementalSessionTest, SolverRoutesZ3QueriesThroughSessions) {
  IncrementalSessionPool::forThread().reset();
  Solver S; // UseIncremental defaults on
  PathCondition P =
      pc({"typeof(#x) == ^Int", "typeof(#y) == ^Int", "#x + #y == 10",
          "#x - #y == 4", "!(#y == 3)"});
  EXPECT_EQ(S.checkSat(P), SatResult::Unsat);
  EXPECT_GE(S.stats().IncQueries, 1u);

  SolverOptions Off;
  Off.UseIncremental = false;
  Solver SOff(Off);
  EXPECT_EQ(SOff.checkSat(P), SatResult::Unsat) << "same verdict either way";
  EXPECT_EQ(SOff.stats().IncQueries, 0u);
}

TEST(SolverResetCache, ClearsEveryMemoLayer) {
  // Regression: resetCache must cold every layer — the result cache and
  // this thread's incremental sessions — not just the verdict cache.
  IncrementalSessionPool::forThread().reset();
  Solver S;
  // Warm the result cache with a syntactically-decided verdict (cached
  // with or without Z3).
  PathCondition Cheap;
  for (const char *C : {"#x == 1 + 0", "#x == 2"})
    Cheap.add(simplify(parseGilExpr(C).take()));
  EXPECT_EQ(S.checkSat(Cheap), SatResult::Unsat);
  ASSERT_GT(S.cache().size(), 0u);
  if (z3Available()) {
    // ... and this thread's session pool with a query only Z3 decides.
    PathCondition Hard;
    for (const char *C : {"typeof(#x) == ^Int", "typeof(#y) == ^Int",
                          "#x + #y == 10", "#x - #y == 4"})
      Hard.add(parseGilExpr(C).take());
    EXPECT_EQ(S.checkSat(Hard), SatResult::Sat);
    ASSERT_GE(IncrementalSessionPool::forThread().sessions(), 1u);
  }

  S.resetCache();
  EXPECT_EQ(S.cache().size(), 0u);
  EXPECT_EQ(IncrementalSessionPool::forThread().sessions(), 0u);
}
