//===- tests/solver/z3_backend_test.cpp -----------------------------------===//
//
// The one Z3 path: checkSatZ3 on the calling thread's solver. Covers the
// verdicts Z3's SMT core must decide (nonlinear shapes, retyped
// variables), the per-check resource bound and the new solver after an
// `unknown`, per-check downgrades for dropped conjuncts, a randomised
// check that reusing the thread's solver never changes a verdict, model
// extraction through Solver::verifiedModel, and the solver's lifetime:
// built on first use, dropped by Solver::resetCache on this thread at once
// and on other threads lazily, destroyed before its context at thread exit.
//
//===----------------------------------------------------------------------===//

#include "solver/z3_backend.h"

#include "gil/parser.h"
#include "solver/simplifier.h"
#include "solver/solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <map>
#include <random>
#include <string>
#include <thread>
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

SatResult check(const PathCondition &P) {
  return checkSatZ3(P, typesOf(P), /*WantModel=*/false).Verdict;
}

class Z3BackendTest : public ::testing::Test {
protected:
  void SetUp() override {
    if (!z3Available())
      GTEST_SKIP() << "built without Z3";
  }
};

} // namespace

TEST_F(Z3BackendTest, NonlinearVerdicts) {
  // The thread's solver is Z3's SMT core without the default solver's
  // tactics (nlsat among them). The core must still decide these
  // nonlinear shapes, on a live solver and on a new one alike.
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
  for (bool NewSolver : {false, true}) {
    for (const Case &C : Cases) {
      PathCondition P;
      for (const std::string &T : C.Conjuncts)
        P.add(parseGilExpr(T).take());
      if (NewSolver)
        resetZ3Solvers();
      Z3Outcome Out = checkSatZ3(P, typesOf(P), /*WantModel=*/true);
      EXPECT_EQ(Out.Verdict, C.Want)
          << (NewSolver ? "new" : "live") << " solver: " << P.toString();
      if (C.ModelVerifies) {
        ASSERT_TRUE(Out.CandidateModel) << P.toString();
        EXPECT_TRUE(Out.CandidateModel->satisfies(P)) << P.toString();
      }
    }
  }
}

TEST_F(Z3BackendTest, HardCheckIsBoundedAndRebuildsTheSolver) {
  // x*x == y*y + 1 with 5 < x is Unsat over Int (x*x - y*y == 1 forces
  // x = ±1), but no Z3 solver kind decides it: left unbounded, the first
  // check outlasts the test's time bound. Every check is bounded by a
  // deterministic resource limit, so it answers Unknown instead. A solver
  // that answered unknown checks later queries slower, so it is dropped,
  // and the next check builds a new one and decides.
  PathCondition Hard = pc({"typeof(#x) == ^Int", "typeof(#y) == ^Int",
                           "#x * #x == #y * #y + 1", "5 < #x"});
  PathCondition Easy = pc({"typeof(#x) == ^Int", "3 < #x", "#x < 5"});
  ASSERT_EQ(check(Easy), SatResult::Sat);
  ASSERT_TRUE(threadZ3SolverLive());
  EXPECT_EQ(check(Hard), SatResult::Unknown);
  EXPECT_FALSE(threadZ3SolverLive()) << "the unknown dropped the solver";
  EXPECT_EQ(check(Easy), SatResult::Sat)
      << "the next check on this thread is decided";
  EXPECT_TRUE(threadZ3SolverLive()) << "... on a new solver";
}

TEST_F(Z3BackendTest, DroppedConjunctDowngradesOnlyItsOwnCheck) {
  PathCondition Base = pc({"typeof(#x) == ^Int", "0 <= #x"});
  EXPECT_EQ(check(Base), SatResult::Sat);

  // Shifts on symbolic operands do not encode; the conjunct is dropped
  // and Sat of the weakened formula is downgraded.
  PathCondition WithShift =
      pc({"typeof(#x) == ^Int", "0 <= #x", "(#x << 1) == 4"});
  EXPECT_EQ(check(WithShift), SatResult::Unknown);
  EXPECT_TRUE(threadZ3SolverLive())
      << "a downgrade is not a Z3 unknown: the solver stays";

  // Unsat is still sound under dropping: the encodable subset already
  // contradicts.
  PathCondition ShiftUnsat =
      pc({"typeof(#x) == ^Int", "0 <= #x", "(#x << 1) == 4", "#x < 0"});
  EXPECT_EQ(check(ShiftUnsat), SatResult::Unsat);

  // The next check sees none of it: each check pops its own scope.
  PathCondition Clean = pc({"typeof(#x) == ^Int", "0 <= #x", "#x < 10"});
  EXPECT_EQ(check(Clean), SatResult::Sat)
      << "the downgrade belongs to its check, not to the solver";
}

TEST_F(Z3BackendTest, SwappedTypingsKeepTheirVerdicts) {
  // The same conjunct nodes under typings that swap Int and Num between
  // two variables, on one solver: constants of one name and different
  // sorts are distinct in Z3, and each check asserts its own encodings.
  PathCondition P;
  P.add(parseGilExpr("0 < #x").take());
  P.add(parseGilExpr("#x < 1").take());
  P.add(parseGilExpr("0 <= #y").take());

  TypeEnv IntNum, NumInt;
  IntNum.assign(InternedString::get("#x"), GilType::Int);
  IntNum.assign(InternedString::get("#y"), GilType::Num);
  NumInt.assign(InternedString::get("#x"), GilType::Num);
  NumInt.assign(InternedString::get("#y"), GilType::Int);

  for (int Round = 0; Round < 2; ++Round) {
    EXPECT_EQ(checkSatZ3(P, IntNum, false).Verdict, SatResult::Unsat)
        << "no integer lies strictly between 0 and 1";
    EXPECT_EQ(checkSatZ3(P, NumInt, false).Verdict, SatResult::Sat)
        << "but a real one does";
  }
}

TEST_F(Z3BackendTest, DroppedSolverGivesTheSameVerdicts) {
  // Property test: along a random branch-and-backtrack walk (the engine's
  // query shape), every verdict on the thread's reused solver equals the
  // verdict on a solver built for that one check. Sibling branches retype
  // variables across backtracks (Int vs Num `typeof` conjuncts for the
  // *same* variables), and each distinct conjunct is parsed once, so one
  // node is encoded under changing typings, as engine branches sharing a
  // prefix do.
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

  std::map<std::string, Expr> Parsed;
  auto expr = [&Parsed](const std::string &Text) {
    auto It = Parsed.find(Text);
    if (It == Parsed.end())
      It = Parsed.emplace(Text, parseGilExpr(Text).take()).first;
    return It->second;
  };

  std::vector<std::pair<PathCondition, TypeEnv>> Walk;
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
    Walk.emplace_back(std::move(P), std::move(Types));
  }

  resetZ3Solvers();
  std::vector<SatResult> Reused;
  for (const auto &[P, Types] : Walk)
    Reused.push_back(checkSatZ3(P, Types, /*WantModel=*/false).Verdict);
  std::map<SatResult, int> Seen;
  for (size_t I = 0; I < Walk.size(); ++I) {
    resetZ3Solvers();
    const auto &[P, Types] = Walk[I];
    ASSERT_EQ(checkSatZ3(P, Types, /*WantModel=*/false).Verdict, Reused[I])
        << "step " << I << " PC: " << P.toString();
    ++Seen[Reused[I]];
  }
  EXPECT_GT(Retypes, 0) << "the walk must retype variables";
  EXPECT_EQ(Seen.size(), 3u) << "the walk covers Sat, Unsat and Unknown";
}

TEST_F(Z3BackendTest, VerifiedModelTakesOneZ3Call) {
  // A nonlinear condition the syntactic proposer cannot satisfy: the
  // model comes from one Z3 check on the thread's solver and verifies.
  Solver S;
  PathCondition P = pc({"typeof(#x) == ^Int", "typeof(#y) == ^Int",
                        "#x * #y == 6", "1 < #x", "1 < #y"});
  std::optional<Model> M = S.verifiedModel(P);
  ASSERT_TRUE(M);
  EXPECT_TRUE(M->satisfies(P));
  EXPECT_EQ(S.stats().Z3Calls, 1u);
}

//===----------------------------------------------------------------------===//
// The thread's solver: lifetime and resets
//===----------------------------------------------------------------------===//

TEST_F(Z3BackendTest, ShortLivedThreadChecksAndExits) {
  // A thread that checks once and exits destroys its solver before the
  // context the solver was built over (thread-local destruction order).
  PathCondition P = pc({"typeof(#x) == ^Int", "typeof(#y) == ^Int",
                        "#x + #y == 10", "#x - #y == 4"});
  TypeEnv Types = typesOf(P);
  SatResult V = SatResult::Unknown;
  bool Live = false;
  std::thread T([&] {
    V = checkSatZ3(P, Types, /*WantModel=*/true).Verdict;
    Live = threadZ3SolverLive();
  });
  T.join();
  EXPECT_EQ(V, SatResult::Sat);
  EXPECT_TRUE(Live);
}

TEST_F(Z3BackendTest, ResetDropsOtherThreadsSolversLazily) {
  // Solver::resetCache on this thread while another holds a live solver:
  // Z3 handles die with their owning thread, so the other thread drops
  // its solver at its next use, and its next check builds a new one.
  PathCondition P = pc({"typeof(#x) == ^Int", "0 < #x", "#x < 3"});
  TypeEnv Types = typesOf(P);
  std::promise<void> Held, Reset;
  std::shared_future<void> ResetDone = Reset.get_future().share();
  bool LiveBefore = false, LiveAfter = true, LiveAgain = false;
  SatResult Again = SatResult::Unknown;
  std::thread Other([&] {
    checkSatZ3(P, Types, /*WantModel=*/false);
    LiveBefore = threadZ3SolverLive();
    Held.set_value();
    ResetDone.wait();
    LiveAfter = threadZ3SolverLive();
    Again = checkSatZ3(P, Types, /*WantModel=*/false).Verdict;
    LiveAgain = threadZ3SolverLive();
  });
  Held.get_future().wait();
  Solver S;
  S.resetCache();
  EXPECT_FALSE(threadZ3SolverLive());
  Reset.set_value();
  Other.join();
  EXPECT_TRUE(LiveBefore);
  EXPECT_FALSE(LiveAfter) << "the reset reached the other thread";
  EXPECT_EQ(Again, SatResult::Sat);
  EXPECT_TRUE(LiveAgain);
}

TEST(SolverResetCache, ClearsEveryMemoLayer) {
  // Regression: resetCache must cold every layer — the result cache and
  // this thread's Z3 solver — not just the verdict cache.
  Solver S;
  // Warm the result cache with a syntactically-decided verdict (cached
  // with or without Z3).
  PathCondition Cheap;
  for (const char *C : {"#x == 1 + 0", "#x == 2"})
    Cheap.add(simplify(parseGilExpr(C).take()));
  EXPECT_EQ(S.checkSat(Cheap), SatResult::Unsat);
  ASSERT_GT(S.cache().size(), 0u);
  if (z3Available()) {
    // ... and this thread's solver with a query only Z3 decides.
    PathCondition Hard = pc({"typeof(#x) == ^Int", "typeof(#y) == ^Int",
                             "#x + #y == 10", "#x - #y == 4"});
    EXPECT_EQ(S.checkSat(Hard), SatResult::Sat);
    ASSERT_TRUE(threadZ3SolverLive());
  }

  S.resetCache();
  EXPECT_EQ(S.cache().size(), 0u);
  EXPECT_FALSE(threadZ3SolverLive());
}
