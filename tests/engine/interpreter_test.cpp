//===- tests/engine/interpreter_test.cpp ----------------------------------===//
//
// Golden tests for the Fig. 1 transition rules, exercised through both the
// concrete and the symbolic instantiation of the single interpreter
// template (over the null memory model).
//
//===----------------------------------------------------------------------===//

#include "engine/interpreter.h"

#include "engine/null_memory.h"
#include "engine/test_runner.h"
#include "gil/parser.h"

#include <gtest/gtest.h>

using namespace gillian;

namespace {

Prog parseProg(std::string_view Src) {
  Result<Prog> P = parseGilProg(Src);
  EXPECT_TRUE(P.ok()) << (P.ok() ? "" : P.error());
  return P.ok() ? P.take() : Prog();
}

/// Runs concretely (null memory) and returns the single trace.
TraceResult<ConcreteState<NullCMem>> runC(const Prog &P,
                                          std::string_view Entry = "main",
                                          Value Arg = Value::listV({})) {
  EngineOptions Opts;
  ExecStats Stats;
  auto R = runConcrete<NullCMem>(P, Entry, Opts, Stats,
                                 ConcreteState<NullCMem>(), std::move(Arg));
  EXPECT_TRUE(R.ok()) << (R.ok() ? "" : R.error());
  return R.take();
}

/// Runs symbolically (null memory) and returns all traces.
std::vector<TraceResult<SymbolicState<NullSMem>>>
runS(const Prog &P, const EngineOptions &Opts, Solver &Slv,
     std::string_view Entry = "main") {
  using St = SymbolicState<NullSMem>;
  ExecStats Stats;
  Interpreter<St> I(P, Opts, Stats);
  auto R = runExploration(I, InternedString::get(Entry), Expr::list({}),
                          St(NullSMem(), &Slv, &Opts));
  EXPECT_TRUE(R.ok()) << (R.ok() ? "" : R.error());
  return R.ok() ? R.take() : std::vector<TraceResult<St>>();
}

} // namespace

TEST(Interpreter, AssignmentAndTopReturn) {
  Prog P = parseProg("proc main(a) { x := 40; y := x + 2; return y; }");
  auto T = runC(P);
  EXPECT_EQ(T.Kind, OutcomeKind::Return);
  EXPECT_EQ(T.Val.asInt(), 42);
}

TEST(Interpreter, IfGotoTakesCorrectBranch) {
  Prog P = parseProg(R"(
    proc main(a) {
      0: x := 7;
      1: ifgoto (x < 10) 3;
      2: return "big";
      3: return "small";
    })");
  EXPECT_EQ(runC(P).Val.asStr().str(), "small");
}

TEST(Interpreter, ConcreteNonBoolConditionIsError) {
  Prog P = parseProg("proc main(a) { ifgoto 3 0; return 0; }");
  auto T = runC(P);
  EXPECT_EQ(T.Kind, OutcomeKind::Error);
}

TEST(Interpreter, CallReturnRestoresCallerStore) {
  Prog P = parseProg(R"(
    proc main(a) {
      x := 10;
      r := "inc"([x]);
      return r + x;   // x must still be 10 after the call
    }
    proc inc(args) {
      x := l_nth(args, 0);
      return x + 1;
    })");
  auto T = runC(P);
  ASSERT_EQ(T.Kind, OutcomeKind::Return);
  EXPECT_EQ(T.Val.asInt(), 21);
}

TEST(Interpreter, DynamicCalleeViaProcValue) {
  Prog P = parseProg(R"(
    proc main(a) { f := &g; r := f(0); return r; }
    proc g(x) { return 99; })");
  EXPECT_EQ(runC(P).Val.asInt(), 99);
}

TEST(Interpreter, CallToUnknownProcedureIsError) {
  Prog P = parseProg("proc main(a) { r := \"nope\"(0); return r; }");
  EXPECT_EQ(runC(P).Kind, OutcomeKind::Error);
}

TEST(Interpreter, FailProducesErrorOutcomeWithValue) {
  Prog P = parseProg("proc main(a) { fail [\"err\", 42]; }");
  auto T = runC(P);
  ASSERT_EQ(T.Kind, OutcomeKind::Error);
  ASSERT_TRUE(T.Val.isList());
  EXPECT_EQ(T.Val.asList()[1].asInt(), 42);
}

TEST(Interpreter, VanishProducesNoResult) {
  Prog P = parseProg("proc main(a) { vanish; }");
  EngineOptions Opts;
  ExecStats Stats;
  Interpreter<ConcreteState<NullCMem>> I(P, Opts, Stats);
  auto R = runExploration(I, InternedString::get("main"), Value::listV({}),
                          ConcreteState<NullCMem>());
  ASSERT_TRUE(R.ok());
  ASSERT_EQ(R->size(), 1u);
  EXPECT_EQ((*R)[0].Kind, OutcomeKind::Vanish);
  EXPECT_EQ(Stats.PathsVanished, 1u);
}

TEST(Interpreter, RecursionWithStack) {
  Prog P = parseProg(R"(
    proc main(a) { r := "fact"([5]); return r; }
    proc fact(args) {
      n := l_nth(args, 0);
      ifgoto (n <= 1) 4;
      r := "fact"([n - 1]);
      return n * r;
      return 1;
    })");
  EXPECT_EQ(runC(P).Val.asInt(), 120);
}

TEST(Interpreter, FallingOffEndIsError) {
  Prog P = parseProg("proc main(a) { x := 1; }");
  EXPECT_EQ(runC(P).Kind, OutcomeKind::Error);
}

TEST(Interpreter, NullMemoryRejectsActions) {
  Prog P = parseProg("proc main(a) { x := @boom(0); return x; }");
  auto T = runC(P);
  EXPECT_EQ(T.Kind, OutcomeKind::Error);
}

TEST(Interpreter, USymISymConcreteAllocation) {
  Prog P = parseProg(
      "proc main(a) { u := usym(0); v := usym(0); i := isym(1); "
      "return [u, v, i]; }");
  auto T = runC(P);
  ASSERT_EQ(T.Kind, OutcomeKind::Return);
  const auto &L = T.Val.asList();
  EXPECT_TRUE(L[0].isSym());
  EXPECT_NE(L[0], L[1]) << "uSym must be fresh per allocation";
  EXPECT_EQ(L[2], Value::intV(0)) << "unscripted concrete iSym default";
}

// --- Symbolic-side behaviour ---------------------------------------------

TEST(Interpreter, SymbolicBranchingExploresBothSides) {
  Prog P = parseProg(R"(
    proc main(a) {
      0: x := isym(0);
      1: ifgoto (typeof(x) == ^Int) 3;
      2: vanish;
      3: ifgoto (x < 5) 5;
      4: return "big";
      5: return "small";
    })");
  EngineOptions Opts;
  Solver Slv;
  auto Traces = runS(P, Opts, Slv);
  int Returns = 0, Vanished = 0;
  for (auto &T : Traces) {
    if (T.Kind == OutcomeKind::Return)
      ++Returns;
    if (T.Kind == OutcomeKind::Vanish)
      ++Vanished;
  }
  EXPECT_EQ(Returns, 2) << "both sides of x < 5 are satisfiable";
  EXPECT_EQ(Vanished, 1);
}

TEST(Interpreter, SymbolicInfeasibleBranchIsPruned) {
  Prog P = parseProg(R"(
    proc main(a) {
      0: x := isym(0);
      1: ifgoto (typeof(x) == ^Int) 3;
      2: vanish;
      3: ifgoto (x < 5) 5;
      4: return "ge5";
      5: ifgoto (10 < x) 7;
      6: return "le5";
      7: fail "unreachable: x < 5 && x > 10";
    })");
  EngineOptions Opts;
  Solver Slv;
  auto Traces = runS(P, Opts, Slv);
  for (auto &T : Traces)
    EXPECT_NE(T.Kind, OutcomeKind::Error)
        << "contradictory branch must be pruned";
}

TEST(Interpreter, LoopBoundCutsSymbolicLoops) {
  Prog P = parseProg(R"(
    proc main(a) {
      0: x := isym(0);
      1: ifgoto (typeof(x) == ^Int) 3;
      2: vanish;
      3: ifgoto (x <= 0) 6;
      4: x := x - 1;
      5: goto 3;
      6: return x;
    })");
  EngineOptions Opts;
  Opts.LoopBound = 5;
  Solver Slv;
  auto Traces = runS(P, Opts, Slv);
  uint64_t Bounded = 0, Returned = 0;
  for (auto &T : Traces) {
    if (T.Kind == OutcomeKind::Bound)
      ++Bounded;
    if (T.Kind == OutcomeKind::Return)
      ++Returned;
  }
  EXPECT_GE(Returned, 1u);
  EXPECT_GE(Bounded, 1u) << "unbounded symbolic loop must hit the bound";
}

TEST(Interpreter, PerFrameLoopBudget) {
  // Two sequential bounded loops inside a callee must not exhaust the
  // caller's budget: the frame save/restore keeps budgets per invocation.
  Prog P = parseProg(R"(
    proc main(a) {
      r := "spin"([3]);
      s := "spin"([3]);
      return r + s;
    }
    proc spin(args) {
      n := l_nth(args, 0);
      ifgoto (n <= 0) 4;
      n := n - 1;
      goto 1;
      return 0;
    })");
  EngineOptions Opts;
  Opts.LoopBound = 4; // enough for one spin(3), reused per call
  Solver Slv;
  auto Traces = runS(P, Opts, Slv);
  ASSERT_EQ(Traces.size(), 1u);
  EXPECT_EQ(Traces[0].Kind, OutcomeKind::Return);
}

TEST(Interpreter, StatsCountCommands) {
  Prog P = parseProg("proc main(a) { x := 1; y := 2; return x + y; }");
  EngineOptions Opts;
  ExecStats Stats;
  Interpreter<ConcreteState<NullCMem>> I(P, Opts, Stats);
  auto R = runExploration(I, InternedString::get("main"), Value::listV({}),
                          ConcreteState<NullCMem>());
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(Stats.CmdsExecuted, 3u);
  EXPECT_EQ(Stats.PathsFinished, 1u);
}

TEST(Interpreter, UnknownEntryIsEngineError) {
  Prog P = parseProg("proc main(a) { return 0; }");
  EngineOptions Opts;
  ExecStats Stats;
  Interpreter<ConcreteState<NullCMem>> I(P, Opts, Stats);
  auto R = runExploration(I, InternedString::get("nope"), Value::listV({}),
                          ConcreteState<NullCMem>());
  EXPECT_FALSE(R.ok());
}
