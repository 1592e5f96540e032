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
#include "obs/journal/journal_io.h"

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

// --- Literal branches are jumps -------------------------------------------

TEST(Interpreter, LiteralBranchesMakeNoSolverQuery) {
  // Every condition evaluates to a literal Bool: the loop test, the
  // back-jump, the callee's guard. The run must decide all of them
  // without the solver and still compute the concrete result.
  Prog P = parseProg(R"(
    proc lit_main(a) {
      0: n := 5;
      1: r := 1;
      2: ifgoto (n <= 1) 6;
      3: r := r * n;
      4: n := n - 1;
      5: goto 2;
      6: s := "lit_sign"([r]);
      7: return [r, s];
    }
    proc lit_sign(args) {
      0: v := l_nth(args, 0);
      1: ifgoto (v < 0) 3;
      2: return "nonneg";
      3: return "neg";
    })");
  EngineOptions Opts;
  Solver Slv;
  ExecStats Stats;
  using St = SymbolicState<NullSMem>;
  Interpreter<St> I(P, Opts, Stats);
  auto R = runExploration(I, InternedString::get("lit_main"), Expr::list({}),
                          St(NullSMem(), &Slv, &Opts));
  ASSERT_TRUE(R.ok()) << R.error();
  ASSERT_EQ(R->size(), 1u);
  EXPECT_EQ((*R)[0].Kind, OutcomeKind::Return);
  EXPECT_EQ((*R)[0].Val, Expr::lit(Value::listV(
                             {Value::intV(120), Value::strV("nonneg")})));
  EXPECT_TRUE((*R)[0].Final.pathCondition().empty());
  EXPECT_EQ(Slv.stats().Queries, 0u);
  EXPECT_EQ(Stats.Branches, 0u);
  EXPECT_EQ(runC(P, "lit_main").Val,
            Value::listV({Value::intV(120), Value::strV("nonneg")}));

  // Coverage records the side each literal branch took: both sides of the
  // loop test, the jump of `goto`, the fall-through of the guard.
  int Seen = 0;
  for (const obs::BranchCoverage::ProcCoverage &C :
       obs::BranchCoverage::instance().snapshot()) {
    if (C.Proc == "lit_main") {
      ++Seen;
      EXPECT_EQ(C.Sites, 2u);
      EXPECT_EQ(C.OutcomesCovered, 3u);
    }
    if (C.Proc == "lit_sign") {
      ++Seen;
      EXPECT_EQ(C.Sites, 1u);
      EXPECT_EQ(C.OutcomesCovered, 1u);
    }
  }
  EXPECT_EQ(Seen, 2);
}

TEST(Interpreter, LiteralBranchJournalsBothSidesWithoutAVerdict) {
  Prog P = parseProg(R"(
    proc lit_journal(a) {
      0: x := 3;
      1: ifgoto (x < 2) 3;
      2: return 0;
      3: return 1;
    })");
  EngineOptions Opts;
  Solver Slv;
  ExecStats Stats;
  using St = SymbolicState<NullSMem>;
  obs::journal::reset();
  obs::journal::setEnabled(true);
  Interpreter<St> I(P, Opts, Stats);
  auto R = runExploration(I, InternedString::get("lit_journal"),
                          Expr::list({}), St(NullSMem(), &Slv, &Opts));
  obs::journal::JournalData D = obs::journal::capture();
  obs::journal::setEnabled(false);
  obs::journal::reset();
  ASSERT_TRUE(R.ok()) << R.error();
  std::vector<obs::journal::Event> Branches;
  for (const obs::journal::Event &E : D.Events)
    if (E.Kind == static_cast<uint8_t>(obs::journal::EventKind::Branch))
      Branches.push_back(E);
  ASSERT_EQ(Branches.size(), 2u);
  for (const obs::journal::Event &E : Branches) {
    EXPECT_EQ(E.Cmd, 1u);
    EXPECT_EQ(E.B, E.A == 0 ? 1 : 0) << "the fall-through side is taken";
    EXPECT_EQ(obs::journal::verdictOf(E), obs::journal::Verdict::None);
    EXPECT_EQ(obs::journal::layerOf(E), obs::journal::VerdictLayer::None);
    EXPECT_EQ(E.Aux, 0u) << "a one-output step allocates no child";
    EXPECT_EQ(E.X, 0u);
  }
}

// --- Actions consume their state ------------------------------------------

namespace {

/// A symbolic memory whose every action emits one success branch per
/// element of its argument, a list of [condition, return value] pairs.
struct ScriptedSMem {
  Result<std::vector<SymActionBranch<ScriptedSMem>>>
  execAction(InternedString, const Expr &Arg, const PathCondition &,
             Solver &) const {
    std::vector<SymActionBranch<ScriptedSMem>> Out;
    for (size_t I = 0, N = Arg.numChildren(); I != N; ++I)
      Out.push_back({*this, Arg.child(I).child(1), Arg.child(I).child(0),
                     /*IsError=*/false});
    return Out;
  }
  friend bool operator==(const ScriptedSMem &, const ScriptedSMem &) {
    return true;
  }
};

Expr parseE(std::string_view Src) {
  Result<Expr> E = parseGilExpr(Src);
  EXPECT_TRUE(E.ok()) << Src << ": " << (E.ok() ? "" : E.error());
  return E.ok() ? E.take() : Expr::boolE(true);
}

Expr scriptedBranches(
    std::initializer_list<std::pair<std::string_view, std::string_view>> Bs) {
  std::vector<Expr> Out;
  for (const auto &[Cond, Ret] : Bs)
    Out.push_back(Expr::list({parseE(Cond), parseE(Ret)}));
  return Expr::list(std::move(Out));
}

} // namespace

TEST(SymbolicAction, BranchContradictingThePathConditionIsDropped) {
  // 10 < #x is satisfiable alone but not with #x < 5 (Fig. 3: π ∧ π' SAT).
  EngineOptions Opts;
  Solver Slv;
  using St = SymbolicState<ScriptedSMem>;
  St S(ScriptedSMem(), &Slv, &Opts);
  S.addToPathCondition(parseE("typeof(#x) == ^Int"));
  S.addToPathCondition(parseE("#x < 5"));
  auto Out = std::move(S).execAction(
      InternedString::get("act"),
      scriptedBranches({{"10 < #x", "\"big\""},
                        {"#x < 3", "\"small\""},
                        {"true", "\"any\""}}));
  ASSERT_TRUE(Out.ok()) << Out.error();
  ASSERT_EQ(Out->size(), 2u);
  EXPECT_EQ((*Out)[0].Ret, Expr::strE("small"));
  EXPECT_EQ((*Out)[1].Ret, Expr::strE("any"));
  EXPECT_EQ((*Out)[0].State.pathCondition().size(), 3u);
  EXPECT_EQ((*Out)[1].State.pathCondition().size(), 2u);
}

TEST(SymbolicAction, ConsumingMatchesCopyingUnderTheTypeEnv) {
  // The type environment decides both branches: typeof(#x) == ^Str folds
  // to false (dropped), and the last branch's return value typeof(#x)
  // folds to ^Int. The consuming form must simplify under the state that
  // received the type environment, not under the moved-from one.
  EngineOptions Opts;
  Solver Slv;
  using St = SymbolicState<ScriptedSMem>;
  St S(ScriptedSMem(), &Slv, &Opts);
  S.addToPathCondition(parseE("typeof(#x) == ^Int"));
  S.setVar(InternedString::get("k"), Expr::intE(7));
  const Expr Arg = scriptedBranches(
      {{"typeof(#x) == ^Str", "\"str\""}, {"#x < 3", "typeof(#x)"}});
  const InternedString Act = InternedString::get("act");

  auto Copied = S.execAction(Act, Arg);
  ASSERT_TRUE(Copied.ok()) << Copied.error();
  EXPECT_EQ(S.pathCondition().size(), 1u) << "the copying form keeps S";
  auto Consumed = std::move(S).execAction(Act, Arg);
  ASSERT_TRUE(Consumed.ok()) << Consumed.error();

  ASSERT_EQ(Copied->size(), 1u);
  ASSERT_EQ(Consumed->size(), 1u);
  const StateBranch<St> &A = (*Copied)[0], &B = (*Consumed)[0];
  EXPECT_EQ(A.Ret, Expr::lit(Value::typeV(GilType::Int)));
  EXPECT_EQ(B.Ret, A.Ret);
  EXPECT_EQ(B.State.pathCondition(), A.State.pathCondition());
  EXPECT_EQ(B.State.typeEnv().all(), A.State.typeEnv().all());
  const Expr *K = B.State.store().lookup(InternedString::get("k"));
  ASSERT_NE(K, nullptr);
  EXPECT_EQ(*K, Expr::intE(7));
}

TEST(Interpreter, ActionEngineErrorKeepsThePreActionState) {
  // The null memory rejects every action with an engine error; the
  // path's final state is the one the action was given.
  Prog P = parseProg(
      "proc act_err(a) { x := 1; y := @boom(0); return x; }");
  EngineOptions Opts;
  Solver Slv;
  auto Traces = runS(P, Opts, Slv, "act_err");
  ASSERT_EQ(Traces.size(), 1u);
  EXPECT_EQ(Traces[0].Kind, OutcomeKind::Error);
  const Expr *X = Traces[0].Final.store().lookup(InternedString::get("x"));
  ASSERT_NE(X, nullptr);
  EXPECT_EQ(*X, Expr::intE(1));
}
