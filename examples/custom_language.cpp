//===- examples/custom_language.cpp ---------------------------------------===//
//
// The tool-developer story (§4.3): instantiating Gillian with a brand-new
// memory model. Everything a new target language needs is in this one
// file:
//
//   1. a concrete memory model (Def 2.3) — here, a machine of named
//      saturating counters whose `dec` action faults below zero;
//   2. a symbolic memory model (Def 2.4) — counters hold logical
//      expressions; `dec` branches on whether the counter may be zero,
//      returning the branch condition π' exactly as the Fig. 3 rules do.
//      The branching is written with the memory kit's BranchCtx
//      (engine/memlib/, DESIGN.md §4h): BranchCtx::checkOrError emits
//      the fault world and the strengthened success world, so the model
//      never touches the solver directly. For the rest of the kit —
//      expression-keyed maps with the shared may-alias loop — see
//      src/linear/memory.h, the repo's fourth instantiation;
//   3. a program over the new actions, written in textual GIL;
//   4. both engines, obtained by instantiating the same interpreter
//      template with CSC/SSC liftings of the two memories (Defs 2.5/2.6).
//
// Build & run:  ./build/examples/custom_language
//
//===----------------------------------------------------------------------===//

#include "engine/action_args.h"
#include "engine/memlib/memlib.h"
#include "engine/test_runner.h"
#include "gil/parser.h"

#include <cstdio>

using namespace gillian;

namespace {

InternedString actInc() { return InternedString::get("inc"); }
InternedString actDec() { return InternedString::get("dec"); }
InternedString actRead() { return InternedString::get("read"); }

/// Concrete counters: name -> non-negative integer.
struct CounterCMem {
  CowMap<InternedString, Value> Counters;

  Result<Value> execAction(InternedString Act, const Value &Arg) {
    if (!Arg.isList() || Arg.asList().size() != 1 ||
        !Arg.asList()[0].isStr())
      return Err("counter actions expect [name]");
    InternedString Name = Arg.asList()[0].asStr();
    const Value *Cur = Counters.lookup(Name);
    int64_t V = Cur ? Cur->asInt() : 0;
    if (Act == actInc()) {
      Counters.set(Name, Value::intV(V + 1));
      return Value::intV(V + 1);
    }
    if (Act == actDec()) {
      if (V == 0)
        return Err("counter fault: decrement of zero counter " +
                   std::string(Name.str()));
      Counters.set(Name, Value::intV(V - 1));
      return Value::intV(V - 1);
    }
    if (Act == actRead())
      return Value::intV(V);
    return Err("unknown counter action");
  }
};

/// Symbolic counters: name -> integer-valued logical expression. The
/// decrement faults on the (satisfiable) zero world and succeeds on the
/// positive world — a two-branch action in the style of Fig. 3.
struct CounterSMem {
  CowMap<InternedString, Expr> Counters;

  Result<std::vector<SymActionBranch<CounterSMem>>>
  execAction(InternedString Act, const Expr &Arg, const PathCondition &PC,
             Solver &S) const {
    Result<std::vector<Expr>> Args = splitArgsE(Arg, 1);
    if (!Args || !(*Args)[0].isLit() || !(*Args)[0].litValue().isStr())
      return Err("counter actions expect [name]");
    InternedString Name = (*Args)[0].litValue().asStr();
    const Expr *CurP = Counters.lookup(Name);
    Expr Cur = CurP ? *CurP : Expr::intE(0);
    memlib::BranchCtx<CounterSMem> C(*this, PC, S);

    if (Act == actRead()) {
      C.ok(*this, Cur);
      return std::move(C.Out);
    }
    if (Act == actInc()) {
      CounterSMem Next = *this;
      Expr NewV = Expr::add(Cur, Expr::intE(1));
      Next.Counters.set(Name, NewV);
      C.ok(std::move(Next), NewV);
      return std::move(C.Out);
    }
    if (Act == actDec()) {
      // One kit call replaces the hand-rolled two-world split: the fault
      // branch is emitted for the worlds where the counter may be zero,
      // and the success branch runs under the strengthened condition.
      C.checkOrError(Expr::notE(Expr::eq(Cur, Expr::intE(0))),
                     Expr::boolE(true),
                     "counter fault: decrement of zero counter",
                     [&](Expr Under) {
                       CounterSMem Next = *this;
                       Expr NewV = Expr::sub(Cur, Expr::intE(1));
                       Next.Counters.set(Name, NewV);
                       C.ok(std::move(Next), NewV, std::move(Under));
                     });
      return std::move(C.Out);
    }
    return Err("unknown counter action");
  }
};

static_assert(ConcreteMemoryModel<CounterCMem>);
static_assert(SymbolicMemoryModel<CounterSMem>);

} // namespace

int main() {
  // The target program, in textual GIL: `n` increments followed by
  // `n + 1` decrements — the last one can fault when the branches align.
  const char *Gil = R"(
    proc main(args) {
      0: n := isym(0);
      1: ifgoto (typeof(n) == ^Int) 3;
      2: vanish;
      3: ifgoto (0 <= n && n <= 2) 5;
      4: vanish;
      5: i := 0;
      6: ifgoto (n <= i) 10;
      7: t := @inc(["c"]);
      8: i := i + 1;
      9: goto 6;
      10: j := 0;
      11: ifgoto (n + 1 <= j) 15;
      12: t := @dec(["c"]);
      13: j := j + 1;
      14: goto 11;
      15: r := @read(["c"]);
      16: return r;
    }
  )";
  Result<Prog> P = parseGilProg(Gil);
  if (!P) {
    std::fprintf(stderr, "GIL parse error: %s\n", P.error().c_str());
    return 1;
  }

  // Concrete run (iSym defaults to 0: one decrement of a zero counter).
  EngineOptions Opts;
  ExecStats CStats;
  auto CR = runConcrete<CounterCMem>(*P, "main", Opts, CStats);
  std::printf("concrete run: %s (%s)\n",
              CR.ok() ? std::string(outcomeKindName(CR->Kind)).c_str()
                      : "engine error",
              CR.ok() ? CR->Val.toString().c_str() : CR.error().c_str());

  // Symbolic run: every n in [0, 2] explored; each world faults on the
  // final decrement.
  Solver Slv(Opts.Solver);
  SymbolicTestResult R = runSymbolicTest<CounterSMem>(*P, "main", Opts, Slv);
  std::printf("symbolic run: %llu returned, %llu bug report(s)\n",
              static_cast<unsigned long long>(R.PathsReturned),
              static_cast<unsigned long long>(R.Bugs.size()));
  for (const BugReport &B : R.Bugs)
    std::printf("  %s%s\n    under: %s\n", B.Message.c_str(),
                B.Confirmed ? " [confirmed]" : "", B.PathCond.c_str());
  std::printf("\nThat is the whole §4.3 workload for a new language: two "
              "memory models and a compiler (here: hand-written GIL).\n");
  return 0;
}
