//===- tests/linear/linear_test.cpp ---------------------------------------===//
//
// The fourth memory-model instantiation (Wasm-style linear memory, written
// by hand on the memlib helpers): direct unit tests of the concrete
// and symbolic actions, the structured symbolic-size diagnostic, the I_L
// interpretation, and the GIL test suites through the full engine.
//
//===----------------------------------------------------------------------===//

#include "linear/memory.h"

#include "gil/parser.h"
#include "linear/suites.h"
#include "targets/suite_runner.h"

#include <gtest/gtest.h>

using namespace gillian;
using namespace gillian::linear;

namespace {

Value args(std::initializer_list<Value> Vs) { return Value::listV(Vs); }
Expr eargs(std::initializer_list<Expr> Es) { return Expr::list(Es); }

LinearCMem grown(int64_t N) {
  LinearCMem M;
  EXPECT_TRUE(M.execAction(actGrow(), args({Value::intV(N)})).ok());
  return M;
}

} // namespace

//===----------------------------------------------------------------------===//
// Concrete
//===----------------------------------------------------------------------===//

TEST(LinearCMemT, GrowReturnsOldSizeAndMSizeTracks) {
  LinearCMem M;
  Result<Value> R0 = M.execAction(actGrow(), args({Value::intV(4)}));
  ASSERT_TRUE(R0.ok());
  EXPECT_EQ(*R0, Value::intV(0));
  Result<Value> R1 = M.execAction(actGrow(), args({Value::intV(2)}));
  ASSERT_TRUE(R1.ok());
  EXPECT_EQ(*R1, Value::intV(4));
  EXPECT_EQ(*M.execAction(actMSize(), args({})), Value::intV(6));
}

TEST(LinearCMemT, StoreLoadRoundTripAndZeroInit) {
  LinearCMem M = grown(4);
  ASSERT_TRUE(
      M.execAction(actStore(), args({Value::intV(2), Value::intV(42)})).ok());
  EXPECT_EQ(*M.execAction(actLoad(), args({Value::intV(2)})),
            Value::intV(42));
  EXPECT_EQ(*M.execAction(actLoad(), args({Value::intV(1)})), Value::intV(0))
      << "never-written cells read 0";
}

TEST(LinearCMemT, OutOfBoundsFaults) {
  LinearCMem M = grown(4);
  Result<Value> R = M.execAction(actLoad(), args({Value::intV(4)}));
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().find("out-of-bounds load"), std::string::npos);
  Result<Value> W =
      M.execAction(actStore(), args({Value::intV(-1), Value::intV(0)}));
  ASSERT_FALSE(W.ok());
  EXPECT_NE(W.error().find("out-of-bounds store"), std::string::npos);
}

TEST(LinearCMemT, NegativeGrowFaults) {
  LinearCMem M;
  Result<Value> R = M.execAction(actGrow(), args({Value::intV(-1)}));
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().find("grow by negative size"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Symbolic
//===----------------------------------------------------------------------===//

TEST(LinearSMemT, SymbolicGrowIsTheStructuredDiagnostic) {
  // The memlib symbolic-size message, verbatim — shared with MC
  // alloc (see branch.h and the matching assertion in mc/memory_test.cpp).
  LinearSMem M;
  Solver S;
  PathCondition PC;
  Expr D = Expr::lvar("#n");
  auto R = M.execAction(actGrow(), eargs({D}), PC, S);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error(), memlib::symbolicSizeError("grow", D));
  EXPECT_NE(R.error().find("unsupported: grow with symbolic size #n"),
            std::string::npos);
  EXPECT_NE(R.error().find("open research problem"), std::string::npos);
  EXPECT_NE(R.error().find("EXPERIMENTS.md 'Known deviations'"),
            std::string::npos);
}

TEST(LinearSMemT, SymbolicOffsetSplitsOnBounds) {
  LinearSMem M;
  Solver S;
  PathCondition PC;
  auto G = M.execAction(actGrow(), eargs({Expr::intE(4)}), PC, S);
  ASSERT_TRUE(G.ok());
  LinearSMem M1 = (*G)[0].Mem;
  PC.add(Expr::hasType(Expr::lvar("#i"), GilType::Int));
  auto R = M1.execAction(actLoad(), eargs({Expr::lvar("#i")}), PC, S);
  ASSERT_TRUE(R.ok());
  int Successes = 0, Errors = 0;
  for (auto &Br : *R)
    Br.IsError ? ++Errors : ++Successes;
  EXPECT_EQ(Successes, 1) << "in-bounds world reads the zero default";
  EXPECT_EQ(Errors, 1) << "out-of-bounds world faults";
  for (auto &Br : *R) {
    if (!Br.IsError) {
      EXPECT_EQ(Br.Ret, Expr::intE(0));
    }
  }
}

TEST(LinearSMemT, SymbolicStoreThenLoadRunsTheAliasLoop) {
  LinearSMem M;
  Solver S;
  PathCondition PC;
  auto G = M.execAction(actGrow(), eargs({Expr::intE(8)}), PC, S);
  ASSERT_TRUE(G.ok());
  LinearSMem M1 = (*G)[0].Mem;
  PC.add(Expr::hasType(Expr::lvar("#i"), GilType::Int));
  PC.add(Expr::le(Expr::intE(0), Expr::lvar("#i")));
  PC.add(Expr::lt(Expr::lvar("#i"), Expr::intE(8)));
  auto St =
      M1.execAction(actStore(), eargs({Expr::lvar("#i"), Expr::intE(42)}),
                    PC, S);
  ASSERT_TRUE(St.ok());
  ASSERT_EQ(St->size(), 1u) << "empty memory: the store extends";
  auto Ld =
      (*St)[0].Mem.execAction(actLoad(), eargs({Expr::lvar("#i")}), PC, S);
  ASSERT_TRUE(Ld.ok());
  ASSERT_EQ(Ld->size(), 1u) << "definite alias with the stored offset";
  EXPECT_FALSE((*Ld)[0].IsError);
  EXPECT_EQ((*Ld)[0].Ret, Expr::intE(42));
}

TEST(LinearSMemT, MayAliasLoadBranchesPerStoredOffset) {
  LinearSMem M;
  M.setSize(8);
  M.setCell(Expr::lvar("#a"), Expr::intE(1));
  M.setCell(Expr::lvar("#b"), Expr::intE(2));
  Solver S;
  PathCondition PC;
  for (const char *V : {"#a", "#b", "#i"}) {
    PC.add(Expr::hasType(Expr::lvar(V), GilType::Int));
    PC.add(Expr::le(Expr::intE(0), Expr::lvar(V)));
    PC.add(Expr::lt(Expr::lvar(V), Expr::intE(8)));
  }
  auto R = M.execAction(actLoad(), eargs({Expr::lvar("#i")}), PC, S);
  ASSERT_TRUE(R.ok());
  // One world per stored offset the load may alias, plus the zero-default
  // miss world — the [S-Lookup] branch set with linear's miss policy.
  int Successes = 0;
  bool SawZeroDefault = false;
  for (auto &Br : *R) {
    EXPECT_FALSE(Br.IsError) << "in-bounds load never faults";
    ++Successes;
    if (Br.Ret == Expr::intE(0))
      SawZeroDefault = true;
  }
  EXPECT_EQ(Successes, 3);
  EXPECT_TRUE(SawZeroDefault);
}

TEST(LinearSMemT, InterpretationRoundTrips) {
  LinearSMem SM;
  SM.setSize(4);
  SM.setCell(Expr::lvar("#i"), Expr::lvar("#v"));
  Model Eps;
  Eps.bind(InternedString::get("#i"), Value::intV(2));
  Eps.bind(InternedString::get("#v"), Value::intV(7));
  Result<LinearCMem> CM = interpretMemory(Eps, SM);
  ASSERT_TRUE(CM.ok()) << CM.error();
  EXPECT_EQ(CM->size(), 4);
  EXPECT_EQ(*CM->execAction(actLoad(), args({Value::intV(2)})),
            Value::intV(7));
}

TEST(LinearSMemT, InterpretationRejectsCollapsesAndEscapes) {
  LinearSMem SM;
  SM.setSize(4);
  SM.setCell(Expr::lvar("#i"), Expr::intE(1));
  SM.setCell(Expr::lvar("#j"), Expr::intE(2));
  Model Collapse;
  Collapse.bind(InternedString::get("#i"), Value::intV(1));
  Collapse.bind(InternedString::get("#j"), Value::intV(1));
  Result<LinearCMem> C1 = interpretMemory(Collapse, SM);
  ASSERT_FALSE(C1.ok());
  EXPECT_NE(C1.error().find("offsets collapse"), std::string::npos);
  Model Escape;
  Escape.bind(InternedString::get("#i"), Value::intV(1));
  Escape.bind(InternedString::get("#j"), Value::intV(9));
  Result<LinearCMem> C2 = interpretMemory(Escape, SM);
  ASSERT_FALSE(C2.ok());
  EXPECT_NE(C2.error().find("outside the memory"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The GIL suites through the full engine
//===----------------------------------------------------------------------===//

TEST(LinearSuites, CleanSuitesVerify) {
  uint64_t Tests = 0;
  for (const LinearSuite &Su : linearSuites()) {
    Result<Prog> P = parseGilProg(Su.Source);
    ASSERT_TRUE(P.ok()) << Su.Name << ": " << P.error();
    EngineOptions Opts;
    targets::SuiteResult R =
        targets::runSuite<LinearSMem>(Su.Name, *P, Opts);
    EXPECT_TRUE(R.clean()) << Su.Name << ": "
                           << (R.Bugs.empty() ? "" : R.Bugs[0].Message);
    EXPECT_EQ(R.BoundedPaths, 0u) << Su.Name;
    Tests += R.Tests;
  }
  EXPECT_EQ(Tests, 8u) << "3 basic + 3 symbolic + 2 bounds";
}

TEST(LinearSuites, SeededFaultsAreDetectedWithCounterModels) {
  for (const LinearSuite &Su : linearSeededSuites()) {
    Result<Prog> P = parseGilProg(Su.Source);
    ASSERT_TRUE(P.ok()) << Su.Name << ": " << P.error();
    EngineOptions Opts;
    targets::SuiteResult R =
        targets::runSuite<LinearSMem>(Su.Name, *P, Opts);
    EXPECT_EQ(R.Bugs.size(), 2u) << "the off-by-one read and the negative "
                                    "grow";
    bool SawOob = false, SawNegGrow = false;
    for (const BugReport &B : R.Bugs) {
      if (B.Message.find("out-of-bounds load") != std::string::npos) {
        SawOob = true;
        EXPECT_TRUE(B.Confirmed) << "bounds fault needs a counter-model";
      }
      if (B.Message.find("grow by negative size") != std::string::npos)
        SawNegGrow = true;
    }
    EXPECT_TRUE(SawOob);
    EXPECT_TRUE(SawNegGrow);
  }
}
