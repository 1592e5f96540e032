//===- tests/mc/symbolic_test.cpp -----------------------------------------===//
//
// Symbolic testing of MC: symbolic scalars through the byte-level memory,
// bounds checks with symbolic indices (the off-by-one detection pattern
// of §4.2), and the SLoad branching behaviour.
//
//===----------------------------------------------------------------------===//

#include "mc/compiler.h"

#include "engine/test_runner.h"
#include "mc/memory.h"

#include <gtest/gtest.h>

using namespace gillian;
using namespace gillian::mc;

namespace {

SymbolicTestResult runSym(std::string_view Src,
                          EngineOptions Opts = EngineOptions()) {
  Result<Prog> P = compileMcSource(Src);
  EXPECT_TRUE(P.ok()) << (P.ok() ? "" : P.error());
  Solver Slv(Opts.Solver);
  return runSymbolicTest<McSMem>(*P, "main", Opts, Slv);
}

} // namespace

TEST(McSymbolic, SymbolicScalarRoundTripsThroughMemory) {
  SymbolicTestResult R = runSym(R"(
    fn main() -> i64 {
      var v: i64 = symb_i64();
      var p: ptr<i64> = alloc(i64, 1);
      p[0] = v;
      assert(p[0] == v);
      return p[0];
    })");
  EXPECT_TRUE(R.verified()) << (R.Bugs.empty() ? "" : R.Bugs[0].Message);
}

TEST(McSymbolic, SymbolicFloatFragments) {
  SymbolicTestResult R = runSym(R"(
    fn main() -> f64 {
      var v: f64 = symb_f64();
      var p: ptr<f64> = alloc(f64, 2);
      p[0] = v;
      p[1] = p[0];
      assert(p[1] == v);
      return p[1];
    })");
  EXPECT_TRUE(R.verified()) << (R.Bugs.empty() ? "" : R.Bugs[0].Message);
}

TEST(McSymbolic, SymbolicIndexInBoundsVerifies) {
  SymbolicTestResult R = runSym(R"(
    fn main() -> i64 {
      var i: i64 = symb_i64();
      assume(0 <= i && i < 4);
      var p: ptr<i64> = alloc(i64, 4);
      p[0] = 0; p[1] = 10; p[2] = 20; p[3] = 30;
      assert(p[i] == i * 10);
      return p[i];
    })");
  EXPECT_TRUE(R.verified()) << (R.Bugs.empty() ? "" : R.Bugs[0].Message);
  EXPECT_GE(R.PathsReturned, 4u) << "one world per candidate offset";
}

TEST(McSymbolic, SymbolicIndexOffByOneIsCaught) {
  // The classic §4.2 finding: an index range one past the end.
  SymbolicTestResult R = runSym(R"(
    fn main() -> i64 {
      var i: i64 = symb_i64();
      assume(0 <= i && i <= 4);  // should be < 4
      var p: ptr<i64> = alloc(i64, 4);
      p[i] = 1;
      return 0;
    })");
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(R.hasConfirmedBug());
  bool FoundOob = false;
  for (const BugReport &B : R.Bugs)
    FoundOob |= B.Message.find("out-of-bounds") != std::string::npos;
  EXPECT_TRUE(FoundOob) << R.Bugs[0].Message;
}

TEST(McSymbolic, StoreAtInt64MaxOffsetIsOutOfBounds) {
  // The offset plus the chunk size wraps to INT64_MIN: a bounds check
  // that adds them lets this store through.
  SymbolicTestResult R = runSym(R"(
    fn main() -> i64 {
      var p: ptr<i8> = alloc(i8, 16);
      var q: ptr<i8> = p + 9223372036854775807;
      q[0] = 1;
      return 0;
    })");
  ASSERT_EQ(R.Bugs.size(), 1u);
  EXPECT_NE(R.Bugs[0].Message.find("out-of-bounds"), std::string::npos)
      << R.Bugs[0].Message;
}

TEST(McSymbolic, BranchOnSymbolicValueThroughHeap) {
  SymbolicTestResult R = runSym(R"(
    struct Node { val: i64; next: ptr<Node>; }
    fn main() -> i64 {
      var v: i64 = symb_i64();
      var n: ptr<Node> = alloc(Node, 1);
      n->val = v;
      n->next = null;
      if (n->val < 0) { return -1; }
      return 1;
    })");
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R.PathsReturned, 2u);
}

TEST(McSymbolic, GuardedFreePathsExploreBothWorlds) {
  SymbolicTestResult R = runSym(R"(
    fn main() -> i64 {
      var c: i64 = symb_i64();
      var p: ptr<i64> = alloc(i64, 1);
      p[0] = 1;
      if (c == 0) { free(p); }
      if (c != 0) { assert(p[0] == 1); }
      return 0;
    })");
  EXPECT_TRUE(R.verified()) << (R.Bugs.empty() ? "" : R.Bugs[0].Message);
}

TEST(McSymbolic, UseAfterFreeOnOnePathIsCaught) {
  SymbolicTestResult R = runSym(R"(
    fn main() -> i64 {
      var c: i64 = symb_i64();
      var p: ptr<i64> = alloc(i64, 1);
      p[0] = 1;
      if (c == 0) { free(p); }
      return p[0];  // faults exactly when c == 0
    })");
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(R.hasConfirmedBug());
  EXPECT_GE(R.PathsReturned, 1u) << "the healthy world still returns";
  EXPECT_NE(R.Bugs[0].Message.find("after free"), std::string::npos);
}

TEST(McSymbolic, DivisionGuardBranchesOnSymbolicDivisor) {
  SymbolicTestResult R = runSym(R"(
    fn main() -> i64 {
      var d: i64 = symb_i64();
      assume(-1 <= d && d <= 1);
      return 10 / d;
    })");
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(R.hasConfirmedBug());
  EXPECT_NE(R.Bugs[0].Message.find("division by zero"), std::string::npos);
  EXPECT_EQ(R.PathsReturned, 1u)
      << "one symbolic return path covers every nonzero divisor";
}

TEST(McSymbolic, UninitialisedReadDetectedSymbolically) {
  SymbolicTestResult R = runSym(R"(
    fn main() -> i64 {
      var c: i64 = symb_i64();
      var p: ptr<i64> = alloc(i64, 2);
      p[0] = 1;
      if (c == 0) { p[1] = 2; }
      return p[0] + p[1];
    })");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Bugs[0].Message.find("uninitialised"), std::string::npos)
      << R.Bugs[0].Message;
}

TEST(McSymbolic, LegacyConfigAgrees) {
  const char *Src = R"(
    fn main() -> i64 {
      var v: i64 = symb_i64();
      assume(0 <= v && v < 3);
      var p: ptr<i64> = alloc(i64, 3);
      p[0] = 1; p[1] = 2; p[2] = 3;
      assert(p[v] == v + 1);
      return 0;
    })";
  SymbolicTestResult Fast = runSym(Src);
  SymbolicTestResult Slow = runSym(Src, EngineOptions::legacyJaVerT2());
  EXPECT_EQ(Fast.ok(), Slow.ok());
  EXPECT_EQ(Fast.PathsReturned, Slow.PathsReturned);
}

TEST(McSymbolic, Int64MinByMinusOneWrapsInsteadOfTrapping) {
  // Done natively, INT64_MIN % -1 and INT64_MIN / -1 raise SIGFPE; GIL
  // Int arithmetic wraps in two's complement instead.
  SymbolicTestResult R = runSym(R"(
    fn main() -> i64 {
      var x: i64 = 0 - 9223372036854775807 - 1;
      var y: i64 = x % (0 - 1);
      var z: i64 = x / (0 - 1);
      assert(y == 0);
      assert(z == x);
      assert(0 - x == x);
      return y;
    })");
  EXPECT_TRUE(R.verified()) << (R.Bugs.empty() ? "" : R.Bugs[0].Message);
  EXPECT_EQ(R.PathsReturned, 1u);
}
