//===- tests/mc/compiler_test.cpp -----------------------------------------===//
//
// MC language semantics via concrete execution: typed pointers, structs,
// heap blocks, chunked loads/stores, pointer arithmetic, and the UB
// detections the §4.2 evaluation relies on.
//
//===----------------------------------------------------------------------===//

#include "mc/compiler.h"

#include "engine/test_runner.h"
#include "mc/memory.h"

#include <gtest/gtest.h>

#include <limits>

using namespace gillian;
using namespace gillian::mc;

namespace {

TraceResult<ConcreteState<McCMem>> runMainTrace(std::string_view Src) {
  Result<Prog> P = compileMcSource(Src);
  EXPECT_TRUE(P.ok()) << (P.ok() ? "" : P.error());
  if (!P.ok())
    return {};
  EngineOptions Opts;
  ExecStats Stats;
  auto R = runConcrete<McCMem>(*P, "main", Opts, Stats);
  EXPECT_TRUE(R.ok()) << (R.ok() ? "" : R.error());
  return R.ok() ? R.take() : TraceResult<ConcreteState<McCMem>>{};
}

Value runMain(std::string_view Src) {
  auto T = runMainTrace(Src);
  EXPECT_EQ(T.Kind, OutcomeKind::Return) << T.Val.toString();
  return T.Val;
}

std::string runMainError(std::string_view Src) {
  auto T = runMainTrace(Src);
  EXPECT_EQ(T.Kind, OutcomeKind::Error) << T.Val.toString();
  return T.Val.isStr() ? std::string(T.Val.asStr().str()) : "";
}

} // namespace

TEST(McCompiler, ScalarArithmetic) {
  EXPECT_EQ(runMain("fn main() -> i64 { return (7 * 3 - 1) / 4; }"),
            Value::intV(5));
  EXPECT_EQ(runMain("fn main() -> f64 { return 1.5 + 2.25; }"),
            Value::numV(3.75));
  EXPECT_EQ(runMain("fn main() -> i64 { return -7 % 3; }"), Value::intV(-1));
}

TEST(McCompiler, DivisionByZeroIsUB) {
  std::string Msg = runMainError(
      "fn main() -> i64 { var d: i64 = 0; return 5 / d; }");
  EXPECT_NE(Msg.find("division by zero"), std::string::npos) << Msg;
}

TEST(McCompiler, AllocStoreLoadRoundTrip) {
  EXPECT_EQ(runMain(R"(
    fn main() -> i64 {
      var p: ptr<i64> = alloc(i64, 2);
      p[0] = 41;
      p[1] = 1;
      return p[0] + p[1];
    })"),
            Value::intV(42));
}

TEST(McCompiler, StructFieldsWithLayout) {
  EXPECT_EQ(runMain(R"(
    struct Pair { a: i32; b: i64; }
    fn main() -> i64 {
      var p: ptr<Pair> = alloc(Pair, 1);
      p->a = 7;
      p->b = 35;
      return i64(p->a) + p->b;
    })"),
            Value::intV(42));
}

TEST(McCompiler, LinkedStructsThroughPointers) {
  EXPECT_EQ(runMain(R"(
    struct Node { val: i64; next: ptr<Node>; }
    fn main() -> i64 {
      var a: ptr<Node> = alloc(Node, 1);
      var b: ptr<Node> = alloc(Node, 1);
      a->val = 1; a->next = b;
      b->val = 2; b->next = null;
      return a->next->val;
    })"),
            Value::intV(2));
}

TEST(McCompiler, PointerArithmeticScalesBySize) {
  EXPECT_EQ(runMain(R"(
    struct Pair { a: i64; b: i64; }
    fn main() -> i64 {
      var p: ptr<Pair> = alloc(Pair, 2);
      (p + 1)->a = 99;
      p->a = 1;
      return (p + 1)->a;
    })"),
            Value::intV(99));
}

TEST(McCompiler, NarrowStoresTruncateAndSignExtend) {
  EXPECT_EQ(runMain(R"(
    fn main() -> i64 {
      var p: ptr<i8> = alloc(i8, 1);
      p[0] = i8(300);   // 300 & 0xFF = 44 as a signed byte
      return p[0];
    })"),
            Value::intV(44));
  EXPECT_EQ(runMain(R"(
    fn main() -> i64 {
      var p: ptr<i8> = alloc(i8, 1);
      p[0] = i8(-1);
      return p[0];      // sign-extends back to -1
    })"),
            Value::intV(-1));
}

TEST(McCompiler, FloatsRoundTripThroughMemory) {
  EXPECT_EQ(runMain(R"(
    fn main() -> f64 {
      var p: ptr<f64> = alloc(f64, 1);
      p[0] = 2.5;
      return p[0] * 2.0;
    })"),
            Value::numV(5.0));
}

TEST(McCompiler, OutOfBoundsIsUB) {
  std::string Msg = runMainError(R"(
    fn main() -> i64 {
      var p: ptr<i64> = alloc(i64, 2);
      p[2] = 1;
      return 0;
    })");
  EXPECT_NE(Msg.find("out-of-bounds"), std::string::npos) << Msg;
}

TEST(McCompiler, UseAfterFreeIsUB) {
  std::string Msg = runMainError(R"(
    fn main() -> i64 {
      var p: ptr<i64> = alloc(i64, 1);
      p[0] = 1;
      free(p);
      return p[0];
    })");
  EXPECT_NE(Msg.find("after free"), std::string::npos) << Msg;
}

TEST(McCompiler, DoubleFreeIsUB) {
  std::string Msg = runMainError(R"(
    fn main() -> i64 {
      var p: ptr<i64> = alloc(i64, 1);
      free(p);
      free(p);
      return 0;
    })");
  EXPECT_NE(Msg.find("double free"), std::string::npos) << Msg;
}

TEST(McCompiler, UninitialisedReadIsUB) {
  std::string Msg = runMainError(R"(
    fn main() -> i64 {
      var p: ptr<i64> = alloc(i64, 1);
      return p[0];
    })");
  EXPECT_NE(Msg.find("uninitialised"), std::string::npos) << Msg;
}

TEST(McCompiler, CrossBlockRelationalCompareIsUB) {
  std::string Msg = runMainError(R"(
    fn main() -> i64 {
      var a: ptr<i64> = alloc(i64, 1);
      var b: ptr<i64> = alloc(i64, 1);
      if (a < b) { return 1; }
      return 0;
    })");
  EXPECT_NE(Msg.find("different objects"), std::string::npos) << Msg;
}

TEST(McCompiler, FreedPointerEqualityCompareIsUB) {
  std::string Msg = runMainError(R"(
    fn main() -> i64 {
      var a: ptr<i64> = alloc(i64, 1);
      free(a);
      if (a == null) { return 1; }
      return 0;
    })");
  EXPECT_NE(Msg.find("freed pointer"), std::string::npos) << Msg;
}

TEST(McCompiler, SameBlockRelationalCompareIsDefined) {
  EXPECT_EQ(runMain(R"(
    fn main() -> i64 {
      var p: ptr<i64> = alloc(i64, 4);
      var q: ptr<i64> = p + 2;
      if (p < q) { return 1; }
      return 0;
    })"),
            Value::intV(1));
}

TEST(McCompiler, NullChecksShortCircuit) {
  EXPECT_EQ(runMain(R"(
    struct Node { val: i64; next: ptr<Node>; }
    fn main() -> i64 {
      var n: ptr<Node> = null;
      if (n != null && n->val == 1) { return 1; }
      return 0;
    })"),
            Value::intV(0))
      << "rhs of && must not dereference null";
}

TEST(McCompiler, MemsetAndMemcpy) {
  EXPECT_EQ(runMain(R"(
    fn main() -> i64 {
      var a: ptr<i8> = alloc(i8, 4);
      var b: ptr<i8> = alloc(i8, 4);
      memset(a, 7, 4);
      memcpy(b, a, 4);
      return b[0] + b[3];
    })"),
            Value::intV(14));
}

TEST(McCompiler, FunctionsAndRecursion) {
  EXPECT_EQ(runMain(R"(
    fn fact(n: i64) -> i64 {
      if (n <= 1) { return 1; }
      return n * fact(n - 1);
    }
    fn main() -> i64 { return fact(6); })"),
            Value::intV(720));
}

TEST(McCompiler, ForLoopsOverArrays) {
  EXPECT_EQ(runMain(R"(
    fn main() -> i64 {
      var p: ptr<i64> = alloc(i64, 5);
      for (var i: i64 = 0; i < 5; i = i + 1) { p[i] = i * i; }
      var s: i64 = 0;
      for (var j: i64 = 0; j < 5; j = j + 1) { s = s + p[j]; }
      return s;
    })"),
            Value::intV(30));
}

TEST(McCompiler, FreeNullIsNoop) {
  EXPECT_EQ(runMain(R"(
    fn main() -> i64 {
      var p: ptr<i64> = null;
      free(p);
      return 1;
    })"),
            Value::intV(1));
}

TEST(McCompiler, SizeofStructWithPadding) {
  EXPECT_EQ(runMain(R"(
    struct S { a: i8; b: i64; c: i32; }
    fn main() -> i64 { return sizeof(S); })"),
            Value::intV(24))
      << "a@0, b@8 (aligned), c@16, padded to 24";
}

TEST(McCompiler, TypeErrorsAreCompileErrors) {
  EXPECT_FALSE(compileMcSource(
                   "fn main() -> i64 { var x: i64 = 1.5; return x; }")
                   .ok())
      << "float into i64";
  EXPECT_FALSE(
      compileMcSource("fn main() -> i64 { return 1.5 + 2; }").ok())
      << "mixed float/int arithmetic requires an explicit cast";
  EXPECT_FALSE(compileMcSource(
                   "fn main() -> i64 { var p: ptr<i64> = null; return p->x; }")
                   .ok())
      << "field access through non-struct pointer";
  EXPECT_FALSE(compileMcSource("fn main() -> i64 { return nope(); }").ok());
}

TEST(McCompiler, IntegerLiteralsStayInsideInt64) {
  EXPECT_EQ(runMain("fn main() -> i64 { return -9223372036854775808; }"),
            Value::intV(std::numeric_limits<int64_t>::min()));
  Result<Prog> P = compileMcSource(
      "fn main() -> i64 {\n  var x: i64 = 9223372036854775808;\n"
      "  return x;\n}");
  ASSERT_FALSE(P.ok()) << "an out-of-range literal must not saturate";
  EXPECT_EQ(P.error(), "MC parse error: line 2:16: expected an expression "
                       "(integer literal out of range)");
}

TEST(McCompiler, NestedPointerTypesParse) {
  EXPECT_EQ(runMain(R"(
    fn main() -> i64 {
      var inner: ptr<i64> = alloc(i64, 1);
      inner[0] = 42;
      var outer: ptr<ptr<i64>> = alloc(ptr<i64>, 1);
      outer[0] = inner;
      var back: ptr<i64> = outer[0];
      return back[0];
    })"),
            Value::intV(42));
}
