//===- tests/targets/frontend_test.cpp ------------------------------------===//
//
// Pins the front end's output on the largest corpus it compiles: the 31
// programs of Tables 1 and 2 (11 Buckets units in MJS, 10 healthy and 10
// seeded Collections units in MC, each library + suite). A change to the
// lexer, the parsers or the lowering that moves a single command shows here
// as a different command total or a different digest of the rendering.
//
// Every rendering must also parse back as textual GIL, and print-then-parse
// must be a fixpoint from the first re-parse on. The first re-parse may fold
// a compiled `(- 1)` into the literal `-1`; nothing changes after that.
//
//===----------------------------------------------------------------------===//

#include "gil/parser.h"
#include "mc/compiler.h"
#include "mjs/compiler.h"
#include "targets/buckets_mjs.h"
#include "targets/collections_mc.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

using namespace gillian;
using namespace gillian::targets;

namespace {

struct Unit {
  std::string Name;
  Prog P;
};

std::vector<Unit> bucketsUnits() {
  std::vector<Unit> Out;
  for (const BucketsSuite &S : bucketsSuites()) {
    Result<Prog> P = mjs::compileMjsSource(std::string(bucketsLibrary()) +
                                           "\n" + std::string(S.Source));
    EXPECT_TRUE(P.ok()) << S.Name << ": " << (P.ok() ? "" : P.error());
    Out.push_back({std::string(S.Name), P.ok() ? P.take() : Prog()});
  }
  return Out;
}

std::vector<Unit> collectionsUnits() {
  std::vector<Unit> Out;
  for (std::string_view Lib :
       {collectionsLibrary(), collectionsBuggyLibrary()}) {
    for (const CollectionsSuite &S : collectionsSuites()) {
      Result<Prog> P = mc::compileMcSource(std::string(Lib) + "\n" +
                                           std::string(S.Source));
      EXPECT_TRUE(P.ok()) << S.Name << ": " << (P.ok() ? "" : P.error());
      Out.push_back({std::string(S.Name), P.ok() ? P.take() : Prog()});
    }
  }
  return Out;
}

uint64_t commands(const std::vector<Unit> &Units) {
  uint64_t N = 0;
  for (const Unit &U : Units)
    for (const auto &[Name, Proc] : U.P.procs())
      N += Proc.Body.size();
  return N;
}

/// 64-bit FNV-1a over the renderings of every unit, in suite order.
uint64_t digest(const std::vector<Unit> &Units) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (const Unit &U : Units)
    for (unsigned char C : U.P.toString()) {
      H ^= C;
      H *= 0x100000001b3ull;
    }
  return H;
}

void expectReparseFixpoint(const std::vector<Unit> &Units) {
  for (const Unit &U : Units) {
    Result<Prog> First = parseGilProg(U.P.toString());
    ASSERT_TRUE(First.ok()) << U.Name << ": " << First.error();
    std::string Once = First->toString();
    Result<Prog> Second = parseGilProg(Once);
    ASSERT_TRUE(Second.ok()) << U.Name << ": " << Second.error();
    EXPECT_EQ(Second->toString(), Once) << U.Name;
  }
}

} // namespace

TEST(FrontEnd, Table1And2CommandTotals) {
  EXPECT_EQ(commands(bucketsUnits()), 12948u);
  EXPECT_EQ(commands(collectionsUnits()), 17714u);
}

TEST(FrontEnd, Table1And2RenderingsArePinned) {
  EXPECT_EQ(digest(bucketsUnits()), 0x29d6c8f59c9fa5d5ull);
  EXPECT_EQ(digest(collectionsUnits()), 0x2fc244a168d368e0ull);
}

TEST(FrontEnd, Table1And2RenderingsReparseToAFixpoint) {
  expectReparseFixpoint(bucketsUnits());
  expectReparseFixpoint(collectionsUnits());
}
