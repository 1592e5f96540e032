//===- tests/mc/memory_test.cpp -------------------------------------------===//
//
// Direct unit tests of the CompCert-style memory actions (§4.2): byte
// encode/decode, chunk checks, permissions, fragments, pointer
// comparison, and the I_C interpretation.
//
//===----------------------------------------------------------------------===//

#include "mc/memory.h"

#include "engine/memlib/branch.h"

#include <gtest/gtest.h>

#include <limits>

using namespace gillian;
using namespace gillian::mc;

namespace {

Value args(std::initializer_list<Value> Vs) { return Value::listV(Vs); }
Expr eargs(std::initializer_list<Expr> Es) { return Expr::list(Es); }

Value blockSym(const char *N) { return Value::symV(N); }

McCMem allocated(const char *B, int64_t Size) {
  McCMem M;
  EXPECT_TRUE(
      M.execAction(actAlloc(), args({blockSym(B), Value::intV(Size)})).ok());
  return M;
}

} // namespace

TEST(McCMemT, IntStoreLoadAllChunkSizes) {
  McCMem M = allocated("$b", 16);
  for (auto [Sz, V] : {std::pair<int64_t, int64_t>{1, -5},
                       {4, -70000},
                       {8, (1ll << 40) + 3}}) {
    Chunk C{Sz, Sz, ChunkKind::Int};
    ASSERT_TRUE(M.execAction(actStore(),
                             args({chunkValue(C), blockSym("$b"),
                                   Value::intV(0), Value::intV(V)}))
                    .ok());
    Result<Value> R = M.execAction(
        actLoad(), args({chunkValue(C), blockSym("$b"), Value::intV(0)}));
    ASSERT_TRUE(R.ok()) << R.error();
    EXPECT_EQ(R->asInt(), V) << "chunk size " << Sz;
  }
}

TEST(McCMemT, NarrowStoreTruncates) {
  McCMem M = allocated("$b", 8);
  Chunk C{1, 1, ChunkKind::Int};
  ASSERT_TRUE(M.execAction(actStore(),
                           args({chunkValue(C), blockSym("$b"),
                                 Value::intV(0), Value::intV(0x1FF)}))
                  .ok());
  Result<Value> R = M.execAction(
      actLoad(), args({chunkValue(C), blockSym("$b"), Value::intV(0)}));
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R->asInt(), -1) << "0x1FF truncates to 0xFF = -1 signed";
}

TEST(McCMemT, ByteLevelAccessSeesScalarBytes) {
  // Little-endian byte view of a stored i32 — the CompCert fine-grained
  // access property.
  McCMem M = allocated("$b", 8);
  Chunk C4{4, 4, ChunkKind::Int};
  ASSERT_TRUE(M.execAction(actStore(),
                           args({chunkValue(C4), blockSym("$b"),
                                 Value::intV(0), Value::intV(0x01020304)}))
                  .ok());
  Chunk C1{1, 1, ChunkKind::Int};
  Result<Value> B0 = M.execAction(
      actLoad(), args({chunkValue(C1), blockSym("$b"), Value::intV(0)}));
  Result<Value> B3 = M.execAction(
      actLoad(), args({chunkValue(C1), blockSym("$b"), Value::intV(3)}));
  ASSERT_TRUE(B0.ok() && B3.ok());
  EXPECT_EQ(B0->asInt(), 0x04);
  EXPECT_EQ(B3->asInt(), 0x01);
}

TEST(McCMemT, PointersRoundTripAsFragments) {
  McCMem M = allocated("$b", 16);
  Chunk CP{8, 8, ChunkKind::Ptr};
  Value P = Value::listV({blockSym("$other"), Value::intV(4)});
  ASSERT_TRUE(M.execAction(actStore(), args({chunkValue(CP), blockSym("$b"),
                                             Value::intV(8), P}))
                  .ok());
  Result<Value> R = M.execAction(
      actLoad(), args({chunkValue(CP), blockSym("$b"), Value::intV(8)}));
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(*R, P);
  // Reading pointer bytes as an integer is a type-confused load.
  Chunk C8{8, 8, ChunkKind::Int};
  EXPECT_FALSE(
      M.execAction(actLoad(),
                   args({chunkValue(C8), blockSym("$b"), Value::intV(8)}))
          .ok());
}

TEST(McCMemT, TornReadDetected) {
  McCMem M = allocated("$b", 16);
  Chunk CP{8, 8, ChunkKind::Ptr};
  Value P = Value::listV({blockSym("$x"), Value::intV(0)});
  ASSERT_TRUE(M.execAction(actStore(), args({chunkValue(CP), blockSym("$b"),
                                             Value::intV(0), P}))
                  .ok());
  // Overwrite the middle with a byte, then read the pointer back: torn.
  Chunk C1{1, 1, ChunkKind::Int};
  ASSERT_TRUE(M.execAction(actStore(),
                           args({chunkValue(C1), blockSym("$b"),
                                 Value::intV(3), Value::intV(0)}))
                  .ok());
  Result<Value> R = M.execAction(
      actLoad(), args({chunkValue(CP), blockSym("$b"), Value::intV(0)}));
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.error().find("torn"), std::string::npos);
}

TEST(McCMemT, AlignmentEnforced) {
  McCMem M = allocated("$b", 16);
  Chunk C8{8, 8, ChunkKind::Int};
  Result<Value> R =
      M.execAction(actStore(), args({chunkValue(C8), blockSym("$b"),
                                     Value::intV(4), Value::intV(1)}));
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().find("unaligned"), std::string::npos);
}

TEST(McCMemT, PermissionsGateAccess) {
  McCMem M = allocated("$b", 8);
  Chunk C8{8, 8, ChunkKind::Int};
  ASSERT_TRUE(M.execAction(actStore(),
                           args({chunkValue(C8), blockSym("$b"),
                                 Value::intV(0), Value::intV(7)}))
                  .ok());
  // Drop to Readable: loads fine, stores fault.
  ASSERT_TRUE(M.execAction(actDropPerm(),
                           args({blockSym("$b"), Value::intV(0),
                                 Value::intV(8),
                                 Value::intV(static_cast<int64_t>(
                                     Perm::Readable))}))
                  .ok());
  EXPECT_TRUE(M.execAction(actLoad(), args({chunkValue(C8), blockSym("$b"),
                                            Value::intV(0)}))
                  .ok());
  EXPECT_FALSE(M.execAction(actStore(),
                            args({chunkValue(C8), blockSym("$b"),
                                  Value::intV(0), Value::intV(8)}))
                   .ok());
  // Drop to None: even loads fault. Permissions only decrease.
  ASSERT_TRUE(M.execAction(actDropPerm(),
                           args({blockSym("$b"), Value::intV(0),
                                 Value::intV(8),
                                 Value::intV(static_cast<int64_t>(
                                     Perm::None))}))
                  .ok());
  EXPECT_FALSE(M.execAction(actLoad(), args({chunkValue(C8), blockSym("$b"),
                                             Value::intV(0)}))
                   .ok());
}

TEST(McCMemT, ValidPtrAndBlockSize) {
  McCMem M = allocated("$b", 12);
  EXPECT_EQ(*M.execAction(actBlockSize(), args({blockSym("$b")})),
            Value::intV(12));
  EXPECT_EQ(*M.execAction(actValidPtr(), args({blockSym("$b"),
                                               Value::intV(4),
                                               Value::intV(8)})),
            Value::boolV(true));
  EXPECT_EQ(*M.execAction(actValidPtr(), args({blockSym("$b"),
                                               Value::intV(5),
                                               Value::intV(8)})),
            Value::boolV(false));
}

// Offsets near INT64_MAX: `off + size` wraps there, so a bounds check that
// adds lets the access through (and indexes far outside the block).
constexpr int64_t Int64Max = std::numeric_limits<int64_t>::max();

TEST(McCMemT, AccessNearInt64MaxIsOutOfBounds) {
  McCMem M = allocated("$b", 16);
  for (auto [Sz, Off] :
       {std::pair<int64_t, int64_t>{1, Int64Max}, {8, Int64Max - 7}}) {
    Chunk C{Sz, Sz, ChunkKind::Int};
    Result<Value> L = M.execAction(
        actLoad(), args({chunkValue(C), blockSym("$b"), Value::intV(Off)}));
    ASSERT_FALSE(L.ok()) << "chunk size " << Sz;
    EXPECT_NE(L.error().find("out-of-bounds load"), std::string::npos)
        << L.error();
    Result<Value> S = M.execAction(actStore(),
                                   args({chunkValue(C), blockSym("$b"),
                                         Value::intV(Off), Value::intV(1)}));
    ASSERT_FALSE(S.ok()) << "chunk size " << Sz;
    EXPECT_NE(S.error().find("out-of-bounds store"), std::string::npos)
        << S.error();
  }
}

TEST(McCMemT, BulkRangesNearInt64MaxAreOutOfBounds) {
  McCMem M = allocated("$b", 16);
  Value B = blockSym("$b"), Max = Value::intV(Int64Max), One = Value::intV(1),
        Zero = Value::intV(0);
  EXPECT_FALSE(M.execAction(actMemset(), args({B, Max, One, Zero})).ok());
  EXPECT_FALSE(M.execAction(actDropPerm(), args({B, Max, One, Zero})).ok());
  EXPECT_FALSE(M.execAction(actMemcpy(), args({B, Max, B, Zero, One})).ok());
  EXPECT_FALSE(M.execAction(actMemcpy(), args({B, Zero, B, Max, One})).ok());
  EXPECT_EQ(*M.execAction(actValidPtr(), args({B, Max, One})),
            Value::boolV(false));
}

// --- Symbolic ---------------------------------------------------------------

TEST(McSMemT, SymbolicAllocSizeIsTheStructuredDiagnostic) {
  // The memlib symbolic-size message, verbatim — shared with
  // linear grow (see memlib/branch.h and the matching assertion in
  // linear/linear_test.cpp).
  McSMem M;
  Solver S;
  PathCondition PC;
  Expr B = Expr::lit(Value::symV("$b"));
  Expr N = Expr::lvar("#n");
  auto R = M.execAction(actAlloc(), eargs({B, N}), PC, S);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error(), memlib::symbolicSizeError("alloc", N));
  EXPECT_NE(R.error().find("unsupported: alloc with symbolic size #n"),
            std::string::npos);
  EXPECT_NE(R.error().find("EXPERIMENTS.md 'Known deviations'"),
            std::string::npos);
}

TEST(McSMemT, SymbolicStoreLoadFragmentRoundTrip) {
  McSMem M;
  Solver S;
  PathCondition PC;
  PC.add(Expr::hasType(Expr::lvar("#v"), GilType::Int));
  Expr B = Expr::lit(Value::symV("$b"));
  auto A = M.execAction(actAlloc(), eargs({B, Expr::intE(8)}), PC, S);
  ASSERT_TRUE(A.ok());
  const McSMem &M1 = (*A)[0].Mem;
  Chunk C8{8, 8, ChunkKind::Int};
  auto St = M1.execAction(actStore(),
                          eargs({Expr::lit(chunkValue(C8)), B,
                                 Expr::intE(0), Expr::lvar("#v")}),
                          PC, S);
  ASSERT_TRUE(St.ok());
  ASSERT_EQ(St->size(), 1u);
  auto Ld = (*St)[0].Mem.execAction(
      actLoad(), eargs({Expr::lit(chunkValue(C8)), B, Expr::intE(0)}), PC,
      S);
  ASSERT_TRUE(Ld.ok());
  ASSERT_EQ(Ld->size(), 1u);
  EXPECT_EQ((*Ld)[0].Ret, Expr::lvar("#v"));
}

TEST(McSMemT, SymbolicOffsetBranchesOverCandidates) {
  McSMem M;
  Solver S;
  PathCondition PC;
  PC.add(Expr::hasType(Expr::lvar("#o"), GilType::Int));
  Expr B = Expr::lit(Value::symV("$b"));
  auto A = M.execAction(actAlloc(), eargs({B, Expr::intE(24)}), PC, S);
  const McSMem &M1 = (*A)[0].Mem;
  Chunk C8{8, 8, ChunkKind::Int};
  // Initialise all three slots so every candidate decodes.
  McSMem M2 = M1;
  for (int I = 0; I < 3; ++I) {
    auto St = M2.execAction(actStore(),
                            eargs({Expr::lit(chunkValue(C8)), B,
                                   Expr::intE(8 * I), Expr::intE(I)}),
                            PC, S);
    ASSERT_TRUE(St.ok());
    M2 = (*St)[0].Mem;
  }
  auto Ld = M2.execAction(
      actLoad(), eargs({Expr::lit(chunkValue(C8)), B, Expr::lvar("#o")}),
      PC, S);
  ASSERT_TRUE(Ld.ok());
  int Successes = 0, Errors = 0;
  for (auto &Br : *Ld)
    Br.IsError ? ++Errors : ++Successes;
  EXPECT_EQ(Successes, 3) << "one world per aligned in-bounds offset";
  EXPECT_GE(Errors, 1) << "the out-of-bounds world";
}

TEST(McSMemT, RelationalCompareBranchesOnBlockEquality) {
  McSMem M;
  Solver S;
  PathCondition PC;
  Expr B = Expr::lit(Value::symV("$b"));
  auto A = M.execAction(actAlloc(), eargs({B, Expr::intE(8)}), PC, S);
  const McSMem &M1 = (*A)[0].Mem;
  Expr P1 = Expr::list({B, Expr::intE(0)});
  Expr P2 = Expr::list({B, Expr::intE(4)});
  auto R = M1.execAction(actComparePtr(),
                         eargs({Expr::strE("lt"), P1, P2}), PC, S);
  ASSERT_TRUE(R.ok());
  ASSERT_EQ(R->size(), 1u) << "same concrete block: no UB world";
  EXPECT_FALSE((*R)[0].IsError);
  EXPECT_TRUE((*R)[0].Ret.isTrue());
}

TEST(McSMemT, InterpretationEncodesFragmentsAsBytes) {
  // A symbolic i64 fragment interprets to the same bytes a concrete store
  // writes — the agreement the replay tests depend on.
  McSMem SM;
  SBlock B;
  B.Size = 8;
  Chunk C8{8, 8, ChunkKind::Int};
  for (int64_t I = 0; I < 8; ++I) {
    SMemVal V;
    V.K = SMemVal::Frag;
    V.FragVal = Expr::lvar("#v");
    V.FragKind = ChunkKind::Int;
    V.FragIdx = static_cast<uint8_t>(I);
    V.FragLen = 8;
    B.Bytes.set(I, V);
  }
  SM.putBlock(Expr::lit(Value::symV("$b")), std::move(B));
  Model Eps;
  Eps.bind(InternedString::get("#v"), Value::intV(0x0102030405060708));
  Result<McCMem> CM = interpretMemory(Eps, SM);
  ASSERT_TRUE(CM.ok()) << CM.error();
  Result<Value> R = CM->execAction(
      actLoad(), args({chunkValue(C8), blockSym("$b"), Value::intV(0)}));
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_EQ(R->asInt(), 0x0102030405060708);
  // And the low byte reads as 0x08 (little-endian).
  Chunk C1{1, 1, ChunkKind::Int};
  EXPECT_EQ(CM->execAction(actLoad(), args({chunkValue(C1), blockSym("$b"),
                                            Value::intV(0)}))
                ->asInt(),
            0x08);
}

// --- Symbolic, literal offsets ----------------------------------------------
//
// A literal offset decides the bounds and alignment side conditions on
// int64s. These pin the branches it must emit — the ones checkOrError
// emits when simplify folds the conditions: one fault, with checkOrError's
// message, under the block's taken condition (`true` for a structural
// block hit), bounds before alignment before permission.

namespace {

/// A symbolic memory holding one 16-byte block $b with 7 stored at 0.
McSMem sblock16(const PathCondition &PC, Solver &S) {
  McSMem M;
  Expr B = Expr::lit(blockSym("$b"));
  auto A = M.execAction(actAlloc(), eargs({B, Expr::intE(16)}), PC, S);
  EXPECT_TRUE(A.ok());
  Chunk C8{8, 8, ChunkKind::Int};
  auto St = (*A)[0].Mem.execAction(actStore(),
                                   eargs({Expr::lit(chunkValue(C8)), B,
                                          Expr::intE(0), Expr::intE(7)}),
                                   PC, S);
  EXPECT_TRUE(St.ok());
  return (*St)[0].Mem;
}

std::vector<SymActionBranch<McSMem>> sAccess(const McSMem &M, bool IsStore,
                                             Chunk C, Expr Off,
                                             const PathCondition &PC,
                                             Solver &S) {
  Expr B = Expr::lit(blockSym("$b"));
  Expr Arg = IsStore ? eargs({Expr::lit(chunkValue(C)), B, Off, Expr::intE(1)})
                     : eargs({Expr::lit(chunkValue(C)), B, Off});
  auto R = M.execAction(IsStore ? actStore() : actLoad(), Arg, PC, S);
  EXPECT_TRUE(R.ok()) << (R.ok() ? "" : R.error());
  return R.ok() ? R.take() : std::vector<SymActionBranch<McSMem>>();
}

/// Exactly one fault branch carrying \p Msg under the condition `true`.
void expectOneFault(const std::vector<SymActionBranch<McSMem>> &Out,
                    const std::string &Msg) {
  ASSERT_EQ(Out.size(), 1u) << Msg;
  EXPECT_TRUE(Out[0].IsError);
  EXPECT_EQ(Out[0].Ret, Expr::strE(Msg));
  ASSERT_TRUE(Out[0].Cond);
  EXPECT_TRUE(Out[0].Cond.isTrue()) << Out[0].Cond.toString();
}

} // namespace

TEST(McSMemT, LiteralOffsetPastTheEndIsOutOfBounds) {
  Solver S;
  PathCondition PC;
  McSMem M = sblock16(PC, S);
  Chunk C8{8, 8, ChunkKind::Int};
  expectOneFault(sAccess(M, false, C8, Expr::intE(16), PC, S),
                 "UB: out-of-bounds load");
  expectOneFault(sAccess(M, true, C8, Expr::intE(16), PC, S),
                 "UB: out-of-bounds store");
  // Straddling the end: the offset is in, the last byte is not.
  expectOneFault(sAccess(M, false, Chunk{4, 4, ChunkKind::Int},
                         Expr::intE(14), PC, S),
                 "UB: out-of-bounds load");
  // The last slot is in bounds.
  auto Last = sAccess(M, true, C8, Expr::intE(8), PC, S);
  ASSERT_EQ(Last.size(), 1u);
  EXPECT_FALSE(Last[0].IsError);
}

TEST(McSMemT, LiteralNegativeOffsetIsOutOfBounds) {
  Solver S;
  PathCondition PC;
  McSMem M = sblock16(PC, S);
  expectOneFault(sAccess(M, true, Chunk{8, 8, ChunkKind::Int}, Expr::intE(-8),
                         PC, S),
                 "UB: out-of-bounds store");
  expectOneFault(sAccess(M, false, Chunk{1, 1, ChunkKind::Int},
                         Expr::intE(-1), PC, S),
                 "UB: out-of-bounds load");
}

TEST(McSMemT, LiteralUnalignedOffsetFaultsAfterTheBoundsCheck) {
  Solver S;
  PathCondition PC;
  McSMem M = sblock16(PC, S);
  Chunk C8{8, 8, ChunkKind::Int};
  expectOneFault(sAccess(M, false, C8, Expr::intE(4), PC, S),
                 "UB: unaligned load");
  expectOneFault(sAccess(M, true, C8, Expr::intE(2), PC, S),
                 "UB: unaligned store");
  // Out of bounds and unaligned: the bounds fault is the one reported.
  expectOneFault(sAccess(M, true, C8, Expr::intE(12), PC, S),
                 "UB: out-of-bounds store");
  // Byte chunks have no alignment requirement.
  auto Byte = sAccess(M, false, Chunk{1, 1, ChunkKind::Int}, Expr::intE(3),
                      PC, S);
  ASSERT_EQ(Byte.size(), 1u);
  EXPECT_FALSE(Byte[0].IsError);
}

TEST(McSMemT, LiteralOffsetWithoutPermissionFaults) {
  Solver S;
  PathCondition PC;
  McSMem M = sblock16(PC, S);
  auto D = M.execAction(actDropPerm(),
                        eargs({Expr::lit(blockSym("$b")), Expr::intE(0),
                               Expr::intE(8),
                               Expr::intE(static_cast<int64_t>(
                                   Perm::Readable))}),
                        PC, S);
  ASSERT_TRUE(D.ok());
  const McSMem &RO = (*D)[0].Mem;
  Chunk C8{8, 8, ChunkKind::Int};
  expectOneFault(sAccess(RO, true, C8, Expr::intE(0), PC, S),
                 "UB: store without sufficient permission");
  auto Ld = sAccess(RO, false, C8, Expr::intE(0), PC, S);
  ASSERT_EQ(Ld.size(), 1u);
  EXPECT_FALSE(Ld[0].IsError);
  EXPECT_EQ(Ld[0].Ret, Expr::intE(7));
  // The other half of the block stays writable.
  auto St = sAccess(RO, true, C8, Expr::intE(8), PC, S);
  ASSERT_EQ(St.size(), 1u);
  EXPECT_FALSE(St[0].IsError);
}

TEST(McSMemT, LiteralOffsetsOutsideTheExactRangeKeepTheSymbolicVerdict) {
  // Offsets whose double image is inexact take the symbolic path, which
  // reaches the same fault for these.
  Solver S;
  PathCondition PC;
  McSMem M = sblock16(PC, S);
  Chunk C8{8, 8, ChunkKind::Int};
  expectOneFault(sAccess(M, false, C8, Expr::intE((1ll << 53) + 8), PC, S),
                 "UB: out-of-bounds load");
  expectOneFault(sAccess(M, false, C8, Expr::intE(-(1ll << 60)), PC, S),
                 "UB: out-of-bounds load");
  // off + size wraps here; the side condition must not add.
  Chunk C1{1, 1, ChunkKind::Int};
  expectOneFault(sAccess(M, false, C1, Expr::intE(Int64Max), PC, S),
                 "UB: out-of-bounds load");
  expectOneFault(sAccess(M, true, C1, Expr::intE(Int64Max), PC, S),
                 "UB: out-of-bounds store");
  expectOneFault(sAccess(M, false, C8, Expr::intE(Int64Max - 7), PC, S),
                 "UB: out-of-bounds load");
  expectOneFault(sAccess(M, true, C8, Expr::intE(Int64Max - 7), PC, S),
                 "UB: out-of-bounds store");
}

TEST(McSMemT, BulkRangesNearInt64MaxAreOutOfBounds) {
  Solver S;
  PathCondition PC;
  McSMem M = sblock16(PC, S);
  Expr B = Expr::lit(blockSym("$b")), Max = Expr::intE(Int64Max),
       One = Expr::intE(1), Zero = Expr::intE(0);
  auto OneFault = [&](InternedString Act, Expr Arg, const std::string &Msg) {
    auto R = M.execAction(Act, Arg, PC, S);
    ASSERT_TRUE(R.ok()) << R.error();
    ASSERT_EQ(R->size(), 1u) << Msg;
    EXPECT_TRUE((*R)[0].IsError) << Msg;
    EXPECT_EQ((*R)[0].Ret, Expr::strE(Msg));
  };
  OneFault(actMemset(), eargs({B, Max, One, Zero}), "UB: out-of-bounds memset");
  OneFault(actDropPerm(), eargs({B, Max, One, Zero}),
           "UB: dropPerm out of bounds");
  OneFault(actMemcpy(), eargs({B, Max, B, Zero, One}),
           "UB: out-of-bounds memcpy");
  OneFault(actMemcpy(), eargs({B, Zero, B, Max, One}),
           "UB: out-of-bounds memcpy");
  auto V = M.execAction(actValidPtr(), eargs({B, Max, One}), PC, S);
  ASSERT_TRUE(V.ok());
  ASSERT_EQ(V->size(), 1u);
  EXPECT_EQ((*V)[0].Ret, Expr::boolE(false));
}
