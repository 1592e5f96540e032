//===- mc/memory.cpp ------------------------------------------------------===//

#include "mc/memory.h"

#include "engine/action_args.h"
#include "engine/memlib/memlib.h"
#include "obs/action_counters.h"
#include "solver/simplifier.h"

#include <cstring>
#include <optional>

using namespace gillian;
using namespace gillian::mc;
using memlib::BranchCtx;
using memlib::Tri;

// Action names are interned once; every dispatch compares the handles.
InternedString gillian::mc::actAlloc() {
  static const InternedString A = InternedString::get("alloc");
  return A;
}
InternedString gillian::mc::actFree() {
  static const InternedString A = InternedString::get("free");
  return A;
}
InternedString gillian::mc::actLoad() {
  static const InternedString A = InternedString::get("load");
  return A;
}
InternedString gillian::mc::actStore() {
  static const InternedString A = InternedString::get("store");
  return A;
}
InternedString gillian::mc::actMemcpy() {
  static const InternedString A = InternedString::get("memcpy");
  return A;
}
InternedString gillian::mc::actMemset() {
  static const InternedString A = InternedString::get("memset");
  return A;
}
InternedString gillian::mc::actBlockSize() {
  static const InternedString A = InternedString::get("blockSize");
  return A;
}
InternedString gillian::mc::actDropPerm() {
  static const InternedString A = InternedString::get("dropPerm");
  return A;
}
InternedString gillian::mc::actComparePtr() {
  static const InternedString A = InternedString::get("comparePtr");
  return A;
}
InternedString gillian::mc::actValidPtr() {
  static const InternedString A = InternedString::get("validPtr");
  return A;
}

Value gillian::mc::nullPtr() {
  return Value::listV({Value::symV("$null"), Value::intV(0)});
}
Expr gillian::mc::nullPtrE() { return Expr::lit(nullPtr()); }

Value gillian::mc::chunkValue(const Chunk &C) {
  return Value::listV({Value::intV(C.Size), Value::intV(C.Align),
                       Value::intV(static_cast<int64_t>(C.Kind))});
}

namespace {

/// True iff the \p N bytes at offset \p Off lie inside a block of \p Size
/// bytes. No step can overflow: `Off + N > Size` wraps for an offset near
/// INT64_MAX and would let the access through.
bool rangeInBlock(int64_t Off, int64_t N, int64_t Size) {
  return 0 <= N && 0 <= Off && N <= Size && Off <= Size - N;
}

Result<Chunk> chunkFromValue(const Value &V) {
  if (!V.isList() || V.asList().size() != 3)
    return Err("malformed chunk " + V.toString());
  const auto &L = V.asList();
  if (!L[0].isInt() || !L[1].isInt() || !L[2].isInt() || L[0].asInt() < 1)
    return Err("malformed chunk " + V.toString());
  int64_t K = L[2].asInt();
  if (K < 0 || K > 2)
    return Err("bad chunk kind in " + V.toString());
  return Chunk{L[0].asInt(), L[1].asInt(), static_cast<ChunkKind>(K)};
}

bool isPtrValue(const Value &V) {
  return V.isList() && V.asList().size() == 2 && V.asList()[0].isSym() &&
         V.asList()[1].isInt();
}

/// Encodes a concrete scalar into byte-level memory values.
Result<std::vector<CMemVal>> encodeConcrete(const Value &V, const Chunk &C) {
  std::vector<CMemVal> Out(static_cast<size_t>(C.Size));
  switch (C.Kind) {
  case ChunkKind::Int: {
    if (!V.isInt())
      return Err("UB: storing " + V.toString() + " through an integer chunk");
    uint64_t Bits = static_cast<uint64_t>(V.asInt());
    for (int64_t I = 0; I < C.Size; ++I) {
      Out[static_cast<size_t>(I)].K = CMemVal::Byte;
      Out[static_cast<size_t>(I)].B =
          static_cast<uint8_t>((Bits >> (8 * I)) & 0xFF);
    }
    return Out;
  }
  case ChunkKind::Float: {
    if (!V.isNum())
      return Err("UB: storing " + V.toString() + " through a float chunk");
    double D = V.asNum();
    uint64_t Bits;
    std::memcpy(&Bits, &D, sizeof(double));
    for (int64_t I = 0; I < C.Size; ++I) {
      Out[static_cast<size_t>(I)].K = CMemVal::Byte;
      Out[static_cast<size_t>(I)].B =
          static_cast<uint8_t>((Bits >> (8 * I)) & 0xFF);
    }
    return Out;
  }
  case ChunkKind::Ptr: {
    if (!isPtrValue(V))
      return Err("UB: storing " + V.toString() + " through a pointer chunk");
    for (int64_t I = 0; I < C.Size; ++I) {
      CMemVal &M = Out[static_cast<size_t>(I)];
      M.K = CMemVal::Frag;
      M.FragVal = V;
      M.FragKind = ChunkKind::Ptr;
      M.FragIdx = static_cast<uint8_t>(I);
      M.FragLen = static_cast<uint8_t>(C.Size);
    }
    return Out;
  }
  }
  return Err("bad chunk kind");
}

int64_t signExtend(uint64_t Bits, int64_t Bytes) {
  if (Bytes >= 8)
    return static_cast<int64_t>(Bits);
  uint64_t SignBit = 1ull << (8 * Bytes - 1);
  uint64_t Mask = (1ull << (8 * Bytes)) - 1;
  Bits &= Mask;
  if (Bits & SignBit)
    Bits |= ~Mask;
  return static_cast<int64_t>(Bits);
}

/// Decodes \p N concrete memory values starting at \p Begin.
Result<Value> decodeConcrete(const CMemVal *Begin, const Chunk &C) {
  // Fragment-carried values (pointers, and replayed symbolic scalars).
  if (Begin[0].K == CMemVal::Frag) {
    for (int64_t I = 0; I < C.Size; ++I) {
      const CMemVal &M = Begin[I];
      if (M.K != CMemVal::Frag || M.FragVal != Begin[0].FragVal ||
          M.FragIdx != I || M.FragLen != C.Size)
        return Err("UB: reading a torn value from memory");
    }
    if (Begin[0].FragKind != C.Kind)
      return Err("UB: type-confused load (stored as " +
                 std::to_string(static_cast<int>(Begin[0].FragKind)) +
                 ", loaded as " + std::to_string(static_cast<int>(C.Kind)) +
                 ")");
    return Begin[0].FragVal;
  }
  uint64_t Bits = 0;
  for (int64_t I = 0; I < C.Size; ++I) {
    const CMemVal &M = Begin[I];
    if (M.K == CMemVal::Undef)
      return Err("UB: read of uninitialised memory");
    if (M.K != CMemVal::Byte)
      return Err("UB: reading a torn value from memory");
    Bits |= static_cast<uint64_t>(M.B) << (8 * I);
  }
  switch (C.Kind) {
  case ChunkKind::Int:
    return Value::intV(signExtend(Bits, C.Size));
  case ChunkKind::Float: {
    double D;
    std::memcpy(&D, &Bits, sizeof(double));
    return Value::numV(D);
  }
  case ChunkKind::Ptr:
    return Err("UB: decoding raw bytes as a pointer");
  }
  return Err("bad chunk kind");
}

CBlock cloneBlock(const CBlock &B) { return B; }

} // namespace

//===----------------------------------------------------------------------===//
// Concrete actions
//===----------------------------------------------------------------------===//

Result<Value> McCMem::doLoad(const Value &ChunkV, const Value &B,
                             const Value &Off) {
  Result<Chunk> C = chunkFromValue(ChunkV);
  if (!C)
    return Err(C.error());
  if (!B.isSym() || !Off.isInt())
    return Err("UB: load through invalid pointer [" + B.toString() + ", " +
               Off.toString() + "]");
  const CBlock *Blk = findBlock(B.asSym());
  if (!Blk)
    return Err("UB: load from unallocated block " + B.toString());
  if (Blk->Freed)
    return Err("UB: load after free of " + B.toString());
  int64_t O = Off.asInt();
  if (!rangeInBlock(O, C->Size, Blk->Size))
    return Err("UB: out-of-bounds load at offset " + std::to_string(O) +
               " (block size " + std::to_string(Blk->Size) + ")");
  if (C->Align > 1 && O % C->Align != 0)
    return Err("UB: unaligned load at offset " + std::to_string(O));
  for (int64_t I = 0; I < C->Size; ++I)
    if (Blk->Perms[static_cast<size_t>(O + I)] <
        static_cast<uint8_t>(Perm::Readable))
      return Err("UB: load without Readable permission");
  return decodeConcrete(&Blk->Bytes[static_cast<size_t>(O)], *C);
}

Result<Value> McCMem::doStore(const Value &ChunkV, const Value &B,
                              const Value &Off, const Value &V) {
  Result<Chunk> C = chunkFromValue(ChunkV);
  if (!C)
    return Err(C.error());
  if (!B.isSym() || !Off.isInt())
    return Err("UB: store through invalid pointer");
  const CBlock *Blk = findBlock(B.asSym());
  if (!Blk)
    return Err("UB: store to unallocated block " + B.toString());
  if (Blk->Freed)
    return Err("UB: store after free of " + B.toString());
  int64_t O = Off.asInt();
  if (!rangeInBlock(O, C->Size, Blk->Size))
    return Err("UB: out-of-bounds store at offset " + std::to_string(O) +
               " (block size " + std::to_string(Blk->Size) + ")");
  if (C->Align > 1 && O % C->Align != 0)
    return Err("UB: unaligned store at offset " + std::to_string(O));
  for (int64_t I = 0; I < C->Size; ++I)
    if (Blk->Perms[static_cast<size_t>(O + I)] <
        static_cast<uint8_t>(Perm::Writable))
      return Err("UB: store without Writable permission");
  Result<std::vector<CMemVal>> Enc = encodeConcrete(V, *C);
  if (!Enc)
    return Err(Enc.error());
  CBlock NB = cloneBlock(*Blk);
  for (int64_t I = 0; I < C->Size; ++I)
    NB.Bytes[static_cast<size_t>(O + I)] = (*Enc)[static_cast<size_t>(I)];
  putBlock(B.asSym(), std::move(NB));
  return V;
}

Result<Value> McCMem::doComparePtr(const Value &Op, const Value &P1,
                                   const Value &P2) {
  if (!Op.isStr())
    return Err("comparePtr expects an operation name");
  if (!isPtrValue(P1) || !isPtrValue(P2))
    return Err("UB: pointer comparison on non-pointers");
  auto blockOf = [&](const Value &P) { return P.asList()[0].asSym(); };
  auto offsetOf = [&](const Value &P) { return P.asList()[1].asInt(); };
  InternedString Null = InternedString::get("$null");
  // Any comparison involving a dangling (freed) pointer is undefined —
  // one of the §4.2 findings in the Collections-C test suite.
  for (const Value *P : {&P1, &P2}) {
    InternedString Blk = blockOf(*P);
    if (Blk == Null)
      continue;
    const CBlock *B = findBlock(Blk);
    if (B && B->Freed)
      return Err("UB: comparison of a freed pointer");
  }
  std::string_view O = Op.asStr().str();
  if (O == "eq")
    return Value::boolV(P1 == P2);
  // Relational comparison requires both pointers inside the same live
  // block (C11 6.5.8p5) — the classic Collections-C undefined behaviour.
  if (blockOf(P1) == Null || blockOf(P2) == Null ||
      blockOf(P1) != blockOf(P2))
    return Err("UB: relational comparison of pointers into different "
               "objects");
  int64_t A = offsetOf(P1), B2 = offsetOf(P2);
  if (O == "lt")
    return Value::boolV(A < B2);
  if (O == "le")
    return Value::boolV(A <= B2);
  return Err("comparePtr: unknown operation '" + std::string(O) + "'");
}

Result<Value> McCMem::execAction(InternedString Act, const Value &Arg) {
  if (Act == actAlloc()) {
    Result<std::vector<Value>> A = splitArgs(Arg, 2);
    if (!A)
      return Err(A.error());
    if (!(*A)[0].isSym() || !(*A)[1].isInt())
      return Err("alloc expects [block-symbol, size]");
    int64_t Size = (*A)[1].asInt();
    if (Size < 0)
      return Err("UB: allocation of negative size");
    if (findBlock((*A)[0].asSym()))
      return Err("alloc: block symbol reused");
    CBlock B;
    B.Size = Size;
    B.Bytes.resize(static_cast<size_t>(Size));
    B.Perms.assign(static_cast<size_t>(Size),
                   static_cast<uint8_t>(Perm::Writable));
    putBlock((*A)[0].asSym(), std::move(B));
    return Value::listV({(*A)[0], Value::intV(0)});
  }
  if (Act == actFree()) {
    Result<std::vector<Value>> A = splitArgs(Arg, 1);
    if (!A)
      return Err(A.error());
    const Value &P = (*A)[0];
    if (P == nullPtr())
      return Value::boolV(true); // free(NULL) is a no-op
    if (!isPtrValue(P))
      return Err("UB: free of a non-pointer");
    if (P.asList()[1].asInt() != 0)
      return Err("UB: free of an interior pointer");
    InternedString B = P.asList()[0].asSym();
    const CBlock *Blk = findBlock(B);
    if (!Blk)
      return Err("UB: free of unallocated block");
    if (Blk->Freed)
      return Err("UB: double free");
    CBlock NB = cloneBlock(*Blk);
    NB.Freed = true;
    putBlock(B, std::move(NB));
    return Value::boolV(true);
  }
  if (Act == actLoad()) {
    Result<std::vector<Value>> A = splitArgs(Arg, 3);
    if (!A)
      return Err(A.error());
    return doLoad((*A)[0], (*A)[1], (*A)[2]);
  }
  if (Act == actStore()) {
    Result<std::vector<Value>> A = splitArgs(Arg, 4);
    if (!A)
      return Err(A.error());
    return doStore((*A)[0], (*A)[1], (*A)[2], (*A)[3]);
  }
  if (Act == actMemcpy()) {
    Result<std::vector<Value>> A = splitArgs(Arg, 5);
    if (!A)
      return Err(A.error());
    const Value &DB = (*A)[0], &DOff = (*A)[1], &SB = (*A)[2],
                &SOff = (*A)[3], &Len = (*A)[4];
    if (!DB.isSym() || !SB.isSym() || !DOff.isInt() || !SOff.isInt() ||
        !Len.isInt())
      return Err("memcpy expects [dstB, dstOff, srcB, srcOff, len]");
    const CBlock *Src = findBlock(SB.asSym());
    const CBlock *Dst = findBlock(DB.asSym());
    if (!Src || !Dst || Src->Freed || Dst->Freed)
      return Err("UB: memcpy on dead memory");
    int64_t N = Len.asInt(), DO_ = DOff.asInt(), SO = SOff.asInt();
    if (!rangeInBlock(SO, N, Src->Size) || !rangeInBlock(DO_, N, Dst->Size))
      return Err("UB: out-of-bounds memcpy");
    CBlock NB = cloneBlock(*Dst);
    for (int64_t I = 0; I < N; ++I)
      NB.Bytes[static_cast<size_t>(DO_ + I)] =
          Src->Bytes[static_cast<size_t>(SO + I)];
    putBlock(DB.asSym(), std::move(NB));
    return Value::boolV(true);
  }
  if (Act == actMemset()) {
    Result<std::vector<Value>> A = splitArgs(Arg, 4);
    if (!A)
      return Err(A.error());
    const Value &B = (*A)[0], &Off = (*A)[1], &Len = (*A)[2],
                &Byte = (*A)[3];
    if (!B.isSym() || !Off.isInt() || !Len.isInt() || !Byte.isInt())
      return Err("memset expects [block, off, len, byte]");
    const CBlock *Blk = findBlock(B.asSym());
    if (!Blk || Blk->Freed)
      return Err("UB: memset on dead memory");
    int64_t O = Off.asInt(), N = Len.asInt();
    if (!rangeInBlock(O, N, Blk->Size))
      return Err("UB: out-of-bounds memset");
    CBlock NB = cloneBlock(*Blk);
    for (int64_t I = 0; I < N; ++I) {
      CMemVal &M = NB.Bytes[static_cast<size_t>(O + I)];
      M.K = CMemVal::Byte;
      M.B = static_cast<uint8_t>(Byte.asInt() & 0xFF);
      M.FragVal = Value();
    }
    putBlock(B.asSym(), std::move(NB));
    return Value::boolV(true);
  }
  if (Act == actBlockSize()) {
    Result<std::vector<Value>> A = splitArgs(Arg, 1);
    if (!A)
      return Err(A.error());
    if (!(*A)[0].isSym())
      return Err("blockSize expects a block symbol");
    const CBlock *Blk = findBlock((*A)[0].asSym());
    if (!Blk || Blk->Freed)
      return Err("UB: blockSize of dead memory");
    return Value::intV(Blk->Size);
  }
  if (Act == actDropPerm()) {
    Result<std::vector<Value>> A = splitArgs(Arg, 4);
    if (!A)
      return Err(A.error());
    const Value &B = (*A)[0], &Off = (*A)[1], &Len = (*A)[2],
                &PermV = (*A)[3];
    if (!B.isSym() || !Off.isInt() || !Len.isInt() || !PermV.isInt())
      return Err("dropPerm expects [block, off, len, perm]");
    const CBlock *Blk = findBlock(B.asSym());
    if (!Blk || Blk->Freed)
      return Err("UB: dropPerm on dead memory");
    int64_t O = Off.asInt(), N = Len.asInt();
    if (!rangeInBlock(O, N, Blk->Size))
      return Err("UB: dropPerm out of bounds");
    CBlock NB = cloneBlock(*Blk);
    for (int64_t I = 0; I < N; ++I) {
      uint8_t &P = NB.Perms[static_cast<size_t>(O + I)];
      P = std::min(P, static_cast<uint8_t>(PermV.asInt()));
    }
    putBlock(B.asSym(), std::move(NB));
    return Value::boolV(true);
  }
  if (Act == actComparePtr()) {
    Result<std::vector<Value>> A = splitArgs(Arg, 3);
    if (!A)
      return Err(A.error());
    return doComparePtr((*A)[0], (*A)[1], (*A)[2]);
  }
  if (Act == actValidPtr()) {
    Result<std::vector<Value>> A = splitArgs(Arg, 3);
    if (!A)
      return Err(A.error());
    const Value &B = (*A)[0], &Off = (*A)[1], &Len = (*A)[2];
    if (!B.isSym() || !Off.isInt() || !Len.isInt())
      return Value::boolV(false);
    const CBlock *Blk = findBlock(B.asSym());
    if (!Blk || Blk->Freed)
      return Value::boolV(false);
    return Value::boolV(rangeInBlock(Off.asInt(), Len.asInt(), Blk->Size));
  }
  return Err("unknown MC action '" + std::string(Act.str()) + "'");
}

std::string McCMem::toString() const {
  return memlib::printEntries(
      Blocks, [](InternedString B, const std::shared_ptr<const CBlock> &Blk) {
        return std::string(B.str()) + "[" + std::to_string(Blk->Size) +
               (Blk->Freed ? ", freed" : "") + "]";
      });
}

//===----------------------------------------------------------------------===//
// Symbolic actions
//===----------------------------------------------------------------------===//

namespace {

Result<Chunk> chunkFromExpr(const Expr &E) {
  if (E.isLit())
    return chunkFromValue(E.litValue());
  if (E.kind() == ExprKind::List && E.numChildren() == 3 &&
      E.child(0).isLit() && E.child(1).isLit() && E.child(2).isLit())
    return chunkFromValue(Value::listV({E.child(0).litValue(),
                                        E.child(1).litValue(),
                                        E.child(2).litValue()}));
  return Err("chunks must be compile-time constants, got " + E.toString());
}

/// Splits a pointer-shaped expression into (block, offset).
Result<std::pair<Expr, Expr>> splitPtr(const Expr &E) {
  if (E.kind() == ExprKind::List && E.numChildren() == 2)
    return std::make_pair(E.child(0), E.child(1));
  if (E.isLit() && E.litValue().isList() && E.litValue().asList().size() == 2)
    return std::make_pair(Expr::lit(E.litValue().asList()[0]),
                          Expr::lit(E.litValue().asList()[1]));
  return Err("UB: operation on a non-pointer value " + E.toString());
}

/// Encodes a (possibly symbolic) scalar for the byte-level memory:
/// literals encode to real bytes exactly like the concrete memory (so
/// replay agrees); symbolic scalars and all pointers become fragments.
Result<std::vector<SMemVal>> encodeSymbolic(const Expr &V, const Chunk &C) {
  if (V.isLit() && C.Kind != ChunkKind::Ptr) {
    Result<std::vector<CMemVal>> Conc = encodeConcrete(V.litValue(), C);
    if (!Conc)
      return Err(Conc.error());
    std::vector<SMemVal> Out(Conc->size());
    for (size_t I = 0; I != Conc->size(); ++I) {
      Out[I].K = SMemVal::Byte;
      Out[I].B = (*Conc)[I].B;
    }
    return Out;
  }
  std::vector<SMemVal> Out(static_cast<size_t>(C.Size));
  for (int64_t I = 0; I < C.Size; ++I) {
    SMemVal &M = Out[static_cast<size_t>(I)];
    M.K = SMemVal::Frag;
    M.FragVal = V;
    M.FragKind = C.Kind;
    M.FragIdx = static_cast<uint8_t>(I);
    M.FragLen = static_cast<uint8_t>(C.Size);
  }
  return Out;
}

/// Decodes C.Size cells of \p B starting at concrete offset \p O.
Result<Expr> decodeSymbolic(const SBlock &B, int64_t O, const Chunk &C) {
  const SMemVal *First = B.Bytes.lookup(O);
  if (First && First->K == SMemVal::Frag) {
    for (int64_t I = 0; I < C.Size; ++I) {
      const SMemVal *M = B.Bytes.lookup(O + I);
      if (!M || M->K != SMemVal::Frag || M->FragVal != First->FragVal ||
          M->FragIdx != I || M->FragLen != C.Size)
        return Err("UB: reading a torn value from memory");
    }
    if (First->FragKind != C.Kind)
      return Err("UB: type-confused load");
    return First->FragVal;
  }
  uint64_t Bits = 0;
  for (int64_t I = 0; I < C.Size; ++I) {
    const SMemVal *M = B.Bytes.lookup(O + I);
    if (!M)
      return Err("UB: read of uninitialised memory");
    if (M->K != SMemVal::Byte)
      return Err("UB: reading a torn value from memory");
    Bits |= static_cast<uint64_t>(M->B) << (8 * I);
  }
  switch (C.Kind) {
  case ChunkKind::Int:
    return Expr::intE(signExtend(Bits, C.Size));
  case ChunkKind::Float: {
    double D;
    std::memcpy(&D, &Bits, sizeof(double));
    return Expr::numE(D);
  }
  case ChunkKind::Ptr:
    return Err("UB: decoding raw bytes as a pointer");
  }
  return Err("bad chunk kind");
}

/// Writable-permission check over concrete byte range.
bool permOk(const SBlock &B, int64_t O, int64_t N, Perm Needed) {
  for (int64_t I = 0; I < N; ++I) {
    const uint8_t *P = B.PermOverrides.lookup(O + I);
    uint8_t Have = P ? *P : static_cast<uint8_t>(Perm::Writable);
    if (Have < static_cast<uint8_t>(Needed))
      return false;
  }
  return true;
}

constexpr int64_t MaxSymbolicOffsetBlock = 1 << 12;

/// The offset \p Off of an access through \p Ch into \p Blk when it is a
/// literal Int on which int64 arithmetic reproduces the simplifier's
/// folds of the side conditions: compare() compares Ints as doubles, so
/// the offset and both sizes (hence size - chunk size) must lie strictly
/// inside ±2^53. Nullopt sends the access down the symbolic path.
std::optional<int64_t> exactLiteralOffset(const Expr &Off, const Chunk &Ch,
                                          const SBlock &Blk) {
  if (!Off.isLit() || !Off.litValue().isInt())
    return std::nullopt;
  constexpr int64_t Exact = int64_t(1) << 53;
  auto exact = [](int64_t V) { return V > -Exact && V < Exact; };
  int64_t O = Off.litValue().asInt();
  if (!exact(O) || !exact(Ch.Size) || !exact(Blk.Size))
    return std::nullopt;
  return O;
}

/// Resolves the block expression to stored blocks through the shared
/// memlib alias loop (structural fast path on: blocks are distinct uSym
/// symbols in practice); calls Body(key, block, takenCond) per alias and
/// emits an unknown-block fault for the residual world.
template <typename Fn>
void forEachBlock(BranchCtx<McSMem> &C, const Expr &B, const char *What,
                  Fn Body) {
  memlib::resolveAliases(
      C, C.Self.blocks(), B, Expr::boolE(true),
      memlib::ResolveOpts{/*StructuralFastPath=*/true},
      [&](const Expr &Key, const std::shared_ptr<const SBlock> &Blk,
          const Expr &Taken, bool) { Body(Key, Blk, Taken); },
      [&](const Expr &Miss) {
        C.error(std::string("UB: ") + What + " on unallocated memory", Miss);
      });
}

} // namespace

Result<std::vector<SymActionBranch<McSMem>>>
McSMem::execAction(InternedString Act, const Expr &Arg,
                   const PathCondition &PC, Solver &S) const {
  obs::ActionCounters::bump("mc", Act);
  BranchCtx<McSMem> C(*this, PC, S);

  if (Act == actAlloc()) {
    Result<std::vector<Expr>> A = splitArgsE(Arg, 2);
    if (!A)
      return Err(A.error());
    const Expr &B = (*A)[0];
    Expr SizeE = simplify((*A)[1]);
    if (!B.isLit() || !B.litValue().isSym())
      return Err("alloc expects a fresh block symbol");
    if (!SizeE.isLit() || !SizeE.litValue().isInt())
      return Err(memlib::symbolicSizeError("alloc", SizeE));
    int64_t Size = SizeE.litValue().asInt();
    if (Size < 0) {
      C.error("UB: allocation of negative size");
      return C.Out;
    }
    McSMem Next = *this;
    SBlock Blk;
    Blk.Size = Size;
    Next.putBlock(B, std::move(Blk));
    C.ok(std::move(Next), Expr::list({B, Expr::intE(0)}));
    return C.Out;
  }

  if (Act == actFree()) {
    Result<std::vector<Expr>> A = splitArgsE(Arg, 1);
    if (!A)
      return Err(A.error());
    Expr P = simplify((*A)[0]);
    if (P == nullPtrE()) {
      C.ok(*this, Expr::boolE(true));
      return C.Out;
    }
    Result<std::pair<Expr, Expr>> BO = splitPtr(P);
    if (!BO) {
      C.error(BO.error());
      return C.Out;
    }
    forEachBlock(C, BO->first, "free", [&](const Expr &Key,
                                           const std::shared_ptr<const SBlock>
                                               &Blk,
                                           const Expr &Taken) {
      if (Blk->Freed) {
        C.error("UB: double free", Taken);
        return;
      }
      C.checkOrError(
          Expr::eq(BO->second, Expr::intE(0)), Taken,
          "UB: free of an interior pointer", [&](Expr Under) {
            McSMem Next = *this;
            SBlock NB = *Blk;
            NB.Freed = true;
            Next.putBlock(Key, std::move(NB));
            C.ok(std::move(Next), Expr::boolE(true), Under);
          });
    });
    return C.Out;
  }

  if (Act == actLoad() || Act == actStore()) {
    bool IsStore = Act == actStore();
    Result<std::vector<Expr>> A = splitArgsE(Arg, IsStore ? 4 : 3);
    if (!A)
      return Err(A.error());
    Result<Chunk> Ch = chunkFromExpr((*A)[0]);
    if (!Ch)
      return Err(Ch.error());
    const Expr &B = (*A)[1];
    Expr Off = simplify((*A)[2]);
    Expr StoredVal = IsStore ? (*A)[3] : Expr();
    const char *What = IsStore ? "store" : "load";

    forEachBlock(C, B, What, [&](const Expr &Key,
                                 const std::shared_ptr<const SBlock> &Blk,
                                 const Expr &Taken) {
      if (Blk->Freed) {
        C.error(std::string("UB: ") + What + " after free", Taken);
        return;
      }
      // The access at one concrete offset, once the side conditions hold:
      // one body for literal and symbolic offsets.
      auto AccessAt = [&](int64_t O, const Expr &Under) {
        if (!permOk(*Blk, O, Ch->Size,
                    IsStore ? Perm::Writable : Perm::Readable)) {
          C.error(std::string("UB: ") + What +
                      " without sufficient permission",
                  Under);
          return;
        }
        if (IsStore) {
          Result<std::vector<SMemVal>> Enc = encodeSymbolic(StoredVal, *Ch);
          if (!Enc) {
            C.error(Enc.error(), Under);
            return;
          }
          McSMem Next = *this;
          SBlock NB = *Blk;
          for (int64_t I = 0; I < Ch->Size; ++I)
            NB.Bytes.set(O + I, (*Enc)[static_cast<size_t>(I)]);
          Next.putBlock(Key, std::move(NB));
          C.ok(std::move(Next), StoredVal, Under);
        } else {
          Result<Expr> V = decodeSymbolic(*Blk, O, *Ch);
          if (!V) {
            C.error(V.error(), Under);
            return;
          }
          C.ok(*this, V.take(), Under);
        }
      };
      // A literal offset decides both side conditions on int64s, to the
      // verdicts simplify folds them to: the branches checkOrError emits,
      // in its order, under Taken (DESIGN.md §4j).
      if (std::optional<int64_t> O = exactLiteralOffset(Off, *Ch, *Blk)) {
        if (!rangeInBlock(*O, Ch->Size, Blk->Size))
          C.error(std::string("UB: out-of-bounds ") + What, Taken);
        else if (Ch->Align > 1 && *O % Ch->Align != 0)
          C.error(std::string("UB: unaligned ") + What, Taken);
        else
          AccessAt(*O, Taken);
        return;
      }
      // Bounds: 0 <= off && off <= size - sz (the SLoad side conditions,
      // with the subtraction on the two literal sizes: off + sz wraps for
      // an offset near INT64_MAX).
      Expr InBounds =
          Expr::andE(Expr::le(Expr::intE(0), Off),
                     Expr::le(Off, Expr::intE(Blk->Size - Ch->Size)));
      C.checkOrError(InBounds, Taken,
                     std::string("UB: out-of-bounds ") + What, [&](Expr U1) {
        // Alignment: off mod al == 0.
        Expr Aligned =
            Ch->Align <= 1
                ? Expr::boolE(true)
                : Expr::eq(Expr::binOp(BinOpKind::Mod, Off,
                                       Expr::intE(Ch->Align)),
                           Expr::intE(0));
        C.checkOrError(Aligned, U1,
                       std::string("UB: unaligned ") + What, [&](Expr U2) {
          // Concrete-offset fast path, or branch over candidates.
          Expr OffS = simplify(Off);
          if (OffS.isLit() && OffS.litValue().isInt()) {
            AccessAt(OffS.litValue().asInt(), U2);
            return;
          }
          if (Blk->Size > MaxSymbolicOffsetBlock) {
            C.error("engine limit: symbolic offset into a large block", U2);
            return;
          }
          int64_t Step = std::max<int64_t>(Ch->Align, 1);
          for (int64_t O = 0; O + Ch->Size <= Blk->Size; O += Step) {
            Expr Cond;
            Tri T = memlib::decide(Expr::eq(Off, Expr::intE(O)), PC, S, Cond);
            if (T == Tri::No)
              continue;
            AccessAt(O, T == Tri::Maybe ? simplify(Expr::andE(U2, Cond)) : U2);
          }
        });
      });
    });
    return C.Out;
  }

  if (Act == actMemcpy() || Act == actMemset() || Act == actDropPerm() ||
      Act == actBlockSize() || Act == actValidPtr()) {
    // Bulk/administrative operations require concrete offsets and lengths
    // (the library code always passes constants or loop counters, which
    // are concrete after unrolling).
    size_t N = Act == actMemcpy() ? 5 : (Act == actBlockSize() ? 1 : 4);
    if (Act == actValidPtr())
      N = 3;
    Result<std::vector<Expr>> A = splitArgsE(Arg, N);
    if (!A)
      return Err(A.error());
    std::vector<Value> Lits;
    for (Expr &E : *A) {
      Expr SE = simplify(E);
      if (!SE.isLit())
        return Err(std::string(Act.str()) +
                   " requires concrete arguments, got " + SE.toString());
      Lits.push_back(SE.litValue());
    }

    if (Act == actBlockSize()) {
      if (!Lits[0].isSym()) {
        C.error("UB: blockSize of a non-block");
        return C.Out;
      }
      const SBlock *Blk = findBlock(Expr::lit(Lits[0]));
      if (!Blk || Blk->Freed) {
        C.error("UB: blockSize of dead memory");
        return C.Out;
      }
      C.ok(*this, Expr::intE(Blk->Size));
      return C.Out;
    }
    if (Act == actValidPtr()) {
      const SBlock *Blk = Lits[0].isSym() ? findBlock(Expr::lit(Lits[0]))
                                          : nullptr;
      bool Valid = Blk && !Blk->Freed && Lits[1].isInt() &&
                   Lits[2].isInt() &&
                   rangeInBlock(Lits[1].asInt(), Lits[2].asInt(), Blk->Size);
      C.ok(*this, Expr::boolE(Valid));
      return C.Out;
    }
    if (Act == actMemset()) {
      if (!Lits[0].isSym() || !Lits[1].isInt() || !Lits[2].isInt() ||
          !Lits[3].isInt())
        return Err("memset expects [block, off, len, byte]");
      const SBlock *Blk = findBlock(Expr::lit(Lits[0]));
      if (!Blk || Blk->Freed) {
        C.error("UB: memset on dead memory");
        return C.Out;
      }
      int64_t O = Lits[1].asInt(), Len = Lits[2].asInt();
      if (!rangeInBlock(O, Len, Blk->Size)) {
        C.error("UB: out-of-bounds memset");
        return C.Out;
      }
      McSMem Next = *this;
      SBlock NB = *Blk;
      for (int64_t I = 0; I < Len; ++I) {
        SMemVal M;
        M.K = SMemVal::Byte;
        M.B = static_cast<uint8_t>(Lits[3].asInt() & 0xFF);
        NB.Bytes.set(O + I, M);
      }
      Next.putBlock(Expr::lit(Lits[0]), std::move(NB));
      C.ok(std::move(Next), Expr::boolE(true));
      return C.Out;
    }
    if (Act == actMemcpy()) {
      if (!Lits[0].isSym() || !Lits[2].isSym())
        return Err("memcpy expects block symbols");
      const SBlock *Dst = findBlock(Expr::lit(Lits[0]));
      const SBlock *Src = findBlock(Expr::lit(Lits[2]));
      if (!Dst || !Src || Dst->Freed || Src->Freed) {
        C.error("UB: memcpy on dead memory");
        return C.Out;
      }
      int64_t DO_ = Lits[1].asInt(), SO = Lits[3].asInt(),
              Len = Lits[4].asInt();
      if (!rangeInBlock(DO_, Len, Dst->Size) ||
          !rangeInBlock(SO, Len, Src->Size)) {
        C.error("UB: out-of-bounds memcpy");
        return C.Out;
      }
      McSMem Next = *this;
      SBlock NB = *Dst;
      for (int64_t I = 0; I < Len; ++I) {
        const SMemVal *M = Src->Bytes.lookup(SO + I);
        if (M)
          NB.Bytes.set(DO_ + I, *M);
        else
          NB.Bytes.erase(DO_ + I); // copy of uninitialised stays undef
      }
      Next.putBlock(Expr::lit(Lits[0]), std::move(NB));
      C.ok(std::move(Next), Expr::boolE(true));
      return C.Out;
    }
    // dropPerm
    if (!Lits[0].isSym() || !Lits[1].isInt() || !Lits[2].isInt() ||
        !Lits[3].isInt())
      return Err("dropPerm expects [block, off, len, perm]");
    const SBlock *Blk = findBlock(Expr::lit(Lits[0]));
    if (!Blk || Blk->Freed) {
      C.error("UB: dropPerm on dead memory");
      return C.Out;
    }
    int64_t O = Lits[1].asInt(), Len = Lits[2].asInt();
    if (!rangeInBlock(O, Len, Blk->Size)) {
      C.error("UB: dropPerm out of bounds");
      return C.Out;
    }
    McSMem Next = *this;
    SBlock NB = *Blk;
    for (int64_t I = 0; I < Len; ++I) {
      const uint8_t *Cur = NB.PermOverrides.lookup(O + I);
      uint8_t Have = Cur ? *Cur : static_cast<uint8_t>(Perm::Writable);
      NB.PermOverrides.set(
          O + I, std::min(Have, static_cast<uint8_t>(Lits[3].asInt())));
    }
    Next.putBlock(Expr::lit(Lits[0]), std::move(NB));
    C.ok(std::move(Next), Expr::boolE(true));
    return C.Out;
  }

  if (Act == actComparePtr()) {
    Result<std::vector<Expr>> A = splitArgsE(Arg, 3);
    if (!A)
      return Err(A.error());
    Expr OpE = simplify((*A)[0]);
    if (!OpE.isLit() || !OpE.litValue().isStr())
      return Err("comparePtr expects an operation name");
    std::string_view Op = OpE.litValue().asStr().str();
    Expr P1 = simplify((*A)[1]), P2 = simplify((*A)[2]);
    Result<std::pair<Expr, Expr>> B1 = splitPtr(P1), B2 = splitPtr(P2);
    if (!B1 || !B2) {
      C.error("UB: pointer comparison on non-pointers");
      return C.Out;
    }
    // Dangling-pointer comparison is UB (a §4.2 finding).
    Expr NullB = Expr::lit(Value::symV("$null"));
    for (const auto *BO : {&*B1, &*B2}) {
      if (BO->first.isLit() && !(BO->first == NullB)) {
        const SBlock *Blk = findBlock(BO->first);
        if (Blk && Blk->Freed) {
          C.error("UB: comparison of a freed pointer");
          return C.Out;
        }
      }
    }
    if (Op == "eq") {
      C.ok(*this, simplify(Expr::eq(P1, P2)));
      return C.Out;
    }
    // Relational: same live non-null block required.
    Expr SameBlock = Expr::eq(B1->first, B2->first);
    Expr NotNull = Expr::notE(Expr::eq(B1->first, NullB));
    C.checkOrError(simplify(Expr::andE(SameBlock, NotNull)),
                   Expr::boolE(true),
                   "UB: relational comparison of pointers into different "
                   "objects",
                   [&](Expr Under) {
                     BinOpKind K =
                         Op == "lt" ? BinOpKind::Lt : BinOpKind::Le;
                     C.ok(*this,
                          simplify(Expr::binOp(K, B1->second, B2->second)),
                          Under);
                   });
    return C.Out;
  }

  return Err("unknown MC action '" + std::string(Act.str()) + "'");
}

std::string McSMem::toString() const {
  return memlib::printEntries(
      Blocks, [](const Expr &B, const std::shared_ptr<const SBlock> &Blk) {
        return B.toString() + "[" + std::to_string(Blk->Size) +
               (Blk->Freed ? ", freed" : "") + "]";
      });
}

//===----------------------------------------------------------------------===//
// Memory interpretation I_C
//===----------------------------------------------------------------------===//

Result<McCMem> gillian::mc::interpretMemory(const Model &Eps,
                                            const McSMem &SMem) {
  McCMem Out;
  for (const auto &[BE, SBlk] : SMem.blocks()) {
    Result<Value> B = Eps.eval(BE);
    if (!B)
      return Err("interpretation failure on block " + BE.toString());
    if (!B->isSym())
      return Err("block interprets to a non-symbol");
    if (Out.findBlock(B->asSym()))
      return Err("blocks collapse under the model");
    CBlock CB;
    CB.Size = SBlk->Size;
    CB.Freed = SBlk->Freed;
    CB.Bytes.resize(static_cast<size_t>(SBlk->Size));
    CB.Perms.assign(static_cast<size_t>(SBlk->Size),
                    static_cast<uint8_t>(Perm::Writable));
    for (const auto &[O, P] : SBlk->PermOverrides)
      if (O >= 0 && O < CB.Size)
        CB.Perms[static_cast<size_t>(O)] = P;
    for (const auto &[O, M] : SBlk->Bytes) {
      if (O < 0 || O >= CB.Size)
        return Err("stored byte outside block bounds");
      CMemVal &CV = CB.Bytes[static_cast<size_t>(O)];
      if (M.K == SMemVal::Byte) {
        CV.K = CMemVal::Byte;
        CV.B = M.B;
        continue;
      }
      Result<Value> V = Eps.eval(M.FragVal);
      if (!V)
        return Err("interpretation failure on fragment " +
                   M.FragVal.toString());
      if (M.FragKind == ChunkKind::Ptr) {
        CV.K = CMemVal::Frag;
        CV.FragVal = *V;
        CV.FragKind = ChunkKind::Ptr;
        CV.FragIdx = M.FragIdx;
        CV.FragLen = M.FragLen;
        continue;
      }
      // Scalar fragments interpret to the *bytes* of the concrete value,
      // matching what a concrete store of that value writes.
      Chunk Ch{M.FragLen, 1, M.FragKind};
      Result<std::vector<CMemVal>> Enc = encodeConcrete(*V, Ch);
      if (!Enc)
        return Err("fragment does not encode concretely: " + Enc.error());
      CV = (*Enc)[M.FragIdx];
    }
    Out.putBlock(B->asSym(), std::move(CB));
  }
  return Out;
}
