//===- mc/compiler.cpp ----------------------------------------------------===//

#include "mc/compiler.h"

#include "mc/memory.h"
#include "mc/parser.h"

#include <array>
#include <charconv>
#include <iterator>
#include <limits>

using namespace gillian;
using namespace gillian::mc;

namespace {

/// Compiler-internal types: an MC value type, or the boolean of
/// comparisons/conditions (which never flows into memory).
struct CType {
  bool IsBool = false;
  bool IsRawNull = false; ///< the literal `null` (assignable to any ptr)
  McType T;

  static CType boolT() {
    CType C;
    C.IsBool = true;
    return C;
  }
  static CType of(McType T) {
    CType C;
    C.T = std::move(T);
    return C;
  }
  static CType nullT() {
    CType C;
    C.T = McType::pointer(McType::scalar(ScalarKind::I8));
    C.IsRawNull = true;
    return C;
  }

  bool isInt() const { return !IsBool && T.isInt(); }
  bool isFloat() const { return !IsBool && T.isFloat(); }
  bool isPtr() const { return !IsBool && T.isPtr(); }
};

/// Loose C-style compatibility for assignments and parameter passing.
bool compatible(const CType &Dst, const CType &Src) {
  if (Dst.IsBool || Src.IsBool)
    return Dst.IsBool && Src.IsBool;
  if (Dst.T.isPtr())
    return Src.T.isPtr(); // any pointer (incl. null) into any pointer
  if (Dst.T.isInt())
    return Src.T.isInt();
  if (Dst.T.isFloat())
    return Src.T.isFloat();
  return Dst.T == Src.T;
}

struct TypedExpr {
  Expr E;
  CType Ty;
};

class McCompiler {
public:
  Result<Prog> run(const CProgram &P) {
    for (const CStructDecl &S : P.Structs) {
      std::vector<std::pair<InternedString, McType>> Fields;
      for (const auto &[N, T] : S.Fields)
        Fields.emplace_back(InternedString::get(N), T);
      Result<bool> R = Layouts.add(InternedString::get(S.Name), Fields);
      if (!R)
        return Err(R.error());
    }
    Program = &P;
    Prog Out;
    for (const CFunc &F : P.Funcs) {
      Result<Proc> R = compileFunc(F);
      if (!R)
        return Err(R.error());
      Out.add(R.take());
    }
    return Out;
  }

private:
  LayoutTable Layouts;
  const CProgram *Program = nullptr;
  /// The body being emitted. Its capacity carries over from procedure to
  /// procedure; each Proc gets an exactly sized copy.
  std::vector<Cmd> Body;
  /// A variable in scope: its type and the one pvar node its uses share.
  struct Var {
    CType Ty;
    Expr Ref;
  };
  std::map<std::string, Var> Vars;
  const CFunc *CurFunc = nullptr;
  uint32_t NextSite = 0;
  uint32_t NextTemp = 0;

  // Literals that loads, stores, offsets and jumps repeat, built once per
  // compile: expressions are immutable, so the commands share the nodes.
  // Null is built at its first use, where it interns "$null": interned
  // ids feed value hashes, so the compiler keeps its interning order.
  const Expr True = Expr::boolE(true);
  std::array<Expr, 64> SmallInts; ///< 0..63, built on first use
  std::array<Expr, 5> ChunkLits;  ///< by ScalarKind, built on first use
  Expr Null;

  /// The address (the scalar kind that picks the chunk, block, offset,
  /// type) of a memory access.
  struct Address {
    ScalarKind Scalar;
    Expr Block, Offset;
    McType ValType;
  };

  InternedString freshTemp() {
    char Buf[16] = "_t";
    char *End = std::to_chars(Buf + 2, std::end(Buf), NextTemp++).ptr;
    return InternedString::get(std::string_view(Buf, End - Buf));
  }
  size_t pc() const { return Body.size(); }
  void emit(Cmd C) { Body.push_back(std::move(C)); }

  Expr intLit(int64_t V) {
    if (V < 0 || V >= static_cast<int64_t>(SmallInts.size()))
      return Expr::intE(V);
    Expr &E = SmallInts[V];
    if (!E)
      E = Expr::intE(V);
    return E;
  }

  const Expr &nullLit() {
    if (!Null)
      Null = nullPtrE();
    return Null;
  }

  const Expr &chunkLit(ScalarKind K) {
    Expr &E = ChunkLits[static_cast<size_t>(K)];
    if (!E)
      E = Expr::lit(chunkValue(Chunk::forScalar(K)));
    return E;
  }

  Expr ptrBlock(const Expr &P) {
    return Expr::binOp(BinOpKind::ListNth, P, intLit(0));
  }
  Expr ptrOffset(const Expr &P) {
    return Expr::binOp(BinOpKind::ListNth, P, intLit(1));
  }

  /// Brings \p Name into scope with type \p T; returns its pvar node.
  const Expr &declare(const std::string &Name, const McType &T) {
    Var &V = Vars[Name];
    V.Ty = CType::of(T);
    if (!V.Ref)
      V.Ref = Expr::pvar(Name);
    return V.Ref;
  }

  void emitFailUnless(Expr Cond, std::string_view Msg) {
    size_t Here = pc();
    emit(Cmd::ifGoto(std::move(Cond), Here + 2));
    emit(Cmd::fail(Expr::strE(Msg)));
  }

  //===--------------------------------------------------------------------===
  // Expressions
  //===--------------------------------------------------------------------===

  Result<TypedExpr> compileExpr(const CExprPtr &E) {
    switch (E->Kind) {
    case CExprKind::IntLit:
      return TypedExpr{intLit(E->IntVal),
                       CType::of(McType::scalar(ScalarKind::I64))};
    case CExprKind::FloatLit:
      return TypedExpr{Expr::numE(E->FloatVal),
                       CType::of(McType::scalar(ScalarKind::F64))};
    case CExprKind::Null:
      return TypedExpr{nullLit(), CType::nullT()};
    case CExprKind::Var: {
      auto It = Vars.find(E->Name);
      if (It == Vars.end())
        return Err("unknown variable '" + E->Name + "'");
      return TypedExpr{It->second.Ref, It->second.Ty};
    }
    case CExprKind::Unary:
      return compileUnary(*E);
    case CExprKind::Binary:
      return compileBinary(*E);
    case CExprKind::Field: {
      Result<Address> Addr = fieldAddress(*E);
      if (!Addr)
        return Err(Addr.error());
      return emitLoad(*Addr);
    }
    case CExprKind::Index: {
      Result<Address> Addr = indexAddress(*E);
      if (!Addr)
        return Err(Addr.error());
      return emitLoad(*Addr);
    }
    case CExprKind::Call:
      return compileCall(*E);
    case CExprKind::SizeOf: {
      Result<int64_t> Sz = Layouts.sizeOf(E->Type);
      if (!Sz)
        return Err(Sz.error());
      return TypedExpr{intLit(*Sz),
                       CType::of(McType::scalar(ScalarKind::I64))};
    }
    case CExprKind::Alloc:
      return compileAlloc(*E);
    }
    return Err("unknown MC expression kind");
  }

  Result<TypedExpr> compileUnary(const CExpr &E) {
    Result<TypedExpr> C = compileExpr(E.Lhs);
    if (!C)
      return C;
    if (E.UOp == CUnOp::Neg) {
      if (!C->Ty.isInt() && !C->Ty.isFloat())
        return Err("unary '-' requires a numeric operand");
      return TypedExpr{Expr::unOp(UnOpKind::Neg, C->E), C->Ty};
    }
    if (!C->Ty.IsBool)
      return Err("'!' requires a boolean operand");
    return TypedExpr{Expr::notE(C->E), CType::boolT()};
  }

  /// Pointer arithmetic p + i: [b, off + i * sizeof(pointee)].
  Result<TypedExpr> pointerArith(const TypedExpr &P, const TypedExpr &I,
                                 bool Subtract) {
    if (!P.Ty.T.pointee())
      return Err("pointer arithmetic on an untyped pointer");
    Result<int64_t> Sz = Layouts.sizeOf(*P.Ty.T.pointee());
    if (!Sz)
      return Err(Sz.error());
    Expr Delta = Expr::binOp(BinOpKind::Mul, I.E, intLit(*Sz));
    if (Subtract)
      Delta = Expr::unOp(UnOpKind::Neg, Delta);
    Expr NewOff = Expr::add(ptrOffset(P.E), Delta);
    return TypedExpr{Expr::list({ptrBlock(P.E), NewOff}), P.Ty};
  }

  Result<TypedExpr> compileBinary(const CExpr &E) {
    if (E.BOp == CBinOp::And || E.BOp == CBinOp::Or) {
      // Short-circuit (the rhs may dereference pointers the lhs guards).
      Result<TypedExpr> A = compileExpr(E.Lhs);
      if (!A)
        return A;
      if (!A->Ty.IsBool)
        return Err("'&&'/'||' require boolean operands");
      InternedString T = freshTemp();
      emit(Cmd::assign(T, A->E));
      Expr SkipIf = E.BOp == CBinOp::And ? Expr::notE(Expr::pvar(T))
                                         : Expr::pvar(T);
      size_t SkipIdx = pc();
      emit(Cmd::ifGoto(SkipIf, 0)); // patched
      Result<TypedExpr> B = compileExpr(E.Rhs);
      if (!B)
        return B;
      if (!B->Ty.IsBool)
        return Err("'&&'/'||' require boolean operands");
      emit(Cmd::assign(T, B->E));
      Body[SkipIdx].Target = pc();
      return TypedExpr{Expr::pvar(T), CType::boolT()};
    }

    Result<TypedExpr> A = compileExpr(E.Lhs);
    if (!A)
      return A;
    Result<TypedExpr> B = compileExpr(E.Rhs);
    if (!B)
      return B;

    switch (E.BOp) {
    case CBinOp::Add:
    case CBinOp::Sub: {
      if (A->Ty.isPtr() && B->Ty.isInt())
        return pointerArith(*A, *B, E.BOp == CBinOp::Sub);
      if (A->Ty.isInt() && B->Ty.isPtr() && E.BOp == CBinOp::Add)
        return pointerArith(*B, *A, false);
      [[fallthrough]];
    }
    case CBinOp::Mul:
    case CBinOp::Div:
    case CBinOp::Mod: {
      bool Ints = A->Ty.isInt() && B->Ty.isInt();
      bool Floats = A->Ty.isFloat() && B->Ty.isFloat();
      if (!Ints && !Floats)
        return Err("arithmetic requires two integers or two floats");
      BinOpKind Op = E.BOp == CBinOp::Add   ? BinOpKind::Add
                     : E.BOp == CBinOp::Sub ? BinOpKind::Sub
                     : E.BOp == CBinOp::Mul ? BinOpKind::Mul
                     : E.BOp == CBinOp::Div ? BinOpKind::Div
                                            : BinOpKind::Mod;
      if (Ints && (Op == BinOpKind::Div || Op == BinOpKind::Mod))
        emitFailUnless(Expr::notE(Expr::eq(B->E, intLit(0))),
                       "UB: integer division by zero");
      McType RT = Ints ? McType::scalar(ScalarKind::I64)
                       : McType::scalar(ScalarKind::F64);
      return TypedExpr{Expr::binOp(Op, A->E, B->E), CType::of(RT)};
    }
    case CBinOp::Eq:
    case CBinOp::Ne: {
      Expr R;
      if (A->Ty.isPtr() && B->Ty.isPtr()) {
        InternedString T = freshTemp();
        emit(Cmd::action(T, actComparePtr(),
                         Expr::list({Expr::strE("eq"), A->E, B->E})));
        R = Expr::pvar(T);
      } else if ((A->Ty.isInt() && B->Ty.isInt()) ||
                 (A->Ty.isFloat() && B->Ty.isFloat()) ||
                 (A->Ty.IsBool && B->Ty.IsBool)) {
        R = Expr::eq(A->E, B->E);
      } else {
        return Err("'=='/'!=' on incompatible types");
      }
      if (E.BOp == CBinOp::Ne)
        R = Expr::notE(R);
      return TypedExpr{R, CType::boolT()};
    }
    case CBinOp::Lt:
    case CBinOp::Le:
    case CBinOp::Gt:
    case CBinOp::Ge: {
      bool Swap = E.BOp == CBinOp::Gt || E.BOp == CBinOp::Ge;
      bool Strict = E.BOp == CBinOp::Lt || E.BOp == CBinOp::Gt;
      const TypedExpr &L = Swap ? *B : *A;
      const TypedExpr &Rr = Swap ? *A : *B;
      if (L.Ty.isPtr() && Rr.Ty.isPtr()) {
        // Relational pointer comparison: UB across objects — routed
        // through the comparePtr action, which enforces it.
        InternedString T = freshTemp();
        emit(Cmd::action(T, actComparePtr(),
                         Expr::list({Expr::strE(Strict ? "lt" : "le"), L.E,
                                     Rr.E})));
        return TypedExpr{Expr::pvar(T), CType::boolT()};
      }
      if (!((L.Ty.isInt() && Rr.Ty.isInt()) ||
            (L.Ty.isFloat() && Rr.Ty.isFloat())))
        return Err("comparison on incompatible types");
      return TypedExpr{Expr::binOp(Strict ? BinOpKind::Lt : BinOpKind::Le,
                                   L.E, Rr.E),
                       CType::boolT()};
    }
    default:
      return Err("unhandled binary operator");
    }
  }

  Result<Address> fieldAddress(const CExpr &E) {
    Result<TypedExpr> Base = compileExpr(E.Lhs);
    if (!Base)
      return Err(Base.error());
    if (!Base->Ty.isPtr() || !Base->Ty.T.pointee() ||
        !Base->Ty.T.pointee()->isStruct())
      return Err("'->' requires a pointer to a struct");
    const StructLayout *L =
        Layouts.find(Base->Ty.T.pointee()->structName());
    if (!L)
      return Err("unknown struct");
    const FieldLayout *F = L->field(InternedString::get(E.Name));
    if (!F)
      return Err("struct " + std::string(L->Name.str()) +
                 " has no field '" + E.Name + "'");
    if (F->Type.isStruct())
      return Err("aggregate field access requires a pointer; use '+'");
    Address A;
    A.Scalar = F->Type.scalarKind();
    A.Block = ptrBlock(Base->E);
    A.Offset = Expr::add(ptrOffset(Base->E), intLit(F->Offset));
    A.ValType = F->Type;
    return A;
  }

  Result<Address> indexAddress(const CExpr &E) {
    Result<TypedExpr> Base = compileExpr(E.Lhs);
    if (!Base)
      return Err(Base.error());
    Result<TypedExpr> Idx = compileExpr(E.Rhs);
    if (!Idx)
      return Err(Idx.error());
    if (!Base->Ty.isPtr() || !Base->Ty.T.pointee())
      return Err("indexing requires a typed pointer");
    if (!Idx->Ty.isInt())
      return Err("index must be an integer");
    const McType &Elem = *Base->Ty.T.pointee();
    if (Elem.isStruct())
      return Err("indexing a struct pointer loads an aggregate; index a "
                 "scalar pointer or use (p + i)->field");
    Result<int64_t> Sz = Layouts.sizeOf(Elem);
    if (!Sz)
      return Err(Sz.error());
    Address A;
    A.Scalar = Elem.scalarKind();
    A.Block = ptrBlock(Base->E);
    A.Offset = Expr::add(ptrOffset(Base->E),
                         Expr::binOp(BinOpKind::Mul, Idx->E,
                                     intLit(*Sz)));
    A.ValType = Elem;
    return A;
  }

  Result<TypedExpr> emitLoad(const Address &A) {
    InternedString T = freshTemp();
    emit(Cmd::action(T, actLoad(),
                     Expr::list({chunkLit(A.Scalar), A.Block,
                                 A.Offset})));
    return TypedExpr{Expr::pvar(T), CType::of(A.ValType)};
  }

  void emitStore(const Address &A, const Expr &V) {
    emit(Cmd::action(freshTemp(), actStore(),
                     Expr::list({chunkLit(A.Scalar), A.Block,
                                 A.Offset, V})));
  }

  Result<TypedExpr> compileAlloc(const CExpr &E) {
    Result<TypedExpr> Count = compileExpr(E.Lhs);
    if (!Count)
      return Count;
    if (!Count->Ty.isInt())
      return Err("alloc count must be an integer");
    Result<int64_t> Sz = Layouts.sizeOf(E.Type);
    if (!Sz)
      return Err(Sz.error());
    InternedString B = freshTemp();
    emit(Cmd::uSym(B, NextSite++));
    InternedString T = freshTemp();
    emit(Cmd::action(
        T, actAlloc(),
        Expr::list({Expr::pvar(B),
                    Expr::binOp(BinOpKind::Mul, Count->E,
                                intLit(*Sz))})));
    return TypedExpr{Expr::pvar(T), CType::of(McType::pointer(E.Type))};
  }

  Result<TypedExpr> compileCall(const CExpr &E) {
    const std::string &F = E.Name;

    // Casts.
    if (F == "i64" || F == "i32" || F == "i8" || F == "f64") {
      if (E.Args.size() != 1)
        return Err(F + "() cast takes one argument");
      Result<TypedExpr> A = compileExpr(E.Args[0]);
      if (!A)
        return A;
      if (F == "f64") {
        if (A->Ty.isFloat())
          return TypedExpr{A->E, A->Ty};
        if (!A->Ty.isInt())
          return Err("f64() requires a numeric argument");
        return TypedExpr{Expr::unOp(UnOpKind::ToNum, A->E),
                         CType::of(McType::scalar(ScalarKind::F64))};
      }
      Expr V = A->E;
      if (A->Ty.isFloat()) {
        emitFailUnless(
            Expr::andE(Expr::notE(Expr::eq(
                           V, Expr::numE(
                                  std::numeric_limits<double>::infinity()))),
                       Expr::andE(
                           Expr::notE(Expr::eq(
                               V,
                               Expr::numE(-std::numeric_limits<
                                          double>::infinity()))),
                           Expr::notE(Expr::eq(
                               V, Expr::numE(std::numeric_limits<
                                             double>::quiet_NaN()))))),
            "UB: float-to-integer cast of a non-finite value");
        V = Expr::unOp(UnOpKind::ToInt, V);
      } else if (!A->Ty.isInt()) {
        return Err(F + "() requires a numeric argument");
      }
      int64_t Bits = F == "i64" ? 64 : (F == "i32" ? 32 : 8);
      if (Bits < 64)
        V = Expr::binOp(BinOpKind::Shr,
                        Expr::binOp(BinOpKind::Shl, V,
                                    intLit(64 - Bits)),
                        intLit(64 - Bits));
      ScalarKind K = F == "i64" ? ScalarKind::I64
                                : (F == "i32" ? ScalarKind::I32
                                              : ScalarKind::I8);
      return TypedExpr{V, CType::of(McType::scalar(K))};
    }

    // Memory builtins.
    if (F == "allocsize") {
      // Introspection: the byte size of the block a pointer points into
      // (the blockSize action). Used by capacity-audit assertions.
      if (E.Args.size() != 1)
        return Err("allocsize() takes one argument");
      Result<TypedExpr> P = compileExpr(E.Args[0]);
      if (!P)
        return P;
      if (!P->Ty.isPtr())
        return Err("allocsize() requires a pointer");
      InternedString T = freshTemp();
      emit(Cmd::action(T, actBlockSize(), Expr::list({ptrBlock(P->E)})));
      return TypedExpr{Expr::pvar(T),
                       CType::of(McType::scalar(ScalarKind::I64))};
    }
    if (F == "free") {
      if (E.Args.size() != 1)
        return Err("free() takes one argument");
      Result<TypedExpr> P = compileExpr(E.Args[0]);
      if (!P)
        return P;
      if (!P->Ty.isPtr())
        return Err("free() requires a pointer");
      InternedString T = freshTemp();
      emit(Cmd::action(T, actFree(), Expr::list({P->E})));
      return TypedExpr{intLit(0), CType::of(McType::scalar(ScalarKind::I64))};
    }
    if (F == "memcpy" || F == "memset") {
      bool Cpy = F == "memcpy";
      if (E.Args.size() != 3)
        return Err(F + "() takes three arguments");
      Result<TypedExpr> A0 = compileExpr(E.Args[0]);
      Result<TypedExpr> A1 = compileExpr(E.Args[1]);
      Result<TypedExpr> A2 = compileExpr(E.Args[2]);
      if (!A0 || !A1 || !A2)
        return Err(!A0 ? A0.error() : (!A1 ? A1.error() : A2.error()));
      if (!A0->Ty.isPtr())
        return Err(F + "() requires a destination pointer");
      InternedString T = freshTemp();
      if (Cpy) {
        if (!A1->Ty.isPtr() || !A2->Ty.isInt())
          return Err("memcpy(dst, src, bytes)");
        emit(Cmd::action(T, actMemcpy(),
                         Expr::list({ptrBlock(A0->E), ptrOffset(A0->E),
                                     ptrBlock(A1->E), ptrOffset(A1->E),
                                     A2->E})));
      } else {
        if (!A1->Ty.isInt() || !A2->Ty.isInt())
          return Err("memset(p, byte, bytes)");
        emit(Cmd::action(T, actMemset(),
                         Expr::list({ptrBlock(A0->E), ptrOffset(A0->E),
                                     A2->E, A1->E})));
      }
      return TypedExpr{intLit(0), CType::of(McType::scalar(ScalarKind::I64))};
    }

    // Symbolic inputs.
    if (F == "symb_i64" || F == "symb_f64") {
      InternedString T = freshTemp();
      emit(Cmd::iSym(T, NextSite++));
      GilType GT = F == "symb_i64" ? GilType::Int : GilType::Num;
      size_t Here = pc();
      emit(Cmd::ifGoto(Expr::hasType(Expr::pvar(T), GT), Here + 2));
      emit(Cmd::vanish());
      return TypedExpr{
          Expr::pvar(T),
          CType::of(McType::scalar(F == "symb_i64" ? ScalarKind::I64
                                                   : ScalarKind::F64))};
    }

    // User functions.
    const CFunc *Callee = Program->find(F);
    if (!Callee)
      return Err("call to unknown function '" + F + "'");
    if (Callee->Params.size() != E.Args.size())
      return Err("'" + F + "' expects " +
                 std::to_string(Callee->Params.size()) + " arguments");
    std::vector<Expr> Args;
    for (size_t I = 0; I != E.Args.size(); ++I) {
      Result<TypedExpr> A = compileExpr(E.Args[I]);
      if (!A)
        return A;
      if (!compatible(CType::of(Callee->Params[I].second), A->Ty))
        return Err("'" + F + "' argument " + std::to_string(I + 1) +
                   " type mismatch");
      Args.push_back(A->E);
    }
    InternedString T = freshTemp();
    emit(Cmd::call(T, Expr::strE(F), Expr::list(std::move(Args))));
    return TypedExpr{Expr::pvar(T), CType::of(Callee->RetType)};
  }

  //===--------------------------------------------------------------------===
  // Statements
  //===--------------------------------------------------------------------===

  Result<bool> compileBlock(const std::vector<CStmt> &Stmts) {
    for (const CStmt &S : Stmts) {
      Result<bool> R = compileStmt(S);
      if (!R)
        return R;
    }
    return true;
  }

  /// Conditions in MC are booleans; integer literals 0/1 also accepted
  /// for `for(;;)`.
  Result<Expr> compileCond(const CExprPtr &E) {
    Result<TypedExpr> C = compileExpr(E);
    if (!C)
      return Err(C.error());
    if (C->Ty.IsBool)
      return C->E;
    if (C->Ty.isInt() && C->E.isLit())
      return Expr::boolE(C->E.litValue().asInt() != 0);
    return Err("condition must be a boolean expression");
  }

  Result<bool> compileStmt(const CStmt &S) {
    switch (S.Kind) {
    case CStmtKind::VarDecl: {
      Result<TypedExpr> E = compileExpr(S.E);
      if (!E)
        return Err(E.error());
      if (!compatible(CType::of(S.DeclType), E->Ty))
        return Err("initialiser type mismatch for '" + S.Name + "'");
      emit(Cmd::assign(declare(S.Name, S.DeclType).varName(), E->E));
      return true;
    }
    case CStmtKind::Assign: {
      auto It = Vars.find(S.Name);
      if (It == Vars.end())
        return Err("assignment to undeclared variable '" + S.Name + "'");
      Result<TypedExpr> E = compileExpr(S.E);
      if (!E)
        return Err(E.error());
      if (!compatible(It->second.Ty, E->Ty))
        return Err("assignment type mismatch for '" + S.Name + "'");
      emit(Cmd::assign(It->second.Ref.varName(), E->E));
      return true;
    }
    case CStmtKind::FieldSet:
    case CStmtKind::IndexSet: {
      CExpr Shim;
      Shim.Kind = S.Kind == CStmtKind::FieldSet ? CExprKind::Field
                                                : CExprKind::Index;
      Shim.Lhs = S.Base;
      Shim.Name = S.Name;
      Shim.Rhs = S.Idx;
      Result<Address> A = S.Kind == CStmtKind::FieldSet
                              ? fieldAddress(Shim)
                              : indexAddress(Shim);
      if (!A)
        return Err(A.error());
      Result<TypedExpr> V = compileExpr(S.E);
      if (!V)
        return Err(V.error());
      if (!compatible(CType::of(A->ValType), V->Ty))
        return Err("stored value type mismatch");
      emitStore(*A, V->E);
      return true;
    }
    case CStmtKind::ExprStmt: {
      Result<TypedExpr> E = compileExpr(S.E);
      if (!E)
        return Err(E.error());
      emit(Cmd::assign(freshTemp(), E->E));
      return true;
    }
    case CStmtKind::Return: {
      Result<TypedExpr> E = compileExpr(S.E);
      if (!E)
        return Err(E.error());
      emit(Cmd::ret(E->E));
      return true;
    }
    case CStmtKind::Assume: {
      Result<Expr> C = compileCond(S.E);
      if (!C)
        return Err(C.error());
      size_t Here = pc();
      emit(Cmd::ifGoto(*C, Here + 2));
      emit(Cmd::vanish());
      return true;
    }
    case CStmtKind::Assert: {
      Result<Expr> C = compileCond(S.E);
      if (!C)
        return Err(C.error());
      size_t Here = pc();
      emit(Cmd::ifGoto(*C, Here + 2));
      emit(Cmd::fail(Expr::strE("assertion failure")));
      return true;
    }
    case CStmtKind::If: {
      Result<Expr> C = compileCond(S.E);
      if (!C)
        return Err(C.error());
      size_t CondIdx = pc();
      emit(Cmd::ifGoto(*C, 0)); // patched: THEN
      Result<bool> E1 = compileBlock(S.Else);
      if (!E1)
        return E1;
      size_t GotoEnd = pc();
      emit(Cmd::ifGoto(True, 0)); // patched: END
      Body[CondIdx].Target = pc();
      Result<bool> T1 = compileBlock(S.Then);
      if (!T1)
        return T1;
      Body[GotoEnd].Target = pc();
      return true;
    }
    case CStmtKind::While:
    case CStmtKind::For: {
      if (S.Kind == CStmtKind::For) {
        Result<bool> I = compileBlock(S.Init);
        if (!I)
          return I;
      }
      size_t Loop = pc();
      Result<Expr> C = compileCond(S.E);
      if (!C)
        return Err(C.error());
      size_t CondIdx = pc();
      emit(Cmd::ifGoto(*C, CondIdx + 2));
      size_t GotoEnd = pc();
      emit(Cmd::ifGoto(True, 0)); // patched: END
      Result<bool> B = compileBlock(S.Then);
      if (!B)
        return B;
      if (S.Kind == CStmtKind::For) {
        Result<bool> St = compileBlock(S.Step);
        if (!St)
          return St;
      }
      emit(Cmd::ifGoto(True, Loop));
      Body[GotoEnd].Target = pc();
      return true;
    }
    }
    return Err("unknown MC statement kind");
  }

  Result<Proc> compileFunc(const CFunc &F) {
    Body.clear();
    Vars.clear();
    CurFunc = &F;
    Proc P;
    P.Name = InternedString::get(F.Name);
    P.Param = InternedString::get("_args");
    Expr Args = Expr::pvar(P.Param);
    for (size_t K = 0; K != F.Params.size(); ++K) {
      const auto &[Name, Type] = F.Params[K];
      emit(Cmd::assign(declare(Name, Type).varName(),
                       Expr::binOp(BinOpKind::ListNth, Args,
                                   intLit(static_cast<int64_t>(K)))));
    }
    Result<bool> R = compileBlock(F.Body);
    if (!R)
      return Err("in fn " + F.Name + ": " + R.error());
    // Implicit return of a zero value of the return type.
    if (F.RetType.isPtr())
      emit(Cmd::ret(nullLit()));
    else if (F.RetType.isFloat())
      emit(Cmd::ret(Expr::numE(0)));
    else
      emit(Cmd::ret(intLit(0)));
    P.Body.assign(std::make_move_iterator(Body.begin()),
                  std::make_move_iterator(Body.end()));
    Body.clear();
    return P;
  }
};

} // namespace

Result<Prog> gillian::mc::compileMc(const CProgram &P) {
  return McCompiler().run(P);
}

Result<Prog> gillian::mc::compileMcSource(std::string_view Source) {
  Result<CProgram> P = parseMc(Source);
  if (!P)
    return Err("MC parse error: " + P.error());
  return compileMc(*P);
}
