//===- mjs/compiler.cpp ---------------------------------------------------===//

#include "mjs/compiler.h"

#include "mjs/memory.h"
#include "mjs/parser.h"
#include "mjs/runtime.h"

#include <charconv>
#include <iterator>

using namespace gillian;
using namespace gillian::mjs;

namespace {

class MjsCompiler {
public:
  Result<Prog> run(const JsProgram &P) {
    Prog Out;
    for (const JsFunc &F : P.Funcs) {
      Result<Proc> R = compileFunc(F);
      if (!R)
        return Err(R.error());
      Out.add(R.take());
    }
    linkRuntime(Out);
    return Out;
  }

private:
  uint32_t NextSite = 0;
  uint32_t NextTemp = 0;
  /// The body being emitted. Its capacity carries over from procedure to
  /// procedure; each Proc gets an exactly sized copy.
  std::vector<Cmd> Body;

  // Literals that every jump and type guard repeats, built once per
  // compile: expressions are immutable, so the commands share the nodes.
  const Expr True = Expr::boolE(true);
  const Expr NumType = Expr::lit(Value::typeV(GilType::Num));
  const Expr StrType = Expr::lit(Value::typeV(GilType::Str));

  InternedString freshTemp() {
    char Buf[16] = "_t";
    char *End = std::to_chars(Buf + 2, std::end(Buf), NextTemp++).ptr;
    return InternedString::get(std::string_view(Buf, End - Buf));
  }
  size_t pc() const { return Body.size(); }
  void emit(Cmd C) { Body.push_back(std::move(C)); }

  /// fail "TypeError..." unless Cond holds.
  void emitGuard(Expr Cond, std::string_view Msg) {
    size_t Here = pc();
    emit(Cmd::ifGoto(std::move(Cond), Here + 2));
    emit(Cmd::fail(Expr::strE(Msg)));
  }

  Expr numGuarded(const Expr &E) {
    return Expr::eq(Expr::typeOf(E), NumType);
  }

  /// t := __mjs_truthy(e)  — returns pvar t (a GIL Bool).
  Expr emitTruthy(const Expr &E) {
    InternedString T = freshTemp();
    emit(Cmd::call(T, Expr::strE("__mjs_truthy"), E));
    return Expr::pvar(T);
  }

  //===--------------------------------------------------------------------===
  // Expressions (ANF)
  //===--------------------------------------------------------------------===

  Result<Expr> compileExpr(const JsExprPtr &E) {
    switch (E->Kind) {
    case JsExprKind::Num:
      return Expr::numE(E->NumVal);
    case JsExprKind::Str:
      return Expr::strE(E->StrVal);
    case JsExprKind::Bool:
      return Expr::boolE(E->BoolVal);
    case JsExprKind::Undefined:
      return Expr::lit(jsUndefined());
    case JsExprKind::Null:
      return Expr::lit(jsNull());
    case JsExprKind::Var:
      return Expr::pvar(E->StrVal);
    case JsExprKind::Unary:
      return compileUnary(*E);
    case JsExprKind::Binary:
      return compileBinary(*E);
    case JsExprKind::Member:
      return compileMemberGet(*E);
    case JsExprKind::Call:
      return compileCall(*E);
    case JsExprKind::Object:
      return compileObjectLiteral(*E);
    case JsExprKind::Array:
      return compileArrayLiteral(*E);
    }
    return Err("unknown MJS expression kind");
  }

  Result<Expr> compileUnary(const JsExpr &E) {
    Result<Expr> C = compileExpr(E.Lhs);
    if (!C)
      return C;
    switch (E.UOp) {
    case JsUnOp::Not:
      return Expr::notE(emitTruthy(*C));
    case JsUnOp::Neg:
      emitGuard(numGuarded(*C), "TypeError: unary - requires a number");
      return Expr::unOp(UnOpKind::Neg, *C);
    case JsUnOp::TypeOf: {
      InternedString T = freshTemp();
      emit(Cmd::call(T, Expr::strE("__mjs_typeof"), *C));
      return Expr::pvar(T);
    }
    }
    return Err("unknown unary operator");
  }

  Result<Expr> compileBinary(const JsExpr &E) {
    // Short-circuit operators first: the right operand's side effects run
    // conditionally, and JS returns the *operand value*, not a Bool.
    if (E.BOp == JsBinOp::And || E.BOp == JsBinOp::Or) {
      Result<Expr> A = compileExpr(E.Lhs);
      if (!A)
        return A;
      InternedString T = freshTemp();
      emit(Cmd::assign(T, *A));
      Expr Cond = emitTruthy(Expr::pvar(T));
      // And: skip the rhs when falsy; Or: skip when truthy.
      Expr SkipIf = E.BOp == JsBinOp::And ? Expr::notE(Cond) : Cond;
      size_t SkipIdx = pc();
      emit(Cmd::ifGoto(SkipIf, 0)); // patched below
      Result<Expr> B = compileExpr(E.Rhs);
      if (!B)
        return B;
      emit(Cmd::assign(T, *B));
      Body[SkipIdx].Target = pc();
      return Expr::pvar(T);
    }

    Result<Expr> A = compileExpr(E.Lhs);
    if (!A)
      return A;
    Result<Expr> B = compileExpr(E.Rhs);
    if (!B)
      return B;

    switch (E.BOp) {
    case JsBinOp::Add: {
      InternedString T = freshTemp();
      emit(Cmd::call(T, Expr::strE("__mjs_add"), Expr::list({*A, *B})));
      return Expr::pvar(T);
    }
    case JsBinOp::Sub:
    case JsBinOp::Mul:
    case JsBinOp::Div:
    case JsBinOp::Mod: {
      emitGuard(Expr::andE(numGuarded(*A), numGuarded(*B)),
                "TypeError: arithmetic requires numbers");
      BinOpKind Op = E.BOp == JsBinOp::Sub   ? BinOpKind::Sub
                     : E.BOp == JsBinOp::Mul ? BinOpKind::Mul
                     : E.BOp == JsBinOp::Div ? BinOpKind::Div
                                             : BinOpKind::Mod;
      // Num arithmetic is IEEE-total (x/0 is Infinity), no zero guard.
      return Expr::binOp(Op, *A, *B);
    }
    case JsBinOp::Eq:
      return Expr::eq(*A, *B);
    case JsBinOp::Ne:
      return Expr::notE(Expr::eq(*A, *B));
    case JsBinOp::Lt:
    case JsBinOp::Le:
    case JsBinOp::Gt:
    case JsBinOp::Ge: {
      emitGuard(Expr::orE(Expr::andE(numGuarded(*A), numGuarded(*B)),
                          Expr::andE(Expr::eq(Expr::typeOf(*A), StrType),
                                     Expr::eq(Expr::typeOf(*B), StrType))),
                "TypeError: comparison requires two numbers or two strings");
      bool Swap = E.BOp == JsBinOp::Gt || E.BOp == JsBinOp::Ge;
      BinOpKind Op = (E.BOp == JsBinOp::Lt || E.BOp == JsBinOp::Gt)
                         ? BinOpKind::Lt
                         : BinOpKind::Le;
      return Swap ? Expr::binOp(Op, *B, *A) : Expr::binOp(Op, *A, *B);
    }
    default:
      return Err("unhandled binary operator");
    }
  }

  /// Property name: static string or runtime-converted computed key.
  Result<Expr> compilePropName(const JsExpr &Member) {
    if (!Member.Rhs)
      return Expr::strE(Member.StrVal);
    Result<Expr> I = compileExpr(Member.Rhs);
    if (!I)
      return I;
    // Fast path: a literal key converts at compile time.
    if (I->isLit() && I->litValue().isStr())
      return *I;
    if (I->isLit() && I->litValue().isNum()) {
      Result<Value> S = evalUnOp(UnOpKind::NumToStr, I->litValue());
      if (S)
        return Expr::lit(S.take());
    }
    InternedString T = freshTemp();
    emit(Cmd::call(T, Expr::strE("__mjs_topropname"), *I));
    return Expr::pvar(T);
  }

  Result<Expr> compileMemberGet(const JsExpr &E) {
    Result<Expr> Base = compileExpr(E.Lhs);
    if (!Base)
      return Base;
    Result<Expr> P = compilePropName(E);
    if (!P)
      return P;
    InternedString T = freshTemp();
    emit(Cmd::action(T, actGetProp(), Expr::list({*Base, *P})));
    return Expr::pvar(T);
  }

  Result<Expr> compileCall(const JsExpr &E) {
    // Symbolic-input intrinsics are also usable in expression position.
    if (E.Callee == "symb_number" || E.Callee == "symb_string" ||
        E.Callee == "symb_bool" || E.Callee == "symb_any") {
      InternedString T = freshTemp();
      emitSymbInput(T, E.Callee.substr(5));
      return Expr::pvar(T);
    }
    std::vector<Expr> Args;
    for (const JsExprPtr &A : E.Args) {
      Result<Expr> R = compileExpr(A);
      if (!R)
        return R;
      Args.push_back(R.take());
    }
    InternedString T = freshTemp();
    emit(Cmd::call(T, Expr::strE(E.Callee), Expr::list(std::move(Args))));
    return Expr::pvar(T);
  }

  Result<Expr> compileObjectLiteral(const JsExpr &E) {
    InternedString L = freshTemp();
    emit(Cmd::uSym(L, NextSite++));
    emit(Cmd::action(freshTemp(), actNewObj(),
                     Expr::list({Expr::pvar(L), Expr::strE("Object")})));
    for (const auto &[P, V] : E.Props) {
      Result<Expr> R = compileExpr(V);
      if (!R)
        return R;
      emit(Cmd::action(freshTemp(), actSetProp(),
                       Expr::list({Expr::pvar(L), Expr::strE(P), *R})));
    }
    return Expr::pvar(L);
  }

  Result<Expr> compileArrayLiteral(const JsExpr &E) {
    InternedString L = freshTemp();
    emit(Cmd::uSym(L, NextSite++));
    emit(Cmd::action(freshTemp(), actNewObj(),
                     Expr::list({Expr::pvar(L), Expr::strE("Array")})));
    for (size_t I = 0; I != E.Args.size(); ++I) {
      Result<Expr> R = compileExpr(E.Args[I]);
      if (!R)
        return R;
      emit(Cmd::action(freshTemp(), actSetProp(),
                       Expr::list({Expr::pvar(L),
                                   Expr::strE(std::to_string(I)), *R})));
    }
    emit(Cmd::action(freshTemp(), actSetProp(),
                     Expr::list({Expr::pvar(L), Expr::strE("length"),
                                 Expr::numE(static_cast<double>(
                                     E.Args.size()))})));
    return Expr::pvar(L);
  }

  //===--------------------------------------------------------------------===
  // Statements
  //===--------------------------------------------------------------------===

  void emitSymbInput(InternedString X, const std::string &Kind) {
    emit(Cmd::iSym(X, NextSite++));
    std::optional<GilType> T;
    if (Kind == "number")
      T = GilType::Num;
    else if (Kind == "string")
      T = GilType::Str;
    else if (Kind == "bool")
      T = GilType::Bool;
    if (T) {
      size_t Here = pc();
      emit(Cmd::ifGoto(Expr::hasType(Expr::pvar(X), *T), Here + 2));
      emit(Cmd::vanish());
    }
  }

  Result<bool> compileBlock(const std::vector<JsStmt> &Stmts) {
    for (const JsStmt &S : Stmts) {
      Result<bool> R = compileStmt(S);
      if (!R)
        return R;
    }
    return true;
  }

  Result<bool> compileStmt(const JsStmt &S) {
    switch (S.Kind) {
    case JsStmtKind::VarDecl:
    case JsStmtKind::Assign: {
      Result<Expr> E = compileExpr(S.E);
      if (!E)
        return Err(E.error());
      emit(Cmd::assign(InternedString::get(S.Name), *E));
      return true;
    }

    case JsStmtKind::SymbInput:
      emitSymbInput(InternedString::get(S.Name), S.SymbKind);
      return true;

    case JsStmtKind::MemberSet: {
      Result<Expr> Base = compileExpr(S.Obj);
      if (!Base)
        return Err(Base.error());
      JsExpr MemberShim;
      MemberShim.Kind = JsExprKind::Member;
      MemberShim.StrVal = S.Name;
      MemberShim.Rhs = S.Idx;
      Result<Expr> P = compilePropName(MemberShim);
      if (!P)
        return Err(P.error());
      Result<Expr> V = compileExpr(S.Val);
      if (!V)
        return Err(V.error());
      emit(Cmd::action(freshTemp(), actSetProp(),
                       Expr::list({*Base, *P, *V})));
      return true;
    }

    case JsStmtKind::Delete: {
      Result<Expr> Base = compileExpr(S.Obj);
      if (!Base)
        return Err(Base.error());
      JsExpr MemberShim;
      MemberShim.Kind = JsExprKind::Member;
      MemberShim.StrVal = S.Name;
      MemberShim.Rhs = S.Idx;
      Result<Expr> P = compilePropName(MemberShim);
      if (!P)
        return Err(P.error());
      emit(Cmd::action(freshTemp(), actDelProp(), Expr::list({*Base, *P})));
      return true;
    }

    case JsStmtKind::ExprStmt: {
      Result<Expr> E = compileExpr(S.E);
      if (!E)
        return Err(E.error());
      // Side effects already emitted; discard the value via a dead temp.
      emit(Cmd::assign(freshTemp(), *E));
      return true;
    }

    case JsStmtKind::Return: {
      Result<Expr> E = compileExpr(S.E);
      if (!E)
        return Err(E.error());
      emit(Cmd::ret(*E));
      return true;
    }

    case JsStmtKind::Assume: {
      Result<Expr> E = compileExpr(S.E);
      if (!E)
        return Err(E.error());
      Expr C = emitTruthy(*E);
      size_t Here = pc();
      emit(Cmd::ifGoto(C, Here + 2));
      emit(Cmd::vanish());
      return true;
    }

    case JsStmtKind::Assert: {
      Result<Expr> E = compileExpr(S.E);
      if (!E)
        return Err(E.error());
      Expr C = emitTruthy(*E);
      size_t Here = pc();
      emit(Cmd::ifGoto(C, Here + 2));
      emit(Cmd::fail(Expr::strE("assertion failure")));
      return true;
    }

    case JsStmtKind::If: {
      Result<Expr> E = compileExpr(S.E);
      if (!E)
        return Err(E.error());
      Expr C = emitTruthy(*E);
      size_t CondIdx = pc();
      emit(Cmd::ifGoto(C, 0)); // patched: THEN
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

    case JsStmtKind::While:
    case JsStmtKind::For: {
      if (S.Kind == JsStmtKind::For) {
        Result<bool> I = compileBlock(S.Init);
        if (!I)
          return I;
      }
      // Loop head re-evaluates the condition (and its truthy call).
      size_t Loop = pc();
      Result<Expr> E = compileExpr(S.E);
      if (!E)
        return Err(E.error());
      Expr C = emitTruthy(*E);
      size_t CondIdx = pc();
      emit(Cmd::ifGoto(C, CondIdx + 2));
      size_t GotoEnd = pc();
      emit(Cmd::ifGoto(True, 0)); // patched: END
      Result<bool> B = compileBlock(S.Then);
      if (!B)
        return B;
      if (S.Kind == JsStmtKind::For) {
        Result<bool> St = compileBlock(S.Step);
        if (!St)
          return St;
      }
      emit(Cmd::ifGoto(True, Loop));
      Body[GotoEnd].Target = pc();
      return true;
    }
    }
    return Err("unknown MJS statement kind");
  }

  Result<Proc> compileFunc(const JsFunc &F) {
    Body.clear();
    Proc P;
    P.Name = InternedString::get(F.Name);
    P.Param = InternedString::get("_args");
    Expr Args = Expr::pvar(P.Param);
    for (size_t K = 0; K != F.Params.size(); ++K)
      emit(Cmd::assign(InternedString::get(F.Params[K]),
                       Expr::binOp(BinOpKind::ListNth, Args,
                                   Expr::intE(static_cast<int64_t>(K)))));
    Result<bool> R = compileBlock(F.Body);
    if (!R)
      return Err(R.error());
    emit(Cmd::ret(Expr::lit(jsUndefined())));
    P.Body.assign(std::make_move_iterator(Body.begin()),
                  std::make_move_iterator(Body.end()));
    Body.clear();
    return P;
  }
};

} // namespace

Result<Prog> gillian::mjs::compileMjs(const JsProgram &P) {
  return MjsCompiler().run(P);
}

Result<Prog> gillian::mjs::compileMjsSource(std::string_view Source) {
  Result<JsProgram> P = parseMjs(Source);
  if (!P)
    return Err("MJS parse error: " + P.error());
  return compileMjs(*P);
}
