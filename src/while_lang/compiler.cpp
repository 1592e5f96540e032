//===- while_lang/compiler.cpp --------------------------------------------===//

#include "while_lang/compiler.h"

#include "while_lang/parser.h"

using namespace gillian;
using namespace gillian::whilelang;

// Action names are interned once; every dispatch compares the handles.
InternedString gillian::whilelang::actLookup() {
  static const InternedString A = InternedString::get("lookup");
  return A;
}
InternedString gillian::whilelang::actMutate() {
  static const InternedString A = InternedString::get("mutate");
  return A;
}
InternedString gillian::whilelang::actDispose() {
  static const InternedString A = InternedString::get("dispose");
  return A;
}

namespace {

/// Per-program compilation state: emits commands and allocates fresh
/// sites/temporaries.
class Compiler {
public:
  Result<Prog> run(const Program &P) {
    Prog Out;
    for (const FuncDecl &F : P.Funcs) {
      Result<Proc> R = compileFunc(F);
      if (!R)
        return Err(R.error());
      Out.add(R.take());
    }
    return Out;
  }

private:
  uint32_t NextSite = 0;
  uint32_t NextTemp = 0;
  std::vector<Cmd> Body;

  InternedString freshTemp() {
    return InternedString::get("_t" + std::to_string(NextTemp++));
  }

  size_t pc() const { return Body.size(); }
  void emit(Cmd C) { Body.push_back(std::move(C)); }

  /// Emits explicit fault guards for partial operators in \p E (division
  /// and modulo by a possibly-zero divisor). GIL symbolic evaluation
  /// defers expression faults, so the front end must turn its language's
  /// runtime errors into explicit control flow — the same division of
  /// labour CompCert-style compilation uses for C undefined behaviour.
  void emitPartialOpGuards(const Expr &E) {
    if (!E)
      return;
    for (size_t I = 0, N = E.numChildren(); I != N; ++I)
      emitPartialOpGuards(E.child(I));
    if (E.kind() != ExprKind::BinOp)
      return;
    BinOpKind Op = E.binOpKind();
    if (Op != BinOpKind::Div && Op != BinOpKind::Mod)
      return;
    const Expr &Rhs = E.child(1);
    if (Rhs.isLit() && Rhs.litValue().isNumeric()) {
      if (!(Rhs.litValue().isInt() && Rhs.litValue().asInt() == 0))
        return; // nonzero literal divisor: total
    }
    // Only integer division faults; `to_num`-typed divisors are IEEE.
    size_t Here = pc();
    emit(Cmd::ifGoto(Expr::notE(Expr::andE(
                         Expr::hasType(Rhs, GilType::Int),
                         Expr::eq(Rhs, Expr::intE(0)))),
                     Here + 2));
    emit(Cmd::fail(Expr::strE("runtime error: division by zero")));
  }

  /// Guards every expression a statement evaluates.
  void guardExprs(std::initializer_list<const Expr *> Es) {
    for (const Expr *E : Es)
      if (E && *E)
        emitPartialOpGuards(*E);
  }

  Result<Proc> compileFunc(const FuncDecl &F) {
    Body.clear();
    Proc P;
    P.Name = F.Name;
    P.Param = InternedString::get("_args");
    // Destructuring prologue: x_k := l_nth(_args, k).
    for (size_t K = 0; K != F.Params.size(); ++K)
      emit(Cmd::assign(F.Params[K],
                       Expr::binOp(BinOpKind::ListNth,
                                   Expr::pvar(P.Param),
                                   Expr::intE(static_cast<int64_t>(K)))));
    for (const Stmt &S : F.Body) {
      Result<bool> R = compileStmt(S);
      if (!R)
        return Err(R.error());
    }
    // Implicit `return 0` for functions that fall off the end.
    emit(Cmd::ret(Expr::intE(0)));
    P.Body = std::move(Body);
    Body.clear();
    return P;
  }

  Result<bool> compileBlock(const std::vector<Stmt> &Stmts) {
    for (const Stmt &S : Stmts) {
      Result<bool> R = compileStmt(S);
      if (!R)
        return R;
    }
    return true;
  }

  Result<bool> compileStmt(const Stmt &S) {
    switch (S.Kind) {
    case StmtKind::Assign:
      // [Assignment]: direct GIL assignment.
      guardExprs({&S.E});
      emit(Cmd::assign(S.X, S.E));
      return true;

    case StmtKind::Assume: {
      // [Assume]: ifgoto e (pc+2); vanish.
      guardExprs({&S.E});
      size_t Here = pc();
      emit(Cmd::ifGoto(S.E, Here + 2));
      emit(Cmd::vanish());
      return true;
    }

    case StmtKind::Assert: {
      // [Assert]: ifgoto e (pc+2); fail e.
      guardExprs({&S.E});
      size_t Here = pc();
      emit(Cmd::ifGoto(S.E, Here + 2));
      emit(Cmd::fail(Expr::strE("assertion failure: " + S.E.toString())));
      return true;
    }

    case StmtKind::New: {
      // [New]: x := uSym_j; then one mutate per property.
      for (const auto &[P, E] : S.Props)
        emitPartialOpGuards(E);
      emit(Cmd::uSym(S.X, NextSite++));
      for (const auto &[P, E] : S.Props)
        emit(Cmd::action(freshTemp(), actMutate(),
                         Expr::list({Expr::pvar(S.X),
                                     Expr::strE(P.str()), E})));
      return true;
    }

    case StmtKind::Lookup:
      // [Lookup]: x := lookup([e, p]).
      guardExprs({&S.E});
      emit(Cmd::action(S.X, actLookup(),
                       Expr::list({S.E, Expr::strE(S.Prop.str())})));
      return true;

    case StmtKind::Mutate:
      guardExprs({&S.E, &S.E2});
      emit(Cmd::action(freshTemp(), actMutate(),
                       Expr::list({S.E, Expr::strE(S.Prop.str()), S.E2})));
      return true;

    case StmtKind::Dispose:
      guardExprs({&S.E});
      emit(Cmd::action(freshTemp(), actDispose(), Expr::list({S.E})));
      return true;

    case StmtKind::Return:
      guardExprs({&S.E});
      emit(Cmd::ret(S.E));
      return true;

    case StmtKind::Call: {
      // x := f(ē): static call, arguments packed into a GIL list.
      for (const Expr &A : S.Args)
        emitPartialOpGuards(A);
      emit(Cmd::call(S.X, Expr::strE(S.Callee.str()),
                     Expr::list(S.Args)));
      return true;
    }

    case StmtKind::Fresh: {
      // x := iSym_j, plus a typing assumption when a typed fresh_T() was
      // used.
      emit(Cmd::iSym(S.X, NextSite++));
      if (S.FreshType) {
        Expr C = Expr::hasType(Expr::pvar(S.X), *S.FreshType);
        size_t Here = pc();
        emit(Cmd::ifGoto(C, Here + 2));
        emit(Cmd::vanish());
      }
      return true;
    }

    case StmtKind::If: {
      // ifgoto c THEN; (else); goto END; (then); END:
      guardExprs({&S.E});
      size_t CondIdx = pc();
      emit(Cmd::ifGoto(S.E, 0)); // patched below: target = else-skip
      Result<bool> E1 = compileBlock(S.Else);
      if (!E1)
        return E1;
      size_t GotoEndIdx = pc();
      emit(Cmd::ifGoto(Expr::boolE(true), 0)); // patched: END
      Body[CondIdx].Target = pc();
      Result<bool> T1 = compileBlock(S.Then);
      if (!T1)
        return T1;
      Body[GotoEndIdx].Target = pc();
      return true;
    }

    case StmtKind::While: {
      // LOOP: (guards); ifgoto c BODY; goto END; BODY: ...; goto LOOP;
      // END:  — the back edge re-enters at the guards so a faulting
      // condition faults on every iteration, as in the source semantics.
      size_t Loop = pc();
      guardExprs({&S.E});
      size_t CondIdx = pc();
      emit(Cmd::ifGoto(S.E, CondIdx + 2));
      size_t GotoEndIdx = pc();
      emit(Cmd::ifGoto(Expr::boolE(true), 0)); // patched: END
      Result<bool> B = compileBlock(S.Then);
      if (!B)
        return B;
      emit(Cmd::ifGoto(Expr::boolE(true), Loop));
      Body[GotoEndIdx].Target = pc();
      return true;
    }
    }
    return Err("unknown While statement kind");
  }
};

} // namespace

Result<Prog> gillian::whilelang::compileWhile(const Program &P) {
  return Compiler().run(P);
}

Result<Prog> gillian::whilelang::compileWhileSource(std::string_view Source) {
  Result<Program> P = parseWhile(Source);
  if (!P)
    return Err("While parse error: " + P.error());
  return compileWhile(*P);
}
