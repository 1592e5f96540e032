//===- mc/parser.cpp ------------------------------------------------------===//

#include "mc/parser.h"

#include "support/diagnostics.h"
#include "support/lexer.h"

using namespace gillian;
using namespace gillian::mc;

namespace {

CExprPtr mk(CExprKind K) {
  auto E = std::make_shared<CExpr>();
  E->Kind = K;
  return E;
}

class McParser {
public:
  explicit McParser(std::string_view Src) : Toks(tokenize(Src)) {}

  Result<CProgram> run() {
    CProgram P;
    while (!cur().is(TokenKind::Eof)) {
      if (cur().isIdent("struct")) {
        Result<CStructDecl> S = parseStruct();
        if (!S)
          return Err(S.error());
        P.Structs.push_back(S.take());
        continue;
      }
      if (cur().isIdent("fn")) {
        Result<CFunc> F = parseFunc();
        if (!F)
          return Err(F.error());
        P.Funcs.push_back(F.take());
        continue;
      }
      return here("expected 'struct' or 'fn'");
    }
    return P;
  }

private:
  TokenStream Toks;
  size_t Pos = 0;

  const Token &cur() const { return Toks[Pos]; }
  const Token &peek(size_t A = 1) const {
    size_t I = Pos + A;
    return I < Toks.size() ? Toks[I] : Toks.back();
  }
  void bump() {
    if (Pos + 1 < Toks.size())
      ++Pos;
  }
  Err here(const std::string &Msg) { return Err(diagAtToken(cur(), Msg)); }
  bool eatPunct(std::string_view P) {
    if (P == "=" && PendingEq) {
      PendingEq = false;
      return true;
    }
    if (!cur().isPunct(P))
      return false;
    bump();
    return true;
  }

  /// Consumes one '>' of a type argument list, splitting the maximal-munch
  /// tokens '>>' (nested ptr<ptr<...>>) and '>=' (ptr<T>= initialiser).
  bool eatTypeGt() {
    if (GtDebt > 0) {
      --GtDebt;
      return true;
    }
    if (cur().isPunct(">")) {
      bump();
      return true;
    }
    if (cur().isPunct(">>")) {
      bump();
      GtDebt = 1;
      return true;
    }
    if (cur().isPunct(">=")) {
      bump();
      PendingEq = true;
      return true;
    }
    return false;
  }

  int GtDebt = 0;
  bool PendingEq = false;

  //===--------------------------------------------------------------------===
  // Types
  //===--------------------------------------------------------------------===

  static bool isScalarName(std::string_view S) {
    return S == "i8" || S == "i32" || S == "i64" || S == "f64";
  }

  static ScalarKind scalarOf(std::string_view S) {
    if (S == "i8") return ScalarKind::I8;
    if (S == "i32") return ScalarKind::I32;
    if (S == "i64") return ScalarKind::I64;
    return ScalarKind::F64;
  }

  Result<McType> parseType() {
    if (!cur().is(TokenKind::Ident))
      return here("expected a type");
    std::string_view Name = cur().Text;
    bump();
    if (isScalarName(Name))
      return McType::scalar(scalarOf(Name));
    if (Name == "ptr") {
      if (!eatPunct("<"))
        return here("expected '<' after 'ptr'");
      Result<McType> Pointee = parseType();
      if (!Pointee)
        return Pointee;
      if (!eatTypeGt())
        return here("expected '>'");
      return McType::pointer(Pointee.take());
    }
    return McType::structT(InternedString::get(Name));
  }

  //===--------------------------------------------------------------------===
  // Expressions
  //===--------------------------------------------------------------------===

  Result<CExprPtr> parseExpr() { return parseOr(); }

  /// One precedence level of left-associative binary operators, each
  /// given by the punctCode of its spelling.
  template <typename Sub>
  Result<CExprPtr>
  parseLeftAssoc(Sub SubParse,
                 std::initializer_list<std::pair<uint32_t, CBinOp>> Ops) {
    Result<CExprPtr> L = SubParse();
    if (!L)
      return L;
    CExprPtr E = L.take();
    while (true) {
      const CBinOp *Found = nullptr;
      if (cur().is(TokenKind::Punct))
        for (const auto &[Code, Op] : Ops)
          if (cur().Punct == Code) {
            Found = &Op;
            break;
          }
      if (!Found)
        return E;
      CBinOp Op = *Found;
      bump();
      Result<CExprPtr> R = SubParse();
      if (!R)
        return R;
      CExprPtr N = mk(CExprKind::Binary);
      N->BOp = Op;
      N->Lhs = E;
      N->Rhs = R.take();
      E = N;
    }
  }

  Result<CExprPtr> parseOr() {
    return parseLeftAssoc([this] { return parseAnd(); },
                          {{punctCode("||"), CBinOp::Or}});
  }
  Result<CExprPtr> parseAnd() {
    return parseLeftAssoc([this] { return parseCmp(); },
                          {{punctCode("&&"), CBinOp::And}});
  }
  Result<CExprPtr> parseCmp() {
    return parseLeftAssoc([this] { return parseAdd(); },
                          {{punctCode("=="), CBinOp::Eq},
                           {punctCode("!="), CBinOp::Ne},
                           {punctCode("<="), CBinOp::Le},
                           {punctCode(">="), CBinOp::Ge},
                           {punctCode("<"), CBinOp::Lt},
                           {punctCode(">"), CBinOp::Gt}});
  }
  Result<CExprPtr> parseAdd() {
    return parseLeftAssoc([this] { return parseMul(); },
                          {{punctCode("+"), CBinOp::Add},
                           {punctCode("-"), CBinOp::Sub}});
  }
  Result<CExprPtr> parseMul() {
    return parseLeftAssoc([this] { return parseUnary(); },
                          {{punctCode("*"), CBinOp::Mul},
                           {punctCode("/"), CBinOp::Div},
                           {punctCode("%"), CBinOp::Mod}});
  }

  Result<CExprPtr> parseUnary() {
    if (cur().isPunct("-") || cur().isPunct("!")) {
      CUnOp Op = cur().isPunct("-") ? CUnOp::Neg : CUnOp::Not;
      bump();
      Result<CExprPtr> C = parseUnary();
      if (!C)
        return C;
      CExprPtr N = mk(CExprKind::Unary);
      N->UOp = Op;
      N->Lhs = C.take();
      return N;
    }
    return parsePostfix();
  }

  Result<CExprPtr> parsePostfix() {
    Result<CExprPtr> P = parsePrimary();
    if (!P)
      return P;
    CExprPtr E = P.take();
    while (true) {
      if (cur().isPunct("->")) {
        bump();
        if (!cur().is(TokenKind::Ident))
          return here("expected field name after '->'");
        CExprPtr N = mk(CExprKind::Field);
        N->Lhs = E;
        N->Name = cur().Text;
        bump();
        E = N;
        continue;
      }
      if (cur().isPunct("[")) {
        bump();
        Result<CExprPtr> I = parseExpr();
        if (!I)
          return I;
        if (!eatPunct("]"))
          return here("expected ']'");
        CExprPtr N = mk(CExprKind::Index);
        N->Lhs = E;
        N->Rhs = I.take();
        E = N;
        continue;
      }
      return E;
    }
  }

  Result<CExprPtr> parsePrimary() {
    const Token &T = cur();
    if (T.is(TokenKind::Int)) {
      CExprPtr E = mk(CExprKind::IntLit);
      E->IntVal = T.IntVal;
      bump();
      return E;
    }
    if (T.is(TokenKind::Float)) {
      CExprPtr E = mk(CExprKind::FloatLit);
      E->FloatVal = T.FloatVal;
      bump();
      return E;
    }
    if (T.isIdent("null")) {
      bump();
      return mk(CExprKind::Null);
    }
    if (T.isPunct("(")) {
      bump();
      Result<CExprPtr> E = parseExpr();
      if (!E)
        return E;
      if (!eatPunct(")"))
        return here("expected ')'");
      return E;
    }
    if (T.is(TokenKind::Ident)) {
      std::string_view Name = T.Text;
      if (peek().isPunct("(")) {
        bump();
        bump();
        // sizeof(T) and alloc(T, n) take a leading type argument.
        if (Name == "sizeof") {
          Result<McType> Ty = parseType();
          if (!Ty)
            return Err(Ty.error());
          if (!eatPunct(")"))
            return here("expected ')'");
          CExprPtr E = mk(CExprKind::SizeOf);
          E->Type = Ty.take();
          return E;
        }
        if (Name == "alloc") {
          Result<McType> Ty = parseType();
          if (!Ty)
            return Err(Ty.error());
          if (!eatPunct(","))
            return here("expected ','");
          Result<CExprPtr> N = parseExpr();
          if (!N)
            return N;
          if (!eatPunct(")"))
            return here("expected ')'");
          CExprPtr E = mk(CExprKind::Alloc);
          E->Type = Ty.take();
          E->Lhs = N.take();
          return E;
        }
        CExprPtr E = mk(CExprKind::Call);
        E->Name = Name;
        if (!cur().isPunct(")")) {
          while (true) {
            Result<CExprPtr> A = parseExpr();
            if (!A)
              return A;
            E->Args.push_back(A.take());
            if (eatPunct(","))
              continue;
            break;
          }
        }
        if (!eatPunct(")"))
          return here("expected ')'");
        return E;
      }
      bump();
      CExprPtr E = mk(CExprKind::Var);
      E->Name = Name;
      return E;
    }
    return here("expected an expression");
  }

  //===--------------------------------------------------------------------===
  // Statements
  //===--------------------------------------------------------------------===

  Result<std::vector<CStmt>> parseBlock() {
    if (!eatPunct("{"))
      return here("expected '{'");
    std::vector<CStmt> Out;
    while (!cur().isPunct("}")) {
      if (cur().is(TokenKind::Eof))
        return here("unterminated block");
      Result<CStmt> S = parseStmt();
      if (!S)
        return Err(S.error());
      Out.push_back(S.take());
    }
    bump();
    return Out;
  }

  Result<CStmt> parseStmt() {
    if (cur().isIdent("var"))
      return terminated(parseVarDecl());
    if (cur().isIdent("if"))
      return parseIf();
    if (cur().isIdent("while"))
      return parseWhile();
    if (cur().isIdent("for"))
      return parseFor();
    if (cur().isIdent("return")) {
      bump();
      CStmt S;
      S.Kind = CStmtKind::Return;
      if (!cur().isPunct(";")) {
        Result<CExprPtr> E = parseExpr();
        if (!E)
          return Err(E.error());
        S.E = E.take();
      } else {
        S.E = mk(CExprKind::IntLit); // return 0 by default
      }
      if (!eatPunct(";"))
        return here("expected ';'");
      return S;
    }
    if (cur().isIdent("assume") || cur().isIdent("assert")) {
      bool IsAssume = cur().isIdent("assume");
      bump();
      if (!eatPunct("("))
        return here("expected '('");
      Result<CExprPtr> E = parseExpr();
      if (!E)
        return Err(E.error());
      if (!eatPunct(")") || !eatPunct(";"))
        return here("expected ');'");
      CStmt S;
      S.Kind = IsAssume ? CStmtKind::Assume : CStmtKind::Assert;
      S.E = E.take();
      return S;
    }
    return terminated(parseSimple());
  }

  Result<CStmt> terminated(Result<CStmt> S) {
    if (!S)
      return S;
    if (!eatPunct(";"))
      return here("expected ';'");
    return S;
  }

  Result<CStmt> parseVarDecl() {
    bump(); // var
    if (!cur().is(TokenKind::Ident))
      return here("expected variable name");
    CStmt S;
    S.Kind = CStmtKind::VarDecl;
    S.Name = cur().Text;
    bump();
    if (!eatPunct(":"))
      return here("expected ':'");
    Result<McType> Ty = parseType();
    if (!Ty)
      return Err(Ty.error());
    S.DeclType = Ty.take();
    if (!eatPunct("="))
      return here("expected '=' (MC requires initialised declarations)");
    Result<CExprPtr> E = parseExpr();
    if (!E)
      return Err(E.error());
    S.E = E.take();
    return S;
  }

  /// Assignment / member assignment / bare call (no terminator).
  Result<CStmt> parseSimple() {
    Result<CExprPtr> L = parseExpr();
    if (!L)
      return Err(L.error());
    CExprPtr E = L.take();
    if (cur().isPunct("=")) {
      bump();
      Result<CExprPtr> R = parseExpr();
      if (!R)
        return Err(R.error());
      CStmt S;
      if (E->Kind == CExprKind::Var) {
        S.Kind = CStmtKind::Assign;
        S.Name = E->Name;
        S.E = R.take();
        return S;
      }
      if (E->Kind == CExprKind::Field) {
        S.Kind = CStmtKind::FieldSet;
        S.Base = E->Lhs;
        S.Name = E->Name;
        S.E = R.take();
        return S;
      }
      if (E->Kind == CExprKind::Index) {
        S.Kind = CStmtKind::IndexSet;
        S.Base = E->Lhs;
        S.Idx = E->Rhs;
        S.E = R.take();
        return S;
      }
      return here("invalid assignment target");
    }
    CStmt S;
    S.Kind = CStmtKind::ExprStmt;
    S.E = E;
    return S;
  }

  Result<CStmt> parseIf() {
    bump();
    if (!eatPunct("("))
      return here("expected '('");
    Result<CExprPtr> C = parseExpr();
    if (!C)
      return Err(C.error());
    if (!eatPunct(")"))
      return here("expected ')'");
    CStmt S;
    S.Kind = CStmtKind::If;
    S.E = C.take();
    Result<std::vector<CStmt>> Then = parseBlock();
    if (!Then)
      return Err(Then.error());
    S.Then = Then.take();
    if (cur().isIdent("else")) {
      bump();
      if (cur().isIdent("if")) {
        Result<CStmt> Nested = parseIf();
        if (!Nested)
          return Nested;
        S.Else.push_back(Nested.take());
        return S;
      }
      Result<std::vector<CStmt>> Else = parseBlock();
      if (!Else)
        return Err(Else.error());
      S.Else = Else.take();
    }
    return S;
  }

  Result<CStmt> parseWhile() {
    bump();
    if (!eatPunct("("))
      return here("expected '('");
    Result<CExprPtr> C = parseExpr();
    if (!C)
      return Err(C.error());
    if (!eatPunct(")"))
      return here("expected ')'");
    CStmt S;
    S.Kind = CStmtKind::While;
    S.E = C.take();
    Result<std::vector<CStmt>> Body = parseBlock();
    if (!Body)
      return Err(Body.error());
    S.Then = Body.take();
    return S;
  }

  Result<CStmt> parseFor() {
    bump();
    if (!eatPunct("("))
      return here("expected '('");
    CStmt S;
    S.Kind = CStmtKind::For;
    if (!cur().isPunct(";")) {
      Result<CStmt> Init =
          cur().isIdent("var") ? parseVarDecl() : parseSimple();
      if (!Init)
        return Init;
      S.Init.push_back(Init.take());
    }
    if (!eatPunct(";"))
      return here("expected ';'");
    if (!cur().isPunct(";")) {
      Result<CExprPtr> C = parseExpr();
      if (!C)
        return Err(C.error());
      S.E = C.take();
    } else {
      CExprPtr T = mk(CExprKind::IntLit);
      T->IntVal = 1;
      S.E = T; // `for(;;)` — compiler treats nonzero literal as true
    }
    if (!eatPunct(";"))
      return here("expected ';'");
    if (!cur().isPunct(")")) {
      Result<CStmt> Step = parseSimple();
      if (!Step)
        return Step;
      S.Step.push_back(Step.take());
    }
    if (!eatPunct(")"))
      return here("expected ')'");
    Result<std::vector<CStmt>> Body = parseBlock();
    if (!Body)
      return Err(Body.error());
    S.Then = Body.take();
    return S;
  }

  //===--------------------------------------------------------------------===
  // Declarations
  //===--------------------------------------------------------------------===

  Result<CStructDecl> parseStruct() {
    bump(); // struct
    if (!cur().is(TokenKind::Ident))
      return here("expected struct name");
    CStructDecl D;
    D.Name = cur().Text;
    bump();
    if (!eatPunct("{"))
      return here("expected '{'");
    while (!cur().isPunct("}")) {
      if (!cur().is(TokenKind::Ident))
        return here("expected field name");
      std::string_view FName = cur().Text;
      bump();
      if (!eatPunct(":"))
        return here("expected ':'");
      Result<McType> Ty = parseType();
      if (!Ty)
        return Err(Ty.error());
      if (!eatPunct(";"))
        return here("expected ';'");
      D.Fields.emplace_back(FName, Ty.take());
    }
    bump();
    return D;
  }

  Result<CFunc> parseFunc() {
    bump(); // fn
    if (!cur().is(TokenKind::Ident))
      return here("expected function name");
    CFunc F;
    F.Name = cur().Text;
    bump();
    if (!eatPunct("("))
      return here("expected '('");
    if (!cur().isPunct(")")) {
      while (true) {
        if (!cur().is(TokenKind::Ident))
          return here("expected parameter name");
        std::string_view PName = cur().Text;
        bump();
        if (!eatPunct(":"))
          return here("expected ':'");
        Result<McType> Ty = parseType();
        if (!Ty)
          return Err(Ty.error());
        F.Params.emplace_back(PName, Ty.take());
        if (eatPunct(","))
          continue;
        break;
      }
    }
    if (!eatPunct(")"))
      return here("expected ')'");
    if (eatPunct("->")) {
      Result<McType> Ty = parseType();
      if (!Ty)
        return Err(Ty.error());
      F.RetType = Ty.take();
    } else {
      F.RetType = McType::scalar(ScalarKind::I64);
    }
    Result<std::vector<CStmt>> Body = parseBlock();
    if (!Body)
      return Err(Body.error());
    F.Body = Body.take();
    return F;
  }
};

} // namespace

Result<CProgram> gillian::mc::parseMc(std::string_view Source) {
  return McParser(Source).run();
}
