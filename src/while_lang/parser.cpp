//===- while_lang/parser.cpp ----------------------------------------------===//

#include "while_lang/parser.h"

#include "gil/parser.h"
#include "support/diagnostics.h"
#include "support/lexer.h"

using namespace gillian;
using namespace gillian::whilelang;

namespace {

std::optional<GilType> freshType(std::string_view Name) {
  if (Name == "fresh_int") return GilType::Int;
  if (Name == "fresh_num") return GilType::Num;
  if (Name == "fresh_str") return GilType::Str;
  if (Name == "fresh_bool") return GilType::Bool;
  return std::nullopt;
}

class WhileParser {
public:
  explicit WhileParser(std::string_view Src) : Toks(tokenize(Src)) {}

  Result<Program> run() {
    Program P;
    while (!cur().is(TokenKind::Eof)) {
      Result<FuncDecl> F = parseFunction();
      if (!F)
        return Err(F.error());
      P.Funcs.push_back(F.take());
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
    if (!cur().isPunct(P))
      return false;
    bump();
    return true;
  }

  Result<Expr> parseExpr() {
    Result<Expr> E = parseExprAt(Toks, Pos);
    return E;
  }

  Result<FuncDecl> parseFunction() {
    if (!cur().isIdent("function"))
      return here("expected 'function'");
    bump();
    if (!cur().is(TokenKind::Ident))
      return here("expected function name");
    FuncDecl F;
    F.Name = InternedString::get(cur().Text);
    bump();
    if (!eatPunct("("))
      return here("expected '('");
    if (!cur().isPunct(")")) {
      while (true) {
        if (!cur().is(TokenKind::Ident))
          return here("expected parameter name");
        F.Params.push_back(InternedString::get(cur().Text));
        bump();
        if (eatPunct(","))
          continue;
        break;
      }
    }
    if (!eatPunct(")"))
      return here("expected ')'");
    Result<std::vector<Stmt>> Body = parseBlock();
    if (!Body)
      return Err(Body.error());
    F.Body = Body.take();
    return F;
  }

  Result<std::vector<Stmt>> parseBlock() {
    if (!eatPunct("{"))
      return here("expected '{'");
    std::vector<Stmt> Out;
    while (!cur().isPunct("}")) {
      if (cur().is(TokenKind::Eof))
        return here("unterminated block");
      Result<Stmt> S = parseStmt();
      if (!S)
        return Err(S.error());
      Out.push_back(S.take());
    }
    bump(); // '}'
    return Out;
  }

  Result<Stmt> parseStmt() {
    // Keyword statements.
    if (cur().isIdent("if"))
      return parseIf();
    if (cur().isIdent("while"))
      return parseWhileLoop();
    if (cur().isIdent("return"))
      return parseSimpleExprStmt(StmtKind::Return);
    if (cur().isIdent("assume"))
      return parseSimpleExprStmt(StmtKind::Assume);
    if (cur().isIdent("assert"))
      return parseSimpleExprStmt(StmtKind::Assert);
    if (cur().isIdent("dispose"))
      return parseSimpleExprStmt(StmtKind::Dispose);

    if (!cur().is(TokenKind::Ident))
      return here("expected a statement");

    // `x := ...` or `x.p := ...`.
    InternedString X = InternedString::get(cur().Text);
    if (peek().isPunct(".")) {
      // e.p := e' with a variable base.
      Stmt S;
      S.Kind = StmtKind::Mutate;
      S.E = Expr::pvar(X);
      bump();
      bump();
      if (!cur().is(TokenKind::Ident) && !cur().is(TokenKind::String))
        return here("expected property name");
      S.Prop = InternedString::get(cur().Text);
      bump();
      if (!eatPunct(":="))
        return here("expected ':='");
      Result<Expr> V = parseExpr();
      if (!V)
        return Err(V.error());
      S.E2 = V.take();
      if (!eatPunct(";"))
        return here("expected ';'");
      return S;
    }

    bump();
    if (!eatPunct(":="))
      return here("expected ':='");
    return parseAssignRhs(X);
  }

  Result<Stmt> parseAssignRhs(InternedString X) {
    Stmt S;
    S.X = X;

    // x := { p: e, ... }   — object creation.
    if (cur().isPunct("{")) {
      bump();
      S.Kind = StmtKind::New;
      if (!cur().isPunct("}")) {
        while (true) {
          if (!cur().is(TokenKind::Ident) && !cur().is(TokenKind::String))
            return here("expected property name");
          InternedString P = InternedString::get(cur().Text);
          bump();
          if (!eatPunct(":"))
            return here("expected ':'");
          Result<Expr> V = parseExpr();
          if (!V)
            return Err(V.error());
          S.Props.emplace_back(P, V.take());
          if (eatPunct(","))
            continue;
          break;
        }
      }
      if (!eatPunct("}"))
        return here("expected '}'");
      if (!eatPunct(";"))
        return here("expected ';'");
      return S;
    }

    // x := fresh_T() / fresh_val() — symbolic inputs.
    if (cur().is(TokenKind::Ident) && peek().isPunct("(") &&
        (freshType(cur().Text) || cur().Text == "fresh_val")) {
      S.Kind = StmtKind::Fresh;
      S.FreshType = freshType(cur().Text);
      bump();
      bump();
      if (!eatPunct(")"))
        return here("expected ')'");
      if (!eatPunct(";"))
        return here("expected ';'");
      return S;
    }

    // x := f(e1, ..., en) — static call (identifier followed by '(').
    if (cur().is(TokenKind::Ident) && peek().isPunct("(") &&
        !isExprKeyword(cur().Text)) {
      S.Kind = StmtKind::Call;
      S.Callee = InternedString::get(cur().Text);
      bump();
      bump();
      if (!cur().isPunct(")")) {
        while (true) {
          Result<Expr> A = parseExpr();
          if (!A)
            return Err(A.error());
          S.Args.push_back(A.take());
          if (eatPunct(","))
            continue;
          break;
        }
      }
      if (!eatPunct(")"))
        return here("expected ')'");
      if (!eatPunct(";"))
        return here("expected ';'");
      return S;
    }

    // x := e.p — property lookup (identifier base followed by '.').
    if (cur().is(TokenKind::Ident) && peek().isPunct(".")) {
      S.Kind = StmtKind::Lookup;
      S.E = Expr::pvar(InternedString::get(cur().Text));
      bump();
      bump();
      if (!cur().is(TokenKind::Ident) && !cur().is(TokenKind::String))
        return here("expected property name");
      S.Prop = InternedString::get(cur().Text);
      bump();
      if (!eatPunct(";"))
        return here("expected ';'");
      return S;
    }

    // Otherwise a plain expression assignment.
    S.Kind = StmtKind::Assign;
    Result<Expr> E = parseExpr();
    if (!E)
      return Err(E.error());
    S.E = E.take();
    if (!eatPunct(";"))
      return here("expected ';'");
    return S;
  }

  /// Identifiers that start GIL expression keyword operators and must not
  /// be mistaken for function calls.
  static bool isExprKeyword(std::string_view S) {
    return S == "typeof" || S == "len" || S == "slen" || S == "hd" ||
           S == "tl" || S == "to_num" || S == "to_int" || S == "num_to_str" ||
           S == "str_to_num" || S == "l_nth" || S == "s_nth";
  }

  Result<Stmt> parseIf() {
    bump();
    if (!eatPunct("("))
      return here("expected '('");
    Result<Expr> C = parseExpr();
    if (!C)
      return Err(C.error());
    if (!eatPunct(")"))
      return here("expected ')'");
    Stmt S;
    S.Kind = StmtKind::If;
    S.E = C.take();
    Result<std::vector<Stmt>> Then = parseBlock();
    if (!Then)
      return Err(Then.error());
    S.Then = Then.take();
    if (cur().isIdent("else")) {
      bump();
      Result<std::vector<Stmt>> Else = parseBlock();
      if (!Else)
        return Err(Else.error());
      S.Else = Else.take();
    }
    return S;
  }

  Result<Stmt> parseWhileLoop() {
    bump();
    if (!eatPunct("("))
      return here("expected '('");
    Result<Expr> C = parseExpr();
    if (!C)
      return Err(C.error());
    if (!eatPunct(")"))
      return here("expected ')'");
    Stmt S;
    S.Kind = StmtKind::While;
    S.E = C.take();
    Result<std::vector<Stmt>> Body = parseBlock();
    if (!Body)
      return Err(Body.error());
    S.Then = Body.take();
    return S;
  }

  Result<Stmt> parseSimpleExprStmt(StmtKind K) {
    bump();
    Stmt S;
    S.Kind = K;
    // Parentheses are part of the expression grammar, so `assume (e);`
    // and `return x;` both parse uniformly.
    Result<Expr> E = parseExpr();
    if (!E)
      return Err(E.error());
    S.E = E.take();
    if (!eatPunct(";"))
      return here("expected ';'");
    return S;
  }
};

} // namespace

Result<Program> gillian::whilelang::parseWhile(std::string_view Source) {
  return WhileParser(Source).run();
}
