//===- mjs/parser.cpp -----------------------------------------------------===//

#include "mjs/parser.h"

#include "support/diagnostics.h"
#include "support/lexer.h"

#include <optional>

using namespace gillian;
using namespace gillian::mjs;

namespace {

JsExprPtr mk(JsExprKind K) {
  auto E = std::make_shared<JsExpr>();
  E->Kind = K;
  return E;
}

std::optional<std::string> symbKind(std::string_view Callee) {
  if (Callee == "symb_number") return "number";
  if (Callee == "symb_string") return "string";
  if (Callee == "symb_bool") return "bool";
  if (Callee == "symb_any") return "any";
  return std::nullopt;
}

class MjsParser {
public:
  explicit MjsParser(std::string_view Src) : Toks(tokenize(Src)) {}

  Result<JsProgram> run() {
    JsProgram P;
    while (!cur().is(TokenKind::Eof)) {
      Result<JsFunc> F = parseFunction();
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

  //===--------------------------------------------------------------------===
  // Expressions
  //===--------------------------------------------------------------------===

  Result<JsExprPtr> parseExpr() { return parseOr(); }

  Result<JsExprPtr> parseOr() {
    Result<JsExprPtr> L = parseAnd();
    if (!L)
      return L;
    JsExprPtr E = L.take();
    while (cur().isPunct("||")) {
      bump();
      Result<JsExprPtr> R = parseAnd();
      if (!R)
        return R;
      JsExprPtr N = mk(JsExprKind::Binary);
      N->BOp = JsBinOp::Or;
      N->Lhs = E;
      N->Rhs = R.take();
      E = N;
    }
    return E;
  }

  Result<JsExprPtr> parseAnd() {
    Result<JsExprPtr> L = parseEquality();
    if (!L)
      return L;
    JsExprPtr E = L.take();
    while (cur().isPunct("&&")) {
      bump();
      Result<JsExprPtr> R = parseEquality();
      if (!R)
        return R;
      JsExprPtr N = mk(JsExprKind::Binary);
      N->BOp = JsBinOp::And;
      N->Lhs = E;
      N->Rhs = R.take();
      E = N;
    }
    return E;
  }

  Result<JsExprPtr> parseEquality() {
    Result<JsExprPtr> L = parseRelational();
    if (!L)
      return L;
    JsExprPtr E = L.take();
    while (cur().isPunct("==") || cur().isPunct("===") ||
           cur().isPunct("!=") || cur().isPunct("!==")) {
      bool Neq = cur().Text[0] == '!';
      bump();
      Result<JsExprPtr> R = parseRelational();
      if (!R)
        return R;
      JsExprPtr N = mk(JsExprKind::Binary);
      N->BOp = Neq ? JsBinOp::Ne : JsBinOp::Eq;
      N->Lhs = E;
      N->Rhs = R.take();
      E = N;
    }
    return E;
  }

  Result<JsExprPtr> parseRelational() {
    Result<JsExprPtr> L = parseAdditive();
    if (!L)
      return L;
    JsExprPtr E = L.take();
    while (cur().isPunct("<") || cur().isPunct("<=") || cur().isPunct(">") ||
           cur().isPunct(">=")) {
      JsBinOp Op = cur().isPunct("<")    ? JsBinOp::Lt
                   : cur().isPunct("<=") ? JsBinOp::Le
                   : cur().isPunct(">")  ? JsBinOp::Gt
                                         : JsBinOp::Ge;
      bump();
      Result<JsExprPtr> R = parseAdditive();
      if (!R)
        return R;
      JsExprPtr N = mk(JsExprKind::Binary);
      N->BOp = Op;
      N->Lhs = E;
      N->Rhs = R.take();
      E = N;
    }
    return E;
  }

  Result<JsExprPtr> parseAdditive() {
    Result<JsExprPtr> L = parseMultiplicative();
    if (!L)
      return L;
    JsExprPtr E = L.take();
    while (cur().isPunct("+") || cur().isPunct("-")) {
      JsBinOp Op = cur().isPunct("+") ? JsBinOp::Add : JsBinOp::Sub;
      bump();
      Result<JsExprPtr> R = parseMultiplicative();
      if (!R)
        return R;
      JsExprPtr N = mk(JsExprKind::Binary);
      N->BOp = Op;
      N->Lhs = E;
      N->Rhs = R.take();
      E = N;
    }
    return E;
  }

  Result<JsExprPtr> parseMultiplicative() {
    Result<JsExprPtr> L = parseUnary();
    if (!L)
      return L;
    JsExprPtr E = L.take();
    while (cur().isPunct("*") || cur().isPunct("/") || cur().isPunct("%")) {
      JsBinOp Op = cur().isPunct("*")   ? JsBinOp::Mul
                   : cur().isPunct("/") ? JsBinOp::Div
                                        : JsBinOp::Mod;
      bump();
      Result<JsExprPtr> R = parseUnary();
      if (!R)
        return R;
      JsExprPtr N = mk(JsExprKind::Binary);
      N->BOp = Op;
      N->Lhs = E;
      N->Rhs = R.take();
      E = N;
    }
    return E;
  }

  Result<JsExprPtr> parseUnary() {
    if (cur().isPunct("!") || cur().isPunct("-") ||
        cur().isIdent("typeof")) {
      JsUnOp Op = cur().isPunct("!")   ? JsUnOp::Not
                  : cur().isPunct("-") ? JsUnOp::Neg
                                       : JsUnOp::TypeOf;
      bump();
      Result<JsExprPtr> C = parseUnary();
      if (!C)
        return C;
      JsExprPtr N = mk(JsExprKind::Unary);
      N->UOp = Op;
      N->Lhs = C.take();
      return N;
    }
    return parsePostfix();
  }

  Result<JsExprPtr> parsePostfix() {
    Result<JsExprPtr> P = parsePrimary();
    if (!P)
      return P;
    JsExprPtr E = P.take();
    while (true) {
      if (cur().isPunct(".")) {
        bump();
        if (!cur().is(TokenKind::Ident))
          return here("expected property name after '.'");
        JsExprPtr N = mk(JsExprKind::Member);
        N->Lhs = E;
        N->StrVal = cur().Text;
        bump();
        E = N;
        continue;
      }
      if (cur().isPunct("[")) {
        bump();
        Result<JsExprPtr> I = parseExpr();
        if (!I)
          return I;
        if (!eatPunct("]"))
          return here("expected ']'");
        JsExprPtr N = mk(JsExprKind::Member);
        N->Lhs = E;
        N->Rhs = I.take();
        E = N;
        continue;
      }
      return E;
    }
  }

  Result<JsExprPtr> parsePrimary() {
    const Token &T = cur();
    if (T.is(TokenKind::Int)) {
      JsExprPtr E = mk(JsExprKind::Num);
      // The literal's magnitude: 2^63 (after '-') lexes as INT64_MIN.
      E->NumVal = static_cast<double>(static_cast<uint64_t>(T.IntVal));
      bump();
      return E;
    }
    if (T.is(TokenKind::Float)) {
      JsExprPtr E = mk(JsExprKind::Num);
      E->NumVal = T.FloatVal;
      bump();
      return E;
    }
    if (T.is(TokenKind::String)) {
      JsExprPtr E = mk(JsExprKind::Str);
      E->StrVal = T.Text;
      bump();
      return E;
    }
    if (T.isIdent("true") || T.isIdent("false")) {
      JsExprPtr E = mk(JsExprKind::Bool);
      E->BoolVal = T.isIdent("true");
      bump();
      return E;
    }
    if (T.isIdent("undefined")) {
      bump();
      return mk(JsExprKind::Undefined);
    }
    if (T.isIdent("null")) {
      bump();
      return mk(JsExprKind::Null);
    }
    if (T.isPunct("(")) {
      bump();
      Result<JsExprPtr> E = parseExpr();
      if (!E)
        return E;
      if (!eatPunct(")"))
        return here("expected ')'");
      return E;
    }
    if (T.isPunct("{"))
      return parseObjectLiteral();
    if (T.isPunct("["))
      return parseArrayLiteral();
    if (T.is(TokenKind::Ident)) {
      std::string_view Name = T.Text;
      if (peek().isPunct("(")) {
        bump();
        bump();
        JsExprPtr E = mk(JsExprKind::Call);
        E->Callee = Name;
        if (!cur().isPunct(")")) {
          while (true) {
            Result<JsExprPtr> A = parseExpr();
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
      JsExprPtr E = mk(JsExprKind::Var);
      E->StrVal = Name;
      return E;
    }
    return here("expected an expression");
  }

  Result<JsExprPtr> parseObjectLiteral() {
    bump(); // '{'
    JsExprPtr E = mk(JsExprKind::Object);
    if (!cur().isPunct("}")) {
      while (true) {
        if (!cur().is(TokenKind::Ident) && !cur().is(TokenKind::String))
          return here("expected property name");
        std::string_view P = cur().Text;
        bump();
        if (!eatPunct(":"))
          return here("expected ':'");
        Result<JsExprPtr> V = parseExpr();
        if (!V)
          return Err(V.error());
        E->Props.emplace_back(P, V.take());
        if (eatPunct(","))
          continue;
        break;
      }
    }
    if (!eatPunct("}"))
      return here("expected '}'");
    return E;
  }

  Result<JsExprPtr> parseArrayLiteral() {
    bump(); // '['
    JsExprPtr E = mk(JsExprKind::Array);
    if (!cur().isPunct("]")) {
      while (true) {
        Result<JsExprPtr> V = parseExpr();
        if (!V)
          return V;
        E->Args.push_back(V.take());
        if (eatPunct(","))
          continue;
        break;
      }
    }
    if (!eatPunct("]"))
      return here("expected ']'");
    return E;
  }

  //===--------------------------------------------------------------------===
  // Statements
  //===--------------------------------------------------------------------===

  Result<std::vector<JsStmt>> parseBlock() {
    if (!eatPunct("{"))
      return here("expected '{'");
    std::vector<JsStmt> Out;
    while (!cur().isPunct("}")) {
      if (cur().is(TokenKind::Eof))
        return here("unterminated block");
      Result<JsStmt> S = parseStmt();
      if (!S)
        return Err(S.error());
      Out.push_back(S.take());
    }
    bump();
    return Out;
  }

  Result<JsStmt> parseStmt() {
    if (cur().isIdent("var"))
      return finishSimple(parseVarDecl(), ";");
    if (cur().isIdent("if"))
      return parseIf();
    if (cur().isIdent("while"))
      return parseWhile();
    if (cur().isIdent("for"))
      return parseFor();
    if (cur().isIdent("return")) {
      bump();
      JsStmt S;
      S.Kind = JsStmtKind::Return;
      if (!cur().isPunct(";")) {
        Result<JsExprPtr> E = parseExpr();
        if (!E)
          return Err(E.error());
        S.E = E.take();
      } else {
        S.E = mk(JsExprKind::Undefined);
      }
      if (!eatPunct(";"))
        return here("expected ';'");
      return S;
    }
    if (cur().isIdent("delete")) {
      bump();
      Result<JsExprPtr> E = parsePostfix();
      if (!E)
        return Err(E.error());
      if ((*E)->Kind != JsExprKind::Member)
        return here("'delete' requires a property access");
      JsStmt S;
      S.Kind = JsStmtKind::Delete;
      S.Obj = (*E)->Lhs;
      S.Idx = (*E)->Rhs;
      S.Name = (*E)->StrVal;
      if (!eatPunct(";"))
        return here("expected ';'");
      return S;
    }
    if (cur().isIdent("Assume") || cur().isIdent("Assert")) {
      bool IsAssume = cur().isIdent("Assume");
      bump();
      if (!eatPunct("("))
        return here("expected '('");
      Result<JsExprPtr> E = parseExpr();
      if (!E)
        return Err(E.error());
      if (!eatPunct(")") || !eatPunct(";"))
        return here("expected ');'");
      JsStmt S;
      S.Kind = IsAssume ? JsStmtKind::Assume : JsStmtKind::Assert;
      S.E = E.take();
      return S;
    }
    return finishSimple(parseExprOrAssign(), ";");
  }

  /// Consumes the trailing terminator of a simple statement.
  Result<JsStmt> finishSimple(Result<JsStmt> S, std::string_view Term) {
    if (!S)
      return S;
    if (!eatPunct(Term))
      return here("expected '" + std::string(Term) + "'");
    return S;
  }

  /// `var x = e` (no terminator), recognising symbolic-input intrinsics.
  Result<JsStmt> parseVarDecl() {
    bump(); // var
    if (!cur().is(TokenKind::Ident))
      return here("expected variable name");
    JsStmt S;
    S.Name = cur().Text;
    bump();
    if (!eatPunct("="))
      return here("expected '=' (MJS requires initialised declarations)");
    if (cur().is(TokenKind::Ident) && peek().isPunct("(")) {
      if (auto K = symbKind(cur().Text)) {
        bump();
        bump();
        if (!eatPunct(")"))
          return here("expected ')'");
        S.Kind = JsStmtKind::SymbInput;
        S.SymbKind = *K;
        return S;
      }
    }
    Result<JsExprPtr> E = parseExpr();
    if (!E)
      return Err(E.error());
    S.Kind = JsStmtKind::VarDecl;
    S.E = E.take();
    return S;
  }

  /// Expression-led statements (no terminator): assignment, member
  /// assignment, or bare call.
  Result<JsStmt> parseExprOrAssign() {
    Result<JsExprPtr> L = parseExpr();
    if (!L)
      return Err(L.error());
    JsExprPtr E = L.take();
    if (cur().isPunct("=")) {
      bump();
      Result<JsExprPtr> R = parseExpr();
      if (!R)
        return Err(R.error());
      JsStmt S;
      if (E->Kind == JsExprKind::Var) {
        S.Kind = JsStmtKind::Assign;
        S.Name = E->StrVal;
        S.E = R.take();
        return S;
      }
      if (E->Kind == JsExprKind::Member) {
        S.Kind = JsStmtKind::MemberSet;
        S.Obj = E->Lhs;
        S.Idx = E->Rhs;
        S.Name = E->StrVal;
        S.Val = R.take();
        return S;
      }
      return here("invalid assignment target");
    }
    JsStmt S;
    S.Kind = JsStmtKind::ExprStmt;
    S.E = E;
    return S;
  }

  Result<JsStmt> parseIf() {
    bump();
    if (!eatPunct("("))
      return here("expected '('");
    Result<JsExprPtr> C = parseExpr();
    if (!C)
      return Err(C.error());
    if (!eatPunct(")"))
      return here("expected ')'");
    JsStmt S;
    S.Kind = JsStmtKind::If;
    S.E = C.take();
    Result<std::vector<JsStmt>> Then = parseBlock();
    if (!Then)
      return Err(Then.error());
    S.Then = Then.take();
    if (cur().isIdent("else")) {
      bump();
      if (cur().isIdent("if")) {
        // else-if chain: wrap the nested if as a one-statement else block.
        Result<JsStmt> Nested = parseIf();
        if (!Nested)
          return Nested;
        S.Else.push_back(Nested.take());
        return S;
      }
      Result<std::vector<JsStmt>> Else = parseBlock();
      if (!Else)
        return Err(Else.error());
      S.Else = Else.take();
    }
    return S;
  }

  Result<JsStmt> parseWhile() {
    bump();
    if (!eatPunct("("))
      return here("expected '('");
    Result<JsExprPtr> C = parseExpr();
    if (!C)
      return Err(C.error());
    if (!eatPunct(")"))
      return here("expected ')'");
    JsStmt S;
    S.Kind = JsStmtKind::While;
    S.E = C.take();
    Result<std::vector<JsStmt>> Body = parseBlock();
    if (!Body)
      return Err(Body.error());
    S.Then = Body.take();
    return S;
  }

  Result<JsStmt> parseFor() {
    bump();
    if (!eatPunct("("))
      return here("expected '('");
    JsStmt S;
    S.Kind = JsStmtKind::For;
    if (!cur().isPunct(";")) {
      Result<JsStmt> Init = cur().isIdent("var") ? parseVarDecl()
                                                 : parseExprOrAssign();
      if (!Init)
        return Init;
      S.Init.push_back(Init.take());
    }
    if (!eatPunct(";"))
      return here("expected ';'");
    if (!cur().isPunct(";")) {
      Result<JsExprPtr> C = parseExpr();
      if (!C)
        return Err(C.error());
      S.E = C.take();
    } else {
      JsExprPtr T = mk(JsExprKind::Bool);
      T->BoolVal = true;
      S.E = T;
    }
    if (!eatPunct(";"))
      return here("expected ';'");
    if (!cur().isPunct(")")) {
      Result<JsStmt> Step = parseExprOrAssign();
      if (!Step)
        return Step;
      S.Step.push_back(Step.take());
    }
    if (!eatPunct(")"))
      return here("expected ')'");
    Result<std::vector<JsStmt>> Body = parseBlock();
    if (!Body)
      return Err(Body.error());
    S.Then = Body.take();
    return S;
  }

  Result<JsFunc> parseFunction() {
    if (!cur().isIdent("function"))
      return here("expected 'function'");
    bump();
    if (!cur().is(TokenKind::Ident))
      return here("expected function name");
    JsFunc F;
    F.Name = cur().Text;
    bump();
    if (!eatPunct("("))
      return here("expected '('");
    if (!cur().isPunct(")")) {
      while (true) {
        if (!cur().is(TokenKind::Ident))
          return here("expected parameter name");
        F.Params.emplace_back(cur().Text);
        bump();
        if (eatPunct(","))
          continue;
        break;
      }
    }
    if (!eatPunct(")"))
      return here("expected ')'");
    Result<std::vector<JsStmt>> Body = parseBlock();
    if (!Body)
      return Err(Body.error());
    F.Body = Body.take();
    return F;
  }
};

} // namespace

Result<JsProgram> gillian::mjs::parseMjs(std::string_view Source) {
  return MjsParser(Source).run();
}
