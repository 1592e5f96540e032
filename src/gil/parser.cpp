//===- gil/parser.cpp -----------------------------------------------------===//

#include "gil/parser.h"

#include "support/diagnostics.h"
#include "support/lexer.h"

#include <limits>
#include <optional>

using namespace gillian;

namespace {

/// Binding powers for infix operators, loosest first.
enum Prec : int {
  PrecNone = 0,
  PrecOr,      // ||
  PrecAnd,     // &&
  PrecEq,      // == !=
  PrecCmp,     // < <= > >=
  PrecBitOr,   // | ^^
  PrecBitAnd,  // &
  PrecShift,   // << >>
  PrecCons,    // :: ++ @+ (right-assoc for ::)
  PrecAdd,     // + -
  PrecMul,     // * / %
};

struct InfixInfo {
  BinOpKind Op;
  Prec Level;
  bool SwapOperands = false; ///< for '>' and '>=' (sugar for swapped < <=)
  bool Negate = false;       ///< for '!=' (sugar for !(==))
  bool RightAssoc = false;   ///< for '::'
};

std::optional<InfixInfo> infixInfo(const Token &T) {
  if (!T.is(TokenKind::Punct))
    return std::nullopt;
  switch (T.Punct) {
  case punctCode("||"): return InfixInfo{BinOpKind::Or, PrecOr};
  case punctCode("&&"): return InfixInfo{BinOpKind::And, PrecAnd};
  case punctCode("=="):
  case punctCode("==="): return InfixInfo{BinOpKind::Eq, PrecEq};
  case punctCode("!="):
  case punctCode("!=="): return InfixInfo{BinOpKind::Eq, PrecEq, false, true};
  case punctCode("<"): return InfixInfo{BinOpKind::Lt, PrecCmp};
  case punctCode("<="): return InfixInfo{BinOpKind::Le, PrecCmp};
  case punctCode(">"): return InfixInfo{BinOpKind::Lt, PrecCmp, true};
  case punctCode(">="): return InfixInfo{BinOpKind::Le, PrecCmp, true};
  case punctCode("|"): return InfixInfo{BinOpKind::BitOr, PrecBitOr};
  case punctCode("^^"): return InfixInfo{BinOpKind::BitXor, PrecBitOr};
  case punctCode("&"): return InfixInfo{BinOpKind::BitAnd, PrecBitAnd};
  case punctCode("<<"): return InfixInfo{BinOpKind::Shl, PrecShift};
  case punctCode(">>"): return InfixInfo{BinOpKind::Shr, PrecShift};
  case punctCode("::"):
    return InfixInfo{BinOpKind::Cons, PrecCons, false, false, true};
  case punctCode("++"): return InfixInfo{BinOpKind::ListConcat, PrecCons};
  case punctCode("@+"): return InfixInfo{BinOpKind::StrCat, PrecCons};
  case punctCode("+"): return InfixInfo{BinOpKind::Add, PrecAdd};
  case punctCode("-"): return InfixInfo{BinOpKind::Sub, PrecAdd};
  case punctCode("*"): return InfixInfo{BinOpKind::Mul, PrecMul};
  case punctCode("/"): return InfixInfo{BinOpKind::Div, PrecMul};
  case punctCode("%"): return InfixInfo{BinOpKind::Mod, PrecMul};
  default: return std::nullopt;
  }
}

std::optional<UnOpKind> keywordUnOp(std::string_view S) {
  if (S == "typeof") return UnOpKind::TypeOf;
  if (S == "len") return UnOpKind::ListLen;
  if (S == "slen") return UnOpKind::StrLen;
  if (S == "hd") return UnOpKind::Head;
  if (S == "tl") return UnOpKind::Tail;
  if (S == "to_num") return UnOpKind::ToNum;
  if (S == "to_int") return UnOpKind::ToInt;
  if (S == "num_to_str") return UnOpKind::NumToStr;
  if (S == "str_to_num") return UnOpKind::StrToNum;
  return std::nullopt;
}

std::optional<BinOpKind> keywordBinOp(std::string_view S) {
  if (S == "l_nth") return BinOpKind::ListNth;
  if (S == "s_nth") return BinOpKind::StrNth;
  return std::nullopt;
}

std::optional<GilType> typeLiteral(std::string_view S) {
  if (S == "Int") return GilType::Int;
  if (S == "Num") return GilType::Num;
  if (S == "Str") return GilType::Str;
  if (S == "Bool") return GilType::Bool;
  if (S == "Sym") return GilType::Sym;
  if (S == "Type") return GilType::Type;
  if (S == "Proc") return GilType::Proc;
  if (S == "List") return GilType::List;
  return std::nullopt;
}

class Parser {
public:
  explicit Parser(std::string_view Src)
      : Owned(tokenize(Src)), Toks(&Owned) {}
  /// Borrowing constructor for parseExprAt: no token copy.
  Parser(const TokenStream &Toks, size_t Pos) : Toks(&Toks), Pos(Pos) {}

  /// Exposed for parseExprAt.
  Result<Expr> parseOneExpr(size_t &OutPos) {
    Expr E = parseExpr();
    OutPos = Pos;
    if (!E)
      return Err(ErrMsg);
    return E;
  }

  Result<Prog> parseProg() {
    Prog P;
    while (!cur().is(TokenKind::Eof)) {
      Result<Proc> R = parseProc();
      if (!R)
        return Err(R.error());
      P.add(R.take());
    }
    if (!ErrMsg.empty())
      return Err(ErrMsg);
    return P;
  }

  Result<Expr> parseWholeExpr() {
    Expr E = parseExpr();
    if (!E)
      return Err(ErrMsg);
    if (!cur().is(TokenKind::Eof))
      return Err(diagAtToken(cur(), "trailing input after expression"));
    return E;
  }

private:
  TokenStream Owned;
  const TokenStream *Toks;
  size_t Pos = 0;
  std::string ErrMsg;

  const Token &cur() const { return (*Toks)[Pos]; }
  const Token &peek(size_t Ahead = 1) const {
    size_t I = Pos + Ahead;
    return I < Toks->size() ? (*Toks)[I] : Toks->back();
  }
  void bump() {
    if (Pos + 1 < Toks->size())
      ++Pos;
  }

  /// Records an error (first one wins) and returns a null expression.
  Expr error(const std::string &Msg) {
    if (ErrMsg.empty())
      ErrMsg = diagAtToken(cur(), Msg);
    return Expr();
  }

  bool expectPunct(std::string_view P) {
    if (cur().isPunct(P)) {
      bump();
      return true;
    }
    error("expected '" + std::string(P) + "'");
    return false;
  }

  std::optional<std::string_view> expectIdent(const char *What) {
    if (cur().is(TokenKind::Ident)) {
      std::string_view S = cur().Text;
      bump();
      return S;
    }
    error(std::string("expected ") + What);
    return std::nullopt;
  }

  // ---- Expressions -----------------------------------------------------

  Expr parseExpr(int MinPrec = PrecNone + 1) {
    Expr Lhs = parseUnary();
    if (!Lhs)
      return Expr();
    while (true) {
      auto Info = infixInfo(cur());
      if (!Info || Info->Level < MinPrec)
        return Lhs;
      bump();
      int NextMin = Info->RightAssoc ? Info->Level : Info->Level + 1;
      Expr Rhs = parseExpr(NextMin);
      if (!Rhs)
        return Expr();
      Expr A = Info->SwapOperands ? Rhs : Lhs;
      Expr B = Info->SwapOperands ? Lhs : Rhs;
      Expr E = Expr::binOp(Info->Op, A, B);
      Lhs = Info->Negate ? Expr::notE(E) : E;
    }
  }

  Expr parseUnary() {
    if (cur().isPunct("-")) {
      bump();
      Expr E = parseUnary();
      if (!E)
        return Expr();
      // Fold negated numeric literals so printed negative constants
      // ("-2") parse back to the literal the printer saw, keeping
      // toString/parse a round trip for persisted expressions. The fold
      // wraps like GIL's Neg: "-9223372036854775808" lexes its magnitude
      // as INT64_MIN, whose negation is INT64_MIN again.
      if (E.isLit() && E.litValue().isInt())
        return Expr::intE(wrappingNeg(E.litValue().asInt()));
      if (E.isLit() && E.litValue().isNum())
        return Expr::numE(-E.litValue().asNum());
      return Expr::unOp(UnOpKind::Neg, E);
    }
    if (cur().isPunct("!")) {
      bump();
      Expr E = parseUnary();
      return E ? Expr::notE(E) : Expr();
    }
    if (cur().isPunct("~")) {
      bump();
      Expr E = parseUnary();
      return E ? Expr::unOp(UnOpKind::BitNot, E) : Expr();
    }
    return parsePrimary();
  }

  Expr parsePrimary() {
    const Token &T = cur();
    switch (T.Kind) {
    case TokenKind::Int: {
      Expr E = Expr::intE(T.IntVal);
      bump();
      return E;
    }
    case TokenKind::Float: {
      Expr E = Expr::numE(T.FloatVal);
      bump();
      return E;
    }
    case TokenKind::String: {
      Expr E = Expr::strE(T.Text);
      bump();
      return E;
    }
    case TokenKind::Ident:
      return parseIdentExpr();
    case TokenKind::Punct:
      if (T.isPunct("(")) {
        bump();
        Expr E = parseExpr();
        if (!E || !expectPunct(")"))
          return Expr();
        return E;
      }
      if (T.isPunct("[")) {
        bump();
        std::vector<Expr> Elems;
        if (!cur().isPunct("]")) {
          while (true) {
            Expr E = parseExpr();
            if (!E)
              return Expr();
            Elems.push_back(E);
            if (cur().isPunct(",")) {
              bump();
              continue;
            }
            break;
          }
        }
        if (!expectPunct("]"))
          return Expr();
        // Fold all-literal lists to a literal list value — the form the
        // simplifier produces at runtime — so printed lists like "[3]"
        // parse back to the expression the printer saw (persisted
        // result-cache keys must round-trip structurally).
        bool AllLit = true;
        for (const Expr &E : Elems)
          AllLit &= E.isLit();
        if (AllLit) {
          std::vector<Value> Vals;
          Vals.reserve(Elems.size());
          for (const Expr &E : Elems)
            Vals.push_back(E.litValue());
          return Expr::lit(Value::listV(std::move(Vals)));
        }
        return Expr::list(std::move(Elems));
      }
      if (T.isPunct("^")) {
        bump();
        auto Name = expectIdent("type name after '^'");
        if (!Name)
          return Expr();
        auto Ty = typeLiteral(*Name);
        if (!Ty)
          return error("unknown type name '" + std::string(*Name) + "'");
        return Expr::lit(Value::typeV(*Ty));
      }
      if (T.isPunct("&")) {
        bump();
        auto Name = expectIdent("procedure name after '&'");
        if (!Name)
          return Expr();
        return Expr::lit(Value::procV(*Name));
      }
      return error("expected an expression");
    default:
      return error("expected an expression");
    }
  }

  Expr parseIdentExpr() {
    std::string_view Name = cur().Text;
    // Literals spelled as identifiers.
    if (Name == "true") {
      bump();
      return Expr::boolE(true);
    }
    if (Name == "false") {
      bump();
      return Expr::boolE(false);
    }
    if (Name == "inf") {
      bump();
      return Expr::numE(std::numeric_limits<double>::infinity());
    }
    if (Name == "nan") {
      bump();
      return Expr::numE(std::numeric_limits<double>::quiet_NaN());
    }
    if (Name[0] == '#') {
      bump();
      return Expr::lvar(Name);
    }
    if (Name[0] == '$') {
      bump();
      return Expr::lit(Value::symV(Name));
    }
    if (auto Op = keywordUnOp(Name); Op && peek().isPunct("(")) {
      bump();
      bump();
      Expr E = parseExpr();
      if (!E || !expectPunct(")"))
        return Expr();
      return Expr::unOp(*Op, E);
    }
    if (auto Op = keywordBinOp(Name); Op && peek().isPunct("(")) {
      bump();
      bump();
      Expr A = parseExpr();
      if (!A || !expectPunct(","))
        return Expr();
      Expr B = parseExpr();
      if (!B || !expectPunct(")"))
        return Expr();
      return Expr::binOp(*Op, A, B);
    }
    bump();
    return Expr::pvar(Name);
  }

  // ---- Commands and procedures -----------------------------------------

  Result<Proc> parseProc() {
    if (!cur().isIdent("proc"))
      return Err(diagAtToken(cur(), "expected 'proc'"));
    bump();
    auto Name = expectIdent("procedure name");
    if (!Name)
      return Err(ErrMsg);
    if (!expectPunct("("))
      return Err(ErrMsg);
    auto Param = expectIdent("parameter name");
    if (!Param)
      return Err(ErrMsg);
    if (!expectPunct(")") || !expectPunct("{"))
      return Err(ErrMsg);

    Proc P;
    P.Name = InternedString::get(*Name);
    P.Param = InternedString::get(*Param);
    while (!cur().isPunct("}")) {
      if (cur().is(TokenKind::Eof))
        return Err(diagAtToken(cur(), "unterminated procedure body"));
      // Optional numeric label, validated against the command index.
      if (cur().is(TokenKind::Int) && peek().isPunct(":")) {
        if (cur().IntVal != static_cast<int64_t>(P.Body.size()))
          return Err(diagAtToken(
              cur(), "label " + std::to_string(cur().IntVal) +
                         " does not match command index " +
                         std::to_string(P.Body.size())));
        bump();
        bump();
      }
      auto C = parseCmd();
      if (!C)
        return Err(C.error());
      P.Body.push_back(C.take());
      if (!expectPunct(";"))
        return Err(ErrMsg);
    }
    bump(); // '}'
    return P;
  }

  Result<Cmd> parseCmd() {
    if (cur().isIdent("ifgoto")) {
      bump();
      Expr E = parseExpr();
      if (!E)
        return Err(ErrMsg);
      if (!cur().is(TokenKind::Int))
        return Err(diagAtToken(cur(), "expected jump target"));
      size_t Target = static_cast<size_t>(cur().IntVal);
      bump();
      return Cmd::ifGoto(E, Target);
    }
    if (cur().isIdent("goto")) {
      bump();
      if (!cur().is(TokenKind::Int))
        return Err(diagAtToken(cur(), "expected jump target"));
      size_t Target = static_cast<size_t>(cur().IntVal);
      bump();
      return Cmd::ifGoto(Expr::boolE(true), Target);
    }
    if (cur().isIdent("return")) {
      bump();
      Expr E = parseExpr();
      if (!E)
        return Err(ErrMsg);
      return Cmd::ret(E);
    }
    if (cur().isIdent("fail")) {
      bump();
      Expr E = parseExpr();
      if (!E)
        return Err(ErrMsg);
      return Cmd::fail(E);
    }
    if (cur().isIdent("vanish")) {
      bump();
      return Cmd::vanish();
    }

    auto X = expectIdent("assignment target");
    if (!X)
      return Err(ErrMsg);
    InternedString Target = InternedString::get(*X);
    if (!expectPunct(":="))
      return Err(ErrMsg);

    // x := @action(e)
    if (cur().isPunct("@")) {
      bump();
      auto Act = expectIdent("action name after '@'");
      if (!Act || !expectPunct("("))
        return Err(ErrMsg);
      Expr Arg = parseExpr();
      if (!Arg || !expectPunct(")"))
        return Err(ErrMsg);
      return Cmd::action(Target, InternedString::get(*Act), Arg);
    }
    // x := usym(j) / isym(j)
    if ((cur().isIdent("usym") || cur().isIdent("isym")) &&
        peek().isPunct("(")) {
      bool IsUSym = cur().Text == "usym";
      bump();
      bump();
      if (!cur().is(TokenKind::Int))
        return Err(diagAtToken(cur(), "expected allocation site"));
      uint32_t Site = static_cast<uint32_t>(cur().IntVal);
      bump();
      if (!expectPunct(")"))
        return Err(ErrMsg);
      return IsUSym ? Cmd::uSym(Target, Site) : Cmd::iSym(Target, Site);
    }

    Expr E = parseExpr();
    if (!E)
      return Err(ErrMsg);
    // x := e(e') — dynamic procedure call.
    if (cur().isPunct("(")) {
      bump();
      Expr Arg = parseExpr();
      if (!Arg || !expectPunct(")"))
        return Err(ErrMsg);
      return Cmd::call(Target, E, Arg);
    }
    return Cmd::assign(Target, E);
  }
};

} // namespace

Result<Prog> gillian::parseGilProg(std::string_view Source) {
  return Parser(Source).parseProg();
}

Result<Expr> gillian::parseGilExpr(std::string_view Source) {
  return Parser(Source).parseWholeExpr();
}

Result<Expr> gillian::parseExprAt(const TokenStream &Toks, size_t &Pos) {
  Parser P(Toks, Pos);
  return P.parseOneExpr(Pos);
}
