//===- support/lexer.cpp -------------------------------------------------===//

#include "support/lexer.h"

#include <array>
#include <cstdlib>

using namespace gillian;

namespace {

/// Multi-character punctuators, longest first so maximal munch works by
/// scanning this table in order.
constexpr std::array<std::string_view, 23> MultiPuncts = {
    "===", "!==", "@+", "^^", ":=", "==", "!=", "<=", ">=", "&&", "||",
    "->",  "=>",  "++", "--", "<<", ">>", "::", "+=", "-=", "*=", "/=",
    "%="};

constexpr std::string_view SinglePuncts = "+-*/%<>=!&|(){}[],;:.?@~^";

/// ASCII character classes, looked up by byte (no locale).
enum CharClass : uint8_t {
  Space = 1,        ///< the C locale's isspace
  Digit = 2,
  IdentStart = 4,   ///< letters, '_', '$' and '#'
  IdentCont = 8,    ///< letters, digits, '_' and '$'
  Single = 16,      ///< a one-character punctuator
  MultiStart = 32,  ///< the first character of some MultiPuncts entry
};

constexpr std::array<uint8_t, 256> makeClasses() {
  std::array<uint8_t, 256> C{};
  for (unsigned char Ch : std::string_view(" \t\n\v\f\r"))
    C[Ch] |= Space;
  for (int Ch = '0'; Ch <= '9'; ++Ch)
    C[Ch] |= Digit | IdentCont;
  for (int Ch = 'a'; Ch <= 'z'; ++Ch) {
    C[Ch] |= IdentStart | IdentCont;
    C[Ch - 'a' + 'A'] |= IdentStart | IdentCont;
  }
  C['_'] |= IdentStart | IdentCont;
  C['$'] |= IdentStart | IdentCont;
  C['#'] |= IdentStart;
  for (unsigned char Ch : SinglePuncts)
    C[Ch] |= Single;
  for (std::string_view P : MultiPuncts)
    C[static_cast<unsigned char>(P[0])] |= MultiStart;
  return C;
}

constexpr std::array<uint8_t, 256> Classes = makeClasses();

bool has(char Ch, CharClass K) {
  return Classes[static_cast<unsigned char>(Ch)] & K;
}

/// 2^63: the one magnitude beyond INT64_MAX a literal may have (after '-').
constexpr uint64_t MinIntMagnitude = uint64_t(1) << 63;

class Lexer {
public:
  Lexer(std::string_view Src, std::vector<Token> &Toks,
        std::forward_list<std::string> &Owned)
      : Src(Src), Toks(Toks), Owned(Owned) {}

  void run() {
    // Real sources average about three bytes a token (2.9 to 3.3 on the
    // Table 1 and 2 units), so half the byte count sizes the vector once.
    Toks.reserve(Src.size() / 2 + 2);
    while (true) {
      if (!skipTrivia())
        return;
      next();
      TokenKind K = Toks.back().Kind;
      if (K == TokenKind::Eof || K == TokenKind::Error)
        return;
    }
  }

private:
  std::string_view Src;
  std::vector<Token> &Toks;
  std::forward_list<std::string> &Owned;
  size_t Pos = 0;
  int Line = 1, Col = 1;

  bool atEnd() const { return Pos >= Src.size(); }
  char peek(size_t Ahead = 0) const {
    return Pos + Ahead < Src.size() ? Src[Pos + Ahead] : '\0';
  }

  char advance() {
    char C = Src[Pos++];
    if (C == '\n') {
      ++Line;
      Col = 1;
    } else {
      ++Col;
    }
    return C;
  }

  /// Skips \p N characters known to hold no newline.
  void skip(size_t N) {
    Pos += N;
    Col += static_cast<int>(N);
  }

  /// Skips whitespace and comments. Returns false, after pushing an Error
  /// token at the comment's start, on a block comment that never closes.
  bool skipTrivia() {
    while (!atEnd()) {
      char C = peek();
      if (has(C, Space)) {
        advance();
        continue;
      }
      if (C == '/' && peek(1) == '/') {
        while (!atEnd() && peek() != '\n')
          skip(1);
        continue;
      }
      if (C == '/' && peek(1) == '*') {
        int L = Line, Cl = Col;
        skip(2);
        while (!atEnd() && !(peek() == '*' && peek(1) == '/'))
          advance();
        if (atEnd()) {
          error("unterminated block comment", L, Cl);
          return false;
        }
        skip(2);
        continue;
      }
      break;
    }
    return true;
  }

  Token &push(TokenKind K, std::string_view Text, int L, int C) {
    Token &T = Toks.emplace_back();
    T.Kind = K;
    T.Text = Text;
    T.Line = L;
    T.Col = C;
    return T;
  }

  /// Text that is not a slice of the source lives in the stream.
  std::string_view own(std::string S) {
    Owned.push_front(std::move(S));
    return Owned.front();
  }

  void error(std::string Message, int L, int C) {
    push(TokenKind::Error, own(std::move(Message)), L, C);
  }

  void next() {
    int L = Line, C = Col;
    if (atEnd()) {
      push(TokenKind::Eof, {}, L, C);
      return;
    }
    char Ch = peek();
    if (has(Ch, IdentStart))
      return lexIdent(L, C);
    if (has(Ch, Digit))
      return lexNumber(L, C);
    if (Ch == '"')
      return lexString(L, C);
    lexPunct(L, C);
  }

  void lexIdent(int L, int C) {
    size_t Start = Pos;
    // '$' / '#' prefixes mark symbols and logical variables in textual GIL.
    skip(1);
    while (!atEnd() && has(peek(), IdentCont))
      skip(1);
    push(TokenKind::Ident, Src.substr(Start, Pos - Start), L, C);
  }

  void skipDigits() {
    while (!atEnd() && has(peek(), Digit))
      skip(1);
  }

  void lexNumber(int L, int C) {
    size_t Start = Pos;
    skipDigits();
    bool IsFloat = false;
    if (peek() == '.' && has(peek(1), Digit)) {
      IsFloat = true;
      skip(1);
      skipDigits();
    }
    if (peek() == 'e' || peek() == 'E') {
      size_t Save = Pos;
      skip(1);
      if (peek() == '+' || peek() == '-')
        skip(1);
      if (has(peek(), Digit)) {
        IsFloat = true;
        skipDigits();
      } else {
        Col -= static_cast<int>(Pos - Save);
        Pos = Save; // 'e' starts an identifier, not an exponent
      }
    }
    std::string_view Spelling = Src.substr(Start, Pos - Start);
    if (IsFloat) {
      double V = std::strtod(std::string(Spelling).c_str(), nullptr);
      push(TokenKind::Float, Spelling, L, C).FloatVal = V;
      return;
    }
    // The exact magnitude, saturating just above 2^63.
    uint64_t Mag = 0;
    for (char D : Spelling) {
      uint64_t Digit = static_cast<uint64_t>(D - '0');
      if (Mag > (MinIntMagnitude - Digit) / 10) {
        Mag = MinIntMagnitude + 1;
        break;
      }
      Mag = Mag * 10 + Digit;
    }
    bool AfterMinus = !Toks.empty() && Toks.back().isPunct("-");
    if (Mag > MinIntMagnitude || (Mag == MinIntMagnitude && !AfterMinus))
      return error("integer literal out of range", L, C);
    push(TokenKind::Int, Spelling, L, C).IntVal =
        static_cast<int64_t>(Mag); // 2^63 becomes INT64_MIN
  }

  void lexString(int L, int C) {
    advance(); // opening quote
    size_t Start = Pos;
    while (!atEnd() && peek() != '"' && peek() != '\\')
      advance();
    if (peek() == '"') { // no escapes: the value is a slice of the source
      std::string_view Value = Src.substr(Start, Pos - Start);
      advance();
      push(TokenKind::String, Value, L, C);
      return;
    }
    std::string Value(Src.substr(Start, Pos - Start));
    while (!atEnd() && peek() != '"') {
      char Ch = advance();
      if (Ch != '\\') {
        Value.push_back(Ch);
        continue;
      }
      if (atEnd())
        break;
      char Esc = advance();
      switch (Esc) {
      case 'n': Value.push_back('\n'); break;
      case 't': Value.push_back('\t'); break;
      case 'r': Value.push_back('\r'); break;
      case '0': Value.push_back('\0'); break;
      case '\\': Value.push_back('\\'); break;
      case '"': Value.push_back('"'); break;
      default:
        return error(std::string("unknown escape sequence '\\") + Esc + "'",
                     L, C);
      }
    }
    if (atEnd())
      return error("unterminated string literal", L, C);
    advance(); // closing quote
    push(TokenKind::String, own(std::move(Value)), L, C);
  }

  void lexPunct(int L, int C) {
    char Ch = peek();
    size_t Len = 0;
    if (has(Ch, MultiStart)) {
      std::string_view Rest = Src.substr(Pos);
      for (std::string_view P : MultiPuncts)
        if (P[0] == Ch && Rest.substr(0, P.size()) == P) {
          Len = P.size();
          break;
        }
    }
    if (Len == 0 && has(Ch, Single))
      Len = 1;
    if (Len == 0) {
      advance();
      return error(std::string("unexpected character '") + Ch + "'", L, C);
    }
    std::string_view Spelling = Src.substr(Pos, Len);
    skip(Len);
    push(TokenKind::Punct, Spelling, L, C).Punct = punctCode(Spelling);
  }
};

} // namespace

TokenStream gillian::tokenize(std::string_view Source) {
  TokenStream S;
  Lexer(Source, S.Toks, S.Owned).run();
  return S;
}
