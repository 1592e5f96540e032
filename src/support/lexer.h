//===- support/lexer.h - Shared tokenizer ----------------------*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A shared tokenizer used by all four front ends (textual GIL, While, MJS
/// and MC). The token set is the union of what those grammars need;
/// keywords are recognised by the individual parsers, not here.
///
/// Tokens view the source they were lexed from: the source must outlive
/// the TokenStream, which lives only as long as the parse that needs it.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_SUPPORT_LEXER_H
#define GILLIAN_SUPPORT_LEXER_H

#include <cstdint>
#include <forward_list>
#include <string>
#include <string_view>
#include <vector>

namespace gillian {

enum class TokenKind : uint8_t {
  Eof,
  Ident,   ///< identifier, possibly prefixed with '$' (symbols) or '#' (lvars)
  Int,     ///< integer literal
  Float,   ///< floating-point literal (contains '.' or exponent)
  String,  ///< double-quoted string literal (Text holds the decoded value)
  Punct,   ///< operator / punctuation (Text holds the spelling)
  Error,   ///< lexical error (Text holds the message)
};

/// The spelling of a punctuator of at most three characters packed into
/// one integer, so punctuation compares as a single integer compare.
constexpr uint32_t punctCode(std::string_view P) {
  if (P.empty() || P.size() > 3)
    return 0;
  uint32_t Code = 0;
  for (size_t I = 0; I < P.size(); ++I)
    Code |= static_cast<uint32_t>(static_cast<unsigned char>(P[I])) << (8 * I);
  return Code;
}

struct Token {
  TokenKind Kind = TokenKind::Eof;
  uint32_t Punct = 0;    ///< punctCode of the spelling (Punct tokens only)
  std::string_view Text; ///< spelling (decoded for strings)
  int64_t IntVal = 0;    ///< value for Int tokens
  double FloatVal = 0;   ///< value for Float tokens
  int Line = 1;
  int Col = 1;

  bool is(TokenKind K) const { return Kind == K; }
  bool isPunct(std::string_view P) const {
    return Kind == TokenKind::Punct && Punct == punctCode(P);
  }
  bool isIdent(std::string_view S) const {
    return Kind == TokenKind::Ident && Text == S;
  }
};

/// The tokens of one source text, ending in an Eof or Error token. Token
/// spellings view the source, except the few that are not source text
/// (escaped string literals and error messages), which the stream owns.
class TokenStream {
public:
  const Token &operator[](size_t I) const { return Toks[I]; }
  size_t size() const { return Toks.size(); }
  bool empty() const { return Toks.empty(); }
  const Token &back() const { return Toks.back(); }
  std::vector<Token>::const_iterator begin() const { return Toks.begin(); }
  std::vector<Token>::const_iterator end() const { return Toks.end(); }

private:
  friend TokenStream tokenize(std::string_view Source);
  std::vector<Token> Toks;
  std::forward_list<std::string> Owned; ///< stable storage for Text views
};

/// Tokenizes \p Source in one pass.
///
/// Supports //-line and /*-block*/ comments, decimal integer and float
/// literals, C-style string escapes, and maximal-munch multi-character
/// punctuation (e.g. ":=", "==", "===", "<=", "&&", "->", "@+").
/// Lexical errors become a single Error token at the failure position.
///
/// An integer literal's magnitude must fit GIL's 64-bit Int: at most
/// INT64_MAX, or exactly 2^63 right after a '-' token, where it lexes as
/// INT64_MIN (negating INT64_MIN wraps back to INT64_MIN). Any other
/// literal is an error, as is a block comment that never closes.
TokenStream tokenize(std::string_view Source);

} // namespace gillian

#endif // GILLIAN_SUPPORT_LEXER_H
