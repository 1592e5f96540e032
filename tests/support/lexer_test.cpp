//===- tests/support/lexer_test.cpp ---------------------------------------===//

#include "support/lexer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

using namespace gillian;

namespace {

TokenStream lexOk(std::string_view Src) {
  TokenStream T = tokenize(Src);
  EXPECT_FALSE(T.empty());
  EXPECT_TRUE(T.back().is(TokenKind::Eof)) << "lexical error: "
                                           << T.back().Text;
  return T;
}

} // namespace

TEST(Lexer, IdentifiersAndPrefixes) {
  auto T = lexOk("foo _bar $sym #lvar x1$y");
  ASSERT_EQ(T.size(), 6u); // 5 idents + eof
  EXPECT_EQ(T[0].Text, "foo");
  EXPECT_EQ(T[1].Text, "_bar");
  EXPECT_EQ(T[2].Text, "$sym");
  EXPECT_EQ(T[3].Text, "#lvar");
  EXPECT_EQ(T[4].Text, "x1$y");
}

TEST(Lexer, IntAndFloatLiterals) {
  auto T = lexOk("42 3.5 1e3 7");
  EXPECT_TRUE(T[0].is(TokenKind::Int));
  EXPECT_EQ(T[0].IntVal, 42);
  EXPECT_TRUE(T[1].is(TokenKind::Float));
  EXPECT_DOUBLE_EQ(T[1].FloatVal, 3.5);
  EXPECT_TRUE(T[2].is(TokenKind::Float));
  EXPECT_DOUBLE_EQ(T[2].FloatVal, 1000.0);
  EXPECT_TRUE(T[3].is(TokenKind::Int));
}

TEST(Lexer, DotWithoutDigitIsNotAFloat) {
  auto T = lexOk("1.x");
  EXPECT_TRUE(T[0].is(TokenKind::Int));
  EXPECT_TRUE(T[1].isPunct("."));
  EXPECT_EQ(T[2].Text, "x");
}

TEST(Lexer, StringEscapes) {
  auto T = lexOk(R"("a\nb\"c\\d")");
  ASSERT_TRUE(T[0].is(TokenKind::String));
  EXPECT_EQ(T[0].Text, "a\nb\"c\\d");
}

TEST(Lexer, UnterminatedStringIsError) {
  auto T = tokenize("\"abc");
  EXPECT_TRUE(T.back().is(TokenKind::Error));
}

TEST(Lexer, UnknownEscapeIsError) {
  auto T = tokenize(R"("a\qb")");
  EXPECT_TRUE(T.back().is(TokenKind::Error));
}

TEST(Lexer, MaximalMunchPunctuation) {
  auto T = lexOk("a:=b==c===d<=e&&f");
  std::vector<std::string> Puncts;
  for (const Token &Tok : T)
    if (Tok.is(TokenKind::Punct))
      Puncts.emplace_back(Tok.Text);
  EXPECT_EQ(Puncts, (std::vector<std::string>{":=", "==", "===", "<=", "&&"}));
}

TEST(Lexer, CommentsAreSkipped) {
  auto T = lexOk("a // line comment\nb /* block\ncomment */ c");
  ASSERT_EQ(T.size(), 4u);
  EXPECT_EQ(T[0].Text, "a");
  EXPECT_EQ(T[1].Text, "b");
  EXPECT_EQ(T[2].Text, "c");
}

TEST(Lexer, LineAndColumnTracking) {
  auto T = lexOk("a\n  b");
  EXPECT_EQ(T[0].Line, 1);
  EXPECT_EQ(T[0].Col, 1);
  EXPECT_EQ(T[1].Line, 2);
  EXPECT_EQ(T[1].Col, 3);
}

TEST(Lexer, UnexpectedCharacterIsError) {
  auto T = tokenize("a ` b");
  EXPECT_TRUE(T.back().is(TokenKind::Error));
  EXPECT_NE(T.back().Text.find('`'), std::string::npos);
}

TEST(Lexer, ExponentNotConsumedAsIdent) {
  // "1e" followed by non-digit: the 'e' must start an identifier.
  auto T = lexOk("1e x");
  EXPECT_TRUE(T[0].is(TokenKind::Int));
  EXPECT_EQ(T[1].Text, "e");
}

TEST(Lexer, SpellingsViewTheSource) {
  std::string_view Src = R"(name "plain" "esc\n" := 12)";
  auto T = lexOk(Src);
  auto InSource = [&](std::string_view V) {
    return Src.data() <= V.data() &&
           V.data() + V.size() <= Src.data() + Src.size();
  };
  EXPECT_TRUE(InSource(T[0].Text));
  EXPECT_TRUE(InSource(T[1].Text)); // no escapes: a slice between the quotes
  EXPECT_EQ(T[1].Text, "plain");
  EXPECT_FALSE(InSource(T[2].Text)); // decoded into the stream's storage
  EXPECT_EQ(T[2].Text, "esc\n");
  EXPECT_TRUE(T[3].isPunct(":="));
  EXPECT_FALSE(T[3].isPunct(":"));
  EXPECT_EQ(T[4].IntVal, 12);
}

TEST(Lexer, IntegerLiteralsFitInt64) {
  auto T = lexOk("9223372036854775807 - 9223372036854775808");
  EXPECT_EQ(T[0].IntVal, std::numeric_limits<int64_t>::max());
  // 2^63 only after '-', where it lexes as INT64_MIN, the value the
  // negation folds back to.
  EXPECT_EQ(T[2].IntVal, std::numeric_limits<int64_t>::min());
}

TEST(Lexer, OutOfRangeIntegerLiteralIsError) {
  for (std::string_view Src :
       {"x 9223372036854775808", "x 9223372036854775809",
        "x 18446744073709551616", "x -99999999999999999999"}) {
    auto T = tokenize(Src);
    ASSERT_TRUE(T.back().is(TokenKind::Error)) << Src;
    EXPECT_EQ(T.back().Text, "integer literal out of range") << Src;
    EXPECT_EQ(T.back().Line, 1);
    EXPECT_EQ(T.back().Col, Src[2] == '-' ? 4 : 3) << Src;
  }
}

TEST(Lexer, UnterminatedBlockCommentIsError) {
  auto T = tokenize("a\n  /* never closed\nproc b() {}");
  ASSERT_EQ(T.size(), 2u);
  EXPECT_EQ(T[0].Text, "a");
  ASSERT_TRUE(T.back().is(TokenKind::Error));
  EXPECT_EQ(T.back().Text, "unterminated block comment");
  EXPECT_EQ(T.back().Line, 2);
  EXPECT_EQ(T.back().Col, 3);
}
