//===- support/diagnostics.cpp -------------------------------------------===//

#include "support/diagnostics.h"

using namespace gillian;

std::string gillian::diagAt(int Line, int Col, const std::string &Message) {
  return "line " + std::to_string(Line) + ":" + std::to_string(Col) + ": " +
         Message;
}

std::string gillian::diagAtToken(const Token &Tok, const std::string &Message) {
  std::string Where;
  switch (Tok.Kind) {
  case TokenKind::Eof:
    Where = " (at end of input)";
    break;
  case TokenKind::Error:
    Where = " (" + std::string(Tok.Text) + ")";
    break;
  default:
    Where = " (at '" + std::string(Tok.Text) + "')";
    break;
  }
  return diagAt(Tok.Line, Tok.Col, Message + Where);
}
