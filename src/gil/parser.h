//===- gil/parser.h - Textual GIL parser -----------------------*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A parser for the textual GIL syntax produced by Prog::toString /
/// Cmd::toString / Expr::toString, so GIL programs can be written by hand,
/// stored as goldens, and round-tripped in tests.
///
/// Grammar sketch (see tests/gil/parser_test.cpp for worked examples):
///
///   prog  ::= proc*
///   proc  ::= 'proc' IDENT '(' IDENT ')' '{' (label? cmd ';')* '}'
///   label ::= INT ':'
///   cmd   ::= IDENT ':=' expr
///           | IDENT ':=' expr '(' expr ')'           -- dynamic call
///           | IDENT ':=' '@' IDENT '(' expr ')'      -- action
///           | IDENT ':=' 'usym' '(' INT ')'
///           | IDENT ':=' 'isym' '(' INT ')'
///           | 'ifgoto' expr INT | 'goto' INT
///           | 'return' expr | 'fail' expr | 'vanish'
///   expr  ::= literals, pvars, '#'-lvars, '$'-symbols, '^'-type literals,
///             '&'-proc literals, '['e,..']' lists, unary - ! ~,
///             keyword ops (typeof/len/slen/hd/tl/to_num/to_int/
///             num_to_str/str_to_num/l_nth/s_nth), and infix operators
///             with conventional precedence.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_GIL_PARSER_H
#define GILLIAN_GIL_PARSER_H

#include "gil/prog.h"
#include "support/lexer.h"
#include "support/result.h"

#include <string_view>

namespace gillian {

/// Parses a complete GIL program.
Result<Prog> parseGilProg(std::string_view Source);

/// Parses a single GIL expression (the whole input must be consumed).
Result<Expr> parseGilExpr(std::string_view Source);

/// Parses one expression from a token stream starting at Toks[Pos],
/// advancing Pos past it. Shared by the While/MJS/MC front ends, whose
/// expression grammar coincides with GIL's.
Result<Expr> parseExprAt(const TokenStream &Toks, size_t &Pos);

} // namespace gillian

#endif // GILLIAN_GIL_PARSER_H
