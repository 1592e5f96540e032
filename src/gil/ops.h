//===- gil/ops.h - GIL unary/binary operators ------------------*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The GIL operator set (the ⊖ and ⊕ of the §2.1 expression grammar) and
/// its concrete semantics. The same evaluation functions are reused by the
/// symbolic simplifier for constant folding, which keeps the concrete and
/// symbolic semantics of operators identical by construction.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_GIL_OPS_H
#define GILLIAN_GIL_OPS_H

#include "gil/value.h"
#include "support/result.h"

#include <string_view>

namespace gillian {

enum class UnOpKind : uint8_t {
  Neg,      ///< arithmetic negation (Int -> Int, Num -> Num)
  Not,      ///< boolean negation
  BitNot,   ///< bitwise complement (Int)
  TypeOf,   ///< dynamic type (any -> Type)
  ListLen,  ///< list length (List -> Int)
  StrLen,   ///< string length (Str -> Int)
  Head,     ///< first element of a non-empty list
  Tail,     ///< all but the first element of a non-empty list
  ToNum,    ///< Int -> Num widening (identity on Num)
  ToInt,    ///< Num -> Int truncation (identity on Int)
  NumToStr, ///< numeric -> decimal string
  StrToNum, ///< decimal string -> Num (error on malformed input)
};

enum class BinOpKind : uint8_t {
  Add,       ///< Int+Int -> Int, otherwise numeric -> Num
  Sub,
  Mul,
  Div,       ///< Int/Int truncating; numeric otherwise; error on 0 (Int)
  Mod,       ///< Int only; error on 0
  Eq,        ///< structural equality on any values -> Bool
  Lt,        ///< numeric or string (lexicographic) -> Bool
  Le,
  And,       ///< boolean
  Or,        ///< boolean
  StrCat,    ///< string concatenation
  StrNth,    ///< 1-character substring at Int index (error when OOB)
  ListNth,   ///< list element at Int index (error when OOB)
  ListConcat,///< list ++ list
  Cons,      ///< element :: list
  BitAnd,    ///< Int
  BitOr,     ///< Int
  BitXor,    ///< Int
  Shl,       ///< Int (shift in [0,63], error otherwise)
  Shr,       ///< Int arithmetic shift (shift in [0,63], error otherwise)
};

/// Spelling used by the textual GIL printer/parser ("-", "!", "typeof",...).
std::string_view unOpSpelling(UnOpKind Op);
/// Spelling used by the textual GIL printer/parser ("+", "==", "::", ...).
std::string_view binOpSpelling(BinOpKind Op);

/// Concrete semantics of a unary operator; errors describe GIL runtime
/// type errors (which the interpreter turns into E(msg) outcomes).
Result<Value> evalUnOp(UnOpKind Op, const Value &V);

/// Concrete semantics of a binary operator.
Result<Value> evalBinOp(BinOpKind Op, const Value &A, const Value &B);

/// True for operators whose result is always Bool.
bool isBooleanResult(BinOpKind Op);

/// True for Add/Sub/Mul/Div on which algebraic identities apply.
bool isArithmetic(BinOpKind Op);

/// Int arithmetic wraps in two's complement (GIL's Int is int64; the Z3
/// encoding's Int is unbounded, see DESIGN.md §1). These are the only
/// spellings of +, - and unary - on Ints that the operator semantics and
/// the simplifier's offset rewrites use, so no overflow is undefined.
inline int64_t wrappingAdd(int64_t X, int64_t Y) {
  return static_cast<int64_t>(static_cast<uint64_t>(X) +
                              static_cast<uint64_t>(Y));
}
inline int64_t wrappingSub(int64_t X, int64_t Y) {
  return static_cast<int64_t>(static_cast<uint64_t>(X) -
                              static_cast<uint64_t>(Y));
}
inline int64_t wrappingMul(int64_t X, int64_t Y) {
  return static_cast<int64_t>(static_cast<uint64_t>(X) *
                              static_cast<uint64_t>(Y));
}
inline int64_t wrappingNeg(int64_t X) { return wrappingSub(0, X); }

} // namespace gillian

#endif // GILLIAN_GIL_OPS_H
