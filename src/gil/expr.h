//===- gil/expr.h - GIL / logical expressions (§2.1, §2.3) -----*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Expressions shared between GIL programs and the symbolic machinery.
///
/// The paper distinguishes program expressions (e ∈ E: values, program
/// variables, operators) from logical expressions (ê ∈ Ê: values, logical
/// variables, operators). We use one immutable expression type covering
/// both: program expressions never contain LVar nodes, and symbolic-store
/// substitution maps PVar nodes away, yielding pure logical expressions.
/// Nodes are shared (shallow copies are O(1)) and carry precomputed hashes
/// so the solver layers can memoise on expressions cheaply.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_GIL_EXPR_H
#define GILLIAN_GIL_EXPR_H

#include "gil/ops.h"
#include "gil/value.h"
#include "support/result.h"

#include <cassert>
#include <functional>
#include <memory>
#include <set>
#include <vector>

namespace gillian {

enum class ExprKind : uint8_t {
  Lit,   ///< literal value
  PVar,  ///< program variable x ∈ X
  LVar,  ///< logical variable x̂ ∈ X̂ (spelled with a leading '#')
  UnOp,  ///< ⊖ e
  BinOp, ///< e1 ⊕ e2
  List,  ///< [e1, ..., en] (n-ary list construction)
};

/// An immutable, shared expression. Copying is O(1).
class Expr {
  struct Node;

public:
  /// Null expression; only valid as a placeholder. All factories produce
  /// non-null expressions and all accessors require one.
  Expr() = default;

  static Expr lit(Value V);
  static Expr intE(int64_t I) { return lit(Value::intV(I)); }
  static Expr numE(double D) { return lit(Value::numV(D)); }
  static Expr strE(std::string_view S) { return lit(Value::strV(S)); }
  static Expr boolE(bool B) { return lit(Value::boolV(B)); }
  static Expr pvar(InternedString X);
  static Expr pvar(std::string_view X) { return pvar(InternedString::get(X)); }
  static Expr lvar(InternedString X);
  static Expr lvar(std::string_view X) { return lvar(InternedString::get(X)); }
  static Expr unOp(UnOpKind Op, Expr E);
  static Expr binOp(BinOpKind Op, Expr A, Expr B);
  static Expr list(std::vector<Expr> Elems);

  // Frequent combinators.
  static Expr eq(Expr A, Expr B) { return binOp(BinOpKind::Eq, A, B); }
  static Expr lt(Expr A, Expr B) { return binOp(BinOpKind::Lt, A, B); }
  static Expr le(Expr A, Expr B) { return binOp(BinOpKind::Le, A, B); }
  static Expr add(Expr A, Expr B) { return binOp(BinOpKind::Add, A, B); }
  static Expr sub(Expr A, Expr B) { return binOp(BinOpKind::Sub, A, B); }
  static Expr andE(Expr A, Expr B) { return binOp(BinOpKind::And, A, B); }
  static Expr orE(Expr A, Expr B) { return binOp(BinOpKind::Or, A, B); }
  static Expr notE(Expr E) { return unOp(UnOpKind::Not, E); }
  static Expr typeOf(Expr E) { return unOp(UnOpKind::TypeOf, E); }
  /// typeof(E) == T, the standard typing constraint.
  static Expr hasType(Expr E, GilType T) {
    return eq(typeOf(E), lit(Value::typeV(T)));
  }

  bool isNull() const { return !N; }
  explicit operator bool() const { return N != nullptr; }

  ExprKind kind() const;
  const Value &litValue() const;
  InternedString varName() const; ///< PVar or LVar name
  UnOpKind unOpKind() const;
  BinOpKind binOpKind() const;
  size_t numChildren() const;
  const Expr &child(size_t I) const;

  bool isLit() const { return N && kind() == ExprKind::Lit; }
  bool isLitBool(bool B) const {
    return isLit() && litValue().isBool() && litValue().asBool() == B;
  }
  bool isTrue() const { return isLitBool(true); }
  bool isFalse() const { return isLitBool(false); }
  bool isLVar() const { return N && kind() == ExprKind::LVar; }
  bool isPVar() const { return N && kind() == ExprKind::PVar; }

  size_t hash() const;

  /// Stable address of the shared node — an identity key for memo tables.
  /// Valid only while some Expr still references the node, so any table
  /// keyed on it must also hold the Expr to pin the node alive (a recycled
  /// address would otherwise alias a dead entry).
  const void *identity() const { return N.get(); }

  /// Structural equality (hash-accelerated).
  friend bool operator==(const Expr &A, const Expr &B);
  friend bool operator!=(const Expr &A, const Expr &B) { return !(A == B); }

  /// Renders in textual-GIL syntax; round-trips through parseGilExpr.
  std::string toString() const;

  /// Adds every logical variable occurring in this expression to \p Out.
  void collectLVars(std::set<InternedString> &Out) const;
  /// Adds every program variable occurring in this expression to \p Out.
  void collectPVars(std::set<InternedString> &Out) const;
  /// True if any LVar or uninterpreted-symbol literal occurs (i.e., the
  /// expression is not fully concrete... symbols are concrete values, so
  /// this checks LVars only).
  bool hasLVars() const;

  /// Replaces every PVar x with Lookup(x); unresolved variables (null
  /// results) are an error reported by the caller side via the returned
  /// null Expr.
  Expr substPVars(
      const std::function<Expr(InternedString)> &Lookup) const;

  /// Replaces every LVar x̂ with Lookup(x̂); variables mapped to null stay.
  Expr substLVars(
      const std::function<Expr(InternedString)> &Lookup) const;

  /// Concrete big-step evaluation (the JeKρ of §2.3). LVars are an error;
  /// PVars are resolved through \p StoreLookup (null result = unbound).
  Result<Value> evalConcrete(
      const std::function<const Value *(InternedString)> &StoreLookup) const;

  /// Evaluates a closed expression (no PVars, no LVars).
  Result<Value> evalClosed() const;

private:
  std::shared_ptr<const Node> N;
};

/// The shared node behind an Expr. Defined here so the accessors below
/// inline into the engine's and solver's tree walks.
struct Expr::Node {
  ExprKind Kind;
  uint8_t Op = 0; ///< UnOpKind or BinOpKind, depending on Kind
  Value Lit;
  InternedString Var;
  std::vector<Expr> Kids;
  size_t Hash = 0;
};

inline ExprKind Expr::kind() const {
  assert(N && "kind() on null Expr");
  return N->Kind;
}

inline const Value &Expr::litValue() const {
  assert(N && N->Kind == ExprKind::Lit && "not a literal");
  return N->Lit;
}

inline InternedString Expr::varName() const {
  assert(N && (N->Kind == ExprKind::PVar || N->Kind == ExprKind::LVar) &&
         "not a variable");
  return N->Var;
}

inline UnOpKind Expr::unOpKind() const {
  assert(N && N->Kind == ExprKind::UnOp && "not a unary operator");
  return static_cast<UnOpKind>(N->Op);
}

inline BinOpKind Expr::binOpKind() const {
  assert(N && N->Kind == ExprKind::BinOp && "not a binary operator");
  return static_cast<BinOpKind>(N->Op);
}

inline size_t Expr::numChildren() const { return N ? N->Kids.size() : 0; }

inline const Expr &Expr::child(size_t I) const {
  assert(N && I < N->Kids.size() && "child index out of range");
  return N->Kids[I];
}

inline size_t Expr::hash() const { return N ? N->Hash : 0; }

bool operator==(const Expr &A, const Expr &B);

/// A deterministic strict weak ordering on expressions (hash-major, with a
/// structural tie-break), so expressions can key ordered maps — symbolic
/// memories are maps from location *expressions* (Defs 2.4, §2.4, §4.1).
struct ExprOrdering {
  bool operator()(const Expr &A, const Expr &B) const;
};

} // namespace gillian

template <> struct std::hash<gillian::Expr> {
  size_t operator()(const gillian::Expr &E) const noexcept { return E.hash(); }
};

#endif // GILLIAN_GIL_EXPR_H
