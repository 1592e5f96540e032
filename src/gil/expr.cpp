//===- gil/expr.cpp -------------------------------------------------------===//

#include "gil/expr.h"

#include <algorithm>
#include <cassert>

using namespace gillian;

namespace {

size_t mix(size_t H, size_t X) {
  return (H ^ X) * 0x9E3779B97F4A7C15ull + 0x632BE59BD9B4E019ull;
}

} // namespace

Expr Expr::lit(Value V) {
  auto N = std::make_shared<Node>();
  N->Kind = ExprKind::Lit;
  N->Hash = mix(1, V.hash());
  N->Lit = std::move(V);
  Expr E;
  E.N = std::move(N);
  return E;
}

Expr Expr::pvar(InternedString X) {
  auto N = std::make_shared<Node>();
  N->Kind = ExprKind::PVar;
  N->Var = X;
  N->Hash = mix(2, X.id());
  Expr E;
  E.N = std::move(N);
  return E;
}

Expr Expr::lvar(InternedString X) {
  auto N = std::make_shared<Node>();
  N->Kind = ExprKind::LVar;
  N->Var = X;
  N->Hash = mix(3, X.id());
  Expr E;
  E.N = std::move(N);
  return E;
}

Expr Expr::unOp(UnOpKind Op, Expr E) {
  assert(E && "unOp child must be non-null");
  auto N = std::make_shared<Node>();
  N->Kind = ExprKind::UnOp;
  N->Op = static_cast<uint8_t>(Op);
  N->Hash = mix(mix(4, N->Op), E.hash());
  N->Kids.push_back(std::move(E));
  Expr R;
  R.N = std::move(N);
  return R;
}

Expr Expr::binOp(BinOpKind Op, Expr A, Expr B) {
  assert(A && B && "binOp children must be non-null");
  auto N = std::make_shared<Node>();
  N->Kind = ExprKind::BinOp;
  N->Op = static_cast<uint8_t>(Op);
  N->Hash = mix(mix(mix(5, N->Op), A.hash()), B.hash());
  N->Kids.reserve(2);
  N->Kids.push_back(std::move(A));
  N->Kids.push_back(std::move(B));
  Expr R;
  R.N = std::move(N);
  return R;
}

Expr Expr::list(std::vector<Expr> Elems) {
  auto N = std::make_shared<Node>();
  N->Kind = ExprKind::List;
  size_t H = 6;
  for (const Expr &E : Elems) {
    assert(E && "list elements must be non-null");
    H = mix(H, E.hash());
  }
  N->Hash = mix(H, Elems.size());
  N->Kids = std::move(Elems);
  Expr R;
  R.N = std::move(N);
  return R;
}

bool gillian::operator==(const Expr &A, const Expr &B) {
  if (A.N == B.N)
    return true;
  if (!A.N || !B.N)
    return false;
  if (A.N->Hash != B.N->Hash || A.N->Kind != B.N->Kind || A.N->Op != B.N->Op)
    return false;
  switch (A.N->Kind) {
  case ExprKind::Lit:
    return A.N->Lit == B.N->Lit;
  case ExprKind::PVar:
  case ExprKind::LVar:
    return A.N->Var == B.N->Var;
  case ExprKind::UnOp:
  case ExprKind::BinOp:
  case ExprKind::List: {
    if (A.N->Kids.size() != B.N->Kids.size())
      return false;
    for (size_t I = 0, E = A.N->Kids.size(); I != E; ++I)
      if (A.N->Kids[I] != B.N->Kids[I])
        return false;
    return true;
  }
  }
  return false;
}

/// True for unary operators spelled like function calls ("typeof(e)").
static bool isKeywordUnOp(UnOpKind Op) {
  switch (Op) {
  case UnOpKind::Neg:
  case UnOpKind::Not:
  case UnOpKind::BitNot:
    return false;
  default:
    return true;
  }
}

/// True for binary operators spelled like function calls ("l_nth(a,b)").
static bool isKeywordBinOp(BinOpKind Op) {
  return Op == BinOpKind::ListNth || Op == BinOpKind::StrNth;
}

std::string Expr::toString() const {
  if (!N)
    return "<null-expr>";
  switch (N->Kind) {
  case ExprKind::Lit:
    return N->Lit.toString();
  case ExprKind::PVar:
  case ExprKind::LVar:
    return std::string(N->Var.str());
  case ExprKind::UnOp: {
    UnOpKind Op = unOpKind();
    std::string C = N->Kids[0].toString();
    if (isKeywordUnOp(Op))
      return std::string(unOpSpelling(Op)) + "(" + C + ")";
    return "(" + std::string(unOpSpelling(Op)) + " " + C + ")";
  }
  case ExprKind::BinOp: {
    BinOpKind Op = binOpKind();
    std::string A = N->Kids[0].toString(), B = N->Kids[1].toString();
    if (isKeywordBinOp(Op))
      return std::string(binOpSpelling(Op)) + "(" + A + ", " + B + ")";
    return "(" + A + " " + std::string(binOpSpelling(Op)) + " " + B + ")";
  }
  case ExprKind::List: {
    std::string Out = "[";
    for (size_t I = 0, E = N->Kids.size(); I != E; ++I) {
      if (I)
        Out += ", ";
      Out += N->Kids[I].toString();
    }
    return Out + "]";
  }
  }
  return "<bad-expr>";
}

void Expr::collectLVars(std::set<InternedString> &Out) const {
  if (!N)
    return;
  if (N->Kind == ExprKind::LVar) {
    Out.insert(N->Var);
    return;
  }
  for (const Expr &K : N->Kids)
    K.collectLVars(Out);
}

void Expr::collectPVars(std::set<InternedString> &Out) const {
  if (!N)
    return;
  if (N->Kind == ExprKind::PVar) {
    Out.insert(N->Var);
    return;
  }
  for (const Expr &K : N->Kids)
    K.collectPVars(Out);
}

bool Expr::hasLVars() const {
  if (!N)
    return false;
  if (N->Kind == ExprKind::LVar)
    return true;
  for (const Expr &K : N->Kids)
    if (K.hasLVars())
      return true;
  return false;
}

Expr Expr::substPVars(
    const std::function<Expr(InternedString)> &Lookup) const {
  if (!N)
    return Expr();
  switch (N->Kind) {
  case ExprKind::Lit:
  case ExprKind::LVar:
    return *this;
  case ExprKind::PVar:
    return Lookup(N->Var);
  case ExprKind::UnOp: {
    Expr C = N->Kids[0].substPVars(Lookup);
    if (!C)
      return Expr();
    if (C == N->Kids[0])
      return *this;
    return unOp(unOpKind(), C);
  }
  case ExprKind::BinOp: {
    Expr A = N->Kids[0].substPVars(Lookup);
    Expr B = N->Kids[1].substPVars(Lookup);
    if (!A || !B)
      return Expr();
    if (A == N->Kids[0] && B == N->Kids[1])
      return *this;
    return binOp(binOpKind(), A, B);
  }
  case ExprKind::List: {
    std::vector<Expr> Kids;
    Kids.reserve(N->Kids.size());
    bool Changed = false;
    for (const Expr &K : N->Kids) {
      Expr S = K.substPVars(Lookup);
      if (!S)
        return Expr();
      Changed |= S != K;
      Kids.push_back(std::move(S));
    }
    if (!Changed)
      return *this;
    return list(std::move(Kids));
  }
  }
  return Expr();
}

Expr Expr::substLVars(
    const std::function<Expr(InternedString)> &Lookup) const {
  if (!N)
    return Expr();
  switch (N->Kind) {
  case ExprKind::Lit:
  case ExprKind::PVar:
    return *this;
  case ExprKind::LVar: {
    Expr R = Lookup(N->Var);
    return R ? R : *this;
  }
  case ExprKind::UnOp: {
    Expr C = N->Kids[0].substLVars(Lookup);
    if (C == N->Kids[0])
      return *this;
    return unOp(unOpKind(), C);
  }
  case ExprKind::BinOp: {
    Expr A = N->Kids[0].substLVars(Lookup);
    Expr B = N->Kids[1].substLVars(Lookup);
    if (A == N->Kids[0] && B == N->Kids[1])
      return *this;
    return binOp(binOpKind(), A, B);
  }
  case ExprKind::List: {
    std::vector<Expr> Kids;
    Kids.reserve(N->Kids.size());
    bool Changed = false;
    for (const Expr &K : N->Kids) {
      Expr S = K.substLVars(Lookup);
      Changed |= S != K;
      Kids.push_back(std::move(S));
    }
    if (!Changed)
      return *this;
    return list(std::move(Kids));
  }
  }
  return Expr();
}

Result<Value> Expr::evalConcrete(
    const std::function<const Value *(InternedString)> &StoreLookup) const {
  assert(N && "evaluating null Expr");
  switch (N->Kind) {
  case ExprKind::Lit:
    return N->Lit;
  case ExprKind::PVar: {
    const Value *V = StoreLookup(N->Var);
    if (!V)
      return Err("unbound program variable '" + std::string(N->Var.str()) +
                 "'");
    return *V;
  }
  case ExprKind::LVar:
    return Err("logical variable '" + std::string(N->Var.str()) +
               "' in concrete evaluation");
  case ExprKind::UnOp: {
    Result<Value> C = N->Kids[0].evalConcrete(StoreLookup);
    if (!C)
      return C;
    return evalUnOp(unOpKind(), *C);
  }
  case ExprKind::BinOp: {
    // Short-circuit boolean operators so guards like (i < len && nth(l, i))
    // do not evaluate the out-of-bounds side.
    BinOpKind Op = binOpKind();
    Result<Value> A = N->Kids[0].evalConcrete(StoreLookup);
    if (!A)
      return A;
    if (Op == BinOpKind::And && A->isBool() && !A->asBool())
      return Value::boolV(false);
    if (Op == BinOpKind::Or && A->isBool() && A->asBool())
      return Value::boolV(true);
    Result<Value> B = N->Kids[1].evalConcrete(StoreLookup);
    if (!B)
      return B;
    return evalBinOp(Op, *A, *B);
  }
  case ExprKind::List: {
    std::vector<Value> Elems;
    Elems.reserve(N->Kids.size());
    for (const Expr &K : N->Kids) {
      Result<Value> V = K.evalConcrete(StoreLookup);
      if (!V)
        return V;
      Elems.push_back(V.take());
    }
    return Value::listV(std::move(Elems));
  }
  }
  return Err("unknown expression kind");
}

Result<Value> Expr::evalClosed() const {
  return evalConcrete([](InternedString) { return nullptr; });
}

/// Structural three-way comparison used only to break hash ties; returns
/// <0, 0, >0.
static int cmpExpr(const Expr &A, const Expr &B) {
  if (A == B)
    return 0;
  if (A.kind() != B.kind())
    return static_cast<int>(A.kind()) < static_cast<int>(B.kind()) ? -1 : 1;
  switch (A.kind()) {
  case ExprKind::Lit:
    return A.litValue() < B.litValue() ? -1 : 1;
  case ExprKind::PVar:
  case ExprKind::LVar:
    return A.varName() < B.varName() ? -1 : 1;
  case ExprKind::UnOp:
    if (A.unOpKind() != B.unOpKind())
      return static_cast<int>(A.unOpKind()) < static_cast<int>(B.unOpKind())
                 ? -1
                 : 1;
    return cmpExpr(A.child(0), B.child(0));
  case ExprKind::BinOp:
    if (A.binOpKind() != B.binOpKind())
      return static_cast<int>(A.binOpKind()) <
                     static_cast<int>(B.binOpKind())
                 ? -1
                 : 1;
    if (int C = cmpExpr(A.child(0), B.child(0)))
      return C;
    return cmpExpr(A.child(1), B.child(1));
  case ExprKind::List: {
    size_t N = std::min(A.numChildren(), B.numChildren());
    for (size_t I = 0; I < N; ++I)
      if (int C = cmpExpr(A.child(I), B.child(I)))
        return C;
    if (A.numChildren() != B.numChildren())
      return A.numChildren() < B.numChildren() ? -1 : 1;
    return 0;
  }
  }
  return 0;
}

bool ExprOrdering::operator()(const Expr &A, const Expr &B) const {
  if (A.hash() != B.hash())
    return A.hash() < B.hash();
  return cmpExpr(A, B) < 0;
}
