//===- solver/syntactic.cpp -----------------------------------------------===//

#include "solver/syntactic.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <unordered_map>

using namespace gillian;

std::string_view gillian::satResultName(SatResult R) {
  switch (R) {
  case SatResult::Sat: return "sat";
  case SatResult::Unsat: return "unsat";
  case SatResult::Unknown: return "unknown";
  }
  return "<bad-sat-result>";
}

namespace {

constexpr int64_t IntMin = std::numeric_limits<int64_t>::min();
constexpr int64_t IntMax = std::numeric_limits<int64_t>::max();

/// Equality classes over expressions (opaque terms except for literals,
/// until closeCongruence relates applications), plus per-class integer
/// intervals and literal bindings.
class Egraph {
public:
  /// Returns the node id for \p E, creating it on first sight.
  int node(const Expr &E) {
    auto It = Ids.find(E);
    if (It != Ids.end())
      return It->second;
    int Id = static_cast<int>(Parent.size());
    Ids.emplace(E, Id);
    Parent.push_back(Id);
    Lit.emplace_back();
    Lo.push_back(IntMin);
    Hi.push_back(IntMax);
    Terms.push_back(E);
    if (E.isLit())
      Lit.back() = E.litValue();
    return Id;
  }

  /// Room for \p N nodes, so interning one condition does not regrow.
  void reserve(size_t N) {
    Ids.reserve(N);
    Parent.reserve(N);
    Lit.reserve(N);
    Lo.reserve(N);
    Hi.reserve(N);
    Terms.reserve(N);
  }

  int find(int X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  }

  /// Merges two classes; returns false on literal conflict or interval
  /// emptiness.
  bool merge(int A, int B) {
    A = find(A);
    B = find(B);
    if (A == B)
      return true;
    Parent[B] = A;
    if (Lit[A] && Lit[B] && !(*Lit[A] == *Lit[B]))
      return false;
    if (!Lit[A])
      Lit[A] = Lit[B];
    Lo[A] = std::max(Lo[A], Lo[B]);
    Hi[A] = std::min(Hi[A], Hi[B]);
    return checkClass(A);
  }

  /// Tightens the interval of \p X's class; returns false if it empties or
  /// contradicts the class literal.
  bool bound(int X, int64_t NewLo, int64_t NewHi) {
    int R = find(X);
    Lo[R] = std::max(Lo[R], NewLo);
    Hi[R] = std::min(Hi[R], NewHi);
    return checkClass(R);
  }

  const std::optional<Value> &litOf(int X) { return Lit[find(X)]; }
  int64_t loOf(int X) { return Lo[find(X)]; }
  int64_t hiOf(int X) { return Hi[find(X)]; }

  const std::unordered_map<Expr, int> &ids() const { return Ids; }
  const std::vector<Expr> &terms() const { return Terms; }

  /// Congruence closure: two applications of one operator whose arguments
  /// lie pairwise in one class evaluate alike, since GIL evaluation is
  /// deterministic (and an application that faults falsifies its conjunct
  /// either way), so their classes merge. Comparisons and connectives stay
  /// opaque. The closure runs only when two applications of one operator
  /// could be congruent already, so other conditions pay one scan.
  /// Returns false on a conflict.
  bool closeCongruence() {
    if (std::count_if(Terms.begin(), Terms.end(),
                      [](const Expr &T) { return opKey(T) != 0; }) < 2)
      return true;
    std::vector<std::pair<unsigned, int>> Apps; // operator key, node
    for (size_t I = 0; I != Terms.size(); ++I)
      if (unsigned K = opKey(Terms[I]))
        Apps.emplace_back(K, static_cast<int>(I));
    std::sort(Apps.begin(), Apps.end());
    bool Candidate = false;
    for (size_t I = 0; I != Apps.size() && !Candidate; ++I)
      for (size_t J = I + 1;
           J != Apps.size() && Apps[J].first == Apps[I].first && !Candidate;
           ++J)
        Candidate = mayBeCongruent(Terms[Apps[I].second],
                                   Terms[Apps[J].second]);
    if (!Candidate)
      return true;
    // Intern every argument (Terms grows, so nested applications too).
    for (size_t I = 0; I != Terms.size(); ++I) {
      Expr T = Terms[I];
      if (opKey(T))
        for (size_t C = 0; C != T.numChildren(); ++C)
          node(T.child(C));
    }
    std::map<std::vector<int>, int> Sig; // operator + argument classes
    for (bool Changed = true; Changed;) {
      Changed = false;
      Sig.clear();
      for (size_t I = 0; I != Terms.size(); ++I) {
        const Expr &T = Terms[I];
        std::vector<int> Key{static_cast<int>(opKey(T))};
        if (!Key[0])
          continue;
        for (size_t C = 0; C != T.numChildren(); ++C)
          Key.push_back(find(Ids.at(T.child(C))));
        auto [It, Fresh] = Sig.emplace(std::move(Key), static_cast<int>(I));
        if (!Fresh && find(It->second) != find(static_cast<int>(I))) {
          if (!merge(It->second, static_cast<int>(I)))
            return false;
          Changed = true;
        }
      }
    }
    return true;
  }

private:
  /// Whether every argument pair of two applications of one operator is
  /// one term, lies in one class, or is an application that congruence
  /// may yet merge. An argument the graph never interned is a class of
  /// its own.
  bool mayBeCongruent(const Expr &A, const Expr &B) {
    if (A.numChildren() != B.numChildren())
      return false;
    for (size_t C = 0; C != A.numChildren(); ++C) {
      const Expr &X = A.child(C), &Y = B.child(C);
      if (X == Y || opKey(X) || opKey(Y))
        continue;
      auto IX = Ids.find(X), IY = Ids.find(Y);
      if (IX == Ids.end() || IY == Ids.end() ||
          find(IX->second) != find(IY->second))
        return false;
    }
    return true;
  }

  /// Nonzero key of a value-producing application's operator.
  static unsigned opKey(const Expr &E) {
    switch (E.kind()) {
    case ExprKind::UnOp:
      return E.unOpKind() == UnOpKind::Not
                 ? 0
                 : 1 + static_cast<unsigned>(E.unOpKind());
    case ExprKind::BinOp:
      switch (E.binOpKind()) {
      case BinOpKind::Eq:
      case BinOpKind::Lt:
      case BinOpKind::Le:
      case BinOpKind::And:
      case BinOpKind::Or:
        return 0;
      default:
        return 64 + static_cast<unsigned>(E.binOpKind());
      }
    case ExprKind::List:
      return 128;
    default:
      return 0;
    }
  }

  bool checkClass(int R) {
    if (Lo[R] > Hi[R])
      return false;
    if (Lit[R] && Lit[R]->isInt() &&
        (Lit[R]->asInt() < Lo[R] || Lit[R]->asInt() > Hi[R]))
      return false;
    return true;
  }

  std::unordered_map<Expr, int> Ids;
  std::vector<int> Parent;
  std::vector<std::optional<Value>> Lit;
  std::vector<int64_t> Lo, Hi;
  std::vector<Expr> Terms;
};

/// Shared analysis driving both checkSatSyntactic and
/// proposeModelSyntactic.
struct Analysis {
  Egraph G;
  TypeEnv Types;
  std::vector<std::pair<int, int>> Diseqs;
  /// a <= b (or a < b when Strict) order facts between arbitrary terms,
  /// feeding the order-cycle check (x <= y && y < x is unsatisfiable for
  /// every GIL comparison domain).
  struct OrderEdge {
    int A, B;
    bool Strict;
    bool AntisymSafe; ///< a <= b <= a => a == b holds for this edge
  };
  std::vector<OrderEdge> Order;
  /// Edges b < a from conjuncts !(a <= b), and b <= a from !(a < b).
  /// NaN makes both comparisons false, so checkOrderCycles takes an edge
  /// only when neither operand can be NaN (notNaN); the model proposer
  /// takes every one as a suggestion.
  std::vector<OrderEdge> Negated;
  /// Operands of comparisons assumed true: a NaN operand would make the
  /// comparison false, so their classes are not NaN.
  std::vector<int> ComparedTrue;
  /// Variables compared against a Num literal: the proposer's type guess
  /// when inference leaves them untyped (comparisons take Int or Num).
  std::set<InternedString> NumHint;
  bool Contradiction = false;

  /// Records the sides of comparison \p A vs \p B that NumHint covers.
  void noteNumHint(const Expr &A, const Expr &B) {
    auto note = [this](const Expr &V, const Expr &Other) {
      if (V.isLVar() && Other.isLit() &&
          Other.litValue().type() == GilType::Num)
        NumHint.insert(V.varName());
    };
    note(A, B);
    note(B, A);
  }

  /// Whether a <= b <= a implies a == b for operands \p A and \p B:
  /// only for Int and Str, since Num has 0.0 <= -0.0 <= 0.0 with
  /// 0.0 != -0.0 (GIL equality is bitwise).
  bool antisymSafe(const Expr &A, const Expr &B) const {
    auto TA = staticType(A, Types), TB = staticType(B, Types);
    return (TA == GilType::Int && TB == GilType::Int) ||
           (TA == GilType::Str && TB == GilType::Str);
  }

  /// Whether node \p N cannot be NaN in any model: its class holds an
  /// operand of a comparison assumed true or a literal other than NaN,
  /// or the term is an Int or Str. Class members are bitwise equal, so
  /// one such member covers the class.
  bool notNaN(int N, const std::set<int> &ComparedReps) {
    if (ComparedReps.count(G.find(N)))
      return true;
    if (const std::optional<Value> &L = G.litOf(N))
      return !(L->isNum() && std::isnan(L->asNum()));
    std::optional<GilType> T = staticType(G.terms()[N], Types);
    return T == GilType::Int || T == GilType::Str;
  }

  /// Whether \p E is e + c with an Int literal c.
  static bool isOffset(const Expr &E) {
    return E.kind() == ExprKind::BinOp && E.binOpKind() == BinOpKind::Add &&
           E.child(1).isLit() && E.child(1).litValue().isInt();
  }

  /// Decomposes e + c (Int) so interval facts about the base propagate.
  static bool splitOffset(const Expr &E, Expr &Base, int64_t &Off) {
    if (isOffset(E)) {
      Base = E.child(0);
      Off = E.child(1).litValue().asInt();
      return true;
    }
    Base = E;
    Off = 0;
    return false;
  }

  void assumeTrue(const Expr &E) {
    if (Contradiction || !E)
      return;
    if (E.isTrue())
      return;
    if (E.isFalse()) {
      Contradiction = true;
      return;
    }
    if (E.kind() == ExprKind::BinOp) {
      BinOpKind Op = E.binOpKind();
      const Expr &A = E.child(0), &B = E.child(1);
      switch (Op) {
      case BinOpKind::And:
        assumeTrue(A);
        assumeTrue(B);
        return;
      case BinOpKind::Eq: {
        // Decompose (base + c) == d into interval facts too.
        Expr BaseA, BaseB;
        int64_t OffA, OffB;
        bool ShiftA = splitOffset(A, BaseA, OffA);
        (void)ShiftA;
        bool ShiftB = splitOffset(B, BaseB, OffB);
        (void)ShiftB;
        if (OffA == 0 && OffB == 0) {
          if (!G.merge(G.node(A), G.node(B)))
            Contradiction = true;
          return;
        }
        // base_a + off_a == lit  ->  base_a == lit - off_a
        if (B.isLit() && B.litValue().isInt()) {
          Expr Rhs = Expr::intE(B.litValue().asInt() - OffA);
          if (!G.merge(G.node(BaseA), G.node(Rhs)))
            Contradiction = true;
          return;
        }
        if (!G.merge(G.node(A), G.node(B)))
          Contradiction = true;
        return;
      }
      case BinOpKind::Lt:
      case BinOpKind::Le: {
        // The comparison term itself is true, so a negated copy of it
        // (bound to false) conflicts.
        if (!G.merge(G.node(E), G.node(Expr::boolE(true)))) {
          Contradiction = true;
          return;
        }
        noteNumHint(A, B);
        int64_t Slack = Op == BinOpKind::Lt ? 1 : 0;
        Expr BaseA, BaseB;
        int64_t OffA, OffB;
        splitOffset(A, BaseA, OffA);
        splitOffset(B, BaseB, OffB);
        // Integer interval reasoning is only sound for Int-typed bases: a
        // Num variable strictly between two integers must not be refuted.
        if (B.isLit() && B.litValue().isInt() &&
            staticType(BaseA, Types) == GilType::Int) {
          // base_a <= lit - off_a - slack
          if (!G.bound(G.node(BaseA), IntMin,
                       B.litValue().asInt() - OffA - Slack))
            Contradiction = true;
          return;
        }
        if (A.isLit() && A.litValue().isInt() &&
            staticType(BaseB, Types) == GilType::Int) {
          if (!G.bound(G.node(BaseB), A.litValue().asInt() - OffB + Slack,
                       IntMax))
            Contradiction = true;
          return;
        }
        // var-to-var comparisons: record an order edge; cycles through a
        // strict edge are contradictions (checked in run()).
        if (Op == BinOpKind::Lt && A == B) {
          Contradiction = true;
          return;
        }
        Order.push_back({G.node(A), G.node(B), Op == BinOpKind::Lt,
                         antisymSafe(A, B)});
        ComparedTrue.push_back(Order.back().A);
        ComparedTrue.push_back(Order.back().B);
        return;
      }
      default:
        break;
      }
    }
    if (E.kind() == ExprKind::UnOp && E.unOpKind() == UnOpKind::Not) {
      const Expr &C = E.child(0);
      if (C.kind() == ExprKind::BinOp && C.binOpKind() == BinOpKind::Eq) {
        Diseqs.emplace_back(G.node(C.child(0)), G.node(C.child(1)));
        return;
      }
      if (C.kind() == ExprKind::BinOp && (C.binOpKind() == BinOpKind::Lt ||
                                          C.binOpKind() == BinOpKind::Le)) {
        // !(a <= b) is b < a, and !(a < b) is b <= a, unless an operand
        // is NaN (see Negated).
        Negated.push_back({G.node(C.child(1)), G.node(C.child(0)),
                           C.binOpKind() == BinOpKind::Le,
                           antisymSafe(C.child(1), C.child(0))});
        noteNumHint(C.child(0), C.child(1));
        // Still record the opaque boolean fact for congruence.
      }
      if (C.isLVar()) {
        if (!G.merge(G.node(C), G.node(Expr::boolE(false))))
          Contradiction = true;
        return;
      }
      // Opaque negated fact: remember the term equals false.
      if (!G.merge(G.node(C), G.node(Expr::boolE(false))))
        Contradiction = true;
      return;
    }
    if (E.isLVar()) {
      if (!G.merge(G.node(E), G.node(Expr::boolE(true))))
        Contradiction = true;
      return;
    }
    // Opaque boolean term assumed true.
    if (!G.merge(G.node(E), G.node(Expr::boolE(true))))
      Contradiction = true;
  }

  /// Detects strict cycles in the <=-order graph over equality-class
  /// representatives (Order, the Negated edges whose operands are not NaN,
  /// and implied edges between numeric literals): a cycle containing a
  /// strict edge refutes the condition, and terms in a pure <=-cycle are
  /// all equal (conflicting with recorded disequalities or distinct
  /// literals).
  void checkOrderCycles() {
    if (Order.empty() && Negated.empty())
      return;
    // Collect participating representatives.
    std::map<int, int> Idx; // representative -> dense index
    auto denseOf = [&](int Node) {
      int R = G.find(Node);
      auto [It, _] = Idx.emplace(R, static_cast<int>(Idx.size()));
      return It->second;
    };
    struct DenseEdge {
      int A, B;
      bool Strict;
      bool Safe;
    };
    std::vector<DenseEdge> Edges;
    for (const OrderEdge &E : Order)
      Edges.push_back({denseOf(E.A), denseOf(E.B), E.Strict,
                       E.AntisymSafe});
    std::set<int> ComparedReps;
    for (int N : ComparedTrue)
      ComparedReps.insert(G.find(N));
    for (const OrderEdge &E : Negated)
      if (notNaN(E.A, ComparedReps) && notNaN(E.B, ComparedReps))
        Edges.push_back({denseOf(E.A), denseOf(E.B), E.Strict,
                         E.AntisymSafe});
    if (Edges.empty())
      return;
    // Implied edges between numeric literal classes (safe only between
    // Int literals, where structural equality matches numeric equality).
    struct NumLit {
      int Dense;
      double D;
      bool IsInt;
    };
    std::vector<NumLit> NumLits;
    for (auto &[Rep, Dense] : Idx) {
      const std::optional<Value> &L = G.litOf(Rep);
      if (L && L->isNumeric())
        NumLits.push_back({Dense, L->asDouble(), L->isInt()});
    }
    for (size_t I = 0; I != NumLits.size(); ++I)
      for (size_t J = 0; J != NumLits.size(); ++J)
        if (I != J && NumLits[I].D <= NumLits[J].D)
          Edges.push_back({NumLits[I].Dense, NumLits[J].Dense,
                           NumLits[I].D < NumLits[J].D,
                           NumLits[I].IsInt && NumLits[J].IsInt});
    size_t N = Idx.size();
    // Floyd-Warshall-style closure on (reachable, strictly-reachable);
    // N is small (terms mentioned in comparisons of one path condition).
    if (N > 256)
      return; // degrade gracefully on huge conditions
    auto closure = [N](std::vector<uint8_t> &Reach) {
      for (size_t K = 0; K < N; ++K)
        for (size_t I = 0; I < N; ++I) {
          uint8_t IK = Reach[I * N + K];
          if (!IK)
            continue;
          for (size_t J = 0; J < N; ++J) {
            uint8_t KJ = Reach[K * N + J];
            if (!KJ)
              continue;
            uint8_t Via = std::max(IK, KJ) == 2 ? 2 : 1;
            uint8_t &R = Reach[I * N + J];
            if (Via > R)
              R = Via;
          }
        }
    };
    std::vector<uint8_t> Reach(N * N, 0); // 1 = <=, 2 = < (all edges)
    std::vector<uint8_t> Safe(N * N, 0);  // antisymmetry-safe edges only
    for (const DenseEdge &E : Edges) {
      uint8_t V = E.Strict ? 2 : 1;
      size_t I = static_cast<size_t>(E.A) * N + E.B;
      Reach[I] = std::max(Reach[I], V);
      if (E.Safe)
        Safe[I] = std::max(Safe[I], V);
    }
    closure(Reach);
    closure(Safe);
    for (size_t I = 0; I < N; ++I)
      if (Reach[I * N + I] == 2) {
        Contradiction = true; // a < a through the cycle
        return;
      }
    // Pure <=-cycles equate their members: check diseqs and literals.
    std::map<int, int> DenseOfRep;
    for (auto &[Rep, Dense] : Idx)
      DenseOfRep[Rep] = Dense;
    for (auto [A, B] : Diseqs) {
      auto IA = DenseOfRep.find(G.find(A));
      auto IB = DenseOfRep.find(G.find(B));
      if (IA == DenseOfRep.end() || IB == DenseOfRep.end())
        continue;
      size_t X = static_cast<size_t>(IA->second);
      size_t Y = static_cast<size_t>(IB->second);
      if (X != Y && Safe[X * N + Y] == 1 && Safe[Y * N + X] == 1) {
        Contradiction = true; // a <= b <= a with a != b (Int/Str order)
        return;
      }
    }
  }

  void run(const PathCondition &PC) {
    if (PC.isTriviallyFalse()) {
      Contradiction = true;
      return;
    }
    if (!inferTypes(PC.conjuncts(), Types)) {
      Contradiction = true;
      return;
    }
    G.reserve(4 * PC.size() + 4);
    for (const Expr &C : PC.conjuncts()) {
      assumeTrue(C);
      if (Contradiction)
        return;
    }
    if (!G.closeCongruence()) {
      Contradiction = true;
      return;
    }
    // x == x + c is false over Int for every c != 0, wrapping or not.
    for (size_t I = 0; I != G.terms().size(); ++I) {
      const Expr &T = G.terms()[I];
      if (!isOffset(T) || T.child(1).litValue().asInt() == 0 ||
          staticType(T.child(0), Types) != GilType::Int)
        continue;
      auto It = G.ids().find(T.child(0));
      if (It != G.ids().end() &&
          G.find(It->second) == G.find(static_cast<int>(I))) {
        Contradiction = true;
        return;
      }
    }
    checkOrderCycles();
    if (Contradiction)
      return;
    // Disequality check after all merges.
    for (auto [A, B] : Diseqs) {
      if (G.find(A) == G.find(B)) {
        Contradiction = true;
        return;
      }
      const auto &LA = G.litOf(A);
      const auto &LB = G.litOf(B);
      if (LA && LB && *LA == *LB) {
        Contradiction = true;
        return;
      }
    }
  }
};

/// Per logical variable, the types that `!(typeof(#x) == ^T)` conjuncts
/// of \p PC exclude, as a bit set indexed by GilType.
std::map<InternedString, unsigned> excludedTypes(const PathCondition &PC) {
  std::map<InternedString, unsigned> Excluded;
  for (const Expr &C : PC.conjuncts()) {
    if (C.kind() != ExprKind::UnOp || C.unOpKind() != UnOpKind::Not)
      continue;
    const Expr &Eq = C.child(0);
    if (Eq.kind() != ExprKind::BinOp || Eq.binOpKind() != BinOpKind::Eq)
      continue;
    for (size_t Side = 0; Side < 2; ++Side) {
      const Expr &TypeOf = Eq.child(Side), &Lit = Eq.child(1 - Side);
      if (TypeOf.kind() == ExprKind::UnOp &&
          TypeOf.unOpKind() == UnOpKind::TypeOf && TypeOf.child(0).isLVar() &&
          Lit.isLit() && Lit.litValue().isType())
        Excluded[TypeOf.child(0).varName()] |=
            1u << static_cast<unsigned>(Lit.litValue().asType());
    }
  }
  return Excluded;
}

} // namespace

std::vector<std::vector<Expr>>
gillian::sliceConjunctsByVars(const PathCondition &PC) {
  const std::vector<Expr> &Cs = PC.conjuncts();
  const size_t N = Cs.size();
  std::vector<int> Parent(N);
  for (size_t I = 0; I != N; ++I)
    Parent[I] = static_cast<int>(I);
  auto find = [&Parent](int X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  };
  auto unite = [&](int A, int B) { Parent[find(B)] = find(A); };

  // Conjuncts sharing a logical variable join the variable owner's group;
  // ground conjuncts (no LVars) pool into a single group.
  std::map<InternedString, int> OwnerOfVar;
  int GroundOwner = -1;
  std::set<InternedString> Vars;
  for (size_t I = 0; I != N; ++I) {
    Vars.clear();
    Cs[I].collectLVars(Vars);
    if (Vars.empty()) {
      if (GroundOwner < 0)
        GroundOwner = static_cast<int>(I);
      else
        unite(GroundOwner, static_cast<int>(I));
      continue;
    }
    for (InternedString V : Vars) {
      auto [It, Fresh] = OwnerOfVar.emplace(V, static_cast<int>(I));
      if (!Fresh)
        unite(It->second, static_cast<int>(I));
    }
  }

  // Emit groups ordered by their first conjunct; within a group the
  // canonical conjunct order of PC is preserved.
  std::map<int, size_t> GroupOfRoot;
  std::vector<std::vector<Expr>> Groups;
  for (size_t I = 0; I != N; ++I) {
    int R = find(static_cast<int>(I));
    auto [It, Fresh] = GroupOfRoot.emplace(R, Groups.size());
    if (Fresh)
      Groups.emplace_back();
    Groups[It->second].push_back(Cs[I]);
  }
  return Groups;
}

SatResult gillian::checkSatSyntactic(const PathCondition &PC) {
  if (PC.empty())
    return SatResult::Sat;
  Analysis A;
  A.run(PC);
  if (A.Contradiction)
    return SatResult::Unsat;
  return SatResult::Unknown;
}

std::optional<Model> gillian::proposeModelSyntactic(const PathCondition &PC) {
  Analysis A;
  A.run(PC);
  if (A.Contradiction)
    return std::nullopt;

  std::set<InternedString> LVars;
  PC.collectLVars(LVars);
  // Every variable gets a node, so every class has its own id (and its
  // own default value), variables the analysis never met included.
  std::vector<std::pair<int, InternedString>> Vars; // class, variable
  for (InternedString X : LVars)
    Vars.emplace_back(A.G.node(Expr::lvar(X)), X);
  auto rep = [&](int N) { return A.G.find(N); };
  for (auto &[R, X] : Vars)
    R = rep(R);
  std::map<int, std::vector<int>> DiseqOf; // class -> disequal classes
  for (auto [X, Y] : A.Diseqs) {
    DiseqOf[rep(X)].push_back(rep(Y));
    DiseqOf[rep(Y)].push_back(rep(X));
  }

  // Order-aware numeric suggestions: propagate lower bounds along the
  // <=-graph (strict edges add 1) from literal anchors and unanchored
  // sources, then upper bounds downwards. The result is a candidate that
  // satisfies chains like a <= b < c without an SMT call; the caller
  // verifies it by evaluation, so imperfect suggestions only cost a
  // fallback.
  std::map<int, double> Suggested; // representative -> value
  std::map<int, double> Ceiling;   // representative -> upper bound
  std::vector<Analysis::OrderEdge> AllOrder = A.Order;
  AllOrder.insert(AllOrder.end(), A.Negated.begin(), A.Negated.end());
  // a <= b together with a != b proposes a < b.
  for (Analysis::OrderEdge &E : AllOrder) {
    auto It = DiseqOf.find(rep(E.A));
    E.Strict = E.Strict ||
               (It != DiseqOf.end() &&
                std::count(It->second.begin(), It->second.end(), rep(E.B)));
  }
  if (!AllOrder.empty() && AllOrder.size() < 512) {
    std::map<int, double> Low, High;
    std::set<int> Nodes;
    for (const auto &E : AllOrder) {
      Nodes.insert(rep(E.A));
      Nodes.insert(rep(E.B));
    }
    for (int R : Nodes) {
      const std::optional<Value> &L = A.G.litOf(R);
      if (L && L->isNumeric()) {
        Low[R] = L->asDouble();
        High[R] = L->asDouble();
      }
    }
    for (size_t Round = 0; Round <= Nodes.size(); ++Round) {
      bool Changed = false;
      for (const auto &E : AllOrder) {
        int RA = rep(E.A), RB = rep(E.B);
        double W = E.Strict ? 1.0 : 0.0;
        auto LA = Low.find(RA);
        if (LA != Low.end()) {
          double Cand = LA->second + W;
          auto [It, Ins] = Low.emplace(RB, Cand);
          if (!Ins && Cand > It->second) {
            It->second = Cand;
            Changed = true;
          } else if (Ins) {
            Changed = true;
          }
        }
        auto HB = High.find(RB);
        if (HB != High.end()) {
          double Cand = HB->second - W;
          auto [It, Ins] = High.emplace(RA, Cand);
          if (!Ins && Cand < It->second) {
            It->second = Cand;
            Changed = true;
          } else if (Ins) {
            Changed = true;
          }
        }
      }
      if (!Changed)
        break;
    }
    for (int R : Nodes) {
      auto L = Low.find(R), H = High.find(R);
      if (L != Low.end() && H != High.end() && L->second > H->second)
        continue; // inconsistent window; let verification/Z3 decide
      if (L != Low.end())
        Suggested[R] = L->second;
      else if (H != High.end())
        Suggested[R] = H->second;
      if (H != High.end())
        Ceiling[R] = H->second;
    }
    // Seed unanchored order sources at 0 and re-run one lower-bound pass
    // so fully-relative chains (a < b < c with no literals) get values.
    bool Seeded = false;
    for (int R : Nodes)
      if (!Suggested.count(R)) {
        Suggested[R] = 0;
        Seeded = true;
      }
    if (Seeded) {
      for (size_t Round = 0; Round <= Nodes.size(); ++Round) {
        bool Changed = false;
        for (const auto &E : AllOrder) {
          int RA = rep(E.A), RB = rep(E.B);
          double W = E.Strict ? 1.0 : 0.0;
          auto IA = Suggested.find(RA), IB = Suggested.find(RB);
          if (IA != Suggested.end() && IB != Suggested.end() &&
              IB->second < IA->second + W) {
            // Only lift nodes that are not literal-anchored.
            const std::optional<Value> &L = A.G.litOf(RB);
            if (!(L && L->isNumeric())) {
              IB->second = IA->second + W;
              Changed = true;
            }
          }
        }
        if (!Changed)
          break;
      }
    }
  }

  // A class holding `x + c` takes x's value plus c.
  struct Offset {
    int BaseClass;
    InternedString Base;
    int64_t Off;
  };
  std::map<int, Offset> OffsetOf;
  for (size_t Id = 0; Id != A.G.terms().size(); ++Id) {
    const Expr &T = A.G.terms()[Id];
    if (Analysis::isOffset(T) && T.child(0).isLVar())
      OffsetOf.emplace(rep(static_cast<int>(Id)),
                       Offset{rep(A.G.ids().at(T.child(0))),
                              T.child(0).varName(),
                              T.child(1).litValue().asInt()});
  }

  std::map<int, Value> Chosen; // class representative -> value
  // A value fits a class unless a disequal class holds it, or an order
  // edge to a class chosen earlier rules it out.
  auto fits = [&](int R, const Value &V) {
    if (auto It = DiseqOf.find(R); It != DiseqOf.end())
      for (int N : It->second) {
        auto C = Chosen.find(N);
        const std::optional<Value> &L = A.G.litOf(N);
        if ((C != Chosen.end() && C->second == V) || (L && *L == V))
          return false;
      }
    if (!V.isNumeric())
      return true;
    for (const Analysis::OrderEdge &E : AllOrder) {
      int RA = rep(E.A), RB = rep(E.B);
      if (RA == RB || (RA != R && RB != R))
        continue;
      auto C = Chosen.find(RA == R ? RB : RA);
      if (C == Chosen.end() || !C->second.isNumeric())
        continue;
      double Lo = RA == R ? V.asDouble() : C->second.asDouble();
      double Hi = RA == R ? C->second.asDouble() : V.asDouble();
      if (E.Strict ? !(Lo < Hi) : !(Lo <= Hi))
        return false;
    }
    return true;
  };

  std::map<InternedString, unsigned> Excluded = excludedTypes(PC);
  constexpr int Attempts = 64;
  uint32_t FreshSym = 0;
  std::set<int> Busy; // classes whose offset base is being chosen
  auto choose = [&](auto &Self, int R, InternedString X) -> Value {
    if (auto It = Chosen.find(R); It != Chosen.end())
      return It->second;
    if (const auto &L = A.G.litOf(R))
      return Chosen.emplace(R, *L).first->second;
    if (auto Off = OffsetOf.find(R);
        Off != OffsetOf.end() && Busy.insert(R).second) {
      Value Base = Self(Self, Off->second.BaseClass, Off->second.Base);
      Busy.erase(R);
      if (Result<Value> V =
              evalBinOp(BinOpKind::Add, Base, Value::intV(Off->second.Off)))
        return Chosen.emplace(R, *V).first->second;
    }
    // An untyped variable takes the first of Int/Num/Str/Bool that no
    // `!(typeof(#x) == ^T)` conjunct excludes (Int when all four are):
    // the witness the typed-symbol vanish edges of every frontend need.
    // Num goes first for a variable compared against a Num literal.
    std::optional<GilType> T = A.Types.lookup(X);
    if (!T) {
      auto Ex = Excluded.find(X);
      unsigned Mask = Ex == Excluded.end() ? 0u : Ex->second;
      GilType First = A.NumHint.count(X) ? GilType::Num : GilType::Int;
      for (GilType Cand :
           {First, GilType::Int, GilType::Num, GilType::Str, GilType::Bool})
        if (!T && !(Mask & (1u << static_cast<unsigned>(Cand))))
          T = Cand;
    }
    auto Sug = Suggested.find(R);
    auto Ceil = Ceiling.find(R);
    const int64_t Lo = A.G.loOf(R), Hi = A.G.hiOf(R);
    // The K-th candidate: K = 0 is the class's suggestion, later ones step
    // away from it inside the class's window, for disequalities.
    auto candidate = [&](int K) -> std::optional<Value> {
      switch (T.value_or(GilType::Int)) {
      case GilType::Int: {
        int64_t Pick = 0;
        if (Sug != Suggested.end())
          Pick = static_cast<int64_t>(Sug->second);
        if (Lo != IntMin && Lo > Pick)
          Pick = Lo;
        if (Hi != IntMax && Hi < Pick)
          Pick = Hi;
        // Spread untouched variables so simple disequalities hold.
        if (Lo == IntMin && Hi == IntMax && Sug == Suggested.end())
          Pick = R;
        if (K > 0 && (Pick > IntMax - K || (Hi != IntMax && Pick + K > Hi) ||
                      (Ceil != Ceiling.end() && Pick + K > Ceil->second)))
          return std::nullopt;
        return Value::intV(Pick + K);
      }
      case GilType::Num: {
        double Base = Sug != Suggested.end() ? Sug->second : R;
        if (Ceil == Ceiling.end() || Base + K <= Ceil->second)
          return Value::numV(Base + K);
        if (Ceil->second <= Base)
          return std::nullopt;
        return Value::numV(Base + (Ceil->second - Base) * K / (Attempts + 1));
      }
      case GilType::Str:
        return Value::strV("s" + std::to_string(R) +
                           (K ? "_" + std::to_string(K) : ""));
      case GilType::Bool:
        return K < 2 ? std::optional(Value::boolV(K == 0)) : std::nullopt;
      case GilType::Sym:
        return Value::symV("$model_" + std::to_string(FreshSym++));
      case GilType::Type:
        return K ? std::nullopt : std::optional(Value::typeV(GilType::Int));
      case GilType::Proc:
        return K ? std::nullopt : std::optional(Value::procV("main"));
      case GilType::List:
        return K ? std::nullopt : std::optional(Value::listV({}));
      }
      return std::nullopt;
    };
    std::optional<Value> V = candidate(0);
    for (int K = 1; K < Attempts && V && !fits(R, *V); ++K)
      if (std::optional<Value> Next = candidate(K))
        V = Next;
      else
        break;
    return Chosen.emplace(R, V ? *V : Value::intV(0)).first->second;
  };

  // Smaller suggestions first, so an order edge meets its lower end
  // already chosen when a disequality moves the upper one.
  auto suggestion = [&](int R) {
    auto It = Suggested.find(R);
    return It == Suggested.end() ? std::numeric_limits<double>::infinity()
                                 : It->second;
  };
  if (!Suggested.empty())
    std::stable_sort(Vars.begin(), Vars.end(),
                     [&](const auto &L, const auto &R) {
                       return suggestion(L.first) < suggestion(R.first);
                     });
  auto build = [&](const std::map<int, Value> &Seed) {
    Chosen = Seed;
    Model M;
    for (const auto &[R, X] : Vars)
      M.bind(X, choose(choose, R, X));
    return M;
  };

  // Collision witnesses. num_to_str renders 0.0 and -0.0 alike as "0" and
  // every NaN as "nan", while GIL equality on Num is bitwise, so two Num
  // variables whose num_to_str applications share a class may still be
  // disequal. Their classes take 0.0 and -0.0 first, then distinct NaN
  // payloads (for conditions such as !(a <= b) that no zero satisfies);
  // verification picks between the two and gates the result.
  std::map<int, std::vector<int>> Collide; // num_to_str class -> arguments
  for (size_t Id = 0; Id != A.G.terms().size(); ++Id) {
    const Expr &T = A.G.terms()[Id];
    if (T.kind() != ExprKind::UnOp || T.unOpKind() != UnOpKind::NumToStr ||
        !T.child(0).isLVar() ||
        A.Types.lookup(T.child(0).varName()) != GilType::Num)
      continue;
    int Arg = rep(A.G.ids().at(T.child(0)));
    std::vector<int> &Args = Collide[rep(static_cast<int>(Id))];
    if (!A.G.litOf(Arg) && std::count(Args.begin(), Args.end(), Arg) == 0)
      Args.push_back(Arg);
  }
  std::map<int, Value> Zeros, NaNs;
  for (const auto &[Str, Args] : Collide)
    for (size_t I = 0; Args.size() > 1 && I != Args.size(); ++I) {
      Zeros.emplace(Args[I], Value::numV(I == 0 ? 0.0 : -0.0));
      NaNs.emplace(Args[I], Value::numV(std::bit_cast<double>(
                                0x7FF8000000000001ull + NaNs.size())));
    }
  if (Zeros.empty())
    return build({});
  if (Model M = build(Zeros); M.satisfies(PC))
    return M;
  return build(NaNs);
}
