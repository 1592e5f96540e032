//===- solver/syntactic.h - Syntactic satisfiability core ------*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A cheap, sound-for-UNSAT satisfiability core that handles the bulk of
/// the path conditions symbolic execution produces, without an SMT call —
/// the solver's one in-process decision layer (DESIGN.md §4f):
///
///  * equality reasoning: union-find over logical variables, literals and
///    terms, closed under congruence through applications, with
///    literal-conflict detection;
///  * disequalities checked against the equality classes; comparison
///    terms bound to true or false, so complementary literals conflict;
///  * integer interval propagation for `x < c`-shaped conjuncts, and
///    order cycles, negated comparisons included where neither operand
///    can be NaN;
///  * type conflicts via the shared type-inference pass.
///
/// It never answers Sat — only Unsat (proved) or Unknown — and can propose
/// candidate models that the caller verifies by evaluation, so its answers
/// are trustworthy even though it is incomplete.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_SOLVER_SYNTACTIC_H
#define GILLIAN_SOLVER_SYNTACTIC_H

#include "solver/model.h"
#include "solver/path_condition.h"
#include "solver/type_infer.h"

#include <optional>
#include <vector>

namespace gillian {

enum class SatResult : uint8_t {
  Sat,
  Unsat,
  Unknown,
};

std::string_view satResultName(SatResult R);

/// Checks \p PC syntactically. Returns Unsat only on a proof; Unknown
/// otherwise (callers treat Unknown as possibly-Sat).
SatResult checkSatSyntactic(const PathCondition &PC);

/// Proposes a model for \p PC from the syntactic analysis (equality-class
/// literals, interval and order bounds, values kept apart across
/// disequalities, typed defaults, and ±0 or NaN for Num variables whose
/// num_to_str applications collide). The result is only a *candidate*:
/// callers must verify it with Model::satisfies before use.
/// Returns nullopt when the analysis found a contradiction.
std::optional<Model> proposeModelSyntactic(const PathCondition &PC);

/// Partitions the conjuncts of \p PC into variable-connected components
/// (union-find over free logical variables): two conjuncts land in the
/// same group iff they are linked by a chain of shared logical variables.
/// Conjuncts mentioning no logical variable are gathered into one ground
/// group. Groups preserve the canonical conjunct order of \p PC, so each
/// group is itself a canonical (sorted, deduplicated) conjunct list.
///
/// Because groups share no logical variables, they are independently
/// satisfiable: the conjunction is Unsat iff some group is Unsat, and Sat
/// if every group is Sat — the property the solver's slicing cache layer
/// relies on.
std::vector<std::vector<Expr>> sliceConjunctsByVars(const PathCondition &PC);

} // namespace gillian

#endif // GILLIAN_SOLVER_SYNTACTIC_H
