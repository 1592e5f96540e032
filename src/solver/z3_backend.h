//===- solver/z3_backend.h - SMT backend over libz3 ------------*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SMT layer of the first-order solver. GIL expressions are encoded
/// into Z3 terms using the type assignment produced by inferTypes: Int as
/// SMT Int, Num as Real, Bool as Bool, Str as String, and Sym/Type/Proc as
/// tagged integers (uninterpreted symbols are pairwise-distinct by
/// construction since they encode as their interned ids).
///
/// checkSatZ3 is the only route to Z3. Every check runs on the calling
/// thread's one Z3 solver: it pushes a scope, asserts every conjunct,
/// checks, decodes the model when asked, and pops. The solver is built on
/// the thread's first check and reused after that (a new one costs about
/// fifteen checks on a live one; DESIGN.md §4b). It is rebuilt after Z3
/// answers `unknown` (the solver keeps the work of the check that ran out
/// of its resource limit, and later checks on it slow down) or throws,
/// and after resetZ3Solvers().
///
/// Conjuncts that do not encode (lists, bit-level operators on symbolic
/// operands, ...) are *dropped* before solving. Dropping weakens the
/// formula, so:
///  - Unsat answers remain sound (a subset already contradicts);
///  - Sat answers are downgraded to Unknown when anything was dropped, and
///    all models are verified by evaluation before being trusted.
///
/// Every check is bounded by a deterministic resource limit and answers
/// Unknown when it runs out.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_SOLVER_Z3_BACKEND_H
#define GILLIAN_SOLVER_Z3_BACKEND_H

#include "solver/model.h"
#include "solver/syntactic.h"
#include "solver/type_infer.h"

#include <optional>

namespace gillian {

/// Result of a Z3 query: the verdict, an optional candidate model (to be
/// verified by the caller), and whether any conjunct had to be dropped.
struct Z3Outcome {
  SatResult Verdict = SatResult::Unknown;
  std::optional<Model> CandidateModel;
  bool DroppedConjuncts = false;
};

/// True when this build carries the Z3 backend.
bool z3Available();

/// Checks \p PC with Z3 under the typing \p Types on the calling thread's
/// solver. When \p WantModel is set and the query is satisfiable, a
/// candidate model is extracted.
Z3Outcome checkSatZ3(const PathCondition &PC, const TypeEnv &Types,
                     bool WantModel);

/// Drops every thread's Z3 solver: the calling thread's at once, every
/// other thread's at its next check (Z3 handles must be destructed by the
/// thread that owns them). Each thread's next check builds a new one.
void resetZ3Solvers();

/// True while the calling thread holds a built Z3 solver (after applying
/// a pending resetZ3Solvers()).
bool threadZ3SolverLive();

} // namespace gillian

#endif // GILLIAN_SOLVER_Z3_BACKEND_H
