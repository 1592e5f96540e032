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
/// Conjuncts that do not encode (lists, bit-level operators on symbolic
/// operands, ...) are *dropped* before solving. Dropping weakens the
/// formula, so:
///  - Unsat answers remain sound (a subset already contradicts);
///  - Sat answers are downgraded to Unknown when anything was dropped, and
///    all models are verified by evaluation before being trusted.
///
/// Every check is bounded by a deterministic resource limit and answers
/// Unknown when it runs out (newZ3Solver in z3_encoder.h).
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

/// Checks \p PC with Z3 under the typing \p Types. When \p WantModel is
/// set and the query is satisfiable, a candidate model is extracted.
Z3Outcome checkSatZ3(const PathCondition &PC, const TypeEnv &Types,
                     bool WantModel);

} // namespace gillian

#endif // GILLIAN_SOLVER_Z3_BACKEND_H
