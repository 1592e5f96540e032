//===- engine/options.h - Engine configuration -----------------*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Knobs for the symbolic execution engine. The defaults correspond to the
/// paper's Gillian configuration; legacyJaVerT2() reconstructs the
/// JaVerT 2.0 baseline of Table 1 (no solver result caching, no query
/// slicing). The exploration workers are the engine's only threads: each
/// solves its own queries, on its own thread.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_ENGINE_OPTIONS_H
#define GILLIAN_ENGINE_OPTIONS_H

#include "engine/scheduler/scheduler_options.h"
#include "solver/solver.h"

#include <cstdint>

namespace gillian {

struct EngineOptions {
  /// Store expressions and path-condition conjuncts are always simplified
  /// as they are built (§2.3 [EvalExpr]); the solver options select its
  /// caching, slicing and Z3 layers.
  SolverOptions Solver;

  /// Exploration workers (engine/scheduler/). Workers = 1 explores on the
  /// calling thread alone; any count yields the same result sequence.
  SchedulerOptions Scheduler;

  /// Bound on back-jumps (loop iterations) per path — the paper's
  /// "unrolling loops up to a bound".
  uint32_t LoopBound = 32;
  /// Global step budget per symbolic run (0 = unlimited).
  uint64_t MaxSteps = 50'000'000;
  /// Bound on explored paths per run (0 = unlimited).
  uint64_t MaxPaths = 0;

  /// The JaVerT 2.0 baseline: simplification stays (every symbolic engine
  /// folds constants), but the solver-side improvements §4.1 credits for
  /// the ~2x speedup are off — result caching and query slicing (every
  /// undecided query goes to the SMT solver whole, every time).
  static EngineOptions legacyJaVerT2() {
    EngineOptions O;
    O.Solver = SolverOptions::legacyJaVerT2();
    return O;
  }
};

} // namespace gillian

#endif // GILLIAN_ENGINE_OPTIONS_H
