//===- obs/native_stats.h - Process-wide async-solver counters -*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-wide counters of the async solver service
/// (src/solver/native/query_service.h, DESIGN.md §4f). Per-Solver numbers
/// live in SolverStats; this set is the always-on aggregate the /metrics
/// endpoint renders after per-suite sources unregister. It lives in obs
/// (not in the solver) so the introspection server can render it without
/// depending on the solver library.
///
/// Category "solver" + `async_*` names yield the `gillian_solver_async_*`
/// metric family.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_OBS_NATIVE_STATS_H
#define GILLIAN_OBS_NATIVE_STATS_H

#include "obs/counters.h"

namespace gillian::obs {

struct NativeGlobalStats : CounterSet<NativeGlobalStats> {
  // Async batched query service.
  Counter AsyncSubmitted{*this, "async_submitted", "solver"};
  Counter AsyncDedupHits{*this, "async_dedup_hits", "solver"};
  Counter AsyncSubsumedHits{*this, "async_subsumed_hits", "solver"};
  Counter AsyncInlineRuns{*this, "async_inline_runs", "solver"};
  Counter AsyncBatches{*this, "async_batches", "solver"};
  Gauge AsyncQueueDepth{*this, "async_queue_depth", "solver"};

  NativeGlobalStats() = default;
  NativeGlobalStats(const NativeGlobalStats &O) { copyFrom(O); }
  NativeGlobalStats &operator=(const NativeGlobalStats &O) {
    copyFrom(O);
    return *this;
  }
};

/// The process-wide instance (relaxed atomics; safe from any thread).
inline NativeGlobalStats &nativeGlobalStats() {
  static NativeGlobalStats S;
  return S;
}

} // namespace gillian::obs

#endif // GILLIAN_OBS_NATIVE_STATS_H
