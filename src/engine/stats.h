//===- engine/stats.h - Execution statistics -------------------*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counters reported by the evaluation harness. "GIL commands" is the
/// metric of Tables 1 and 2 in the paper.
///
/// ExecStats is an obs::CounterSet: every field self-registers its JSON
/// name and category, so copy, merge and JSON emission are schema walks —
/// adding a counter is the one declaration line. Counters are relaxed
/// atomics so one ExecStats instance can be shared by every worker of the
/// parallel exploration scheduler and still sum exactly — the counts are
/// schedule-independent, only the interleaving of increments varies.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_ENGINE_STATS_H
#define GILLIAN_ENGINE_STATS_H

#include "obs/counters.h"

namespace gillian {

struct ExecStats : obs::CounterSet<ExecStats> {
  /// GIL commands (Tables 1/2).
  obs::Counter CmdsExecuted{*this, "cmds_executed", "engine"};
  /// Points where execution split.
  obs::Counter Branches{*this, "branches", "engine"};
  obs::Counter PathsFinished{*this, "paths_finished", "engine"};
  obs::Counter PathsVanished{*this, "paths_vanished", "engine"};
  obs::Counter PathsErrored{*this, "paths_errored", "engine"};
  /// Paths cut by loop/step budgets.
  obs::Counter PathsBounded{*this, "paths_bounded", "engine"};
  obs::Counter ActionCalls{*this, "action_calls", "engine"};
  obs::Counter ProcCalls{*this, "proc_calls", "engine"};

  ExecStats() = default;
  ExecStats(const ExecStats &O) { copyFrom(O); }

  ExecStats &operator=(const ExecStats &O) {
    copyFrom(O);
    return *this;
  }

  ExecStats &operator+=(const ExecStats &O) {
    addFrom(O);
    return *this;
  }

  /// Explicit name for summing per-worker snapshots into an aggregate.
  void merge(const ExecStats &O) { *this += O; }
};

} // namespace gillian

#endif // GILLIAN_ENGINE_STATS_H
