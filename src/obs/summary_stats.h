//===- obs/summary_stats.h - Retired summary-cache counters ----*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The counters of the procedure summary cache, which is deleted: every
/// call executes its callee. Nothing increments them, so they read 0.
/// They stay only because the end-to-end benchmark (perfbench/symbench)
/// still reports them and its runner reads these three keys; they go with
/// the next change to that benchmark.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_OBS_SUMMARY_STATS_H
#define GILLIAN_OBS_SUMMARY_STATS_H

#include "obs/counters.h"

namespace gillian::obs {

struct SummaryGlobalStats : CounterSet<SummaryGlobalStats> {
  Counter Hits{*this, "hits", "summary"};
  Counter Misses{*this, "misses", "summary"};
  Counter ReplayedOutcomes{*this, "replayed_outcomes", "summary"};

  SummaryGlobalStats() = default;
  SummaryGlobalStats(const SummaryGlobalStats &O) { copyFrom(O); }
  SummaryGlobalStats &operator=(const SummaryGlobalStats &O) {
    copyFrom(O);
    return *this;
  }
};

/// The process-wide instance.
inline SummaryGlobalStats &summaryGlobalStats() {
  static SummaryGlobalStats S;
  return S;
}

} // namespace gillian::obs

#endif // GILLIAN_OBS_SUMMARY_STATS_H
