//===- engine/scheduler/scheduler_options.h - Scheduler knobs --*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration of the parallel exploration scheduler. Kept separate from
/// the pool/scheduler implementations so options.h (and therefore every
/// engine client) can embed it without pulling in <thread>.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_ENGINE_SCHEDULER_SCHEDULER_OPTIONS_H
#define GILLIAN_ENGINE_SCHEDULER_SCHEDULER_OPTIONS_H

#include <cstdint>

namespace gillian {

struct SchedulerOptions {
  /// Number of exploration workers. 1 (the default) runs the classic
  /// sequential depth-first worklist — bit-identical to the pre-scheduler
  /// engine, including result order. N > 1 explores path-disjoint
  /// configurations on a work-stealing pool of N threads and merges
  /// results in branch-trace order (deterministic, schedule-independent).
  uint32_t Workers = 1;
};

} // namespace gillian

#endif // GILLIAN_ENGINE_SCHEDULER_SCHEDULER_OPTIONS_H
