//===- engine/scheduler/scheduler_options.h - Scheduler knobs --*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration of the exploration scheduler. Kept separate from the
/// pool/scheduler implementations so options.h (and therefore every
/// engine client) can embed it without pulling in <thread>.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_ENGINE_SCHEDULER_SCHEDULER_OPTIONS_H
#define GILLIAN_ENGINE_SCHEDULER_SCHEDULER_OPTIONS_H

#include <cstdint>

namespace gillian {

struct SchedulerOptions {
  /// Number of exploration workers: the calling thread plus Workers - 1
  /// pool threads, so 1 (the default) starts no thread. Path-disjoint
  /// configurations run on a work-stealing pool and results merge in
  /// branch-trace order, the same sequence at every worker count.
  uint32_t Workers = 1;
};

} // namespace gillian

#endif // GILLIAN_ENGINE_SCHEDULER_SCHEDULER_OPTIONS_H
