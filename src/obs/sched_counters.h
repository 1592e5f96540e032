//===- obs/sched_counters.h - Work-stealing scheduler counters -*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel scheduler's counter set. It lives here (rather than next
/// to the thread pool) because the thread pool is a header-only template
/// below the engine library, and the unified stats exporter needs a
/// non-template home for the one global instance.
///
/// Steal totals are inherently schedule-dependent (an 1-worker run steals
/// nothing), which is exactly why they live in their own set instead of
/// ExecStats: the schedule-independence tests compare ExecStats and the
/// action counters across worker counts, and these stay out of that
/// comparison by construction.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_OBS_SCHED_COUNTERS_H
#define GILLIAN_OBS_SCHED_COUNTERS_H

#include "obs/counters.h"

namespace gillian::obs {

struct SchedCounters : CounterSet<SchedCounters> {
  /// Successful steal operations (one per batch taken from a victim).
  Counter Steals{*this, "steals", "scheduler"};
  /// Tasks moved by those steals.
  Counter StolenTasks{*this, "stolen_tasks", "scheduler"};
  /// Victim queue depth summed at each steal — divide by Steals for the
  /// mean backlog a thief found.
  Counter StealQueueDepth{*this, "steal_queue_depth_sum", "scheduler"};
  /// Tasks pushed to worker-local queues.
  Counter TasksSpawned{*this, "tasks_spawned", "scheduler"};
  /// Sampled frontier size: tasks queued or executing across the pool
  /// (the thread pool's Pending count). A Gauge, so it never enters
  /// cross-instance merges — an instantaneous depth cannot be summed.
  /// Maintained with commutative add/sub mirroring Pending (never a raw
  /// set), so concurrent pushes cannot publish out-of-order stale values
  /// and the gauge reads 0 once the pool has quiesced.
  Gauge FrontierSize{*this, "frontier_size", "scheduler"};
  /// Sampled worker count of the live (or last) pool.
  Gauge PoolWorkers{*this, "pool_workers", "scheduler"};
};

/// The process-wide instance the thread pool records into.
inline SchedCounters &schedCounters() {
  static SchedCounters C;
  return C;
}

} // namespace gillian::obs

#endif // GILLIAN_OBS_SCHED_COUNTERS_H
