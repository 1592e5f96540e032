//===- obs/progress.h - Live exploration progress signals ------*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process-wide progress signals the live introspection layer
/// (DESIGN.md §4d) samples: how many paths have finished, how many solver
/// queries have been answered, and how deep each worker's deque currently
/// is. They are deliberately *global* where ExecStats/SolverStats are
/// per-run instances — a /progress or /metrics scrape must see the whole
/// process without knowing which Interpreter or Solver is live.
///
/// Cost: one relaxed atomic add per finished path / solver query and one
/// relaxed store per deque mutation — all rare next to the work they
/// account (a path executes many commands; a query runs simplifier +
/// cache + possibly Z3), so the signals stay on unconditionally.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_OBS_PROGRESS_H
#define GILLIAN_OBS_PROGRESS_H

#include "obs/counters.h"

#include <array>
#include <atomic>
#include <cstdint>

namespace gillian::obs {

/// Monotone progress counters (all outcomes count as "finished": a path
/// that errored or hit a budget still finished exploring).
struct ProgressCounters : CounterSet<ProgressCounters> {
  Counter PathsFinished{*this, "paths_finished", "progress"};
  Counter SolverQueries{*this, "solver_queries", "progress"};
  /// Symbolic tests started (runSymbolicTest entries).
  Counter TestsStarted{*this, "tests_started", "progress"};
};

/// The process-wide instance the interpreter and solver record into.
inline ProgressCounters &progressCounters() {
  static ProgressCounters C;
  return C;
}

/// Sampled per-worker deque depths of the (single) live exploration pool —
/// a dynamically-sized Gauge family, so it lives outside the static
/// CounterSet schemas. Workers beyond MaxWorkers are untracked (depth
/// writes are dropped); the scheduler supports more, the dashboard does
/// not need them individually.
class WorkerDepthGauges {
public:
  static constexpr size_t MaxWorkers = 64;

  static WorkerDepthGauges &instance();

  /// Called by the pool constructor: widens the tracked range to \p N
  /// workers (clamped to MaxWorkers) and zeroes the newly-visible slots.
  void configure(uint32_t N) {
    if (N > MaxWorkers)
      N = MaxWorkers;
    for (uint32_t I = 0; I < N; ++I)
      Depth[I].set(0);
    Tracked.store(N, std::memory_order_relaxed);
  }

  void set(size_t Worker, uint64_t QueueDepth) {
    if (Worker < MaxWorkers)
      Depth[Worker].set(QueueDepth);
  }

  uint32_t tracked() const { return Tracked.load(std::memory_order_relaxed); }
  uint64_t depth(size_t Worker) const {
    return Worker < MaxWorkers ? Depth[Worker].load() : 0;
  }

private:
  std::array<Gauge, MaxWorkers> Depth{}; ///< standalone (unregistered) gauges
  std::atomic<uint32_t> Tracked{0};
};

} // namespace gillian::obs

#endif // GILLIAN_OBS_PROGRESS_H
