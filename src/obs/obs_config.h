//===- obs/obs_config.h - Observability runtime switches -------*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-wide switches for the observability core (DESIGN.md §4c). Every
/// switchable instrumentation site is gated behind one relaxed atomic-bool
/// load, so the disabled configuration costs at most a predictable branch
/// per site (the ≤2% bench budget of the acceptance criteria).
///
/// Defaults: layer timing on (the explore and solver-layer spans, and
/// the SolverStats nanosecond slots they feed) and the fine-grained
/// per-step / per-simplify spans off (two clock reads per GIL command
/// would not fit the budget). Per-event recording is the execution
/// journal's, switched by journal::setEnabled (obs/journal/journal.h).
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_OBS_OBS_CONFIG_H
#define GILLIAN_OBS_OBS_CONFIG_H

#include <atomic>

namespace gillian::obs {

/// A value snapshot of every switch; apply with ObsConfig::set().
struct ObsOptions {
  /// RAII layer spans (engine / solver layers) accumulate wall time.
  bool Timing = true;
  /// Per-step and per-simplify spans: precise but hot (two steady_clock
  /// reads per GIL command / per simplification). Off by default.
  bool DetailedSpans = false;
};

/// Global switch registry. Reads are single relaxed atomic loads and are
/// safe from any thread; set() is intended for startup / bench
/// configuration points, not for toggling mid-exploration.
class ObsConfig {
public:
  static bool timing() { return S().Timing.load(std::memory_order_relaxed); }
  static bool detailedSpans() {
    return S().DetailedSpans.load(std::memory_order_relaxed);
  }

  static void set(const ObsOptions &O);
  /// Flips only the detailed-spans switch.
  static void setDetailedSpans(bool On) {
    S().DetailedSpans.store(On, std::memory_order_relaxed);
  }
  /// Current values as an ObsOptions snapshot.
  static ObsOptions get();

private:
  struct State {
    std::atomic<bool> Timing{true};
    std::atomic<bool> DetailedSpans{false};
  };
  static State &S();
};

} // namespace gillian::obs

#endif // GILLIAN_OBS_OBS_CONFIG_H
