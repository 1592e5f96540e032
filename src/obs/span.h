//===- obs/span.h - RAII layer timers with self/total time -----*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RAII wall-time spans with thread-local nesting: one timer for the
/// engine, the scheduler and every solver layer.
///
/// Every span records into the process-wide SpanTable under its SpanKind:
///  * total time — wall time between construction and destruction, the
///    classic stopwatch semantics (cumulative across threads when the
///    scheduler runs several workers);
///  * self time  — total minus the time spent in *nested* spans on the
///    same thread. Self times are mutually exclusive by construction, so
///    summed over all kinds they reproduce the top-level spans' wall time:
///    the per-layer attribution "engine vs simplifier vs cache vs
///    syntactic core vs Z3" sums to the measured wall clock.
///
/// A span can additionally feed a Counter slot (total time), which is how
/// per-instance fields such as SolverStats::Z3Ns keep their exact meaning
/// while the global attribution comes for free.
///
/// Cost model: a span is two steady_clock reads plus a handful of
/// relaxed atomic adds. Spans are always on, so they time layers, not GIL
/// commands: no span opens per interpreter step or per simplification.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_OBS_SPAN_H
#define GILLIAN_OBS_SPAN_H

#include "obs/counters.h"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string_view>

namespace gillian::obs {

/// The instrumented layers. Keep spanKindName() in sync — it is the single
/// source for JSON keys and /metrics labels.
enum class SpanKind : uint8_t {
  Explore,     ///< one exploration (sequential run() or parallel explore())
  Solver,      ///< Solver::checkSat / verifiedModel total
  CacheLookup, ///< result-cache probes (full-query and slice)
  Slice,       ///< independence slicing (connected-component split)
  Canon,       ///< canonical slice-key construction
  Syntactic,   ///< syntactic core + syntactic model proposals
  Z3,          ///< Z3 check on the thread's solver
  ModelSearch, ///< counter-model search beyond checkSat
};
inline constexpr size_t NumSpanKinds =
    static_cast<size_t>(SpanKind::ModelSearch) + 1;

std::string_view spanKindName(SpanKind K);

/// A value snapshot of the global span table (plain uint64s, copyable).
struct SpanSnapshot {
  std::array<uint64_t, NumSpanKinds> TotalNs{};
  std::array<uint64_t, NumSpanKinds> SelfNs{};
  std::array<uint64_t, NumSpanKinds> Count{};

  uint64_t totalNs(SpanKind K) const {
    return TotalNs[static_cast<size_t>(K)];
  }
  uint64_t selfNs(SpanKind K) const {
    return SelfNs[static_cast<size_t>(K)];
  }
  uint64_t count(SpanKind K) const {
    return Count[static_cast<size_t>(K)];
  }
  /// Sum of self times over every kind — the layers' reconstruction of
  /// the top-level wall time (cumulative across threads).
  uint64_t sumSelfNs() const {
    uint64_t S = 0;
    for (uint64_t V : SelfNs)
      S += V;
    return S;
  }

  SpanSnapshot operator-(const SpanSnapshot &O) const {
    SpanSnapshot D;
    for (size_t I = 0; I < NumSpanKinds; ++I) {
      D.TotalNs[I] = TotalNs[I] - O.TotalNs[I];
      D.SelfNs[I] = SelfNs[I] - O.SelfNs[I];
      D.Count[I] = Count[I] - O.Count[I];
    }
    return D;
  }

  /// `{"explore":{"total_ns":..,"self_ns":..,"count":..},...}`, skipping
  /// kinds that never fired.
  void jsonInto(JsonWriter &W) const;
  std::string json() const;
};

/// The process-wide per-kind accumulator. Recording is relaxed-atomic;
/// snapshots are for quiescent points.
class SpanTable {
public:
  static SpanTable &global();

  void record(SpanKind K, uint64_t TotalNs, uint64_t SelfNs) {
    size_t I = static_cast<size_t>(K);
    Total[I].fetch_add(TotalNs, std::memory_order_relaxed);
    Self[I].fetch_add(SelfNs, std::memory_order_relaxed);
    N[I].fetch_add(1, std::memory_order_relaxed);
  }

  SpanSnapshot snapshot() const;
  void reset();

private:
  std::array<std::atomic<uint64_t>, NumSpanKinds> Total{};
  std::array<std::atomic<uint64_t>, NumSpanKinds> Self{};
  std::array<std::atomic<uint64_t>, NumSpanKinds> N{};
};

namespace detail {
/// Per-thread frame of the innermost live span: nested spans add their
/// total into the parent's ChildNs so the parent can compute self time.
struct SpanFrame {
  uint64_t ChildNs = 0;
  SpanFrame *Parent = nullptr;
};
SpanFrame *&currentSpanFrame();
} // namespace detail

/// The RAII span. \p Slot (optional) additionally receives the total
/// nanoseconds, preserving the semantics of the per-instance stopwatch
/// counters the spans subsume.
class Span {
public:
  explicit Span(SpanKind K, Counter *Slot = nullptr)
      : Kind(K), Slot(Slot), T0(std::chrono::steady_clock::now()) {
    detail::SpanFrame *&Cur = detail::currentSpanFrame();
    Frame.Parent = Cur;
    Cur = &Frame;
  }

  ~Span() {
    auto Dt = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - T0)
            .count());
    detail::currentSpanFrame() = Frame.Parent;
    if (Frame.Parent)
      Frame.Parent->ChildNs += Dt;
    uint64_t SelfNs = Dt >= Frame.ChildNs ? Dt - Frame.ChildNs : 0;
    SpanTable::global().record(Kind, Dt, SelfNs);
    if (Slot)
      Slot->fetch_add(Dt);
  }

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  SpanKind Kind;
  Counter *Slot;
  std::chrono::steady_clock::time_point T0;
  detail::SpanFrame Frame;
};

} // namespace gillian::obs

#endif // GILLIAN_OBS_SPAN_H
