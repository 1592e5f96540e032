//===- obs/journal/journal.h - Lossless execution journal ------*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-worker, lock-free, *lossless* structured execution journal
/// (DESIGN.md §4i) — the engine's one per-event record. It keeps every
/// event of a run: one compact record per branch decision (site,
/// taken/pruned side, PC-conjunct delta, solver verdict and the layer
/// that decided it, solver wall), per memory action (with the solver
/// wall its queries took), and per path termination (outcome, budget
/// kind, cumulative steps).
/// Every event also carries its emission time and the emitting thread, so
/// the chrome://tracing export (obs/exporters.h) and the per-site solver
/// table (obs/journal/analysis.h) are views of the same record.
///
/// Storage is per-thread chunked append: the emitting thread writes the
/// event slot and then publishes it with one release store of the chunk
/// count; readers (the /tree and /trace endpoints, the capture-at-exit
/// writers) take the chunk registry lock and acquire-load each count, so
/// a mid-run snapshot sees a consistent prefix of every thread's events
/// and never a torn record. Chunks are never recycled while enabled —
/// that is what makes the journal lossless.
///
/// Path identity replicates the scheduler's branch-trace PathId scheme
/// exactly (exploration_scheduler.h): a step with k >= 2 outputs —
/// counting finished paths and live successors, in production order —
/// allocates k fresh node ids for its outputs; a single-output step keeps
/// its node id. Lexicographic branch traces are therefore identical
/// across worker counts, which is what lets `gillian-inspect diff` align
/// two journals path-by-path. The successors a step hands to the frontier
/// are its live outputs but the last; the Branch and Action child ids
/// already name them, so they need no event of their own.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_OBS_JOURNAL_JOURNAL_H
#define GILLIAN_OBS_JOURNAL_JOURNAL_H

#include "obs/counters.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <vector>

namespace gillian::obs::journal {

/// Event kinds. The numeric order is part of the canonical event order
/// (Root sorts before the node's decisions, PathEnd after).
enum class EventKind : uint8_t {
  Root = 0,    ///< a fresh exploration root (one per makeInitialConfig)
  Branch = 1,  ///< one side of a branch decision (IfGoto / action)
  Action = 2,  ///< one memory-action execution
  // 3 and 4 name no kind; the reader rejects them.
  PathEnd = 5, ///< a path termination (outcome + budget kind)
};

/// Which solver layer produced the verdict of a branch decision — the
/// provenance `gillian-inspect why` and `diff` report.
enum class VerdictLayer : uint8_t {
  None = 0, ///< no solver query ran (trivially-false prune, concrete run)
  Trivial = 1,
  Cache = 2,
  Syntactic = 3,
  // 4 and 5 name no layer; the reader rejects them.
  Z3 = 6, ///< every Z3 verdict
};
/// Bound of the layer nibble: the analyses index per-layer arrays by it.
/// The reader rejects every nibble that names no layer.
inline constexpr size_t NumVerdictLayers =
    static_cast<size_t>(VerdictLayer::Z3) + 1;

const char *verdictLayerName(VerdictLayer L);

/// Verdict byte of a branch decision (packed with the layer into Event::C).
enum class Verdict : uint8_t { None = 0, Sat = 1, Unsat = 2, Unknown = 3 };

const char *verdictName(Verdict V);

/// Which budget cut a Bound path (Event::B of PathEnd events).
enum class BudgetKind : uint8_t {
  None = 0,
  Steps = 1,
  Paths = 2,
  Loop = 3,
  Depth = 4,
};

const char *budgetKindName(BudgetKind B);

/// Path outcome (Event::A of PathEnd events). Mirrors the engine's
/// OutcomeKind value-for-value so the interpreter can cast directly; the
/// obs layer must not include engine headers.
enum class PathOutcome : uint8_t {
  Return = 0,
  Error = 1,
  Vanish = 2,
  Bound = 3,
};

const char *pathOutcomeName(uint8_t K);

/// One journal record. Field meaning depends on Kind:
///
///   Kind     Path        Aux             Wall      Proc/Cmd      X        A          B        C
///   Root     root id     0               0         entry proc    0        0          0        0
///   Branch   parent id   child id or 0   solver ns decision site PC delta side idx   taken    verdict<<4|layer
///   Action   node id     child base or 0 solver ns action site   act name n branches n errors 0
///   PathEnd  node id     0               0         end site      0        outcome    budget   0
///
/// Proc (and X of Action events) hold interned-string ids in the live
/// journal and string-table indices in a JournalData read from a file.
/// TsNs and Tid are stamped by emit() and live only in memory: the file
/// format, canonicalLess and canonicalTreeSignature ignore them.
struct Event {
  uint64_t Path = 0;
  uint64_t Aux = 0;
  uint64_t WallNs = 0;
  uint64_t TsNs = 0; ///< emission time, steady-clock ns
  uint32_t Step = 0; ///< cumulative interpreter steps from the root
  uint32_t Proc = 0;
  uint32_t Cmd = 0;
  uint32_t X = 0;
  uint32_t Tid = 0; ///< dense id of the emitting thread
  uint8_t Kind = 0;
  uint8_t A = 0;
  uint8_t B = 0;
  uint8_t C = 0;
};

/// The verdict and deciding layer a Branch event packs into C.
inline Verdict verdictOf(const Event &E) {
  return static_cast<Verdict>((E.C >> 4) & 0x0f);
}
inline VerdictLayer layerOf(const Event &E) {
  return static_cast<VerdictLayer>(E.C & 0x0f);
}

/// Canonical event order: by (path node, step, kind, site, production
/// index, ...). Within one node this reconstructs emission order (replay
/// can emit several decisions under one step — their loop-free sites
/// strictly increase); across nodes it is allocation order. The tie-break
/// over every serialized field makes snapshot() a deterministic function
/// of the event multiset plus the node-id assignment, which is what makes
/// the serialized file byte-stable for sequential runs.
inline bool canonicalLess(const Event &L, const Event &R) {
  return std::tie(L.Path, L.Step, L.Kind, L.Proc, L.Cmd, L.A, L.Aux, L.B,
                  L.C, L.X, L.WallNs) <
         std::tie(R.Path, R.Step, R.Kind, R.Proc, R.Cmd, R.A, R.Aux, R.B,
                  R.C, R.X, R.WallNs);
}

/// Journal self-accounting, exported on /metrics as gillian_journal_* and
/// in every bench JSON's obs.journal block.
struct JournalStats : CounterSet<JournalStats> {
  obs::Counter Events{*this, "events", "journal"};
  obs::Counter BytesWritten{*this, "bytes_written", "journal"};
  obs::Counter FilesWritten{*this, "files_written", "journal"};
  obs::Gauge Enabled{*this, "enabled", "journal"};
  obs::Gauge Chunks{*this, "chunks", "journal"};
};

JournalStats &journalStats();

namespace detail {
extern std::atomic<bool> EnabledFlag;
} // namespace detail

/// One relaxed load: the gate every emission site checks first.
inline bool enabled() {
  return detail::EnabledFlag.load(std::memory_order_relaxed);
}

/// Turns recording on/off. Does not clear recorded events (so a bench can
/// pause around a calibration run); reset() clears.
void setEnabled(bool On);

/// Drops every recorded event and restarts node-id allocation at 1. Must
/// only be called at quiescent points (no exploration running) — the
/// bench cold-start / test set-up boundaries.
void reset();

/// Allocates \p N consecutive path-node ids (the k children of a
/// multi-output step); returns the first. Thread-safe.
uint64_t allocPathIds(uint32_t N);

/// Appends \p E to the calling thread's chunk, stamped with the current
/// time and the thread's id. Callers gate on enabled().
void emit(const Event &E);

/// Lifetime count of emitted events (the drop-guard reference: a lossless
/// journal has snapshot().size() == eventsEmitted() at quiescence).
uint64_t eventsEmitted();

/// A consistent copy of every published event, in canonical order. Safe
/// to call mid-run (sees a prefix of each thread's events).
std::vector<Event> snapshot();

//===----------------------------------------------------------------------===//
// Emission helpers (the interpreter calls these)
//===----------------------------------------------------------------------===//

inline void emitRoot(uint64_t Path, uint32_t EntryProc) {
  Event E;
  E.Kind = static_cast<uint8_t>(EventKind::Root);
  E.Path = Path;
  E.Proc = EntryProc;
  emit(E);
}

inline void emitBranch(uint64_t Path, uint32_t Step, uint32_t Proc,
                       uint32_t Cmd, uint8_t Side, bool Taken,
                       Verdict V, VerdictLayer L, uint32_t PcDelta,
                       uint64_t WallNs, uint64_t Child) {
  Event E;
  E.Kind = static_cast<uint8_t>(EventKind::Branch);
  E.Path = Path;
  E.Aux = Child;
  E.WallNs = WallNs;
  E.Step = Step;
  E.Proc = Proc;
  E.Cmd = Cmd;
  E.X = PcDelta;
  E.A = Side;
  E.B = Taken ? 1 : 0;
  E.C = static_cast<uint8_t>((static_cast<uint8_t>(V) << 4) |
                             static_cast<uint8_t>(L));
  emit(E);
}

inline void emitAction(uint64_t Path, uint32_t Step, uint32_t Proc,
                       uint32_t Cmd, uint32_t ActionName, uint32_t NBranches,
                       uint32_t NErrors, uint64_t ChildBase,
                       uint64_t WallNs) {
  Event E;
  E.Kind = static_cast<uint8_t>(EventKind::Action);
  E.Path = Path;
  E.Aux = ChildBase;
  E.WallNs = WallNs;
  E.Step = Step;
  E.Proc = Proc;
  E.Cmd = Cmd;
  E.X = ActionName;
  E.A = static_cast<uint8_t>(NBranches > 255 ? 255 : NBranches);
  E.B = static_cast<uint8_t>(NErrors > 255 ? 255 : NErrors);
  emit(E);
}

inline void emitPathEnd(uint64_t Path, uint32_t Step, uint32_t Proc,
                        uint32_t Cmd, uint8_t Outcome, BudgetKind Budget) {
  Event E;
  E.Kind = static_cast<uint8_t>(EventKind::PathEnd);
  E.Path = Path;
  E.Step = Step;
  E.Proc = Proc;
  E.Cmd = Cmd;
  E.A = Outcome;
  E.B = static_cast<uint8_t>(Budget);
  emit(E);
}

//===----------------------------------------------------------------------===//
// Solver verdict-layer attribution
//===----------------------------------------------------------------------===//

/// Per-thread attribution published by the solver while the journal is
/// on: a monotone query sequence number, cumulative wall time, and the
/// layer/verdict of the last decided query. The interpreter snapshots
/// (Seq, CumWallNs) around each branch-feasibility check and each memory
/// action; a changed Seq means a query ran and (Layer, LastVerdict)
/// describe its provenance.
struct QueryAttribution {
  uint64_t Seq = 0;
  uint64_t CumWallNs = 0;
  uint8_t Layer = 0;   ///< VerdictLayer of the last decided query
  uint8_t Verdict = 0; ///< Verdict of the last decided query
};

QueryAttribution &queryAttribution();

/// Called by the solver at each decisive point; the last note before the
/// query returns is the deciding layer (for sliced queries: the layer of
/// the last decisive sub-query — the refuter, for Unsat).
inline void noteLayer(VerdictLayer L) {
  queryAttribution().Layer = static_cast<uint8_t>(L);
}

/// Writes the journal stats block (enabled/events/captured/lossless/
/// bytes_written/files_written) as a JSON object string — the `journal`
/// block of every bench JSON.
std::string statsJson();

} // namespace gillian::obs::journal

#endif // GILLIAN_OBS_JOURNAL_JOURNAL_H
