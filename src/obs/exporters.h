//===- obs/exporters.h - Trace and stats exporters -------------*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two exporters of the observability core (DESIGN.md §4c):
///
///  * chromeTraceJson — renders a journal capture as a chrome://tracing /
///    Perfetto-compatible Trace Event JSON document
///    (`{"traceEvents":[...]}`), one track per emitting thread: a branch
///    decision that spent solver time is a complete ("X") slice of that
///    time, every other journal event an instant with its payload in
///    "args".
///
///  * obsStatsJson — the unified stats object: span table (per-layer
///    total/self wall time), per-language action counters, and the
///    scheduler counters, in one registry-driven JSON object. Counter
///    sets (ExecStats, SolverStats) emit themselves via
///    CounterSet::countersJson() and are spliced in by the caller, so no
///    layer hand-maintains a field list.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_OBS_EXPORTERS_H
#define GILLIAN_OBS_EXPORTERS_H

#include "obs/journal/journal_io.h"
#include "obs/span.h"

#include <string>

namespace gillian::obs {

/// Renders \p D as a Trace Event Format JSON document. Each track holds
/// one thread's events; a decision's slice ends at or before the
/// decision's emission time and before the next slice on its track, so
/// slices never overlap and keep their exact solver wall.
std::string chromeTraceJson(const journal::JournalData &D);

/// Captures the live journal and writes its chrome trace to \p Path.
/// Returns false on I/O failure.
bool writeChromeTrace(const std::string &Path);

/// The unified observability object: {"spans":{...},"actions":{...},
/// "scheduler":{...}}. \p Spans is typically a delta between two
/// SpanTable snapshots (one bench row) or a full snapshot (whole run).
std::string obsStatsJson(const SpanSnapshot &Spans);

} // namespace gillian::obs

#endif // GILLIAN_OBS_EXPORTERS_H
