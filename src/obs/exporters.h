//===- obs/exporters.h - Trace and stats exporters -------------*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two exporters of the observability core (DESIGN.md §4c):
///
///  * chromeTraceJson — renders drained flight-recorder events as a
///    chrome://tracing / Perfetto-compatible Trace Event JSON document
///    (`{"traceEvents":[...]}`): span begin/end become "B"/"E" duration
///    events nested per thread, everything else becomes an instant event
///    with its payload in "args".
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

#include "obs/span.h"
#include "obs/trace_ring.h"

#include <string>
#include <vector>

namespace gillian::obs {

/// Renders \p Events as a Trace Event Format JSON document. Span events
/// are emitted as "B"/"E" pairs (chrome matches them per tid and draws
/// the nesting); unbalanced ends at the start of a drained ring — the
/// wrap ate their begin — are dropped so the document always parses and
/// nests.
std::string chromeTraceJson(const std::vector<TraceEvent> &Events);

/// Drains the global recorder and writes the chrome trace to \p Path.
/// Returns false (and leaves no partial file behind) on I/O failure.
bool writeChromeTrace(const std::string &Path);

/// GILLIAN_TRACE_OUT=path: enables the flight recorder now and registers
/// an atexit writer for the chrome trace — the env-var twin of the bench
/// drivers' --trace-out=, for processes without a CLI (ctest suite runs,
/// like GILLIAN_SERVE). Checked once per process.
void maybeEnableEnvTrace();

/// The unified observability object: {"spans":{...},"actions":{...},
/// "scheduler":{...}}. \p Spans is typically a delta between two
/// SpanTable snapshots (one bench row) or a full snapshot (whole run).
std::string obsStatsJson(const SpanSnapshot &Spans);

} // namespace gillian::obs

#endif // GILLIAN_OBS_EXPORTERS_H
