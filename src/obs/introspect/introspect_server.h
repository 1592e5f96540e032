//===- obs/introspect/introspect_server.h - Live endpoints -----*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The live-introspection endpoint set (DESIGN.md §4d), one router over
/// the embedded HttpServer:
///
///   /metrics  — Prometheus text exposition, generated generically from
///               the counter registry (scheduler counters + gauges,
///               progress counters, per-worker deque depths), the span
///               table (per-layer total/self ns and counts), the
///               per-(language, action) counters, the journal's hottest
///               solver sites (while the journal records), branch
///               coverage, and every currently-registered live
///               MetricsRegistry source.
///   /stats    — the unified obsStatsJson object (spans/actions/scheduler).
///   /trace    — the execution journal so far as chrome://tracing JSON
///               (a snapshot: nothing is consumed); `{"traceEvents":[]}`
///               while the journal is off.
///   /progress — paths finished, frontier size, per-worker queue depths,
///               rolling paths/s and queries/s over a ~10 s window.
///   /healthz  — "ok", 200 (liveness for CI and load balancers).
///
/// Everything rendered is a relaxed-atomic or shard-locked snapshot, so
/// scraping mid-exploration is safe by construction — that is the entire
/// point of the feature.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_OBS_INTROSPECT_INTROSPECT_SERVER_H
#define GILLIAN_OBS_INTROSPECT_INTROSPECT_SERVER_H

#include "obs/introspect/http_server.h"

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>

namespace gillian::obs {

/// Rolling paths/s and queries/s from the process-wide progress counters:
/// each sample() appends (now, paths, queries) and reports the mean rate
/// over the points of the last \p WindowMs milliseconds (10 s for
/// /progress). Thread-safe; 0.0 until two samples exist.
class RateTracker {
public:
  struct Rates {
    double PathsPerSec = 0.0;
    double QueriesPerSec = 0.0;
  };

  explicit RateTracker(uint64_t WindowMs = 10000) : WindowMs(WindowMs) {}

  Rates sample();
  uint64_t windowMs() const { return WindowMs; }

private:
  struct Point {
    uint64_t Ns;
    uint64_t Paths;
    uint64_t Queries;
  };
  const uint64_t WindowMs;
  std::mutex Mu;
  std::deque<Point> Window;
};

/// Renders the full /metrics exposition (see file comment). Exposed as a
/// free function so tests can check the format without a socket.
std::string metricsExposition();

/// Renders the /progress JSON object: {"paths_finished":N,
/// "solver_queries":N,"tests_started":N,"frontier_size":N,
/// "pool_workers":N,"workers":[d0,d1,...],"paths_per_sec":R,
/// "queries_per_sec":R,"window_ms":N,
/// "coverage":{"outcomes_covered":N,"outcomes_total":N}}.
std::string progressJson(RateTracker &Rates);

/// Splits "host:port" (e.g. "127.0.0.1:0"). Returns false on a missing
/// colon or a port outside [0, 65535].
bool parseHostPort(const std::string &Spec, std::string &Host,
                   uint16_t &Port);

/// The assembled server: HttpServer + router + rate tracker. One instance
/// per process is the intended shape (the underlying stats are global),
/// but nothing enforces it — tests run several.
class IntrospectServer {
public:
  /// Binds and serves; returns the bound port (0 on failure). Port 0
  /// requests an ephemeral port — read the result.
  uint16_t start(const std::string &Host, uint16_t Port);
  /// As above from a "host:port" spec.
  uint16_t start(const std::string &Spec);
  void stop() { Server.stop(); }

  bool running() const { return Server.running(); }
  uint16_t port() const { return Server.port(); }
  uint64_t requestsServed() const { return Server.requestsServed(); }
  uint64_t lastRequestNs() const { return Server.lastRequestNs(); }

private:
  HttpResponse route(const HttpRequest &Req);

  HttpServer Server;
  RateTracker Rates;
};

/// The process-wide server instance the drivers and the GILLIAN_SERVE
/// hook share (so --serve and the env var cannot double-bind).
IntrospectServer &processIntrospectServer();

/// Starts the process-wide server on \p Spec ("host:port", port 0 =
/// ephemeral), announces `[obs] introspection server listening on
/// http://host:port` on stderr (CI parses this line to discover the
/// ephemeral port). Serving turns no recording on. Returns the bound
/// port; 0 on failure. If the server is already
/// running, returns its port without rebinding.
uint16_t startProcessIntrospection(const std::string &Spec);

/// startProcessIntrospection($GILLIAN_SERVE) if the variable is set —
/// the hook that gives the *test runner* (the suite/symbolic-test layer,
/// which has no CLI of its own) a serve switch. Checked once per process.
void maybeStartEnvIntrospection();

} // namespace gillian::obs

#endif // GILLIAN_OBS_INTROSPECT_INTROSPECT_SERVER_H
