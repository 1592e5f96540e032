//===- obs/introspect/introspect_server.h - Live endpoints -----*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The live-introspection endpoint set (DESIGN.md §4d): one server, one
/// router, five routes, one view each:
///
///   /metrics  — Prometheus text exposition, generated generically from
///               the counter registry (scheduler counters + gauges,
///               progress counters, per-worker deque depths), the span
///               table (per-layer total/self ns and counts), the
///               per-(language, action) counters, the journal's hottest
///               solver sites (while the journal records), branch
///               coverage, and every currently-registered live
///               MetricsRegistry source.
///   /trace    — the execution journal so far as chrome://tracing JSON
///               (a snapshot: nothing is consumed); `{"traceEvents":[]}`
///               while the journal is off.
///   /tree     — the journal's path forest, `/tree?depth=N` (N >= 0,
///               default 4, 0 = roots only; anything else is a 400).
///   /progress — paths finished, frontier size, per-worker queue depths,
///               rolling paths/s and queries/s over a ~10 s window.
///   /healthz  — "ok", 200 (liveness for CI and load balancers).
///
/// Everything rendered is a relaxed-atomic or shard-locked snapshot, so
/// scraping mid-exploration is safe by construction — that is the entire
/// point of the feature. The socket side (one request per connection)
/// lives in http_server.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_OBS_INTROSPECT_INTROSPECT_SERVER_H
#define GILLIAN_OBS_INTROSPECT_INTROSPECT_SERVER_H

#include "obs/introspect/http_server.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>

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

/// The assembled server: listening socket, serving thread, router and
/// rate tracker. One instance per process is the intended shape (the
/// underlying stats are global), but nothing enforces it — tests run
/// several.
class IntrospectServer {
public:
  IntrospectServer() = default;
  ~IntrospectServer() { stop(); }

  IntrospectServer(const IntrospectServer &) = delete;
  IntrospectServer &operator=(const IntrospectServer &) = delete;

  /// Binds \p Host:\p Port (port 0 = ephemeral), starts the serving
  /// thread and returns the bound port; 0 on failure (already running,
  /// address in use, bad host, ...).
  uint16_t start(const std::string &Host, uint16_t Port);

  /// Shuts the listening socket down, joins the serving thread (at most
  /// the rest of one connection's timeout) and closes. Idempotent.
  void stop();

  bool running() const { return Running.load(std::memory_order_acquire); }
  uint16_t port() const { return BoundPort; }

  /// Total requests answered (any status). Monotone; used by the drivers'
  /// --serve-linger-ms logic and the tests.
  uint64_t requestsServed() const {
    return Served.load(std::memory_order_relaxed);
  }
  /// Steady-clock ns timestamp of the most recent answered request
  /// (0 = none yet).
  uint64_t lastRequestNs() const {
    return LastRequestNs.load(std::memory_order_relaxed);
  }

private:
  void serveLoop();
  /// Reads one request from \p Fd, answers it and closes \p Fd.
  void serveConnection(int Fd);
  HttpResponse route(const HttpRequest &Req);

  RateTracker Rates;
  std::thread Thread;
  std::atomic<bool> Running{false};
  std::atomic<uint64_t> Served{0};
  std::atomic<uint64_t> LastRequestNs{0};
  int ListenFd = -1;
  uint16_t BoundPort = 0;
};

/// The process-wide server instance --serve starts.
IntrospectServer &processIntrospectServer();

/// Starts the process-wide server on \p Spec ("host:port", port 0 =
/// ephemeral), announces `[obs] introspection server listening on
/// http://host:port` on stderr (CI parses this line to discover the
/// ephemeral port). Serving turns no recording on. Returns the bound
/// port; 0 on failure. If the server is already
/// running, returns its port without rebinding.
uint16_t startProcessIntrospection(const std::string &Spec);

} // namespace gillian::obs

#endif // GILLIAN_OBS_INTROSPECT_INTROSPECT_SERVER_H
