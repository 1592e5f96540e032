//===- obs/introspect/introspect_server.cpp -------------------------------===//

#include "obs/introspect/introspect_server.h"

#include "obs/action_counters.h"
#include "obs/coverage.h"
#include "obs/exporters.h"
#include "obs/introspect/metrics_registry.h"
#include "obs/introspect/prometheus.h"
#include "obs/journal/analysis.h"
#include "obs/journal/journal.h"
#include "obs/progress.h"
#include "obs/sched_counters.h"
#include "obs/span.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <string_view>

using namespace gillian::obs;

namespace {
uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The value of key \p Key in query string \p Query ("a=1&depth=2"):
/// "" for a bare key, nullopt when the key is absent.
std::optional<std::string_view> queryValue(std::string_view Query,
                                           std::string_view Key) {
  while (!Query.empty()) {
    std::string_view Pair = Query.substr(0, Query.find('&'));
    Query.remove_prefix(std::min(Query.size(), Pair.size() + 1));
    size_t Eq = Pair.find('=');
    if (Pair.substr(0, Eq) == Key)
      return Eq == std::string_view::npos ? std::string_view()
                                          : Pair.substr(Eq + 1);
  }
  return std::nullopt;
}
} // namespace

RateTracker::Rates RateTracker::sample() {
  ProgressCounters &P = progressCounters();
  Point Now{nowNs(), P.PathsFinished.load(), P.SolverQueries.load()};
  const uint64_t WindowNs = WindowMs * 1000000ull;

  std::lock_guard<std::mutex> Lock(Mu);
  while (!Window.empty() && Now.Ns - Window.front().Ns > WindowNs)
    Window.pop_front();
  Rates R;
  if (!Window.empty() && Now.Ns > Window.front().Ns) {
    const Point &Old = Window.front();
    double Dt = static_cast<double>(Now.Ns - Old.Ns) * 1e-9;
    R.PathsPerSec = static_cast<double>(Now.Paths - Old.Paths) / Dt;
    R.QueriesPerSec = static_cast<double>(Now.Queries - Old.Queries) / Dt;
  }
  Window.push_back(Now);
  if (Window.size() > 256) // bound memory under scrape storms
    Window.pop_front();
  return R;
}

std::string gillian::obs::metricsExposition() {
  PromWriter W;

  // Registry-driven sets: every field appears with zero exporter edits.
  counterSetInto(W, schedCounters());
  counterSetInto(W, progressCounters());
  // Execution journal self-accounting (DESIGN.md §4i).
  counterSetInto(W, journal::journalStats());

  // Per-worker deque depths — a dynamic gauge family.
  WorkerDepthGauges &D = WorkerDepthGauges::instance();
  uint32_t Tracked = D.tracked();
  for (uint32_t I = 0; I < Tracked; ++I)
    W.gauge("gillian_scheduler_worker_queue_depth", D.depth(I),
            {{"worker", std::to_string(I)}});

  // Span table: monotone per-layer time and counts, labelled by kind.
  SpanSnapshot Spans = SpanTable::global().snapshot();
  for (size_t I = 0; I < NumSpanKinds; ++I) {
    SpanKind K = static_cast<SpanKind>(I);
    if (Spans.count(K) == 0)
      continue;
    PromLabels L{{"kind", std::string(spanKindName(K))}};
    W.counter("gillian_span_total_ns", Spans.totalNs(K), L);
    W.counter("gillian_span_self_ns", Spans.selfNs(K), L);
    W.counter("gillian_span_count", Spans.count(K), L);
  }

  // Per-(language, action) symbolic-memory counters.
  for (const auto &[Lang, Actions] : ActionCounters::instance().snapshot())
    for (const auto &[Action, N] : Actions)
      W.counter("gillian_actions_executed", N,
                {{"lang", Lang}, {"action", Action}});

  // Hot solver sites: the journal's per-site view, top 16 by solver
  // wall, while the journal records.
  if (journal::enabled())
    for (const journal::SiteProfile &S :
         journal::topSites(journal::capture(), 16)) {
      PromLabels L{{"proc", S.Proc}, {"cmd_idx", std::to_string(S.Cmd)}};
      W.counter("gillian_solver_hot_query_wall_ns", S.WallNs, L);
      W.counter("gillian_solver_hot_query_calls", S.Queries, L);
    }

  // Target-program branch coverage: totals + per-procedure series.
  BranchCoverage &Cov = BranchCoverage::instance();
  uint64_t Covered = 0, Total = 0;
  for (const BranchCoverage::ProcCoverage &P : Cov.snapshot()) {
    PromLabels L{{"proc", P.Proc}};
    W.gauge("gillian_coverage_branch_outcomes_covered",
            static_cast<uint64_t>(P.OutcomesCovered), L);
    // "possible", not "total": the _total suffix is reserved for counters
    // in the exposition format (scripts/prom_lint.sh enforces this).
    W.gauge("gillian_coverage_branch_outcomes_possible",
            static_cast<uint64_t>(P.outcomesTotal()), L);
    Covered += P.OutcomesCovered;
    Total += P.outcomesTotal();
  }
  W.gauge("gillian_coverage_outcomes_covered", Covered);
  W.gauge("gillian_coverage_outcomes_possible", Total);

  // Live per-run sources (ExecStats / SolverStats of whatever is running).
  MetricsRegistry::instance().render(W);

  return W.take();
}

std::string gillian::obs::progressJson(RateTracker &Rates) {
  RateTracker::Rates R = Rates.sample();
  ProgressCounters &P = progressCounters();
  WorkerDepthGauges &D = WorkerDepthGauges::instance();
  SchedCounters &Sched = schedCounters();

  JsonWriter W;
  W.beginObject();
  W.field("paths_finished", P.PathsFinished.load());
  W.field("solver_queries", P.SolverQueries.load());
  W.field("tests_started", P.TestsStarted.load());
  W.field("frontier_size", Sched.FrontierSize.load());
  W.field("pool_workers", Sched.PoolWorkers.load());
  W.key("workers");
  W.beginArray();
  uint32_t Tracked = D.tracked();
  for (uint32_t I = 0; I < Tracked; ++I)
    W.value(D.depth(I));
  W.endArray();
  W.field("paths_per_sec", R.PathsPerSec, 3);
  W.field("queries_per_sec", R.QueriesPerSec, 3);
  W.field("window_ms", Rates.windowMs());
  uint64_t Covered = 0, Total = 0;
  BranchCoverage::instance().totals(Covered, Total);
  W.key("coverage");
  W.beginObject();
  W.field("outcomes_covered", Covered);
  W.field("outcomes_total", Total);
  W.endObject();
  W.endObject();
  return W.take();
}

bool gillian::obs::parseHostPort(const std::string &Spec, std::string &Host,
                                 uint16_t &Port) {
  size_t Colon = Spec.rfind(':');
  if (Colon == std::string::npos || Colon == 0)
    return false;
  Host = Spec.substr(0, Colon);
  const std::string PortStr = Spec.substr(Colon + 1);
  if (PortStr.empty())
    return false;
  char *End = nullptr;
  unsigned long V = std::strtoul(PortStr.c_str(), &End, 10);
  if (End == nullptr || *End != '\0' || V > 65535)
    return false;
  Port = static_cast<uint16_t>(V);
  return true;
}

HttpResponse IntrospectServer::route(const HttpRequest &Req) {
  HttpResponse R;
  if (Req.Target == "/healthz") {
    R.Body = "ok\n";
  } else if (Req.Target == "/metrics") {
    R.ContentType = "text/plain; version=0.0.4; charset=utf-8";
    R.Body = metricsExposition();
  } else if (Req.Target == "/trace") {
    // The journal's chrome view; empty while the journal is off.
    R.ContentType = "application/json";
    R.Body = journal::enabled() ? chromeTraceJson(journal::capture())
                                : "{\"traceEvents\":[]}";
    R.Body += '\n';
  } else if (Req.Target == "/progress") {
    R.ContentType = "application/json";
    R.Body = progressJson(Rates);
    R.Body += '\n';
  } else if (Req.Target == "/tree") {
    // Live path tree from the in-process journal: /tree?depth=N, N a
    // count (default 4, 0 = roots only). {"enabled":false,...} when the
    // journal is off.
    size_t Depth = 4;
    if (std::optional<std::string_view> V = queryValue(Req.Query, "depth")) {
      const char *End = V->data() + V->size();
      auto [Stop, Ec] = std::from_chars(V->data(), End, Depth);
      if (Ec != std::errc() || Stop != End)
        return {400, R.ContentType, "depth is not a count\n"};
    }
    R.ContentType = "application/json";
    R.Body = journal::liveTreeJson(Depth);
    R.Body += '\n';
  } else {
    R.Status = 404;
    R.Body = "not found\n";
  }
  return R;
}

IntrospectServer &gillian::obs::processIntrospectServer() {
  static IntrospectServer S;
  return S;
}

uint16_t gillian::obs::startProcessIntrospection(const std::string &Spec) {
  IntrospectServer &S = processIntrospectServer();
  if (S.running())
    return S.port();
  std::string Host;
  uint16_t Port = 0;
  if (!parseHostPort(Spec, Host, Port)) {
    std::fprintf(stderr, "[obs] invalid serve spec '%s' (want host:port)\n",
                 Spec.c_str());
    return 0;
  }
  uint16_t Bound = S.start(Host, Port);
  if (Bound == 0) {
    std::fprintf(stderr, "[obs] failed to bind introspection server on %s\n",
                 Spec.c_str());
    return 0;
  }
  std::fprintf(stderr,
               "[obs] introspection server listening on http://%s:%u\n",
               Host.c_str(), static_cast<unsigned>(Bound));
  return Bound;
}
