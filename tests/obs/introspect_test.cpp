//===- tests/obs/introspect_test.cpp --------------------------------------===//
//
// Unit tests of the live-introspection layer: HTTP request parsing
// (including the malformed shapes the server must 400), the Prometheus
// text-exposition writer (TYPE lines, counter suffixing, label escaping),
// the /metrics exposition's format and monotonicity across scrapes, the
// serve-spec parser, the rolling rate tracker behind /progress, the
// live-source registry, real loopback requests to the server (one per
// connection, a stalled client bounded by the timeout), and the journal
// views it serves (/trace, /tree and the hot-site series of /metrics).
//
//===----------------------------------------------------------------------===//

#include "obs/introspect/http_server.h"
#include "obs/introspect/introspect_server.h"
#include "obs/introspect/metrics_registry.h"
#include "obs/introspect/prometheus.h"
#include "obs/journal/journal.h"
#include "obs/json_writer.h"
#include "obs/progress.h"
#include "support/interner.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace gillian;
using namespace gillian::obs;

namespace {

//===----------------------------------------------------------------------===//
// parseHttpRequest
//===----------------------------------------------------------------------===//

TEST(HttpParseTest, ParsesGetWithQueryAndHeaders) {
  HttpRequest R;
  ASSERT_TRUE(parseHttpRequest(
      "GET /metrics?seconds=5 HTTP/1.1\r\nHost: localhost:9090\r\n"
      "Accept: */*\r\n\r\n",
      R));
  EXPECT_EQ(R.Method, "GET");
  EXPECT_EQ(R.Target, "/metrics");
  EXPECT_EQ(R.Query, "seconds=5");
  EXPECT_EQ(R.Version, "HTTP/1.1");
  EXPECT_EQ(R.header("host"), "localhost:9090");
  EXPECT_EQ(R.header("accept"), "*/*");
  EXPECT_EQ(R.header("absent"), "");
}

TEST(HttpParseTest, ToleratesBareLfLineEndings) {
  HttpRequest R;
  ASSERT_TRUE(parseHttpRequest("GET /healthz HTTP/1.1\nHost: a\n\n", R));
  EXPECT_EQ(R.Target, "/healthz");
  EXPECT_EQ(R.header("host"), "a");
}

TEST(HttpParseTest, RejectsMalformedRequests) {
  HttpRequest R;
  // Too few request-line tokens.
  EXPECT_FALSE(parseHttpRequest("GET\r\n\r\n", R));
  EXPECT_FALSE(parseHttpRequest("GET /x\r\n\r\n", R));
  // Version token is not HTTP/*.
  EXPECT_FALSE(parseHttpRequest("GET / FTP/1.0\r\n\r\n", R));
  // Embedded NUL.
  EXPECT_FALSE(parseHttpRequest(
      std::string_view("GET /\0 HTTP/1.1\r\n\r\n", 20), R));
  // Header without a colon, and a space inside a header name.
  EXPECT_FALSE(parseHttpRequest(
      "GET / HTTP/1.1\r\nno colon here\r\n\r\n", R));
  EXPECT_FALSE(parseHttpRequest(
      "GET / HTTP/1.1\r\nBad Header : x\r\n\r\n", R));
  // Requests advertising a body are out of protocol.
  EXPECT_FALSE(parseHttpRequest(
      "GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\n", R));
  EXPECT_FALSE(parseHttpRequest(
      "GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", R));
  // No terminating blank line.
  EXPECT_FALSE(parseHttpRequest("GET / HTTP/1.1\r\nHost: a\r\n", R));
  // Content-Length: 0 is fine (no body).
  EXPECT_TRUE(parseHttpRequest(
      "GET / HTTP/1.1\r\nContent-Length: 0\r\n\r\n", R));
}

//===----------------------------------------------------------------------===//
// Prometheus exposition writer
//===----------------------------------------------------------------------===//

TEST(PromWriterTest, CounterSuffixAndSingleTypeLine) {
  PromWriter W;
  W.counter("gillian_demo_events", 3, {{"kind", "a"}});
  W.counter("gillian_demo_events", 4, {{"kind", "b"}});
  std::string Out = W.take();
  // One TYPE line for the family, before its first sample; both series
  // carry the _total suffix.
  EXPECT_EQ(Out, "# TYPE gillian_demo_events_total counter\n"
                 "gillian_demo_events_total{kind=\"a\"} 3\n"
                 "gillian_demo_events_total{kind=\"b\"} 4\n");
}

TEST(PromWriterTest, GaugeKeepsBareNameAndDoubleFormat) {
  PromWriter W;
  W.gauge("gillian_demo_depth", static_cast<uint64_t>(7));
  W.gauge("gillian_demo_rate", 2.5);
  std::string Out = W.take();
  EXPECT_NE(Out.find("# TYPE gillian_demo_depth gauge\n"),
            std::string::npos);
  EXPECT_NE(Out.find("gillian_demo_depth 7\n"), std::string::npos);
  EXPECT_NE(Out.find("gillian_demo_rate 2.5\n"), std::string::npos);
  EXPECT_EQ(Out.find("_total"), std::string::npos);
}

TEST(PromWriterTest, EscapesLabelValues) {
  EXPECT_EQ(promEscapeLabelValue("plain"), "plain");
  EXPECT_EQ(promEscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(promEscapeLabelValue("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(promEscapeLabelValue("two\nlines"), "two\\nlines");
  PromWriter W;
  W.counter("gillian_demo_x", 1, {{"proc", "we\"ird\\name"}});
  EXPECT_NE(W.str().find("proc=\"we\\\"ird\\\\name\""), std::string::npos);
}

TEST(PromWriterTest, SanitizesMetricNameComponents) {
  EXPECT_EQ(promSanitizeName("cmds_executed"), "cmds_executed");
  EXPECT_EQ(promSanitizeName("per-worker.depth"), "per_worker_depth");
  EXPECT_EQ(promSanitizeName("9lives"), "_9lives");
  EXPECT_EQ(promSanitizeName(""), "_");
}

struct PromProbeStats : CounterSet<PromProbeStats> {
  Counter Hits{*this, "hits", "promprobe"};
  Gauge Depth{*this, "depth", "promprobe"};
};

TEST(PromWriterTest, CounterSetBridgeEmitsByFieldKind) {
  PromProbeStats S;
  S.Hits += 11;
  S.Depth.set(4);
  PromWriter W;
  counterSetInto(W, S, {{"suite", "t"}});
  std::string Out = W.take();
  EXPECT_NE(Out.find("# TYPE gillian_promprobe_hits_total counter\n"),
            std::string::npos);
  EXPECT_NE(Out.find("gillian_promprobe_hits_total{suite=\"t\"} 11\n"),
            std::string::npos);
  EXPECT_NE(Out.find("# TYPE gillian_promprobe_depth gauge\n"),
            std::string::npos);
  EXPECT_NE(Out.find("gillian_promprobe_depth{suite=\"t\"} 4\n"),
            std::string::npos);
}

/// First sample value of \p Name (exact unlabelled series) in \p Expo,
/// or UINT64_MAX when absent.
uint64_t metricValue(const std::string &Expo, const std::string &Name) {
  std::string Needle = Name + " ";
  size_t Pos = 0;
  while ((Pos = Expo.find(Needle, Pos)) != std::string::npos) {
    if (Pos == 0 || Expo[Pos - 1] == '\n')
      return std::strtoull(Expo.c_str() + Pos + Needle.size(), nullptr, 10);
    Pos += Needle.size();
  }
  return UINT64_MAX;
}

TEST(MetricsExpositionTest, WellFormedAndMonotoneAcrossScrapes) {
  std::string First = metricsExposition();
  // Every line is either a comment or "name[{labels}] value".
  size_t Start = 0;
  while (Start < First.size()) {
    size_t End = First.find('\n', Start);
    ASSERT_NE(End, std::string::npos) << "unterminated exposition line";
    std::string_view Line(First.c_str() + Start, End - Start);
    if (!Line.empty() && Line[0] != '#') {
      size_t Sp = Line.rfind(' ');
      ASSERT_NE(Sp, std::string_view::npos) << Line;
      EXPECT_NE(Sp, 0u) << Line;
      EXPECT_LT(Sp + 1, Line.size()) << Line;
    }
    Start = End + 1;
  }
  // The registry-driven families are present.
  EXPECT_NE(First.find("gillian_progress_paths_finished_total"),
            std::string::npos);
  EXPECT_NE(First.find("# TYPE gillian_scheduler_frontier_size gauge"),
            std::string::npos);

  uint64_t Before =
      metricValue(First, "gillian_progress_paths_finished_total");
  ASSERT_NE(Before, UINT64_MAX);
  progressCounters().PathsFinished += 5;
  uint64_t After = metricValue(
      metricsExposition(), "gillian_progress_paths_finished_total");
  EXPECT_GE(After, Before + 5);
}

TEST(MetricsExpositionTest, TypeLinesAppearOncePerFamily) {
  std::string Expo = metricsExposition();
  size_t Pos = 0;
  std::vector<std::string> Seen;
  while ((Pos = Expo.find("# TYPE ", Pos)) != std::string::npos) {
    size_t End = Expo.find('\n', Pos);
    std::string Line = Expo.substr(Pos, End - Pos);
    for (const std::string &S : Seen)
      EXPECT_NE(S, Line) << "duplicate TYPE line";
    Seen.push_back(Line);
    Pos = End;
  }
  EXPECT_FALSE(Seen.empty());
}

//===----------------------------------------------------------------------===//
// Serve-spec parsing
//===----------------------------------------------------------------------===//

TEST(ParseHostPortTest, AcceptsHostColonPort) {
  std::string Host;
  uint16_t Port = 1;
  ASSERT_TRUE(parseHostPort("127.0.0.1:0", Host, Port));
  EXPECT_EQ(Host, "127.0.0.1");
  EXPECT_EQ(Port, 0);
  ASSERT_TRUE(parseHostPort("0.0.0.0:9464", Host, Port));
  EXPECT_EQ(Port, 9464);
}

TEST(ParseHostPortTest, RejectsMalformedSpecs) {
  std::string Host;
  uint16_t Port = 0;
  EXPECT_FALSE(parseHostPort("no-colon", Host, Port));
  EXPECT_FALSE(parseHostPort(":8080", Host, Port));
  EXPECT_FALSE(parseHostPort("h:", Host, Port));
  EXPECT_FALSE(parseHostPort("h:65536", Host, Port));
  EXPECT_FALSE(parseHostPort("h:12x", Host, Port));
}

//===----------------------------------------------------------------------===//
// Rate tracker
//===----------------------------------------------------------------------===//

TEST(RateTrackerTest, FirstSampleHasNoRateThenDeltasAppear) {
  RateTracker T;
  RateTracker::Rates R0 = T.sample();
  EXPECT_EQ(R0.PathsPerSec, 0.0);
  EXPECT_EQ(R0.QueriesPerSec, 0.0);
  progressCounters().PathsFinished += 50;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  RateTracker::Rates R1 = T.sample();
  EXPECT_GT(R1.PathsPerSec, 0.0);
}

TEST(RateTrackerTest, PointsOlderThanTheWindowExpire) {
  RateTracker T(100);
  EXPECT_EQ(T.windowMs(), 100u);

  // Rates accumulate inside the window...
  T.sample();
  progressCounters().PathsFinished += 40;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  RateTracker::Rates Inside = T.sample();
  EXPECT_GT(Inside.PathsPerSec, 0.0);

  // ...and once every retained point is older than the window, the next
  // sample expires them all and reports no rate.
  std::this_thread::sleep_for(std::chrono::milliseconds(140));
  RateTracker::Rates Expired = T.sample();
  EXPECT_EQ(Expired.PathsPerSec, 0.0);
  EXPECT_EQ(Expired.QueriesPerSec, 0.0);

  // Rates re-accumulate from the sample that started the new window.
  progressCounters().PathsFinished += 40;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GT(T.sample().PathsPerSec, 0.0);
}

//===----------------------------------------------------------------------===//
// Live-source registry
//===----------------------------------------------------------------------===//

TEST(MetricsRegistryTest, ScopedSourceAppearsOnlyWhileAlive) {
  auto render = [] {
    PromWriter W;
    MetricsRegistry::instance().render(W);
    return W.take();
  };
  EXPECT_EQ(render().find("gillian_registry_probe_total"),
            std::string::npos);
  {
    ScopedMetricsSource Src([](PromWriter &W) {
      W.counter("gillian_registry_probe", 1);
    });
    EXPECT_NE(render().find("gillian_registry_probe_total"),
              std::string::npos);
  }
  EXPECT_EQ(render().find("gillian_registry_probe_total"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Live server round-trips (loopback)
//===----------------------------------------------------------------------===//

/// A socket connected to 127.0.0.1:\p Port, or -1.
int connectTo(uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  ::inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// Connects to 127.0.0.1:\p Port, sends \p Req and reads until the peer
/// closes. Returns everything read, or "" when the peer has not closed
/// within \p MaxMs: the server ends every connection after one answer.
std::string httpExchange(uint16_t Port, const std::string &Req,
                         int MaxMs = 2000) {
  int Fd = connectTo(Port);
  if (Fd < 0)
    return {};
  (void)::send(Fd, Req.data(), Req.size(), MSG_NOSIGNAL);
  std::string Out;
  bool Closed = false;
  for (int Waited = 0; Waited < MaxMs && !Closed;) {
    pollfd P{Fd, POLLIN, 0};
    if (::poll(&P, 1, 50) <= 0) {
      Waited += 50;
      continue;
    }
    char Buf[4096];
    ssize_t R = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (R > 0)
      Out.append(Buf, static_cast<size_t>(R));
    else
      Closed = true;
  }
  ::close(Fd);
  return Closed ? Out : std::string();
}

std::string body(const std::string &Resp) {
  size_t H = Resp.find("\r\n\r\n");
  return H == std::string::npos ? std::string() : Resp.substr(H + 4);
}

TEST(IntrospectServerTest, AnswersOneRequestPerConnection) {
  IntrospectServer S;
  uint16_t Port = S.start("127.0.0.1", 0);
  ASSERT_NE(Port, 0);
  EXPECT_TRUE(S.running());
  EXPECT_EQ(S.requestsServed(), 0u);
  EXPECT_EQ(S.lastRequestNs(), 0u);

  // No Connection header: the answer says close, and the server closes
  // right after the body (httpExchange returns "" otherwise).
  std::string R1 =
      httpExchange(Port, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(R1.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(R1.find("\r\nConnection: close\r\n"), std::string::npos);
  EXPECT_EQ(body(R1), "ok\n");
  EXPECT_EQ(S.requestsServed(), 1u);
  uint64_t First = S.lastRequestNs();
  EXPECT_NE(First, 0u);

  // Non-GET gets 405; garbage gets 400.
  std::string R2 =
      httpExchange(Port, "POST /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(R2.find("HTTP/1.1 405"), std::string::npos);
  std::string R3 = httpExchange(Port, "utter nonsense\r\n\r\n");
  EXPECT_NE(R3.find("HTTP/1.1 400"), std::string::npos);
  EXPECT_NE(R3.find("Connection: close"), std::string::npos);

  // HEAD returns headers only.
  std::string R4 =
      httpExchange(Port, "HEAD /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(R4.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(R4.find("Content-Length: 0\r\n"), std::string::npos);
  EXPECT_EQ(body(R4), "");

  EXPECT_EQ(S.requestsServed(), 4u);
  EXPECT_GT(S.lastRequestNs(), First);
  S.stop();
  EXPECT_FALSE(S.running());
  S.stop(); // idempotent
}

TEST(IntrospectServerTest, StalledClientDelaysOthersAtMostTheTimeout) {
  IntrospectServer S;
  uint16_t Port = S.start("127.0.0.1", 0);
  ASSERT_NE(Port, 0);

  // A client that connects and sends nothing holds the one serving
  // thread until the read timeout; the next connection is answered then.
  int Silent = connectTo(Port);
  ASSERT_GE(Silent, 0);
  auto T0 = std::chrono::steady_clock::now();
  std::string R = httpExchange(
      Port, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n", /*MaxMs=*/5000);
  EXPECT_NE(R.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_LT(std::chrono::steady_clock::now() - T0, std::chrono::seconds(5));
  // The stalled connection was closed unanswered.
  char Byte;
  EXPECT_EQ(::recv(Silent, &Byte, 1, MSG_DONTWAIT), 0);

  // stop() with another silent client connected returns as promptly.
  int Silent2 = connectTo(Port);
  ASSERT_GE(Silent2, 0);
  auto T1 = std::chrono::steady_clock::now();
  S.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - T1, std::chrono::seconds(5));
  EXPECT_FALSE(S.running());
  ::close(Silent);
  ::close(Silent2);
}

TEST(IntrospectServerTest, RoutesAllEndpoints) {
  IntrospectServer S;
  uint16_t Port = S.start("127.0.0.1", 0);
  ASSERT_NE(Port, 0);
  EXPECT_EQ(S.port(), Port);

  auto get = [&](const char *Path) {
    return httpExchange(Port, std::string("GET ") + Path +
                                  " HTTP/1.1\r\nHost: t\r\n"
                                  "Connection: close\r\n\r\n");
  };

  EXPECT_EQ(body(get("/healthz")), "ok\n");
  std::string Metrics = get("/metrics");
  EXPECT_NE(Metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(Metrics.find("# TYPE "), std::string::npos);
  EXPECT_NE(get("/stats").find("HTTP/1.1 404"), std::string::npos);
  EXPECT_TRUE(validateJson(body(get("/trace"))));
  std::string Progress = body(get("/progress"));
  EXPECT_TRUE(validateJson(Progress)) << Progress;
  EXPECT_NE(Progress.find("\"paths_finished\""), std::string::npos);
  EXPECT_NE(Progress.find("\"paths_per_sec\""), std::string::npos);
  EXPECT_NE(Progress.find("\"window_ms\""), std::string::npos);
  std::string Tree = body(get("/tree?depth=2"));
  EXPECT_TRUE(validateJson(Tree)) << Tree;
  EXPECT_NE(Tree.find("\"enabled\""), std::string::npos);
  EXPECT_NE(Tree.find("\"roots\""), std::string::npos);
  EXPECT_NE(get("/nope").find("HTTP/1.1 404"), std::string::npos);
  S.stop();
}

TEST(IntrospectServerTest, TreeDepthIsTheExactQueryParameter) {
  // A root that branches in two: depth 0 collapses it, any other depth
  // lists its children.
  journal::reset();
  journal::setEnabled(true);
  uint32_t Proc = InternedString::get("test_tree").id();
  uint64_t Root = journal::allocPathIds(1);
  journal::emitRoot(Root, Proc);
  uint64_t Kids = journal::allocPathIds(2);
  for (uint8_t Side = 0; Side < 2; ++Side) {
    journal::emitBranch(Root, 1, Proc, 3, Side, /*Taken=*/true,
                        journal::Verdict::Sat,
                        journal::VerdictLayer::Syntactic, 1, 0, Kids + Side);
    journal::emitPathEnd(Kids + Side, 2, Proc, 5,
                         static_cast<uint8_t>(journal::PathOutcome::Return),
                         journal::BudgetKind::None);
  }

  IntrospectServer S;
  uint16_t Port = S.start("127.0.0.1", 0);
  ASSERT_NE(Port, 0);
  auto tree = [&](const std::string &Query) {
    return httpExchange(Port, "GET /tree" + Query +
                                  " HTTP/1.1\r\nHost: t\r\n\r\n");
  };
  const std::pair<std::string, std::string> Served[] = {
      {"", "4"},           {"?depth=0", "0"},     {"?depth=1", "1"},
      {"?maxdepth=1", "4"}, {"?x=1&depth=2", "2"}, {"?depth=7&x", "7"}};
  for (const auto &[Query, Depth] : Served) {
    SCOPED_TRACE("/tree" + Query);
    std::string R = tree(Query);
    EXPECT_NE(R.find("HTTP/1.1 200"), std::string::npos) << R;
    std::string Tree = body(R);
    EXPECT_TRUE(validateJson(Tree)) << Tree;
    EXPECT_NE(Tree.find("\"depth\":" + Depth + ","), std::string::npos)
        << Tree;
    EXPECT_EQ(Tree.find("\"collapsed\":true") != std::string::npos,
              Depth == "0")
        << Tree;
  }
  for (const char *Bad : {"?depth=-1", "?depth=abc", "?depth=", "?depth",
                          "?depth=2x", "?depth=+2",
                          "?depth=99999999999999999999999"}) {
    SCOPED_TRACE(std::string("/tree") + Bad);
    EXPECT_NE(tree(Bad).find("HTTP/1.1 400"), std::string::npos);
  }
  S.stop();
  journal::setEnabled(false);
  journal::reset();
}

TEST(IntrospectServerTest, TraceAndHotSitesAreJournalViews) {
  IntrospectServer S;
  uint16_t Port = S.start("127.0.0.1", 0);
  ASSERT_NE(Port, 0);
  auto traceBody = [&] {
    std::string Resp = httpExchange(
        Port, "GET /trace HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    size_t H = Resp.find("\r\n\r\n");
    return H == std::string::npos ? std::string() : Resp.substr(H + 4);
  };
  const std::string HotFamily = "gillian_solver_hot_query_wall_ns";

  // Journal off: nothing is recorded, so there is nothing to view — even
  // with events left over from an earlier run.
  journal::reset();
  journal::setEnabled(true);
  uint32_t Proc = InternedString::get("test_hot").id();
  journal::emitBranch(journal::allocPathIds(1), 1, Proc, 3, /*Side=*/1,
                      /*Taken=*/true, journal::Verdict::Sat,
                      journal::VerdictLayer::Z3, 1, /*WallNs=*/1500, 0);
  journal::setEnabled(false);
  EXPECT_EQ(traceBody(), "{\"traceEvents\":[]}\n");
  EXPECT_EQ(metricsExposition().find(HotFamily), std::string::npos);

  // Journal on: the decision is a slice on /trace and its site a series.
  journal::setEnabled(true);
  std::string Trace = traceBody();
  EXPECT_TRUE(validateJson(Trace)) << Trace;
  EXPECT_NE(Trace.find("\"ph\":\"X\""), std::string::npos) << Trace;
  EXPECT_NE(Trace.find("\"layer\":\"z3\""), std::string::npos) << Trace;
  std::string Expo = metricsExposition();
  EXPECT_NE(Expo.find(HotFamily + "_total{proc=\"test_hot\",cmd_idx=\"3\"} "
                                  "1500"),
            std::string::npos)
      << Expo;
  EXPECT_NE(Expo.find("gillian_solver_hot_query_calls_total{proc=\"test_hot\""),
            std::string::npos);
  journal::setEnabled(false);
  journal::reset();
  S.stop();
}

} // namespace
