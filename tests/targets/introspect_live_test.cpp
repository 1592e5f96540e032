//===- tests/targets/introspect_live_test.cpp -----------------------------===//
//
// Live introspection under concurrent load — the ThreadSanitizer target of
// DESIGN.md §4d: while an 8-worker parallel exploration runs the MJS
// Buckets suites, client threads continuously scrape /metrics, /trace and
// /progress off the embedded HTTP server. Every response must stay
// well-formed (the exposition lines parse, the JSON validates) and the
// run's results must be unaffected by the scraping. Under TSan this is
// the proof that mid-run snapshots of the counter registry, the span
// table, the execution journal (served by /trace and by the hot-site
// series of /metrics) and the coverage map are race-free.
//
//===----------------------------------------------------------------------===//

#include "targets/buckets_mjs.h"

#include "mjs/compiler.h"
#include "mjs/memory.h"
#include "obs/introspect/introspect_server.h"
#include "obs/journal/journal.h"
#include "obs/json_writer.h"
#include "targets/suite_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace gillian;
using namespace gillian::targets;

namespace {

/// One blocking GET of \p Path against 127.0.0.1:\p Port; returns the
/// response body ("" on any connection trouble — the workload may finish
/// while a scrape is in flight, which is not a failure).
std::string scrape(uint16_t Port, const char *Path) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return {};
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  ::inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    ::close(Fd);
    return {};
  }
  std::string Req = std::string("GET ") + Path +
                    " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
  (void)::send(Fd, Req.data(), Req.size(), MSG_NOSIGNAL);
  std::string Out;
  for (int Waited = 0; Waited < 5000;) {
    pollfd P{Fd, POLLIN, 0};
    int N = ::poll(&P, 1, 50);
    if (N == 0) {
      Waited += 50;
      continue;
    }
    char Buf[8192];
    ssize_t R = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (R <= 0)
      break;
    Out.append(Buf, static_cast<size_t>(R));
  }
  ::close(Fd);
  size_t H = Out.find("\r\n\r\n");
  return H == std::string::npos ? std::string() : Out.substr(H + 4);
}

} // namespace

TEST(IntrospectLiveTest, ConcurrentScrapesDuringEightWorkerSuiteRun) {
  // Journal on, so the scrapes exercise every snapshot path.
  obs::journal::reset();
  obs::journal::setEnabled(true);

  obs::IntrospectServer Server;
  uint16_t Port = Server.start("127.0.0.1", 0);
  ASSERT_NE(Port, 0);

  std::atomic<bool> Done{false};
  std::atomic<uint64_t> Scrapes{0};
  std::atomic<uint64_t> BadBodies{0};
  auto scraper = [&](const char *Path, bool Json) {
    while (!Done.load(std::memory_order_acquire)) {
      std::string Body = scrape(Port, Path);
      if (!Body.empty()) {
        ++Scrapes;
        if (Json ? !obs::validateJson(Body)
                 : Body.find("# TYPE ") == std::string::npos)
          ++BadBodies;
      }
    }
  };
  std::thread MetricsScraper(scraper, "/metrics", false);
  std::thread TraceScraper(scraper, "/trace", true);
  std::thread ProgressScraper(scraper, "/progress", true);

  EngineOptions Opts;
  Opts.Scheduler.Workers = 8;
  uint64_t Tests = 0;
  for (const BucketsSuite &S : bucketsSuites()) {
    std::string Src =
        std::string(bucketsLibrary()) + "\n" + std::string(S.Source);
    Result<Prog> P = mjs::compileMjsSource(Src);
    ASSERT_TRUE(P.ok()) << S.Name << ": " << P.error();
    SuiteResult R = runSuite<mjs::MjsSMem>(S.Name, *P, Opts);
    EXPECT_TRUE(R.clean()) << S.Name;
    Tests += R.Tests;
  }
  EXPECT_GT(Tests, 0u);

  Done.store(true, std::memory_order_release);
  MetricsScraper.join();
  TraceScraper.join();
  ProgressScraper.join();
  Server.stop();
  obs::journal::setEnabled(false);
  obs::journal::reset();

  // The suites take long enough that the scrapers land many mid-run hits;
  // every body they got back was well-formed.
  EXPECT_GT(Scrapes.load(), 0u);
  EXPECT_EQ(BadBodies.load(), 0u);
}
