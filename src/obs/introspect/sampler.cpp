//===- obs/introspect/sampler.cpp -----------------------------------------===//

#include "obs/introspect/sampler.h"

#include "obs/coverage.h"
#include "obs/json_writer.h"
#include "obs/progress.h"
#include "obs/sched_counters.h"

#include <chrono>

#include <fcntl.h>
#include <unistd.h>

using namespace gillian::obs;

namespace {
uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
} // namespace

HeartbeatSampler::Snapshot HeartbeatSampler::snap() const {
  ProgressCounters &P = progressCounters();
  return {nowNs(), P.PathsFinished.load(), P.SolverQueries.load()};
}

bool HeartbeatSampler::start(const std::string &Path, uint64_t Interval) {
  if (Running.load(std::memory_order_acquire))
    return false;
  Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (Fd < 0)
    return false;
  IntervalMs = Interval < 10 ? 10 : Interval;
  StartNs = nowNs();
  Ticks.store(0, std::memory_order_relaxed);
  StopRequested = false;
  Running.store(true, std::memory_order_release);
  Thread = std::thread([this] { loop(); });
  return true;
}

void HeartbeatSampler::stop() {
  if (!Running.exchange(false, std::memory_order_acq_rel)) {
    if (Thread.joinable())
      Thread.join();
    return;
  }
  {
    std::lock_guard<std::mutex> Lock(Mu);
    StopRequested = true;
  }
  Cv.notify_all();
  if (Thread.joinable())
    Thread.join();
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
}

void HeartbeatSampler::writeLine(const Snapshot &Prev, const Snapshot &Now) {
  SchedCounters &Sched = schedCounters();
  WorkerDepthGauges &D = WorkerDepthGauges::instance();
  ProgressCounters &P = progressCounters();

  double Dt = Now.Ns > Prev.Ns
                  ? static_cast<double>(Now.Ns - Prev.Ns) * 1e-9
                  : 0.0;
  JsonWriter W;
  W.beginObject();
  W.field("t_ms", (Now.Ns - StartNs) / 1000000);
  W.field("paths_finished", Now.Paths);
  W.field("solver_queries", Now.Queries);
  W.field("tests_started", P.TestsStarted.load());
  W.field("paths_per_sec",
          Dt > 0.0 ? static_cast<double>(Now.Paths - Prev.Paths) / Dt : 0.0,
          3);
  W.field("queries_per_sec",
          Dt > 0.0 ? static_cast<double>(Now.Queries - Prev.Queries) / Dt
                   : 0.0,
          3);
  RateTracker::Rates WR = WindowRates.sample();
  W.field("paths_per_sec_window", WR.PathsPerSec, 3);
  W.field("queries_per_sec_window", WR.QueriesPerSec, 3);
  W.field("window_ms", metricsWindowMs());
  W.field("frontier_size", Sched.FrontierSize.load());
  W.field("pool_workers", Sched.PoolWorkers.load());
  W.key("workers");
  W.beginArray();
  uint32_t Tracked = D.tracked();
  for (uint32_t I = 0; I < Tracked; ++I)
    W.value(D.depth(I));
  W.endArray();
  uint64_t Covered = 0, Total = 0;
  BranchCoverage::instance().totals(Covered, Total);
  W.field("coverage_covered", Covered);
  W.field("coverage_total", Total);
  W.endObject();

  std::string Line = W.take();
  Line += '\n';
  // Single write() per line: JSONL lines from one sampler never interleave.
  [[maybe_unused]] ssize_t N = ::write(Fd, Line.data(), Line.size());
  Ticks.fetch_add(1, std::memory_order_relaxed);
}

void HeartbeatSampler::loop() {
  Snapshot Prev = snap();
  writeLine(Prev, Prev); // baseline line (rates 0)
  for (;;) {
    std::unique_lock<std::mutex> Lock(Mu);
    if (Cv.wait_for(Lock, std::chrono::milliseconds(IntervalMs),
                    [this] { return StopRequested; }))
      break;
    Lock.unlock();
    Snapshot Now = snap();
    writeLine(Prev, Now);
    Prev = Now;
  }
  // Final line so a run shorter than one interval still records its end
  // state (and the last partial interval is not lost on long runs).
  Snapshot Now = snap();
  if (Now.Ns != Prev.Ns)
    writeLine(Prev, Now);
}
