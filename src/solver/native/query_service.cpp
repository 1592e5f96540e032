//===- solver/native/query_service.cpp ------------------------------------===//

#include "solver/native/query_service.h"

#include "obs/native_stats.h"
#include "solver/solver.h"

#include <algorithm>

using namespace gillian;
using namespace gillian::native;

namespace {
thread_local bool IsServiceWorker = false;
} // namespace

struct SolverService::Pending {
  PathCondition PC;
  const void *Owner = nullptr;
  SolveFn Fn;
  SolverStats *St = nullptr; ///< submitter's stats (alive while it waits)
  std::promise<SatResult> Prom;
  std::shared_future<SatResult> Fut;
  bool Started = false;
  bool Done = false;
};

SolverService &SolverService::process() {
  static SolverService S;
  return S;
}

bool SolverService::onWorkerThread() { return IsServiceWorker; }

void SolverService::ensureWorkers(unsigned MaxWorkers) {
  while (Workers.size() < MaxWorkers)
    Workers.emplace_back([this] { workerMain(); });
}

SatResult SolverService::checkSat(const void *Owner, const PathCondition &PC,
                                  unsigned MaxWorkers, const SolveFn &Fn,
                                  SolverStats &Stats) {
  obs::NativeGlobalStats &G = obs::nativeGlobalStats();
  // A service worker submitting to its own pool would deadlock it; a
  // disabled service has nowhere to run. Both solve inline.
  if (MaxWorkers == 0 || IsServiceWorker) {
    ++Stats.AsyncInlineRuns;
    ++G.AsyncInlineRuns;
    return Fn(PC);
  }

  std::shared_future<SatResult> Fut;
  {
    std::unique_lock<std::mutex> L(Mu);
    ensureWorkers(MaxWorkers);

    // Deduplicate against in-flight identical queries of the same owner:
    // sibling branches under parallel exploration often re-ask the exact
    // same canonical condition before the first answer lands.
    for (const PendingPtr &P : InFlight)
      if (!P->Done && P->Owner == Owner && P->PC.hash() == PC.hash() &&
          P->PC == PC) {
        ++Stats.AsyncDedupHits;
        ++G.AsyncDedupHits;
        Fut = P->Fut;
        break;
      }

    if (!Fut.valid()) {
      if (Queue.size() >= QueueCap) {
        ++Stats.AsyncInlineRuns;
        ++G.AsyncInlineRuns;
        L.unlock();
        return Fn(PC); // overflow: degrade to the inline path
      }
      PendingPtr P = std::make_shared<Pending>();
      P->PC = PC;
      P->Owner = Owner;
      P->Fn = Fn;
      P->St = &Stats;
      P->Fut = P->Prom.get_future().share();
      InFlight.push_back(P);
      Queue.push_back(P);
      ++Stats.AsyncSubmitted;
      ++G.AsyncSubmitted;
      Stats.AsyncQueueDepth.set(Queue.size());
      G.AsyncQueueDepth.set(Queue.size());
      WorkCV.notify_one();
      Fut = P->Fut;
    }
  }
  return Fut.get();
}

void SolverService::applySubsumption(const PendingPtr &Done, SatResult R) {
  if (R == SatResult::Unknown)
    return;
  obs::NativeGlobalStats &G = obs::nativeGlobalStats();
  for (const PendingPtr &E : InFlight) {
    if (E == Done || E->Done || E->Started || E->Owner != Done->Owner)
      continue;
    // Sat of a superset condition answers every subset it contains; Unsat
    // of a subset answers every superset (canonical conjunct containment).
    bool Resolves = (R == SatResult::Sat && Done->PC.contains(E->PC)) ||
                    (R == SatResult::Unsat && E->PC.contains(Done->PC));
    if (Resolves) {
      E->Done = true;
      E->Prom.set_value(R);
      ++E->St->AsyncSubsumedHits;
      ++G.AsyncSubsumedHits;
    }
  }
}

void SolverService::workerMain() {
  IsServiceWorker = true;
  obs::NativeGlobalStats &G = obs::nativeGlobalStats();
  std::unique_lock<std::mutex> L(Mu);
  while (true) {
    WorkCV.wait(L, [this] { return Stopping || !Queue.empty(); });
    if (Stopping)
      return;

    // Drain a small batch: subsumption-resolved entries are skipped, live
    // ones are solved back-to-back on this thread's live Z3 solver.
    std::vector<PendingPtr> Batch;
    while (!Queue.empty() && Batch.size() < BatchMax) {
      PendingPtr P = Queue.front();
      Queue.pop_front();
      if (P->Done)
        continue;
      P->Started = true;
      Batch.push_back(P);
    }
    G.AsyncQueueDepth.set(Queue.size());
    if (Batch.empty())
      continue;
    ++ActiveWorkers;
    if (Batch[0]->St)
      ++Batch[0]->St->AsyncBatches;
    ++G.AsyncBatches;

    for (const PendingPtr &P : Batch) {
      L.unlock();
      SatResult R = SatResult::Unknown;
      try {
        R = P->Fn(P->PC);
      } catch (...) {
        // A throwing solve must still resolve the future (Unknown keeps
        // the caller sound: it falls back / treats as possibly-Sat).
      }
      L.lock();
      P->Done = true;
      P->Prom.set_value(R);
      applySubsumption(P, R);
      InFlight.erase(std::remove_if(InFlight.begin(), InFlight.end(),
                                    [](const PendingPtr &E) {
                                      return E->Done;
                                    }),
                     InFlight.end());
    }

    --ActiveWorkers;
    if (ActiveWorkers == 0 && InFlight.empty())
      IdleCV.notify_all();
  }
}

void SolverService::flush() {
  std::unique_lock<std::mutex> L(Mu);
  IdleCV.wait(L, [this] { return ActiveWorkers == 0 && InFlight.empty(); });
  // Drop subsumption-resolved leftovers so queueDepth() reads 0 when idle.
  while (!Queue.empty() && Queue.front()->Done)
    Queue.pop_front();
  obs::nativeGlobalStats().AsyncQueueDepth.set(Queue.size());
}

size_t SolverService::queueDepth() {
  std::lock_guard<std::mutex> L(Mu);
  return Queue.size();
}

size_t SolverService::workers() {
  std::lock_guard<std::mutex> L(Mu);
  return Workers.size();
}

SolverService::~SolverService() {
  {
    std::lock_guard<std::mutex> L(Mu);
    Stopping = true;
  }
  WorkCV.notify_all();
  for (std::thread &T : Workers)
    T.join();
}
