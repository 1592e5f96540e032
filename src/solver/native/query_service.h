//===- solver/native/query_service.h - Async solver service ----*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The asynchronous batched query service (DESIGN.md §4f): a process-wide
/// pool of solver threads behind a bounded submission queue. Scheduler
/// workers submit undecided path conditions and block on a future; the
/// service
///
///  * deduplicates in-flight identical queries (same owner, same canonical
///    condition) so concurrent workers exploring sibling branches share
///    one solve;
///  * drains small batches per worker wake-up, keeping each solver thread
///    on its live Z3 solver instead of ping-ponging;
///  * resolves queued queries by subsumption when a finished one answers
///    them: Sat of a superset condition is Sat of every subset it
///    contains, Unsat of a subset is Unsat of every superset (canonical
///    conjunct containment via PathCondition::contains);
///  * degrades gracefully — a full queue or a submission from a service
///    worker itself runs inline, so progress never deadlocks on the pool.
///
/// The service runs the *caller-provided* solve closure, so per-Solver
/// options, caches and statistics all keep working; verdicts are cached by
/// the caller after the future resolves, exactly as in the inline path.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_SOLVER_NATIVE_QUERY_SERVICE_H
#define GILLIAN_SOLVER_NATIVE_QUERY_SERVICE_H

#include "solver/path_condition.h"
#include "solver/syntactic.h"

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace gillian {
struct SolverStats;
}

namespace gillian::native {

class SolverService {
public:
  /// The solve closure run on a service thread (or inline on overflow).
  using SolveFn = std::function<SatResult(const PathCondition &)>;

  /// The process-wide service (threads are spawned lazily up to the
  /// highest MaxWorkers ever requested).
  static SolverService &process();

  /// True on a service worker thread — submissions from there run inline
  /// (a worker blocking on the pool it serves would deadlock it).
  static bool onWorkerThread();

  /// Solves \p PC through the service and blocks until the verdict is
  /// available. \p Owner scopes deduplication and subsumption (queries of
  /// different Solver instances never share results — their options may
  /// differ). \p Stats receives the submission-side counters.
  SatResult checkSat(const void *Owner, const PathCondition &PC,
                     unsigned MaxWorkers, const SolveFn &Fn,
                     SolverStats &Stats);

  /// Blocks until every submitted query has resolved and every worker is
  /// idle (quiescence point for resetCache / bench cold starts).
  void flush();

  size_t queueDepth();
  size_t workers();

  ~SolverService();

private:
  struct Pending;
  using PendingPtr = std::shared_ptr<Pending>;

  SolverService() = default;

  void ensureWorkers(unsigned MaxWorkers);
  void workerMain();
  /// Resolves \p Done's result into every queued query it subsumes.
  /// Caller holds the lock.
  void applySubsumption(const PendingPtr &Done, SatResult R);

  static constexpr size_t QueueCap = 256;
  static constexpr size_t BatchMax = 4;

  std::mutex Mu;
  std::condition_variable WorkCV; ///< queue non-empty / stop
  std::condition_variable IdleCV; ///< flush waiters
  std::vector<PendingPtr> InFlight;
  std::deque<PendingPtr> Queue;
  std::vector<std::thread> Workers;
  size_t ActiveWorkers = 0; ///< workers currently running solves
  bool Stopping = false;
};

} // namespace gillian::native

#endif // GILLIAN_SOLVER_NATIVE_QUERY_SERVICE_H
