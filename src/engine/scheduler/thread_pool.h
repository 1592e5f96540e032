//===- engine/scheduler/thread_pool.h - Work-stealing pool -----*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A work-stealing thread pool for dynamically forking task graphs — the
/// substrate of the parallel exploration scheduler. Symbolic execution
/// after a branch point produces *path-disjoint* configurations; each is a
/// task, and stepping a task may spawn more tasks (its branch successors).
///
/// Topology: one mutex-striped deque per worker; roots are injected onto
/// worker 0's. A worker pops its own deque LIFO (its newest fork:
/// depth-first locality, bounded frontier); thieves take FIFO (the oldest,
/// shallowest forks, which head the largest untapped subtrees). Steals
/// move up to `TasksPerSteal` configurations so a thief seeds itself instead
/// of returning for every successor; the batch is adaptive — it halves
/// while the victim's deque is shorter than it (see stealCount), so a
/// nearly-drained victim is not stripped bare. Deques are mutex-striped
/// rather than lock-free: exploration tasks are heavyweight (each step
/// runs solver queries), so queue transfer cost is noise — predictable
/// correctness wins.
///
/// Quiescence: `Pending` counts tasks that are queued or executing; it is
/// incremented before a task becomes visible and decremented only after
/// its body (including any spawns) completes, so it can only reach zero
/// when no task exists or can ever exist again. Idle workers sleep on a
/// condition variable whose predicate (work epoch changed, or Pending is
/// zero) is read under `IdleMu`; every change a sleeper waits for — an
/// epoch bump by a push, or the final decrement to zero — is signalled
/// while holding `IdleMu`, so no worker can check the predicate, miss the
/// change and then block. Every newly visible task wakes a peer, and a
/// surplus of more than one (batch steals, burst injection) wakes
/// everyone: a single notify_one for k new tasks used to leave k-1
/// sleepers parked until the next epoch bump.
///
/// Threads: run() executes worker 0 on the calling thread and starts one
/// thread per further worker, so a one-worker pool starts none. The
/// process then stays single-threaded, which keeps CowMap's reference
/// counts non-atomic, and worker 0 keeps the caller's warm thread-local
/// solver state at any worker count.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_ENGINE_SCHEDULER_THREAD_POOL_H
#define GILLIAN_ENGINE_SCHEDULER_THREAD_POOL_H

#include "obs/progress.h"
#include "obs/sched_counters.h"

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace gillian {

/// How many tasks a thief moves from a victim's deque per steal: the first
/// is executed immediately, the rest seed the thief's own deque so it does
/// not come back for every configuration of a freshly forked subtree.
inline constexpr size_t TasksPerSteal = 4;

template <typename Task> class ThreadPool {
public:
  /// Handle passed to the task body: identifies the executing worker and
  /// lets the body spawn successor tasks onto that worker's own deque.
  class Worker {
  public:
    size_t index() const { return Idx; }
    /// Constructs a task from \p Args in place at the back of this
    /// worker's deque.
    template <typename... Args> void spawn(Args &&...A) {
      ++obs::schedCounters().TasksSpawned;
      Pool.push(Idx, std::forward<Args>(A)...);
    }

  private:
    friend class ThreadPool;
    Worker(ThreadPool &Pool, size_t Idx) : Pool(Pool), Idx(Idx) {}
    ThreadPool &Pool;
    size_t Idx;
  };

  explicit ThreadPool(size_t NumWorkers)
      : Workers_(NumWorkers ? NumWorkers : 1), Queues(Workers_) {
    // Publish the pool shape for the live-introspection gauges. One pool
    // is live at a time (explore() constructs, runs, destroys), so the
    // process-wide gauges describe "the" pool.
    obs::SchedCounters &SC = obs::schedCounters();
    SC.PoolWorkers.set(workers());
    SC.FrontierSize.set(0); // fresh pool: mirror of Pending restarts at 0
    obs::WorkerDepthGauges::instance().configure(
        static_cast<uint32_t>(workers()));
  }

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  size_t workers() const { return Workers_; }

  /// Tasks a thief takes from a victim whose deque holds \p QueueLen
  /// tasks: TasksPerSteal, halved while it exceeds the victim's queue
  /// (adaptive — a short deque is not stolen bare, leaving the victim its
  /// local work), and clamped to the queue length. Static so the clamp is
  /// unit-testable.
  static size_t stealCount(size_t QueueLen) {
    if (QueueLen == 0)
      return 0;
    size_t B = TasksPerSteal;
    while (B > 1 && QueueLen < B)
      B /= 2;
    return B < QueueLen ? B : QueueLen;
  }

  /// Enqueues a root task on worker 0's deque. Thread-safe, but intended
  /// for seeding the pool before run().
  void inject(Task T) { push(0, std::move(T)); }

  /// Runs \p Body(Task&&, Worker&) over every injected task and everything
  /// those tasks spawn: worker 0 on the calling thread, the others on
  /// `workers() - 1` new threads. Returns when the pool is quiescent
  /// (every task executed, nothing left to steal).
  template <typename Body> void run(Body &&B) {
    std::vector<std::thread> Threads;
    Threads.reserve(workers() - 1);
    for (size_t I = 1; I < workers(); ++I)
      Threads.emplace_back([this, I, &B] { workerLoop(I, B); });
    workerLoop(0, B);
    for (std::thread &T : Threads)
      T.join();
    assert(Pending.load() == 0 && "pool exited with tasks outstanding");
  }

private:
  /// A deque plus its stripe lock, cache-line padded so two workers' hot
  /// locks do not false-share.
  struct alignas(64) LockedQueue {
    std::mutex Mu;
    std::deque<Task> Q;
  };

  template <typename... Args> void push(size_t Idx, Args &&...A) {
    Pending.fetch_add(1, std::memory_order_acq_rel);
    obs::schedCounters().FrontierSize.add(1);
    {
      std::lock_guard<std::mutex> Lock(Queues[Idx].Mu);
      Queues[Idx].Q.emplace_back(std::forward<Args>(A)...);
      obs::WorkerDepthGauges::instance().set(Idx, Queues[Idx].Q.size());
    }
    signalWork(1);
  }

  /// LIFO: the worker's newest fork, for depth-first locality.
  std::optional<Task> popLocal(size_t Idx) {
    std::lock_guard<std::mutex> Lock(Queues[Idx].Mu);
    std::deque<Task> &Q = Queues[Idx].Q;
    if (Q.empty())
      return std::nullopt;
    Task T = std::move(Q.back());
    Q.pop_back();
    obs::WorkerDepthGauges::instance().set(Idx, Q.size());
    return T;
  }

  /// Scans the other workers' deques round-robin from our right-hand
  /// neighbour; takes the stealCount(len) oldest tasks (FIFO) of the
  /// first non-empty victim. The first stolen task is returned for
  /// execution, the rest land on our own deque.
  std::optional<Task> steal(size_t Idx) {
    size_t N = workers();
    for (size_t Off = 1; Off < N; ++Off) {
      size_t Victim = (Idx + Off) % N;
      std::vector<Task> Batch;
      size_t VictimDepth = 0;
      {
        std::lock_guard<std::mutex> Lock(Queues[Victim].Mu);
        std::deque<Task> &Q = Queues[Victim].Q;
        VictimDepth = Q.size();
        for (size_t K = stealCount(Q.size()); K > 0; --K) {
          Batch.push_back(std::move(Q.front()));
          Q.pop_front();
        }
        if (!Batch.empty())
          obs::WorkerDepthGauges::instance().set(Victim, Q.size());
      }
      if (Batch.empty())
        continue;
      obs::SchedCounters &SC = obs::schedCounters();
      ++SC.Steals;
      SC.StolenTasks += Batch.size();
      SC.StealQueueDepth += VictimDepth;
      if (Batch.size() > 1) {
        {
          std::lock_guard<std::mutex> Lock(Queues[Idx].Mu);
          for (size_t K = 1; K < Batch.size(); ++K)
            Queues[Idx].Q.push_back(std::move(Batch[K]));
          obs::WorkerDepthGauges::instance().set(Idx, Queues[Idx].Q.size());
        }
        // The surplus is now visible in our deque: wake enough peers to
        // drain it. A single notify_one here used to park the other
        // sleepers until the next epoch bump — lost parallelism after
        // every batch steal.
        signalWork(Batch.size() - 1);
      }
      return std::move(Batch.front());
    }
    return std::nullopt;
  }

  /// Publishes \p NewTasks newly visible tasks: bumps the work epoch (so
  /// no concurrent scanner can sleep through them) and wakes one sleeper
  /// per task — all of them when more than one task appeared at once.
  void signalWork(size_t NewTasks) {
    {
      std::lock_guard<std::mutex> Lock(IdleMu);
      ++WorkEpoch;
    }
    if (NewTasks > 1)
      IdleCv.notify_all();
    else
      IdleCv.notify_one();
  }

  template <typename Body> void workerLoop(size_t Idx, Body &B) {
    Worker W(*this, Idx);
    while (true) {
      // Epoch before scanning: any push after this read bumps the epoch,
      // so the wait below cannot miss it.
      uint64_t Epoch;
      {
        std::lock_guard<std::mutex> Lock(IdleMu);
        Epoch = WorkEpoch;
      }
      std::optional<Task> T = popLocal(Idx);
      if (!T)
        T = steal(Idx);
      if (T) {
        B(std::move(*T), W);
        // Decrement only after the body ran: spawns inside the body have
        // already incremented Pending, so it hits zero only at true
        // quiescence. The gauge mirrors Pending with a commutative sub —
        // racing a set(load - 1) against concurrent pushes published
        // stale frontier sizes to /progress and /metrics.
        uint64_t Before = Pending.fetch_sub(1, std::memory_order_acq_rel);
        obs::schedCounters().FrontierSize.sub(1);
        if (Before == 1) {
          // Notify under IdleMu: a peer that read Pending != 0 in its
          // wait predicate still holds IdleMu until it blocks, so taking
          // the lock here orders this wakeup after that peer is asleep.
          // Without it the peer could miss the notify and sleep forever.
          std::lock_guard<std::mutex> Lock(IdleMu);
          IdleCv.notify_all();
        }
        continue;
      }
      std::unique_lock<std::mutex> Lock(IdleMu);
      IdleCv.wait(Lock, [&] {
        return WorkEpoch != Epoch ||
               Pending.load(std::memory_order_acquire) == 0;
      });
      if (Pending.load(std::memory_order_acquire) == 0)
        return;
    }
  }

  size_t Workers_;
  std::vector<LockedQueue> Queues; ///< one per worker, sized once
  /// Tasks queued or executing; zero <=> quiescent.
  std::atomic<uint64_t> Pending{0};
  std::mutex IdleMu;
  std::condition_variable IdleCv;
  uint64_t WorkEpoch = 0; ///< guarded by IdleMu
};

} // namespace gillian

#endif // GILLIAN_ENGINE_SCHEDULER_THREAD_POOL_H
