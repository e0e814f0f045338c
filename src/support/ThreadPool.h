//===- support/ThreadPool.h - Fixed pool for level scheduling ---*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size thread pool shaped for the condensation kernels' level
/// scheduling (analysis/LevelSolvers.h): the only operation is a blocking
/// parallelFor over a dense index range (one index per condensation
/// component of a level, or one per procedure).  The caller thread
/// participates in the work, so a pool of K "threads" is K executing
/// lanes backed by K-1 std::threads — and K <= 1 degenerates to a plain
/// inline loop with no atomics, no locks, and no threads.
///
/// Work is distributed by chunk self-scheduling: a batch publishes one
/// generation-tagged claim word, and every lane grabs contiguous chunks of
/// indices from it with a CAS until the range is exhausted.  Compared to
/// pushing one queue entry per index (the previous design), a level of a
/// thousand small SCCs costs each lane a handful of CAS operations instead
/// of a thousand queue handoffs — fan-out overhead scales with lanes, not
/// with components.  Lanes that finish their chunks
/// early keep claiming from the shared word, so load balance is the same
/// work-stealing effect the queue gave, without the per-index traffic.
///
/// parallelFor is a full barrier: it returns only after every index has
/// been processed, and the mutex handoff on the completion latch orders
/// every worker's writes before the caller's return — the happens-before
/// edge the level scheduler's "read only completed predecessor levels"
/// invariant (and exact word-op accounting) relies on.
///
/// The pool is not reentrant: parallelFor must not be called from inside a
/// task, and only one parallelFor may run at a time (one analysis pass
/// drives it; nothing fancier is needed).
///
/// availableLanes() is the host side of the lane count: the CPUs this
/// process may run on (its affinity mask), which is what a caller asking
/// for K lanes can actually get.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_SUPPORT_THREADPOOL_H
#define IPSE_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ipse {

/// CPUs in this process's affinity mask (sched_getaffinity), at least 1.
/// Unlike std::thread::hardware_concurrency(), this sees `taskset` and
/// container CPU pinning.
unsigned availableLanes();

class ThreadPool {
public:
  /// Creates a pool with \p Threads executing lanes (clamped to >= 1).
  /// Spawns Threads - 1 worker std::threads; lane 0 is the calling thread.
  explicit ThreadPool(unsigned Threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Number of executing lanes (>= 1).
  unsigned threads() const { return Lanes; }

  /// Invokes Fn(I) for every I in [0, NumTasks), distributing chunks of
  /// indices across the pool (a few claims per lane per batch), and
  /// returns once all have completed.  Fn must write only state owned by
  /// its index (disjoint-write discipline); under that contract the
  /// result is independent of scheduling.  Exceptions must not escape Fn
  /// (the library asserts rather than throws).
  void parallelFor(std::size_t NumTasks,
                   const std::function<void(std::size_t)> &Fn);

private:
  /// Everything a lane needs to execute one batch, snapshotted under the
  /// mutex so a late-waking worker never reads state the next batch has
  /// already overwritten.
  struct BatchView {
    const std::function<void(std::size_t)> *Fn = nullptr;
    std::size_t NumTasks = 0;
    std::size_t Chunk = 1;
    std::uint64_t Gen = 0;
  };

  void workerLoop();
  /// Claims and runs chunks of \p B until the batch's range is exhausted
  /// (or a newer generation has replaced it), then folds the completed
  /// count into the barrier.
  void runChunks(const BatchView &B);
  /// Spawns the worker threads on the first fan-out; until then the pool
  /// is just a number.  Called only from parallelFor (whose contract
  /// already serializes callers), so no extra synchronization is needed.
  void ensureWorkers();

  unsigned Lanes = 1;
  std::vector<std::thread> Workers;

  /// The claim word: (generation << 32) | next unclaimed index.  The
  /// generation tag makes a stale claim attempt (a worker that slept
  /// through the end of its batch) fail its CAS and retire harmlessly
  /// instead of stealing indices from the batch that replaced it.
  std::atomic<std::uint64_t> Claim{0};

  std::mutex M;
  std::condition_variable BatchReady; ///< Workers wait for a new generation.
  std::condition_variable AllDone;    ///< The caller waits for Remaining == 0.
  BatchView Current;                  ///< Guarded by M.
  std::size_t Remaining = 0;          ///< Indices not yet finished; guarded by M.
  bool Shutdown = false;              ///< Guarded by M.
};

} // namespace ipse

#endif // IPSE_SUPPORT_THREADPOOL_H
