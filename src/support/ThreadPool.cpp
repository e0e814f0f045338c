//===- support/ThreadPool.cpp - Fixed pool for level scheduling ---------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>

#include <sched.h>

using namespace ipse;

namespace {

constexpr std::uint64_t IndexMask = 0xffffffffu;

// The claim word carries the low 32 bits of the generation; comparisons
// truncate the same way, so the scheme survives generation wrap-around.
std::uint64_t packClaim(std::uint64_t Gen, std::size_t Index) {
  return ((Gen & IndexMask) << 32) | Index;
}

} // namespace

unsigned ipse::availableLanes() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (::sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return 1;
  const int Count = CPU_COUNT(&Set);
  return Count < 1 ? 1u : static_cast<unsigned>(Count);
}

ThreadPool::ThreadPool(unsigned Threads) : Lanes(Threads < 1 ? 1 : Threads) {
  // Workers spawn lazily on the first fan-out (ensureWorkers): a solve
  // whose levels are all too narrow to fan out never pays thread creation.
  Workers.reserve(Lanes - 1);
}

void ThreadPool::ensureWorkers() {
  if (!Workers.empty() || Lanes == 1)
    return;
  for (unsigned I = 1; I < Lanes; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(M);
    Shutdown = true;
  }
  BatchReady.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::runChunks(const BatchView &B) {
  std::size_t Done = 0;
  std::uint64_t Cur = Claim.load(std::memory_order_relaxed);
  for (;;) {
    if ((Cur >> 32) != (B.Gen & IndexMask))
      break; // A newer batch owns the claim word; this one is finished.
    std::size_t Begin = static_cast<std::size_t>(Cur & IndexMask);
    if (Begin >= B.NumTasks)
      break;
    std::size_t End = Begin + B.Chunk;
    if (End > B.NumTasks)
      End = B.NumTasks;
    if (!Claim.compare_exchange_weak(Cur, packClaim(B.Gen, End),
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed))
      continue; // Cur reloaded; re-check generation and range.
    for (std::size_t I = Begin; I != End; ++I)
      (*B.Fn)(I);
    Done += End - Begin;
    Cur = Claim.load(std::memory_order_relaxed);
  }
  if (Done == 0)
    return;
  std::lock_guard<std::mutex> Lock(M);
  Remaining -= Done;
  if (Remaining == 0)
    AllDone.notify_all();
}

void ThreadPool::workerLoop() {
  std::uint64_t SeenGen = 0;
  for (;;) {
    BatchView B;
    {
      std::unique_lock<std::mutex> Lock(M);
      BatchReady.wait(Lock,
                      [&] { return Shutdown || Current.Gen != SeenGen; });
      if (Shutdown)
        return;
      B = Current;
      SeenGen = B.Gen;
    }
    runChunks(B);
  }
}

void ThreadPool::parallelFor(std::size_t NumTasks,
                             const std::function<void(std::size_t)> &Fn) {
  if (NumTasks == 0)
    return;
  assert(NumTasks <= IndexMask && "batch exceeds 32-bit index range");

  if (Lanes == 1 || NumTasks == 1) {
    // Inline path: no handoff, no locks.  This is every K=1 batch and
    // also serves single-task batches (a handoff would only add latency;
    // the barrier below exists for multi-task batches).
    for (std::size_t I = 0; I != NumTasks; ++I)
      Fn(I);
    return;
  }

  // A few claims per lane: coarse enough that claim traffic is O(lanes),
  // fine enough that an unlucky lane can still shed load.
  const std::size_t ChunkSize =
      std::max<std::size_t>(1, NumTasks / (std::size_t(Lanes) * 4));

  ensureWorkers();

  BatchView Mine;
  {
    std::lock_guard<std::mutex> Lock(M);
    assert(Current.Fn == nullptr && "ThreadPool::parallelFor is not reentrant");
    Current.Fn = &Fn;
    Current.NumTasks = NumTasks;
    Current.Chunk = ChunkSize;
    ++Current.Gen;
    Mine = Current;
    // Publish the claim word before any worker can wake: the mutex orders
    // this store ahead of every claim in the new generation.
    Claim.store(packClaim(Current.Gen, 0), std::memory_order_relaxed);
    Remaining = NumTasks;
  }
  BatchReady.notify_all();

  // Lane 0 works too.
  runChunks(Mine);

  std::unique_lock<std::mutex> Lock(M);
  AllDone.wait(Lock, [this] { return Remaining == 0; });
  Current.Fn = nullptr;
}
