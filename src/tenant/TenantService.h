//===- tenant/TenantService.h - Sharded multi-tenant service ----*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One server, thousands of programs: a registry of named tenants, each
/// owning an independent demand::DemandSession with its own MVCC snapshot
/// chain and (in durable mode) its own persist::Store subtree.
/// This is the only serving engine: `ipse-cli serve --program/--gen`
/// hosts its program as the *implicit tenant*, named "" (a name
/// isValidTenantName rejects, so no `open` can collide with it).  A
/// request that names no tenant routes to it.
///
/// Threading is sharded rather than per-tenant: a fixed pool of writer
/// threads each owns a bounded job queue, and a tenant is pinned to the
/// shard its name hashes to.  Everything that touches a tenant's session
/// or store — open, close, edits, fault-in, eviction — runs on its owning
/// shard thread, so per-tenant mutable state needs no locking.  A burst
/// of edits to one tenant group-commits: the shard drains its batch,
/// applies every consecutive edit for the tenant, appends them to the
/// tenant's WAL with one fsync, and captures/publishes one snapshot.
///
/// A published snapshot covers what the tenant's queries have solved: no
/// publish solves anything.  A query whose reads it covers never enters a
/// queue: the caller pins the snapshot (one shared_ptr copy under the
/// tenant's snapshot mutex) and evaluates on its own thread, so reads
/// scale with client threads rather than with a worker-pool knob.  Any
/// other query (a read off the coverage, or an evicted tenant) queues to
/// the shard, which faults the session in if needed, answers from the
/// live session (solving only the query's region) and republishes when
/// that solved something.
///
/// LRU evict-to-disk: with MaxResident set (durable mode only), a shard
/// that finds the resident population over the cap picks the
/// least-recently-touched idle tenant and evicts it — compact the store
/// (folding the WAL so recovery replays nothing), drop the session, and
/// null the published snapshot.  In-flight readers keep their pinned
/// snapshots (immutable, shared_ptr-kept), so eviction is invisible to
/// them; the next query faults the tenant back in from its snapshot file
/// with zero re-solving (a warm restart).  Cross-shard victims are
/// evicted by posting an Evict job to their owning shard.
///
/// Durable layout under DataDir:
///
///   <dir>/tenants.json   {"schema":1,"tenants":["acme","beta",...]}
///   <dir>/t-<name>/      a persist::Store (manifest + snapshot + WAL)
///   <dir>/               the implicit tenant's store, if there is one
///
/// The manifest is rewritten atomically on every open/close; restart
/// re-registers every listed tenant as evicted and faults each in on
/// first touch, so a server hosting thousands of tenants restarts in
/// O(live set), not O(tenant count).  The implicit tenant is never
/// listed: a store at the root of DataDir is recovered eagerly by the
/// constructor, so a single-program data dir restarts unchanged.  `close`
/// ends a named tenant's lifetime: it leaves the registry and the
/// manifest and its subtree is deleted.
///
/// Quotas (admission control, per tenant): MaxProcs bounds the program's
/// procedure count — `open` refuses to create an oversized program and
/// add-proc refuses at application time (ok=false, not a retry).
/// MaxQueuedEdits bounds a tenant's in-flight edit backlog — trySubmit
/// refuses beyond it, which the front end renders as an "overloaded,
/// retry" response, so one tenant's edit storm cannot monopolize its
/// shard's queue.  The implicit tenant is subject to the same quotas.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_TENANT_TENANTSERVICE_H
#define IPSE_TENANT_TENANTSERVICE_H

#include "ir/Program.h"
#include "service/AnalysisSnapshot.h"
#include "service/ScriptDriver.h"
#include "service/Server.h"
#include "support/MpmcQueue.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace ipse {
namespace demand {
class DemandSession;
}
namespace observe {
class Counter;
class Gauge;
class TraceSink;
}
namespace persist {
class Store;
struct StoreOptions;
}

namespace tenant {

struct TenantOptions {
  /// Writer shards.  Tenants are pinned to shards by name hash; a shard
  /// serializes open/close/edit/fault-in for its tenants.
  unsigned Shards = 2;
  /// Capacity of each shard's job queue; tryPush beyond it is refused.
  std::size_t QueueCapacity = 256;
  /// Max jobs drained per shard wakeup — the group-commit window.
  std::size_t MaxBatch = 32;
  /// Maintain the USE pipeline in every tenant session.  Without it,
  /// USE queries answer an error.
  bool TrackUse = true;
  /// Resident-session cap (0 = unlimited).  Requires DataDir: without a
  /// store to evict to, the cap is ignored.
  std::size_t MaxResident = 0;
  /// Per-tenant procedure-count quota (0 = unlimited).
  std::size_t MaxProcs = 0;
  /// Per-tenant queued-edit quota (0 = unlimited): trySubmit refuses
  /// edits for a tenant already carrying this many unanswered ones.
  std::size_t MaxQueuedEdits = 0;
  /// When non-empty, durable mode: tenants.json + one store subtree per
  /// named tenant, and the implicit tenant's store at the root (created
  /// if missing; recovered if present).
  std::string DataDir;
  /// Per-tenant store compaction thresholds.
  std::uint64_t CompactWalRecords = 1024;
  std::uint64_t CompactWalBytes = 8u << 20;
  /// When set, tenant flushes / queries / fault-ins run under
  /// tenant-tagged TraceScopes streaming here (thread-safe; not owned).
  observe::TraceSink *Sink = nullptr;
  /// Slow-op threshold in microseconds (0 = off).  Query evaluations and
  /// edit-group flushes exceeding it emit a structured SlowQueryRecord
  /// (with tenant name and, for a `query` the shard answers, per-query
  /// region attribution) to \c Sink, a flight-recorder event, and the
  /// "slow_queries_total" counter.
  std::uint64_t SlowQueryUs = 0;
};

/// Monotonic service-wide counters (relaxed loads; per-tenant series live
/// in the observe::MetricsRegistry under "tenant.*{tenant=<name>}").
struct TenantCounters {
  std::uint64_t Opens = 0;     ///< Tenants created.
  std::uint64_t Closes = 0;    ///< Tenants destroyed.
  std::uint64_t Evictions = 0; ///< Sessions evicted to disk.
  std::uint64_t FaultIns = 0;  ///< Sessions restored from disk.
  std::uint64_t Edits = 0;     ///< Edit commands applied (all tenants).
  std::uint64_t Queries = 0;   ///< Query commands answered (all tenants).
  std::uint64_t Errors = 0;    ///< Requests answered ok=false.
  std::uint64_t Rejected = 0;  ///< Backpressure / quota refusals.
};

class TenantService {
public:
  using ResponseFn = std::function<void(service::Response)>;

  /// Starts the shard threads.  With DataDir set, creates the directory
  /// if needed and re-registers every tenant in tenants.json as evicted
  /// (sessions fault in lazily).  The implicit tenant is recovered from a
  /// store at the root of DataDir when there is one (\p Initial is then
  /// ignored, and TrackUse follows the store), else seeded from
  /// \p Initial when given (and, in durable mode, stored at the root).
  /// Throws std::runtime_error when the directory, the manifest or the
  /// implicit tenant's store is unusable.
  explicit TenantService(TenantOptions Options = {},
                         std::optional<ir::Program> Initial = std::nullopt);
  ~TenantService();

  TenantService(const TenantService &) = delete;
  TenantService &operator=(const TenantService &) = delete;

  /// Routes \p Cmd for \p TenantName ("" = the implicit tenant) without
  /// blocking.  `open` / `close` carry their tenant in Cmd.Args[0] and
  /// \p TenantName is ignored.
  /// Returns true if accepted — \p Done fires exactly once, inline (for
  /// resident queries, stats, and errors) or on a shard thread.  Returns
  /// false on backpressure (shard queue full, or the tenant's edit quota
  /// is spent); \p Done is NOT invoked and the caller should answer
  /// "overloaded, retry".
  bool trySubmit(std::string TenantName, std::uint64_t Id,
                 service::ScriptCommand Cmd, ResponseFn Done,
                 std::string TraceId = {});

  /// Blocking conveniences for tests and benches: wait for queue space
  /// rather than refusing (edit quotas still refuse, with Retry set).
  service::Response call(std::string TenantName, service::ScriptCommand Cmd,
                         std::string TraceId = {});
  service::Response call(std::string TenantName, std::string_view Line,
                         std::string TraceId = {});

  /// True when \p Name is currently open (resident or evicted); "" asks
  /// for the implicit tenant.
  bool hasTenant(const std::string &Name) const;
  /// Open tenants, resident or not (the implicit tenant included).
  std::size_t tenantCount() const;
  /// Tenants currently holding a live session.
  std::size_t residentCount() const;
  /// The published snapshot of \p Name (null if unknown or evicted).
  std::shared_ptr<const service::AnalysisSnapshot>
  snapshot(const std::string &Name) const;
  /// The published generation of \p Name (0 if unknown or evicted).
  std::uint64_t generation(const std::string &Name) const;

  TenantCounters counters() const;
  /// One JSON object: tenant/resident gauges and the counters above.
  std::string statsJson() const;

  /// Stops accepting requests, drains every shard queue, compacts every
  /// resident durable tenant, and joins the shard threads.  Idempotent.
  void stop();

  const TenantOptions &options() const { return Opts; }

private:
  /// A tenant's published snapshot: a shared_ptr swapped under a mutex.
  /// std::atomic<std::shared_ptr> does the same work (libstdc++'s is a
  /// lock bit in the control-block pointer), but GCC 12 releases that
  /// bit with a relaxed store ThreadSanitizer cannot order, so every
  /// publish racing a pin reads as a data race.  The critical sections
  /// are one refcount bump or one pointer swap; the displaced snapshot is
  /// released outside the lock.
  class SnapshotSlot {
  public:
    std::shared_ptr<const service::AnalysisSnapshot> pin() const {
      std::lock_guard<std::mutex> Lock(M);
      return S;
    }
    void publish(std::shared_ptr<const service::AnalysisSnapshot> New) {
      std::lock_guard<std::mutex> Lock(M);
      S.swap(New);
    }
    bool resident() const { return pin() != nullptr; }

  private:
    mutable std::mutex M;
    std::shared_ptr<const service::AnalysisSnapshot> S;
  };

  /// One tenant.  Engine / Store / TrackUse are confined to the owning
  /// shard thread; Snap and the atomics are the cross-thread surface.
  struct Tenant {
    std::string Name;
    unsigned ShardIdx = 0;
    /// Published snapshot; null while opening or evicted.  Residency is
    /// exactly "Snap holds a snapshot" from any thread's point of view.
    SnapshotSlot Snap;
    /// The live analysis; null while evicted.
    std::unique_ptr<demand::DemandSession> Engine;
    std::unique_ptr<persist::Store> Store;
    bool TrackUse = true;
    /// observe::nowNanos() of the last request touching this tenant —
    /// the LRU clock.
    std::atomic<std::uint64_t> LastTouchNs{0};
    /// Jobs accepted but not yet answered (eviction skips busy tenants).
    std::atomic<std::uint32_t> QueuedJobs{0};
    /// Edit jobs accepted but not yet answered (the quota gauge).
    std::atomic<std::uint32_t> QueuedEdits{0};
    /// Set once when the tenant leaves the registry; jobs queued behind
    /// the close answer "unknown tenant".
    std::atomic<bool> Closed{false};
    /// An Evict job is in flight to the owning shard (dedup).
    std::atomic<bool> EvictQueued{false};
    /// Registry-stable per-tenant series, cached so the query fast path
    /// pays one relaxed add instead of a name lookup.  All are labeled
    /// "<base>{tenant=<name>}" via MetricsRegistry's labeled facility.
    observe::Counter *CtrEdits = nullptr;
    observe::Counter *CtrQueries = nullptr;
    observe::Counter *CtrEvicted = nullptr;
    observe::Counter *CtrRejected = nullptr;
    observe::Gauge *GResident = nullptr;
    observe::Gauge *GEditBacklog = nullptr;
  };

  struct Job {
    enum class Kind { Open, Close, Edit, Query, Evict };
    Kind K = Kind::Query;
    std::shared_ptr<Tenant> T;
    std::uint64_t Id = 0;
    service::ScriptCommand Cmd;
    ResponseFn Done;
    std::string TraceId;
    std::chrono::steady_clock::time_point Enqueued;
  };

  struct Shard {
    explicit Shard(std::size_t Capacity) : Queue(Capacity) {}
    MpmcQueue<Job> Queue;
    std::thread Thread;
  };

  unsigned shardOf(std::string_view Name) const;
  std::string tenantDir(const std::string &Name) const;
  std::shared_ptr<Tenant> lookup(const std::string &Name) const;
  std::shared_ptr<Tenant> registerTenant(const std::string &Name,
                                         std::string &Err);
  /// Registers the implicit tenant: recovered from DataDir's root store,
  /// or seeded from \p Initial (constructor only; throws on failure).
  void seedImplicitTenant(std::optional<ir::Program> Initial);
  /// Installs a fresh engine over \p Prog into \p T and, in durable
  /// mode, initializes its store in tenantDir(T.Name), which must exist.
  /// Returns the failure text ("" on success, with T unpublished).
  std::string installEngine(Tenant &T, ir::Program Prog);
  persist::StoreOptions storeOptions() const;
  void touch(Tenant &T) const;

  bool submit(std::string TenantName, Job J, bool Blocking);
  /// The resident-query fast path; false when the tenant has no
  /// published snapshot or the snapshot does not cover the query's reads
  /// (caller queues to the shard instead).
  bool tryInlineQuery(const std::shared_ptr<Tenant> &T, Job &J);
  /// The one query body, for a pinned snapshot and the live session
  /// alike: evaluates \p J against \p Target under a tenant-tagged
  /// `tenant.query` span, counts it, and logs it when slow.  A snapshot
  /// miss (service::UncoveredRead) propagates with nothing counted and
  /// the span discarded.
  service::Response answerQuery(Tenant &T, const Job &J,
                                const service::QueryTarget &Target,
                                std::uint64_t Gen);

  void shardLoop(unsigned Idx);
  void runOpen(Job &J);
  void runClose(Job &J);
  void runQuery(Job &J);
  /// Applies Batch[Begin, End) — consecutive edits for one tenant — as a
  /// group commit: one WAL fsync, one flush, one published snapshot.
  void runEditGroup(std::vector<Job> &Batch, std::size_t Begin,
                    std::size_t End);
  /// Restores an evicted tenant's session from its store (shard thread).
  bool ensureResident(Tenant &T, std::string &Err);
  /// Evicts \p T if it is resident, idle, and durable (shard thread).
  void evictIfIdle(Tenant &T);
  /// Posts/performs evictions until the resident count is back under
  /// MaxResident (best effort; busy tenants are skipped).  \p Keep is
  /// never chosen (the tenant just touched).
  void enforceResidentCap(unsigned SelfIdx, const Tenant *Keep);
  /// Publishes \p T's engine state at its current generation, covering
  /// the procedures solved so far; solves nothing.
  void publish(Tenant &T);

  /// Rewrites DataDir/tenants.json from the live registry (atomic write
  /// under ManifestMutex).
  bool saveManifest(std::string &Err);
  /// Registers every tenant the manifest lists (constructor only).
  void loadManifest();
  void refreshGauges() const;
  std::uint64_t elapsedMicros(const Job &J) const;

  TenantOptions Opts;
  std::vector<std::unique_ptr<Shard>> Shards;

  mutable std::mutex RegistryMutex;
  std::map<std::string, std::shared_ptr<Tenant>> Registry;
  std::atomic<std::size_t> Resident{0};

  std::mutex ManifestMutex;

  std::atomic<std::uint64_t> CntOpens{0}, CntCloses{0}, CntEvictions{0},
      CntFaultIns{0}, CntEdits{0}, CntQueries{0}, CntErrors{0},
      CntRejected{0};
  std::atomic<bool> Stopped{false};
};

} // namespace tenant
} // namespace ipse

#endif // IPSE_TENANT_TENANTSERVICE_H
