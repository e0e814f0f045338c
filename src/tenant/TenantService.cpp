//===- tenant/TenantService.cpp - Sharded multi-tenant service ----------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "tenant/TenantService.h"

#include "demand/DemandSession.h"
#include "observe/FlightRecorder.h"
#include "observe/Metrics.h"
#include "observe/Prometheus.h"
#include "observe/Trace.h"
#include "persist/Snapshot.h"
#include "persist/Store.h"
#include "support/Json.h"
#include "synth/ProgramGen.h"

#include <filesystem>
#include <future>
#include <optional>
#include <stdexcept>

using namespace ipse;
using namespace ipse::tenant;

using service::Response;
using service::ScriptCommand;
using service::ScriptError;

namespace {

/// The process-wide EffectSet representation policy as the short string
/// slow-query records carry ("auto" / "dense" / "sparse").
const char *defaultReprName() {
  switch (EffectSet::defaultRepresentation()) {
  case EffectSet::Representation::Dense:
    return "dense";
  case EffectSet::Representation::Sparse:
    return "sparse";
  case EffectSet::Representation::Auto:
    break;
  }
  return "auto";
}

/// Slow-op plumbing shared by the tenant query and flush paths: the
/// "slow_queries_total" counter, a flight-recorder instant, and (when a
/// sink is configured) a structured record carrying the tenant name and
/// any demand attribution.
void noteSlowOp(const TenantOptions &Opts, const std::string &Tenant,
                const char *Op, std::uint64_t WallUs,
                const std::string &TraceId, std::uint64_t Gen,
                const service::QueryResult *QR = nullptr) {
  observe::MetricsRegistry::global().counter("slow_queries_total").add();
  observe::flight::record(observe::flight::EventKind::SlowQuery, Op, WallUs);
  if (!Opts.Sink)
    return;
  observe::SlowQueryRecord SQ;
  SQ.Op = Op;
  SQ.WallUs = WallUs;
  SQ.Tid = observe::currentTid();
  SQ.TraceId = TraceId;
  SQ.Tenant = Tenant;
  SQ.Generation = Gen;
  SQ.Repr = defaultReprName();
  if (QR && QR->HasStats) {
    SQ.HasDemandStats = true;
    SQ.RegionProcs = QR->RegionProcs;
    SQ.MemoHits = QR->MemoHits;
    SQ.FrontierCuts = QR->FrontierCuts;
  }
  Opts.Sink->onSlowQuery(SQ);
}

} // namespace

//===----------------------------------------------------------------------===//
// Construction / registry.
//===----------------------------------------------------------------------===//

TenantService::TenantService(TenantOptions Options,
                             std::optional<ir::Program> Initial)
    : Opts(Options) {
  if (Opts.Shards == 0)
    Opts.Shards = 1;
  if (Opts.MaxBatch == 0)
    Opts.MaxBatch = 1;
  if (!Opts.DataDir.empty()) {
    std::error_code Ec;
    std::filesystem::create_directories(Opts.DataDir, Ec);
    if (Ec)
      throw std::runtime_error("tenant: cannot create data dir '" +
                               Opts.DataDir + "': " + Ec.message());
    loadManifest();
  }
  for (unsigned I = 0; I != Opts.Shards; ++I)
    Shards.push_back(std::make_unique<Shard>(Opts.QueueCapacity));
  // Before the shard threads start, so the implicit tenant's session is
  // handed to its shard fully built.
  seedImplicitTenant(std::move(Initial));
  for (unsigned I = 0; I != Opts.Shards; ++I)
    Shards[I]->Thread = std::thread([this, I] { shardLoop(I); });
  refreshGauges();
}

TenantService::~TenantService() { stop(); }

void TenantService::stop() {
  if (Stopped.exchange(true))
    return;
  for (std::unique_ptr<Shard> &S : Shards)
    S->Queue.close();
  for (std::unique_ptr<Shard> &S : Shards)
    if (S->Thread.joinable())
      S->Thread.join();
}

unsigned TenantService::shardOf(std::string_view Name) const {
  // FNV-1a: stable across runs, so a tenant faults back in on the same
  // shard it was evicted from.
  std::uint64_t H = 1469598103934665603ull;
  for (char C : Name) {
    H ^= static_cast<unsigned char>(C);
    H *= 1099511628211ull;
  }
  // Opts.Shards (clamped in the ctor), not Shards.size(): loadManifest()
  // registers tenants before the shard vector is populated.
  return static_cast<unsigned>(H % Opts.Shards);
}

std::string TenantService::tenantDir(const std::string &Name) const {
  // The implicit tenant's store is the data dir itself, so a
  // single-program store recovers unchanged.
  return Name.empty() ? Opts.DataDir : Opts.DataDir + "/t-" + Name;
}

persist::StoreOptions TenantService::storeOptions() const {
  persist::StoreOptions PO;
  PO.CompactWalRecords = Opts.CompactWalRecords;
  PO.CompactWalBytes = Opts.CompactWalBytes;
  return PO;
}

void TenantService::seedImplicitTenant(std::optional<ir::Program> Initial) {
  const bool Recover =
      !Opts.DataDir.empty() && persist::Store::exists(Opts.DataDir);
  if (!Recover && !Initial)
    return;
  std::string Err;
  std::shared_ptr<Tenant> T = registerTenant("", Err);
  if (Recover) {
    // The fault-in path: snapshot planes install directly, the WAL tail
    // replays, and TrackUse follows the store.
    if (!ensureResident(*T, Err))
      throw std::runtime_error("tenant: cannot recover '" + Opts.DataDir +
                               "': " + Err);
    return;
  }
  Err = installEngine(*T, std::move(*Initial));
  if (!Err.empty())
    throw std::runtime_error("tenant: " + Err);
  publish(*T);
  Resident.fetch_add(1, std::memory_order_relaxed);
  touch(*T);
}

std::string TenantService::installEngine(Tenant &T, ir::Program Prog) {
  T.TrackUse = Opts.TrackUse;
  // Nothing is solved here (a durable open's snapshot aside, which writes
  // full planes): the first query pays for its own region.
  demand::DemandOptions DO;
  DO.TrackUse = Opts.TrackUse;
  T.Engine = std::make_unique<demand::DemandSession>(std::move(Prog), DO);
  if (Opts.DataDir.empty())
    return {};
  const std::string Dir = tenantDir(T.Name);
  T.Store = std::make_unique<persist::Store>();
  std::string Err;
  if (persist::Store::init(Dir, storeOptions(),
                           persist::SnapshotSource::of(*T.Engine), *T.Store,
                           Err))
    return {};
  T.Engine.reset();
  T.Store.reset();
  return "cannot initialize tenant store '" + Dir + "': " + Err;
}

std::shared_ptr<TenantService::Tenant>
TenantService::lookup(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  auto It = Registry.find(Name);
  return It == Registry.end() ? nullptr : It->second;
}

std::shared_ptr<TenantService::Tenant>
TenantService::registerTenant(const std::string &Name, std::string &Err) {
  auto T = std::make_shared<Tenant>();
  T->Name = Name;
  T->ShardIdx = shardOf(Name);
  observe::MetricsRegistry &Reg = observe::MetricsRegistry::global();
  T->CtrEdits = &Reg.counter("tenant.edits", "tenant", Name);
  T->CtrQueries = &Reg.counter("tenant.queries", "tenant", Name);
  T->CtrEvicted = &Reg.counter("tenant.evicted", "tenant", Name);
  T->CtrRejected = &Reg.counter("tenant.rejected", "tenant", Name);
  T->GResident = &Reg.gauge("tenant.resident", "tenant", Name);
  T->GEditBacklog = &Reg.gauge("tenant.edit_backlog", "tenant", Name);
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  auto [It, Inserted] = Registry.try_emplace(Name, T);
  (void)It;
  if (!Inserted) {
    Err = "tenant '" + Name + "' already open";
    return nullptr;
  }
  return T;
}

void TenantService::touch(Tenant &T) const {
  T.LastTouchNs.store(observe::nowNanos(), std::memory_order_relaxed);
}

std::uint64_t TenantService::elapsedMicros(const Job &J) const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - J.Enqueued)
          .count());
}

//===----------------------------------------------------------------------===//
// Manifest.
//===----------------------------------------------------------------------===//

void TenantService::loadManifest() {
  std::string Path = Opts.DataDir + "/tenants.json";
  if (!std::filesystem::exists(Path))
    return;
  std::vector<std::uint8_t> Bytes;
  std::string Err;
  if (!persist::readFileBytes(Path, Bytes, Err))
    throw std::runtime_error("tenant: manifest unreadable: " + Err);
  std::string Text(Bytes.begin(), Bytes.end());
  std::optional<JsonObject> Obj = parseJsonObject(Text, Err);
  if (!Obj)
    throw std::runtime_error("tenant: manifest corrupt: " + Err);
  std::optional<std::string> Raw = Obj->getRaw("tenants");
  if (!Raw)
    throw std::runtime_error("tenant: manifest corrupt: missing 'tenants'");
  // Tenant names are drawn from [A-Za-z0-9_.-], so scanning the raw array
  // lexeme for quoted runs is an exact parse (no escapes possible).
  for (std::size_t I = 0; I < Raw->size();) {
    if ((*Raw)[I] != '"') {
      ++I;
      continue;
    }
    std::size_t End = Raw->find('"', I + 1);
    if (End == std::string::npos)
      break;
    std::string Name = Raw->substr(I + 1, End - I - 1);
    I = End + 1;
    if (!service::isValidTenantName(Name))
      throw std::runtime_error("tenant: manifest corrupt: bad name '" + Name +
                               "'");
    if (!persist::Store::exists(tenantDir(Name))) {
      std::fprintf(stderr,
                   "ipse: tenant '%s' listed in manifest but its store is "
                   "missing; dropping\n",
                   Name.c_str());
      continue;
    }
    std::string RegErr;
    // Registered evicted (no session, null snapshot): the first request
    // that needs it faults it in, so restart cost is O(live set).
    registerTenant(Name, RegErr);
  }
}

bool TenantService::saveManifest(std::string &Err) {
  if (Opts.DataDir.empty())
    return true;
  std::lock_guard<std::mutex> MLock(ManifestMutex);
  std::string Arr = "[";
  {
    std::lock_guard<std::mutex> Lock(RegistryMutex);
    bool First = true;
    for (const auto &[Name, T] : Registry) {
      // The implicit tenant ("") is recovered from the root store, never
      // from the manifest.
      if (Name.empty() || T->Closed.load(std::memory_order_relaxed))
        continue;
      if (!First)
        Arr += ",";
      Arr += "\"" + Name + "\"";
      First = false;
    }
  }
  Arr += "]";
  JsonWriter W;
  W.field("schema", static_cast<std::uint64_t>(1));
  W.fieldRaw("tenants", Arr);
  std::string Doc = W.finish();
  Doc += "\n";
  return persist::writeFileAtomic(Opts.DataDir + "/tenants.json", Doc.data(),
                                  Doc.size(), Err);
}

//===----------------------------------------------------------------------===//
// Submission.
//===----------------------------------------------------------------------===//

bool TenantService::tryInlineQuery(const std::shared_ptr<Tenant> &T, Job &J) {
  std::shared_ptr<const service::AnalysisSnapshot> Snap = T->Snap.pin();
  if (!Snap)
    return false;
  Response R;
  try {
    R = answerQuery(*T, J, *Snap, Snap->generation());
  } catch (const service::UncoveredRead &) {
    // The snapshot has not solved what the query reads: the shard solves
    // the missing region and republishes.
    return false;
  }
  observe::MetricsRegistry::global()
      .histogram("tenant.read_lat_us")
      .record(elapsedMicros(J));
  J.Done(std::move(R));
  return true;
}

Response TenantService::answerQuery(Tenant &T, const Job &J,
                                    const service::QueryTarget &Target,
                                    std::uint64_t Gen) {
  Response R;
  R.Id = J.Id;
  R.TraceId = J.TraceId;
  R.Generation = Gen;
  const std::uint64_t T0 = observe::nowNanos();
  service::QueryResult QR;
  {
    std::optional<observe::TraceScope> Scope;
    if (Opts.Sink)
      Scope.emplace(nullptr, Opts.Sink,
                    observe::ScopeTags{J.TraceId, Gen, T.Name});
    observe::TraceSpan Span("tenant.query");
    try {
      QR = service::evalQueryCommand(Target, J.Cmd);
      R.Result = std::move(QR.Text);
      R.CheckOk = QR.CheckOk;
      R.HasStats = QR.HasStats;
      R.RegionProcs = QR.RegionProcs;
      R.MemoHits = QR.MemoHits;
      R.FrontierCuts = QR.FrontierCuts;
      T.CtrQueries->add();
      CntQueries.fetch_add(1, std::memory_order_relaxed);
    } catch (const ScriptError &E) {
      R.Ok = false;
      R.Error = E.Message;
      CntErrors.fetch_add(1, std::memory_order_relaxed);
    } catch (const service::UncoveredRead &) {
      Span.discard();
      throw;
    }
  }
  const std::uint64_t EvalUs = (observe::nowNanos() - T0) / 1000;
  if (Opts.SlowQueryUs && EvalUs > Opts.SlowQueryUs)
    noteSlowOp(Opts, T.Name, "tenant.query", EvalUs, J.TraceId, Gen, &QR);
  touch(T);
  return R;
}

bool TenantService::submit(std::string TenantName, Job J, bool Blocking) {
  using Op = ScriptCommand::Op;
  const Op K = J.Cmd.Kind;
  J.Enqueued = std::chrono::steady_clock::now();

  auto Inline = [&](bool Ok, std::string Text, std::uint64_t Gen = 0) {
    Response R;
    R.Id = J.Id;
    R.TraceId = J.TraceId;
    R.Ok = Ok;
    R.Generation = Gen;
    if (Ok)
      R.Result = std::move(Text);
    else {
      R.Error = std::move(Text);
      CntErrors.fetch_add(1, std::memory_order_relaxed);
    }
    J.Done(std::move(R));
    return true;
  };

  // `stats` / `metrics` / `debug` answer inline from atomics and the
  // flight rings — they must still work when every shard is saturated.
  if (K == Op::Stats || K == Op::Metrics || K == Op::Debug) {
    Response R;
    R.Id = J.Id;
    R.TraceId = J.TraceId;
    R.Generation = generation(TenantName);
    R.ResultIsJson = true;
    if (K == Op::Stats) {
      R.Result = statsJson();
    } else if (K == Op::Debug) {
      // One physical line: the wire is newline-framed.
      R.Result = observe::flight::renderChromeTrace(/*MultiLine=*/false);
    } else {
      refreshGauges();
      if (!J.Cmd.Args.empty() && J.Cmd.Args[0] == "--format=prom") {
        R.Result = observe::prometheusText(observe::MetricsRegistry::global());
        R.ResultIsJson = false;
      } else {
        R.Result = observe::MetricsRegistry::global().toJson();
      }
    }
    CntQueries.fetch_add(1, std::memory_order_relaxed);
    J.Done(std::move(R));
    return true;
  }

  if (K == Op::Open || K == Op::Close) {
    if (J.Cmd.Args.empty() || !service::isValidTenantName(J.Cmd.Args[0]))
      return Inline(false, "invalid tenant name");
    const std::string &Name = J.Cmd.Args[0];
    std::shared_ptr<Tenant> T;
    if (K == Op::Open) {
      std::string Err;
      T = registerTenant(Name, Err);
      if (!T)
        return Inline(false, std::move(Err));
      J.K = Job::Kind::Open;
    } else {
      T = lookup(Name);
      if (!T)
        return Inline(false, "unknown tenant '" + Name + "'");
      J.K = Job::Kind::Close;
    }
    J.T = T;
    T->QueuedJobs.fetch_add(1, std::memory_order_release);
    Shard &S = *Shards[T->ShardIdx];
    bool Accepted =
        Blocking ? S.Queue.push(std::move(J)) : S.Queue.tryPush(std::move(J));
    if (!Accepted) {
      T->QueuedJobs.fetch_sub(1, std::memory_order_relaxed);
      if (K == Op::Open) {
        std::lock_guard<std::mutex> Lock(RegistryMutex);
        auto It = Registry.find(Name);
        if (It != Registry.end() && It->second == T)
          Registry.erase(It);
      }
      CntRejected.fetch_add(1, std::memory_order_relaxed);
    }
    return Accepted;
  }

  if (K == Op::Attach)
    // A connection-scoped default, consumed by the serving front end
    // before requests reach the service proper.
    return Inline(false, "attach is a connection verb");

  // "" names the implicit tenant, which exists only when the server was
  // given a program (or recovered one from its data dir).
  std::shared_ptr<Tenant> T = lookup(TenantName);
  if (!T)
    return Inline(false, TenantName.empty()
                             ? "no tenant specified (open one, attach, or "
                               "add a \"tenant\" request field)"
                             : "unknown tenant '" + TenantName + "'");

  if (service::isEditCommand(K)) {
    if (Opts.MaxQueuedEdits &&
        T->QueuedEdits.load(std::memory_order_relaxed) >=
            Opts.MaxQueuedEdits) {
      CntRejected.fetch_add(1, std::memory_order_relaxed);
      T->CtrRejected->add();
      if (Blocking) {
        // Blocking callers still see the quota — as an explicit retry
        // response rather than a silent wait (the quota exists to push
        // back, not to stall).
        Response R;
        R.Id = J.Id;
        R.TraceId = J.TraceId;
        R.Ok = false;
        R.Retry = true;
        R.Error = "tenant edit quota exceeded";
        J.Done(std::move(R));
        return true;
      }
      return false;
    }
    J.K = Job::Kind::Edit;
    J.T = T;
    T->QueuedEdits.fetch_add(1, std::memory_order_relaxed);
    T->QueuedJobs.fetch_add(1, std::memory_order_release);
    Shard &S = *Shards[T->ShardIdx];
    bool Accepted =
        Blocking ? S.Queue.push(std::move(J)) : S.Queue.tryPush(std::move(J));
    if (!Accepted) {
      T->QueuedEdits.fetch_sub(1, std::memory_order_relaxed);
      T->QueuedJobs.fetch_sub(1, std::memory_order_relaxed);
      CntRejected.fetch_add(1, std::memory_order_relaxed);
      T->CtrRejected->add();
    }
    return Accepted;
  }

  if (service::isQueryCommand(K)) {
    J.K = Job::Kind::Query;
    J.T = T;
    // Resident fast path: pin the snapshot and answer on this thread —
    // no queue, no shard.
    if (tryInlineQuery(T, J))
      return true;
    // Evicted (or still opening): the shard faults the session in.
    T->QueuedJobs.fetch_add(1, std::memory_order_release);
    Shard &S = *Shards[T->ShardIdx];
    bool Accepted =
        Blocking ? S.Queue.push(std::move(J)) : S.Queue.tryPush(std::move(J));
    if (!Accepted) {
      T->QueuedJobs.fetch_sub(1, std::memory_order_relaxed);
      CntRejected.fetch_add(1, std::memory_order_relaxed);
      T->CtrRejected->add();
    }
    return Accepted;
  }

  // load / gen re-seed a program wholesale; `serve` does that at start-up.
  return Inline(false, "command not available while serving",
                generation(TenantName));
}

bool TenantService::trySubmit(std::string TenantName, std::uint64_t Id,
                              ScriptCommand Cmd, ResponseFn Done,
                              std::string TraceId) {
  Job J;
  J.Id = Id;
  J.Cmd = std::move(Cmd);
  J.Done = std::move(Done);
  J.TraceId = std::move(TraceId);
  return submit(std::move(TenantName), std::move(J), /*Blocking=*/false);
}

Response TenantService::call(std::string TenantName, ScriptCommand Cmd,
                             std::string TraceId) {
  auto Promise = std::make_shared<std::promise<Response>>();
  std::future<Response> Future = Promise->get_future();
  Job J;
  J.Cmd = std::move(Cmd);
  J.TraceId = std::move(TraceId);
  J.Done = [Promise](Response R) { Promise->set_value(std::move(R)); };
  if (!submit(std::move(TenantName), std::move(J), /*Blocking=*/true)) {
    Response R;
    R.Ok = false;
    R.Error = "service stopped";
    return R;
  }
  return Future.get();
}

Response TenantService::call(std::string TenantName, std::string_view Line,
                             std::string TraceId) {
  try {
    std::optional<ScriptCommand> Cmd = service::parseScriptLine(Line, 0);
    if (!Cmd) {
      Response R;
      R.Generation = generation(TenantName);
      R.TraceId = std::move(TraceId);
      return R;
    }
    return call(std::move(TenantName), std::move(*Cmd), std::move(TraceId));
  } catch (const ScriptError &E) {
    Response R;
    R.Ok = false;
    R.Generation = generation(TenantName);
    R.TraceId = std::move(TraceId);
    R.Error = E.Message;
    CntErrors.fetch_add(1, std::memory_order_relaxed);
    return R;
  }
}

//===----------------------------------------------------------------------===//
// Shard threads.
//===----------------------------------------------------------------------===//

void TenantService::shardLoop(unsigned Idx) {
  Shard &S = *Shards[Idx];
  std::vector<Job> Batch;
  while (true) {
    std::optional<Job> First = S.Queue.pop();
    if (!First)
      break; // Closed and drained.
    Batch.clear();
    Batch.push_back(std::move(*First));
    S.Queue.tryPopBatch(Batch, Opts.MaxBatch - 1);

    std::size_t I = 0;
    while (I != Batch.size()) {
      Job &J = Batch[I];
      switch (J.K) {
      case Job::Kind::Open:
        runOpen(J);
        J.T->QueuedJobs.fetch_sub(1, std::memory_order_release);
        ++I;
        break;
      case Job::Kind::Close:
        runClose(J);
        J.T->QueuedJobs.fetch_sub(1, std::memory_order_release);
        ++I;
        break;
      case Job::Kind::Query:
        runQuery(J);
        J.T->QueuedJobs.fetch_sub(1, std::memory_order_release);
        ++I;
        break;
      case Job::Kind::Evict:
        // Posted by a peer shard that found us hosting the LRU victim.
        evictIfIdle(*J.T);
        ++I;
        break;
      case Job::Kind::Edit: {
        // Group-commit window: every consecutive edit for the same
        // tenant shares one WAL fsync and one flush/publish.
        std::size_t End = I + 1;
        while (End != Batch.size() && Batch[End].K == Job::Kind::Edit &&
               Batch[End].T == J.T)
          ++End;
        runEditGroup(Batch, I, End);
        J.T->QueuedJobs.fetch_sub(static_cast<std::uint32_t>(End - I),
                                  std::memory_order_release);
        I = End;
        break;
      }
      }
    }
    enforceResidentCap(Idx, nullptr);
  }

  // Clean shutdown: fold every owned resident tenant's WAL into a final
  // snapshot so the next boot loads planes and replays nothing.
  std::vector<std::shared_ptr<Tenant>> Mine;
  {
    std::lock_guard<std::mutex> Lock(RegistryMutex);
    for (const auto &[Name, T] : Registry)
      if (T->ShardIdx == Idx)
        Mine.push_back(T);
  }
  for (const std::shared_ptr<Tenant> &T : Mine) {
    if (!T->Engine || !T->Store || T->Store->walRecords() == 0)
      continue;
    std::string Err;
    if (!T->Store->compact(persist::SnapshotSource::of(*T->Engine), Err))
      std::fprintf(stderr, "ipse: tenant '%s' final compaction failed: %s\n",
                   T->Name.c_str(), Err.c_str());
  }
}

void TenantService::publish(Tenant &T) {
  // The snapshot covers exactly the procedures queries have solved so
  // far: a read of any other misses on the inline path and queues to the
  // shard, which extends the region.
  T.Snap.publish(
      service::AnalysisSnapshot::capture(*T.Engine, T.Engine->generation()));
}

void TenantService::runOpen(Job &J) {
  Tenant &T = *J.T;
  observe::MetricsRegistry &Reg = observe::MetricsRegistry::global();
  std::string Fail;
  ir::Program Prog;
  try {
    std::vector<std::string> Spec(J.Cmd.Args.begin() + 1, J.Cmd.Args.end());
    synth::ProgramGenConfig Cfg = service::parseGenSpec(Spec, J.Cmd.LineNo);
    // The quota is checked before generation, which allocates the whole
    // program; the generator adds main to Cfg.NumProcs procedures.
    const std::size_t NumProcs = std::size_t(Cfg.NumProcs) + 1;
    if (Opts.MaxProcs && NumProcs > Opts.MaxProcs) {
      Fail = "tenant quota: " + std::to_string(NumProcs) +
             " procedures exceeds the cap (" + std::to_string(Opts.MaxProcs) +
             ")";
      CntRejected.fetch_add(1, std::memory_order_relaxed);
      T.CtrRejected->add();
    } else {
      Prog = synth::generateProgram(Cfg);
    }
  } catch (const ScriptError &E) {
    Fail = E.Message;
  }
  if (Fail.empty() && !Opts.DataDir.empty()) {
    std::string Dir = tenantDir(T.Name);
    std::error_code Ec;
    // A leftover subtree here is an orphan (crashed open, or a close that
    // died before deleting): this name is not in the manifest.
    std::filesystem::remove_all(Dir, Ec);
    std::filesystem::create_directories(Dir, Ec);
    if (Ec)
      Fail = "cannot initialize tenant store '" + Dir + "': " + Ec.message();
  }
  if (Fail.empty())
    Fail = installEngine(T, std::move(Prog));
  std::string MErr;
  // Manifest before the open acks: a crash after the ack must recover the
  // tenant.
  if (Fail.empty() && !saveManifest(MErr)) {
    Fail = "cannot write tenant manifest: " + MErr;
    T.Engine.reset();
    T.Store.reset();
  }

  Response R;
  R.Id = J.Id;
  R.TraceId = J.TraceId;
  if (!Fail.empty()) {
    T.Closed.store(true, std::memory_order_release);
    {
      std::lock_guard<std::mutex> Lock(RegistryMutex);
      auto It = Registry.find(T.Name);
      if (It != Registry.end() && It->second == J.T)
        Registry.erase(It);
    }
    R.Ok = false;
    R.Error = std::move(Fail);
    CntErrors.fetch_add(1, std::memory_order_relaxed);
    refreshGauges();
    J.Done(std::move(R));
    return;
  }

  publish(T);
  Resident.fetch_add(1, std::memory_order_relaxed);
  CntOpens.fetch_add(1, std::memory_order_relaxed);
  Reg.counter("tenant.opens").add();
  refreshGauges();
  touch(T);
  enforceResidentCap(T.ShardIdx, &T);
  R.Generation = T.Engine->generation();
  R.Result = "opened '" + T.Name + "' (" +
             std::to_string(T.Engine->program().numProcs()) + " procs)";
  J.Done(std::move(R));
}

void TenantService::runClose(Job &J) {
  Tenant &T = *J.T;
  Response R;
  R.Id = J.Id;
  R.TraceId = J.TraceId;
  if (T.Closed.load(std::memory_order_acquire)) {
    R.Ok = false;
    R.Error = "unknown tenant '" + T.Name + "'";
    CntErrors.fetch_add(1, std::memory_order_relaxed);
    J.Done(std::move(R));
    return;
  }
  if (T.Engine) {
    T.Engine.reset();
    T.Store.reset();
    T.Snap.publish(nullptr);
    Resident.fetch_sub(1, std::memory_order_relaxed);
  }
  T.Closed.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> Lock(RegistryMutex);
    auto It = Registry.find(T.Name);
    if (It != Registry.end() && It->second == J.T)
      Registry.erase(It);
  }
  // Manifest first, subtree second: a crash in between leaves an orphan
  // directory that is invisible (not in the manifest) and reclaimed by
  // the next open of the same name.
  std::string MErr;
  if (!saveManifest(MErr))
    std::fprintf(stderr, "ipse: tenant manifest write failed: %s\n",
                 MErr.c_str());
  if (!Opts.DataDir.empty()) {
    std::error_code Ec;
    std::filesystem::remove_all(tenantDir(T.Name), Ec);
  }
  CntCloses.fetch_add(1, std::memory_order_relaxed);
  observe::MetricsRegistry::global().counter("tenant.closes").add();
  // The labeled series survive the close (registry entries are forever);
  // pin the gauges to zero so scrapes do not report a ghost resident.
  T.GResident->set(0);
  T.GEditBacklog->set(0);
  refreshGauges();
  R.Result = "closed '" + T.Name + "'";
  J.Done(std::move(R));
}

void TenantService::runQuery(Job &J) {
  Tenant &T = *J.T;
  Response R;
  std::string Err;
  if (T.Closed.load(std::memory_order_acquire)) {
    Err = "unknown tenant '" + T.Name + "'";
  } else if (ensureResident(T, Err)) {
    // Answer from the live session, which solves (at most) the query's
    // own region, and republish only if it solved one, so repeat queries
    // take the inline path.
    const std::uint64_t Solves = T.Engine->stats().RegionSolves;
    R = answerQuery(T, J, service::DemandSessionQueryTarget(*T.Engine),
                    T.Engine->generation());
    if (T.Engine->stats().RegionSolves != Solves)
      publish(T);
  }
  if (!Err.empty()) {
    R.Id = J.Id;
    R.TraceId = J.TraceId;
    R.Ok = false;
    R.Error = std::move(Err);
    CntErrors.fetch_add(1, std::memory_order_relaxed);
  }
  observe::MetricsRegistry::global()
      .histogram("tenant.read_lat_us")
      .record(elapsedMicros(J));
  J.Done(std::move(R));
}

void TenantService::runEditGroup(std::vector<Job> &Batch, std::size_t Begin,
                                 std::size_t End) {
  Tenant &T = *Batch[Begin].T;
  const std::size_t N = End - Begin;
  observe::MetricsRegistry &Reg = observe::MetricsRegistry::global();

  auto FailAll = [&](const std::string &Err) {
    for (std::size_t I = Begin; I != End; ++I) {
      Response R;
      R.Id = Batch[I].Id;
      R.TraceId = Batch[I].TraceId;
      R.Ok = false;
      R.Error = Err;
      CntErrors.fetch_add(1, std::memory_order_relaxed);
      Reg.histogram("tenant.write_lat_us").record(elapsedMicros(Batch[I]));
      Batch[I].Done(std::move(R));
    }
    T.QueuedEdits.fetch_sub(static_cast<std::uint32_t>(N),
                            std::memory_order_relaxed);
  };

  if (T.Closed.load(std::memory_order_acquire)) {
    FailAll("unknown tenant '" + T.Name + "'");
    return;
  }
  std::string Err;
  if (!ensureResident(T, Err)) {
    FailAll(Err);
    return;
  }

  // Apply the whole group before publishing: the engine defers its
  // invalidation and solve work until then, so N edits cost one.
  std::vector<std::string> Failures(N);
  std::vector<incremental::Edit> Applied;
  bool AnyApplied = false;
  for (std::size_t I = 0; I != N; ++I) {
    const ScriptCommand &Cmd = Batch[Begin + I].Cmd;
    if (Opts.MaxProcs && Cmd.Kind == ScriptCommand::Op::AddProc &&
        T.Engine->program().numProcs() >= Opts.MaxProcs) {
      Failures[I] = "tenant quota: max procedures (" +
                    std::to_string(Opts.MaxProcs) + ") reached";
      CntRejected.fetch_add(1, std::memory_order_relaxed);
      T.CtrRejected->add();
      continue;
    }
    try {
      Applied.push_back(service::applyEditCommand(*T.Engine, Cmd));
      AnyApplied = true;
    } catch (const ScriptError &E) {
      Failures[I] = E.Message;
    }
  }

  // Durability barrier, per tenant: the group's resolved edits hit the
  // tenant's WAL (one fsync) before the snapshot containing them can
  // publish.
  if (AnyApplied && T.Store) {
    const std::uint64_t W0 = observe::nowNanos();
    std::string WErr;
    if (!T.Store->appendEdits(Applied, WErr)) {
      std::fprintf(
          stderr,
          "ipse: tenant '%s' WAL append failed, persistence disabled: %s\n",
          T.Name.c_str(), WErr.c_str());
      Reg.counter("tenant.wal_errors").add();
      // The tenant keeps serving from memory but is pinned resident:
      // evictIfIdle() refuses tenants without a store.
      T.Store.reset();
    } else {
      observe::flight::record(observe::flight::EventKind::WalAppend,
                              "persist.wal_append", Applied.size());
      observe::flight::record(observe::flight::EventKind::WalFsync,
                              "persist.wal_fsync",
                              (observe::nowNanos() - W0) / 1000);
    }
  }

  const std::uint64_t Gen = T.Engine->generation();
  if (AnyApplied) {
    const std::uint64_t T0 = observe::nowNanos();
    {
      std::optional<observe::TraceScope> Scope;
      if (Opts.Sink)
        Scope.emplace(nullptr, Opts.Sink,
                      observe::ScopeTags{Batch[Begin].TraceId, Gen, T.Name});
      observe::TraceSpan Span("tenant.flush");
      // The publish applies the group's invalidation; the next query
      // re-solves whatever the group dirtied.
      publish(T);
    }
    const std::uint64_t FlushUs = (observe::nowNanos() - T0) / 1000;
    Reg.histogram("tenant.flush_us").record(FlushUs);
    Reg.histogram("tenant.flush_batch").record(N);
    if (Opts.SlowQueryUs && FlushUs > Opts.SlowQueryUs)
      noteSlowOp(Opts, T.Name, "tenant.flush", FlushUs, Batch[Begin].TraceId,
                 Gen);
  }

  if (T.Store && T.Store->shouldCompact()) {
    std::string CErr;
    if (!T.Store->compact(persist::SnapshotSource::of(*T.Engine), CErr))
      std::fprintf(stderr,
                   "ipse: tenant '%s' compaction failed (will retry): %s\n",
                   T.Name.c_str(), CErr.c_str());
  }

  for (std::size_t I = 0; I != N; ++I) {
    Response R;
    R.Id = Batch[Begin + I].Id;
    R.TraceId = Batch[Begin + I].TraceId;
    R.Generation = Gen;
    if (Failures[I].empty()) {
      T.CtrEdits->add();
      CntEdits.fetch_add(1, std::memory_order_relaxed);
    } else {
      R.Ok = false;
      R.Error = std::move(Failures[I]);
      CntErrors.fetch_add(1, std::memory_order_relaxed);
    }
    Reg.histogram("tenant.write_lat_us").record(elapsedMicros(Batch[Begin + I]));
    Batch[Begin + I].Done(std::move(R));
  }
  T.QueuedEdits.fetch_sub(static_cast<std::uint32_t>(N),
                          std::memory_order_relaxed);
  touch(T);
  enforceResidentCap(T.ShardIdx, &T);
}

//===----------------------------------------------------------------------===//
// Eviction / fault-in.
//===----------------------------------------------------------------------===//

bool TenantService::ensureResident(Tenant &T, std::string &Err) {
  if (T.Engine)
    return true;
  if (Opts.DataDir.empty()) {
    // Unreachable in memory-only mode (nothing ever evicts), but a
    // truthful answer beats an assert in a server.
    Err = "tenant '" + T.Name + "' has no resident session";
    return false;
  }
  const std::uint64_t T0 = observe::nowNanos();
  auto Store = std::make_unique<persist::Store>();
  persist::RecoveredState RS;
  std::string OpenErr;
  if (!persist::Store::open(tenantDir(T.Name), storeOptions(), *Store, RS,
                            OpenErr)) {
    Err = "cannot fault in tenant '" + T.Name + "': " + OpenErr;
    return false;
  }
  // Warm restore: the snapshot's planes install fully memoized and the WAL
  // tail replays as deltas.  The publish solves nothing: the first query
  // after fault-in pays for whatever the tail invalidated in its region.
  T.TrackUse = RS.Snapshot.TrackUse;
  demand::DemandOptions DO;
  DO.TrackUse = RS.Snapshot.TrackUse;
  T.Engine = std::make_unique<demand::DemandSession>(
      std::move(RS.Snapshot.Program), DO, std::move(RS.Snapshot.Planes));
  for (const incremental::Edit &E : RS.Tail)
    demand::applyEdit(*T.Engine, E);
  T.Store = std::move(Store);
  publish(T);
  Resident.fetch_add(1, std::memory_order_relaxed);
  CntFaultIns.fetch_add(1, std::memory_order_relaxed);
  observe::MetricsRegistry &Reg = observe::MetricsRegistry::global();
  Reg.counter("tenant.fault_ins").add();
  Reg.histogram("tenant.fault_in_us").record((observe::nowNanos() - T0) / 1000);
  refreshGauges();
  touch(T);
  enforceResidentCap(T.ShardIdx, &T);
  return true;
}

void TenantService::evictIfIdle(Tenant &T) {
  T.EvictQueued.store(false, std::memory_order_relaxed);
  if (T.Closed.load(std::memory_order_acquire) || !T.Engine)
    return;
  if (T.QueuedJobs.load(std::memory_order_acquire) != 0)
    return; // Became busy since it was picked; evicting now would thrash.
  if (!T.Store)
    return; // WAL failure made it memory-only; evicting would lose data.
  // Fold the WAL first so fault-in is a snapshot load plus zero replay.
  // (Compaction exports full planes, forcing the whole program solved —
  // eviction, like a durable open, is where a tenant pays its solve.)
  std::string Err;
  if (T.Store->walRecords() > 0 &&
      !T.Store->compact(persist::SnapshotSource::of(*T.Engine), Err)) {
    std::fprintf(stderr,
                 "ipse: tenant '%s' eviction compaction failed, staying "
                 "resident: %s\n",
                 T.Name.c_str(), Err.c_str());
    return;
  }
  const std::uint64_t Gen = T.Engine->generation();
  T.Engine.reset();
  T.Store.reset();
  // In-flight readers that pinned the snapshot keep it alive; the next
  // query sees null and faults the tenant back in.
  T.Snap.publish(nullptr);
  Resident.fetch_sub(1, std::memory_order_relaxed);
  CntEvictions.fetch_add(1, std::memory_order_relaxed);
  observe::flight::record(observe::flight::EventKind::Eviction, "tenant.evict",
                          Gen);
  observe::MetricsRegistry::global().counter("tenant.evictions").add();
  T.CtrEvicted->add();
  refreshGauges();
}

void TenantService::enforceResidentCap(unsigned SelfIdx, const Tenant *Keep) {
  if (!Opts.MaxResident || Opts.DataDir.empty())
    return;
  // Async evictions posted to peer shards have not decremented Resident
  // yet; counting them stops this pass from sweeping every idle tenant.
  std::size_t PendingAsync = 0;
  for (unsigned Guard = 0; Guard != 64; ++Guard) {
    if (Resident.load(std::memory_order_relaxed) <=
        Opts.MaxResident + PendingAsync)
      return;
    std::shared_ptr<Tenant> Victim;
    std::uint64_t Oldest = ~std::uint64_t(0);
    {
      std::lock_guard<std::mutex> Lock(RegistryMutex);
      for (const auto &[Name, T] : Registry) {
        if (T.get() == Keep || T->Closed.load(std::memory_order_relaxed))
          continue;
        if (!T->Snap.resident())
          continue; // Not resident.
        if (T->QueuedJobs.load(std::memory_order_relaxed) != 0)
          continue; // Busy; skip rather than thrash.
        if (T->EvictQueued.load(std::memory_order_relaxed))
          continue; // Already being handled by its shard.
        std::uint64_t Touched = T->LastTouchNs.load(std::memory_order_relaxed);
        if (Touched <= Oldest) {
          Oldest = Touched;
          Victim = T;
        }
      }
    }
    if (!Victim)
      return; // Everything resident is busy; best effort, try next batch.
    if (Victim->ShardIdx == SelfIdx) {
      evictIfIdle(*Victim);
      if (Victim->Snap.resident())
        return; // Could not evict it (raced busy); give up this pass.
    } else {
      Victim->EvictQueued.store(true, std::memory_order_relaxed);
      Job J;
      J.K = Job::Kind::Evict;
      J.T = Victim;
      if (!Shards[Victim->ShardIdx]->Queue.tryPush(std::move(J))) {
        Victim->EvictQueued.store(false, std::memory_order_relaxed);
        return; // Peer shard saturated; it will sweep after its batch.
      }
      ++PendingAsync;
    }
  }
}

//===----------------------------------------------------------------------===//
// Observability.
//===----------------------------------------------------------------------===//

bool TenantService::hasTenant(const std::string &Name) const {
  return lookup(Name) != nullptr;
}

std::size_t TenantService::tenantCount() const {
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  return Registry.size();
}

std::size_t TenantService::residentCount() const {
  return Resident.load(std::memory_order_relaxed);
}

std::shared_ptr<const service::AnalysisSnapshot>
TenantService::snapshot(const std::string &Name) const {
  std::shared_ptr<Tenant> T = lookup(Name);
  return T ? T->Snap.pin() : nullptr;
}

std::uint64_t TenantService::generation(const std::string &Name) const {
  std::shared_ptr<const service::AnalysisSnapshot> Snap = snapshot(Name);
  return Snap ? Snap->generation() : 0;
}

TenantCounters TenantService::counters() const {
  TenantCounters C;
  C.Opens = CntOpens.load(std::memory_order_relaxed);
  C.Closes = CntCloses.load(std::memory_order_relaxed);
  C.Evictions = CntEvictions.load(std::memory_order_relaxed);
  C.FaultIns = CntFaultIns.load(std::memory_order_relaxed);
  C.Edits = CntEdits.load(std::memory_order_relaxed);
  C.Queries = CntQueries.load(std::memory_order_relaxed);
  C.Errors = CntErrors.load(std::memory_order_relaxed);
  C.Rejected = CntRejected.load(std::memory_order_relaxed);
  return C;
}

void TenantService::refreshGauges() const {
  observe::MetricsRegistry &Reg = observe::MetricsRegistry::global();
  Reg.gauge("tenant.count").set(static_cast<std::int64_t>(tenantCount()));
  Reg.gauge("tenant.resident").set(static_cast<std::int64_t>(residentCount()));
  // Per-tenant labeled gauges: residency (0/1) and edit backlog.  The
  // cached series outlive the tenant (the registry never shrinks), so a
  // closed tenant's last refresh leaves them at the values runClose set.
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  for (const auto &[Name, T] : Registry) {
    T->GResident->set(T->Snap.resident() ? 1 : 0);
    T->GEditBacklog->set(static_cast<std::int64_t>(
        T->QueuedEdits.load(std::memory_order_relaxed)));
  }
}

std::string TenantService::statsJson() const {
  refreshGauges();
  TenantCounters C = counters();
  JsonWriter W;
  W.field("tenants", static_cast<std::uint64_t>(tenantCount()));
  W.field("resident", static_cast<std::uint64_t>(residentCount()));
  W.field("opens", C.Opens);
  W.field("closes", C.Closes);
  W.field("evictions", C.Evictions);
  W.field("fault_ins", C.FaultIns);
  W.field("edits", C.Edits);
  W.field("queries", C.Queries);
  W.field("errors", C.Errors);
  W.field("rejected", C.Rejected);
  return W.finish();
}
