//===- tests/tenant_test.cpp - Multi-tenant service tests ---------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
//
// The sharded multi-tenant registry end to end: lifecycle (open / edit /
// query / close), admission control (name validation, procedure and
// queued-edit quotas), the tenant-aware wire protocol (attach routing and
// the single-program fallback), durable warm restart from the manifest,
// and — the load-bearing differential — a storm of concurrent clients
// across enough tenants to force LRU eviction and fault-in, where every
// tenant's every answer must be byte-identical to a single-program
// session fed the same script.  TSan runs this suite: the snapshot
// publish/pin protocol, the sharded queues, and the LRU bookkeeping are
// all cross-thread surfaces.
//
//===----------------------------------------------------------------------===//

#include "demand/DemandSession.h"
#include "observe/Metrics.h"
#include "observe/Trace.h"
#include "persist/Snapshot.h"
#include "support/Json.h"
#include "synth/ProgramGen.h"
#include "tenant/Protocol.h"
#include "tenant/TenantService.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace ipse;
using service::Response;
using service::ScriptCommand;
using tenant::TenantOptions;
using tenant::TenantService;

namespace {

/// A fresh, empty directory under the test temp root.
std::string freshDir(const std::string &Name) {
  std::string D = testing::TempDir() + "ipse_tenant_" + Name;
  std::filesystem::remove_all(D);
  std::filesystem::create_directories(D);
  return D;
}

/// The deterministic per-tenant script: every command below succeeds on
/// any generated program, so the tenant service and the single-program
/// oracle walk the same states.
std::vector<std::string> tenantEditScript(unsigned Rounds) {
  std::vector<std::string> Lines;
  for (unsigned R = 0; R != Rounds; ++R) {
    std::string S = std::to_string(R);
    Lines.push_back("add-global xg" + S);
    Lines.push_back("add-proc xq" + S + " main");
    Lines.push_back("add-stmt xq" + S);
    Lines.push_back("add-mod xq" + S + " 0 xg" + S);
  }
  return Lines;
}

std::vector<std::string> tenantQueryScript(unsigned Rounds) {
  std::vector<std::string> Lines = {"gmod main", "rmod p1", "guse p1"};
  for (unsigned R = 0; R != Rounds; ++R)
    Lines.push_back("gmod xq" + std::to_string(R));
  Lines.push_back("check");
  return Lines;
}

/// The oracle: one private, eagerly solved DemandSession fed the same
/// script a tenant received, answering through the same evaluator the
/// service uses.
class Oracle {
public:
  Oracle(const std::string &GenSpec, bool TrackUse = true) {
    service::ScriptCommand Gen =
        *service::parseScriptLine("gen " + GenSpec, 1);
    synth::ProgramGenConfig Cfg = service::parseGenSpec(Gen.Args, 1);
    demand::DemandOptions DO;
    DO.TrackUse = TrackUse;
    Session = std::make_unique<demand::DemandSession>(
        synth::generateProgram(Cfg), DO);
  }

  void apply(const std::string &Line) {
    service::applyEditCommand(*Session, *service::parseScriptLine(Line, 1));
  }

  std::string query(const std::string &Line) {
    Session->ensureSolvedAll();
    service::DemandSessionQueryTarget Target(*Session);
    return service::evalQueryCommand(Target, *service::parseScriptLine(Line, 1))
        .Text;
  }

private:
  std::unique_ptr<demand::DemandSession> Session;
};

//===----------------------------------------------------------------------===//
// Lifecycle and admission control (one shard, in-memory).
//===----------------------------------------------------------------------===//

TEST(TenantLifecycle, OpenEditQueryClose) {
  TenantOptions Opts;
  Opts.Shards = 1;
  TenantService Svc(Opts);

  Response R = Svc.call("", "open acme procs=6 globals=4 seed=3");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_NE(R.Result.find("opened 'acme'"), std::string::npos) << R.Result;
  EXPECT_TRUE(Svc.hasTenant("acme"));
  EXPECT_EQ(Svc.tenantCount(), 1u);
  EXPECT_EQ(Svc.residentCount(), 1u);

  // Double open is an error, not an overwrite.
  R = Svc.call("", "open acme procs=6 globals=4 seed=3");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("already open"), std::string::npos) << R.Error;

  // Edits bump the tenant's generation; queries answer from it.
  R = Svc.call("acme", "add-global fresh");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Generation, 1u);
  EXPECT_EQ(Svc.generation("acme"), 1u);
  R = Svc.call("acme", "gmod main");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Generation, 1u);
  EXPECT_NE(R.Result.find("GMOD(main)"), std::string::npos) << R.Result;
  R = Svc.call("acme", "check");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.CheckOk);

  // Unknown tenants and missing routing are answered, not dropped.
  R = Svc.call("ghost", "gmod main");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("unknown tenant"), std::string::npos) << R.Error;
  R = Svc.call("", "gmod main");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("no tenant"), std::string::npos) << R.Error;

  // close ends the lifetime; queued-after semantics answer unknown.
  R = Svc.call("", "close acme");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_FALSE(Svc.hasTenant("acme"));
  EXPECT_EQ(Svc.tenantCount(), 0u);
  R = Svc.call("acme", "gmod main");
  EXPECT_FALSE(R.Ok);

  tenant::TenantCounters C = Svc.counters();
  EXPECT_EQ(C.Opens, 1u);
  EXPECT_EQ(C.Closes, 1u);
  EXPECT_GE(C.Errors, 3u);
}

TEST(TenantLifecycle, NameValidationAndQuotas) {
  TenantOptions Opts;
  Opts.Shards = 1;
  Opts.MaxProcs = 5;
  TenantService Svc(Opts);

  // Hostile names are refused before they can become directory names.
  for (const char *Bad : {"", "a/b", "a b", "..", "x\n"}) {
    Response R = Svc.call("", std::string("open ") + Bad);
    EXPECT_FALSE(R.Ok) << "name: '" << Bad << "'";
  }

  // MaxProcs bounds the generated program (procs=8 means 9 with main).
  Response R = Svc.call("", "open big procs=8 globals=2 seed=1");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("quota"), std::string::npos) << R.Error;
  EXPECT_FALSE(Svc.hasTenant("big"));

  // At the cap, add-proc is refused at application time.
  R = Svc.call("", "open small procs=4 globals=2 seed=1");
  ASSERT_TRUE(R.Ok) << R.Error;
  R = Svc.call("small", "add-proc overflow main");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("max procedures"), std::string::npos) << R.Error;
  // The refusal changed nothing: the tenant still answers at gen 0.
  R = Svc.call("small", "check");
  EXPECT_TRUE(R.Ok && R.CheckOk) << R.Error;
  EXPECT_GE(Svc.counters().Rejected, 1u);
}

TEST(TenantLifecycle, ProcQuotaIsCheckedBeforeGeneration) {
  TenantOptions Opts;
  Opts.Shards = 1;
  Opts.MaxProcs = 5;
  TenantService Svc(Opts);

  // The spec's count is checked against the cap before the generator
  // allocates anything (procs=200000 means 200001 with main).
  Response R = Svc.call("", "open big procs=200000 globals=2 seed=1");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("tenant quota: 200001 procedures exceeds the cap (5)"),
            std::string::npos)
      << R.Error;
  EXPECT_FALSE(Svc.hasTenant("big"));
  EXPECT_EQ(Svc.counters().Rejected, 1u);

  // A negative count is a parse error, not 2^32 - 1 procedures.
  R = Svc.call("", "open neg procs=-1 globals=2 seed=1");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("'-1' is not a decimal number"), std::string::npos)
      << R.Error;
  EXPECT_FALSE(Svc.hasTenant("neg"));

  // At the cap the open goes through.
  R = Svc.call("", "open fits procs=4 globals=2 seed=1");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Result, "opened 'fits' (5 procs)");
}

TEST(TenantLifecycle, EditQuotaShedsStormWithRetry) {
  TenantOptions Opts;
  Opts.Shards = 1;
  Opts.QueueCapacity = 512;
  Opts.MaxQueuedEdits = 4;
  TenantService Svc(Opts);
  ASSERT_TRUE(Svc.call("", "open victim procs=4 globals=2 seed=9").Ok);
  // Wedge the single shard behind a slow open (submitted async — a
  // blocking call would wait the solve out) so the storm below cannot
  // drain: every edit past the quota must be refused at submission.
  ScriptCommand Slow =
      *service::parseScriptLine("open slow procs=2000 globals=16 seed=1", 1);
  ASSERT_TRUE(Svc.trySubmit("", 999, Slow, [](Response) {}));

  ScriptCommand Edit = *service::parseScriptLine("add-global gq", 1);
  std::atomic<unsigned> Answered{0};
  unsigned Accepted = 0, Refused = 0;
  for (unsigned I = 0; I != 64; ++I) {
    bool Took = Svc.trySubmit("victim", I, Edit,
                              [&](Response) { Answered.fetch_add(1); });
    (Took ? Accepted : Refused) += 1;
  }
  EXPECT_GT(Refused, 0u);
  EXPECT_LE(Accepted, 64u - Refused);
  Svc.stop();
  EXPECT_EQ(Answered.load(), Accepted);
  EXPECT_GE(Svc.counters().Rejected, Refused);
}

TEST(TenantLifecycle, InMemoryModeIgnoresResidentCap) {
  TenantOptions Opts;
  Opts.Shards = 2;
  Opts.MaxResident = 1; // no DataDir: nothing to evict to
  TenantService Svc(Opts);
  for (const char *Name : {"a", "b", "c", "d"})
    ASSERT_TRUE(
        Svc.call("", std::string("open ") + Name + " procs=4 globals=2 seed=2")
            .Ok);
  EXPECT_EQ(Svc.residentCount(), 4u);
  EXPECT_EQ(Svc.counters().Evictions, 0u);
}

//===----------------------------------------------------------------------===//
// The protocol front end: attach routing and single-program fallback.
//===----------------------------------------------------------------------===//

/// Collects emitted response lines; shard threads and the caller both
/// emit, and tenant responses land out of order, so lookup is by id.
struct ResponseLog {
  std::mutex M;
  std::vector<std::string> Lines;

  void operator()(std::string Line) {
    std::lock_guard<std::mutex> G(M);
    Lines.push_back(std::move(Line));
  }

  /// The raw line answering request \p Id (waits for async responses).
  std::string waitLine(std::uint64_t Id) {
    for (unsigned Spin = 0; Spin != 200000; ++Spin) {
      {
        std::lock_guard<std::mutex> G(M);
        for (const std::string &L : Lines) {
          std::string Err;
          auto Obj = parseJsonObject(L, Err);
          if (Obj && Obj->getUInt("id") == Id)
            return L;
        }
      }
      std::this_thread::yield();
    }
    ADD_FAILURE() << "no response for id " << Id;
    return "{}";
  }

  JsonObject waitFor(std::uint64_t Id) {
    std::string Err;
    auto Obj = parseJsonObject(waitLine(Id), Err);
    EXPECT_TRUE(Obj) << Err;
    return Obj ? *Obj : JsonObject{};
  }
};

TEST(TenantProtocol, AttachRoutesAndFallbackAnswers) {
  TenantOptions Opts;
  Opts.Shards = 1;
  TenantService Svc(Opts);
  tenant::TenantConnection Conn;
  ResponseLog Log;
  auto Emit = [&](std::string Line) { Log(std::move(Line)); };

  tenant::handleTenantRequestLine(
      Svc, Conn,
      R"({"id":1,"cmd":"open acme procs=4 globals=2 seed=5"})", Emit);
  tenant::handleTenantRequestLine(Svc, Conn,
                                  R"({"id":2,"cmd":"attach acme"})", Emit);
  EXPECT_EQ(Conn.Attached, "acme");
  EXPECT_EQ(Log.waitFor(1).getBool("ok"), true);
  EXPECT_EQ(Log.waitFor(2).getBool("ok"), true);

  // Edits and queries route through the attachment.
  tenant::handleTenantRequestLine(Svc, Conn,
                                  R"({"id":3,"cmd":"add-global fresh"})", Emit);
  JsonObject Obj = Log.waitFor(3);
  EXPECT_EQ(Obj.getBool("ok"), true);
  EXPECT_EQ(Obj.getUInt("gen"), 1u);
  tenant::handleTenantRequestLine(Svc, Conn,
                                  R"({"id":4,"cmd":"gmod main"})", Emit);
  std::string Line = Log.waitLine(4);
  EXPECT_NE(Line.find("\"ok\":true"), std::string::npos) << Line;
  EXPECT_NE(Line.find("GMOD(main)"), std::string::npos) << Line;

  // An explicit "tenant" field overrides the attachment...
  tenant::handleTenantRequestLine(
      Svc, Conn, R"({"id":5,"cmd":"gmod main","tenant":"ghost"})",
      Emit);
  Line = Log.waitLine(5);
  EXPECT_NE(Line.find("\"ok\":false"), std::string::npos) << Line;
  EXPECT_NE(Line.find("unknown tenant"), std::string::npos) << Line;

  // ...and attaching to an unknown tenant is refused, keeping the old one.
  tenant::handleTenantRequestLine(Svc, Conn,
                                  R"({"id":6,"cmd":"attach ghost"})", Emit);
  EXPECT_EQ(Conn.Attached, "acme");
  EXPECT_EQ(Log.waitFor(6).getBool("ok"), false);

  // Unattached data requests on a server without an implicit tenant get
  // guidance.
  tenant::TenantConnection Fresh;
  tenant::handleTenantRequestLine(Svc, Fresh,
                                  R"({"id":7,"cmd":"gmod main"})", Emit);
  Line = Log.waitLine(7);
  EXPECT_NE(Line.find("\"ok\":false"), std::string::npos) << Line;
  EXPECT_NE(Line.find("no tenant"), std::string::npos) << Line;
}

TEST(TenantProtocol, MalformedIndicesAreErrors) {
  // The first read of main lands on a snapshot that covers nothing; a
  // malformed index must still be an error reply, never a read of an
  // unsolved plane.
  TenantOptions Opts;
  Opts.Shards = 1;
  TenantService Svc(Opts);
  ASSERT_TRUE(Svc.call("", "open acme procs=10 globals=5 seed=7").Ok);
  Oracle Model("procs=10 globals=5 seed=7");
  for (const char *Bad : {"mod main 0x", "mod main +0", "query main#0x",
                          "mod main 99999999999", "add-mod main -1 g0",
                          "rm-call main 0x"}) {
    Response R = Svc.call("acme", Bad);
    EXPECT_FALSE(R.Ok) << Bad;
    EXPECT_NE(R.Error.find("is not a decimal number below 2^32"),
              std::string::npos)
        << Bad << ": " << R.Error;
  }
  Response R = Svc.call("acme", "gmod main");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Result, Model.query("gmod main"));
  EXPECT_EQ(R.Generation, 0u);
}

TEST(TenantProtocol, IllegalAddCallIsRefusedAndTheServerKeepsAnswering) {
  // An add-call whose callee is out of scope at the call site, or is the
  // main program, violates ProgramEditor::addCall's preconditions: it must
  // come back as ok:false, not abort the writer.
  TenantOptions Opts;
  Opts.Shards = 1;
  TenantService Svc(Opts);
  tenant::TenantConnection Conn;
  ResponseLog Log;
  auto Emit = [&](std::string Line) { Log(std::move(Line)); };
  const char *Setup[] = {
      R"({"id":1,"cmd":"open acme procs=4 globals=2 seed=5"})",
      R"({"id":2,"cmd":"attach acme"})",
      R"({"id":3,"cmd":"add-proc q1 p1"})",
      R"({"id":4,"cmd":"add-proc r main"})",
      R"({"id":5,"cmd":"add-stmt r"})"};
  for (std::uint64_t Id = 1; Id <= 5; ++Id) {
    tenant::handleTenantRequestLine(Svc, Conn, Setup[Id - 1], Emit);
    ASSERT_EQ(Log.waitFor(Id).getBool("ok"), true) << Setup[Id - 1];
  }

  tenant::handleTenantRequestLine(Svc, Conn,
                                  R"({"id":6,"cmd":"add-call r 0 q1"})", Emit);
  std::string Line = Log.waitLine(6);
  EXPECT_NE(Line.find("\"ok\":false"), std::string::npos) << Line;
  EXPECT_NE(Line.find("'q1' is not visible in 'r'"), std::string::npos)
      << Line;
  tenant::handleTenantRequestLine(
      Svc, Conn, R"({"id":7,"cmd":"add-call r 0 main"})", Emit);
  Line = Log.waitLine(7);
  EXPECT_NE(Line.find("\"ok\":false"), std::string::npos) << Line;
  EXPECT_NE(Line.find("cannot call the main program 'main'"),
            std::string::npos)
      << Line;

  // The server keeps answering, and a legal add-call from inside p1's
  // subtree still applies.
  tenant::handleTenantRequestLine(Svc, Conn,
                                  R"({"id":8,"cmd":"add-stmt q1"})", Emit);
  EXPECT_EQ(Log.waitFor(8).getBool("ok"), true);
  tenant::handleTenantRequestLine(Svc, Conn,
                                  R"({"id":9,"cmd":"add-call q1 0 q1"})", Emit);
  EXPECT_EQ(Log.waitFor(9).getBool("ok"), true);
  tenant::handleTenantRequestLine(Svc, Conn, R"({"id":10,"cmd":"gmod r"})",
                                  Emit);
  Line = Log.waitLine(10);
  EXPECT_NE(Line.find("\"ok\":true"), std::string::npos) << Line;
  EXPECT_NE(Line.find("GMOD(r)"), std::string::npos) << Line;
}

TEST(TenantProtocol, RoutingPrecedenceIsFieldThenAttachThenImplicit) {
  // A server given a program hosts it as the implicit tenant "": requests
  // that name no tenant reach it, an attach overrides it, and a "tenant"
  // field overrides both.
  TenantOptions Opts;
  Opts.Shards = 1;
  TenantService Svc(Opts, synth::makeFortranStyleProgram(6, 3, 3, 4));
  ASSERT_TRUE(Svc.call("", "open acme procs=4 globals=2 seed=5").Ok);
  // Make main modify a global only its own tenant has.
  for (const auto &[Tenant, Global] :
       {std::pair<std::string, std::string>{"", "only_implicit"},
        {"acme", "only_acme"}})
    for (const std::string &Edit :
         {"add-global " + Global, std::string("add-stmt main"),
          "add-mod main 0 " + Global})
      ASSERT_TRUE(Svc.call(Tenant, Edit).Ok) << Tenant << ": " << Edit;
  tenant::TenantConnection Conn;
  ResponseLog Log;
  auto Emit = [&](std::string Line) { Log(std::move(Line)); };
  auto Send = [&](const std::string &Req) {
    tenant::handleTenantRequestLine(Svc, Conn, Req, Emit);
  };

  Send(R"({"id":1,"cmd":"gmod main"})");
  EXPECT_NE(Log.waitLine(1).find("only_implicit"), std::string::npos);
  Send(R"({"id":2,"cmd":"gmod main","tenant":"acme"})");
  EXPECT_NE(Log.waitLine(2).find("only_acme"), std::string::npos);
  Send(R"({"id":3,"cmd":"attach acme"})");
  Send(R"({"id":4,"cmd":"gmod main"})");
  EXPECT_NE(Log.waitLine(4).find("only_acme"), std::string::npos);
  // Inline errors carry the routed tenant's generation.
  Send(R"({"id":5,"cmd":"no-such-verb"})");
  JsonObject Obj = Log.waitFor(5);
  EXPECT_EQ(Obj.getBool("ok"), false);
  EXPECT_EQ(Obj.getUInt("gen"), 3u);
  // Control-plane verbs need no tenant.
  tenant::TenantConnection Fresh;
  tenant::handleTenantRequestLine(Svc, Fresh, R"({"id":6,"cmd":"stats"})",
                                  Emit);
  EXPECT_NE(Log.waitLine(6).find("\"tenants\":2"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Durable mode: manifest warm restart.
//===----------------------------------------------------------------------===//

TEST(TenantDurable, WarmRestartFaultsInWithoutResolve) {
  std::string Dir = freshDir("restart");
  std::string PreGmod, PreCheck;
  {
    TenantOptions Opts;
    Opts.Shards = 2;
    Opts.DataDir = Dir;
    TenantService Svc(Opts);
    ASSERT_TRUE(Svc.call("", "open acme procs=8 globals=4 seed=11").Ok);
    ASSERT_TRUE(Svc.call("", "open beta procs=6 globals=3 seed=12").Ok);
    for (const std::string &L : tenantEditScript(3))
      ASSERT_TRUE(Svc.call("acme", L).Ok);
    Response R = Svc.call("acme", "gmod xq2");
    ASSERT_TRUE(R.Ok) << R.Error;
    PreGmod = R.Result;
    R = Svc.call("acme", "check");
    ASSERT_TRUE(R.Ok && R.CheckOk);
    PreCheck = R.Result;
    // Closed tenants must NOT come back after restart.
    ASSERT_TRUE(Svc.call("", "close beta").Ok);
    Svc.stop();
  }
  {
    TenantOptions Opts;
    Opts.Shards = 2;
    Opts.DataDir = Dir;
    TenantService Svc(Opts);
    EXPECT_TRUE(Svc.hasTenant("acme"));
    EXPECT_FALSE(Svc.hasTenant("beta"));
    EXPECT_EQ(Svc.tenantCount(), 1u);
    EXPECT_EQ(Svc.residentCount(), 0u); // lazy: fault in on first touch

    Response R = Svc.call("acme", "gmod xq2");
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Result, PreGmod);
    EXPECT_EQ(R.Generation, 12u); // 3 rounds x 4 edits, preserved
    R = Svc.call("acme", "check");
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_TRUE(R.CheckOk);
    EXPECT_EQ(R.Result, PreCheck);
    EXPECT_EQ(Svc.counters().FaultIns, 1u);
    EXPECT_EQ(Svc.residentCount(), 1u);
  }
}

//===----------------------------------------------------------------------===//
// Demand-driven tenants: snapshots covering solved regions, solve-free
// fault-in.
//===----------------------------------------------------------------------===//

TEST(TenantDemand, DemandTenantsMatchSessionTenants) {
  TenantOptions Opts;
  Opts.Shards = 1;
  TenantService Svc(Opts);

  ASSERT_TRUE(Svc.call("", "open acme procs=10 globals=5 seed=7").Ok);
  Oracle Model("procs=10 globals=5 seed=7");

  // Interleave edits with queries so demand snapshots republish between
  // invalidations; every answer must match the batch-backed oracle.
  for (const std::string &L : tenantEditScript(3)) {
    Response R = Svc.call("acme", L);
    ASSERT_TRUE(R.Ok) << L << ": " << R.Error;
    Model.apply(L);
    R = Svc.call("acme", "gmod main");
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Result, Model.query("gmod main")) << "after " << L;
  }
  for (const std::string &Q : tenantQueryScript(3)) {
    Response R = Svc.call("acme", Q);
    ASSERT_TRUE(R.Ok) << Q << ": " << R.Error;
    EXPECT_TRUE(R.CheckOk) << Q;
    EXPECT_EQ(R.Result, Model.query(Q)) << Q;
  }

  // The query verb answers from the demand region too.
  Response R = Svc.call("acme", "query main p1");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Result, Model.query("query main p1"));
}

/// Counts the `tenant.query` spans and slow-query records it receives.
struct QuerySpanSink : observe::TraceSink {
  std::atomic<unsigned> Spans{0}, Slow{0};
  void onSpan(const observe::SpanRecord &R) override {
    if (std::string(R.Name) == "tenant.query")
      ++Spans;
  }
  void onSlowQuery(const observe::SlowQueryRecord &) override { ++Slow; }
};

TEST(TenantDemand, InlineMissesCountNothingAndLeaveNoSpan) {
  QuerySpanSink Sink;
  TenantOptions Opts;
  Opts.Shards = 1;
  Opts.Sink = &Sink;
  Opts.SlowQueryUs = 1;
  TenantService Svc(Opts);
  ASSERT_TRUE(Svc.call("", "open acme procs=10 globals=5 seed=7").Ok);
  Oracle Model("procs=10 globals=5 seed=7");

  // Nothing is solved yet: the inline read misses and the shard answers,
  // solving main's region (its demand attribution shows the solve).
  Response First = Svc.call("acme", "query main");
  ASSERT_TRUE(First.Ok) << First.Error;
  EXPECT_TRUE(First.HasStats);
  EXPECT_GT(First.RegionProcs, 0u);
  // The republished snapshot covers the region: these answer inline.
  Response Again = Svc.call("acme", "query main");
  ASSERT_TRUE(Again.Ok) << Again.Error;
  EXPECT_FALSE(Again.HasStats);
  EXPECT_EQ(Again.Result, First.Result);
  EXPECT_EQ(Again.Result, Model.query("query main"));
  Response Mod = Svc.call("acme", "mod main 0");
  ASSERT_TRUE(Mod.Ok) << Mod.Error;
  EXPECT_EQ(Mod.Result, Model.query("mod main 0"));

  // Three queries answered, one span each; the miss added neither a
  // count, nor a span, nor a slow-log record.
  EXPECT_EQ(Svc.counters().Queries, 3u);
  if (!observe::enabled())
    return;
  EXPECT_EQ(Sink.Spans.load(), 3u);
  EXPECT_LE(Sink.Slow.load(), 3u);
}

TEST(TenantDemand, OpenAndEditsSolveNothing) {
  // Neither an open nor an invalidating edit group solves anything: the
  // published snapshot covers only what queries solved.  The next query of
  // a dirtied procedure goes to the shard and solves its region; the one
  // after it answers inline.
  observe::Counter &RegionProcs =
      observe::MetricsRegistry::global().counter("demand.region_procs");
  TenantOptions Opts;
  Opts.Shards = 1;
  TenantService Svc(Opts);
  const std::uint64_t Before = RegionProcs.value();
  ASSERT_TRUE(Svc.call("", "open acme procs=10 globals=5 seed=7").Ok);
  Oracle Model("procs=10 globals=5 seed=7");
  EXPECT_EQ(RegionProcs.value(), Before);
  const ir::ProcId Main = Svc.snapshot("acme")->program().main();
  EXPECT_FALSE(Svc.snapshot("acme")->covered(Main, analysis::EffectKind::Mod));

  ASSERT_TRUE(Svc.call("acme", "query main").Ok);
  ASSERT_TRUE(Svc.snapshot("acme")->covered(Main, analysis::EffectKind::Mod));
  for (const char *Edit : {"add-global eg", "add-mod main 0 eg"}) {
    const std::uint64_t Solved = RegionProcs.value();
    Response R = Svc.call("acme", Edit);
    ASSERT_TRUE(R.Ok) << Edit << ": " << R.Error;
    Model.apply(Edit);
    EXPECT_EQ(RegionProcs.value(), Solved) << Edit;
    EXPECT_FALSE(
        Svc.snapshot("acme")->covered(Main, analysis::EffectKind::Mod))
        << Edit;
  }

  Response Shard = Svc.call("acme", "query main");
  ASSERT_TRUE(Shard.Ok) << Shard.Error;
  EXPECT_TRUE(Shard.HasStats);
  EXPECT_GT(Shard.RegionProcs, 0u);
  EXPECT_EQ(Shard.Result, Model.query("query main"));
  Response Inline = Svc.call("acme", "query main");
  ASSERT_TRUE(Inline.Ok) << Inline.Error;
  EXPECT_FALSE(Inline.HasStats);
  EXPECT_EQ(Inline.Result, Shard.Result);
  EXPECT_EQ(Inline.Generation, 2u);
}

TEST(TenantDemand, ShardQueriesRepublishOnlyWhenTheySolve) {
  TenantOptions Opts;
  Opts.Shards = 1;
  TenantService Svc(Opts);
  ASSERT_TRUE(Svc.call("", "open acme procs=10 globals=5 seed=7").Ok);
  Oracle Model("procs=10 globals=5 seed=7");
  Model.apply("add-stmt main");
  using SnapshotPtr = std::shared_ptr<const service::AnalysisSnapshot>;

  // An edit's reply holds the shard, so both queries below miss inline
  // (nothing is solved) and queue behind it: the first solves main's
  // region, the second finds it solved.  Each reply records the snapshot
  // published when it was answered.
  std::promise<void> Gate;
  std::shared_future<void> Release = Gate.get_future().share();
  SnapshotPtr Edited;
  const bool Held = Svc.trySubmit(
      "acme", 1, *service::parseScriptLine("add-stmt main", 1),
      [&Svc, &Edited, Release](Response) {
        Edited = Svc.snapshot("acme");
        Release.wait();
      });
  struct Reply {
    Response R;
    SnapshotPtr Published;
  };
  std::promise<Reply> First, Second;
  std::future<Reply> FirstDone = First.get_future(),
                     SecondDone = Second.get_future();
  auto Submit = [&](std::uint64_t Id, std::promise<Reply> &P) {
    return Svc.trySubmit("acme", Id,
                         *service::parseScriptLine("query main", 1),
                         [&Svc, &P](Response R) {
                           P.set_value({std::move(R), Svc.snapshot("acme")});
                         });
  };
  const bool Queued = Submit(2, First) && Submit(3, Second);
  Gate.set_value();
  ASSERT_TRUE(Held && Queued);
  Reply A = FirstDone.get(), B = SecondDone.get();

  // The solving query published a snapshot that covers its region: the
  // same query reads it without a miss.
  ASSERT_TRUE(A.R.Ok) << A.R.Error;
  EXPECT_TRUE(A.R.HasStats);
  EXPECT_GT(A.R.RegionProcs, 0u);
  EXPECT_EQ(A.R.Result, Model.query("query main"));
  ASSERT_TRUE(Edited && A.Published);
  EXPECT_NE(A.Published, Edited);
  try {
    EXPECT_EQ(service::evalQueryCommand(*A.Published,
                                        *service::parseScriptLine(
                                            "query main", 1))
                  .Text,
              A.R.Result);
  } catch (const service::UncoveredRead &) {
    ADD_FAILURE() << "the solving query's snapshot misses its region";
  }
  // The covered one solved nothing and left the pinned snapshot alone.
  ASSERT_TRUE(B.R.Ok) << B.R.Error;
  EXPECT_TRUE(B.R.HasStats);
  EXPECT_EQ(B.R.RegionProcs, 0u);
  EXPECT_EQ(B.R.Result, A.R.Result);
  EXPECT_EQ(B.Published, A.Published);
}

TEST(TenantDemand, FaultInAnswersFromPartialRegion) {
  std::string Dir = freshDir("demand_restart");
  std::string PreGmod, PreQuery;
  {
    TenantOptions Opts;
    Opts.Shards = 2;
    Opts.DataDir = Dir;
      TenantService Svc(Opts);
    ASSERT_TRUE(Svc.call("", "open acme procs=12 globals=5 seed=21").Ok);
    for (const std::string &L : tenantEditScript(2))
      ASSERT_TRUE(Svc.call("acme", L).Ok);
    Response R = Svc.call("acme", "gmod xq1");
    ASSERT_TRUE(R.Ok) << R.Error;
    PreGmod = R.Result;
    R = Svc.call("acme", "query main xq0");
    ASSERT_TRUE(R.Ok) << R.Error;
    PreQuery = R.Result;
    R = Svc.call("acme", "check");
    ASSERT_TRUE(R.Ok && R.CheckOk) << R.Error;
    Svc.stop();
  }
  {
    TenantOptions Opts;
    Opts.Shards = 2;
    Opts.DataDir = Dir;
      TenantService Svc(Opts);
    EXPECT_TRUE(Svc.hasTenant("acme"));
    EXPECT_EQ(Svc.residentCount(), 0u); // lazy: fault in on first touch

    // The first query after fault-in solves only its region; the answer
    // still matches the pre-restart full-plane one byte for byte.
    Response R = Svc.call("acme", "gmod xq1");
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Result, PreGmod);
    EXPECT_EQ(R.Generation, 8u); // 2 rounds x 4 edits, preserved
    EXPECT_EQ(Svc.counters().FaultIns, 1u);
    R = Svc.call("acme", "query main xq0");
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Result, PreQuery);
    R = Svc.call("acme", "check");
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_TRUE(R.CheckOk);
  }
}

TEST(TenantDemand, EvictionChurnKeepsDemandAnswersExact) {
  std::string Dir = freshDir("demand_churn");
  TenantOptions Opts;
  Opts.Shards = 2;
  Opts.DataDir = Dir;
  Opts.MaxResident = 1; // two tenants through one seat: every switch evicts
  Opts.CompactWalRecords = 4;
  TenantService Svc(Opts);

  ASSERT_TRUE(Svc.call("", "open left procs=8 globals=4 seed=31").Ok);
  ASSERT_TRUE(Svc.call("", "open right procs=9 globals=4 seed=32").Ok);
  Oracle Left("procs=8 globals=4 seed=31"), Right("procs=9 globals=4 seed=32");

  for (unsigned Round = 0; Round != 3; ++Round) {
    std::string S = std::to_string(Round);
    for (auto [Name, Model] :
         {std::pair<const char *, Oracle *>{"left", &Left},
          std::pair<const char *, Oracle *>{"right", &Right}}) {
      Response R;
      for (const std::string &Edit :
           {"add-global cg" + S, "add-proc cq" + S + " main",
            "add-stmt cq" + S, "add-mod cq" + S + " 0 cg" + S}) {
        R = Svc.call(Name, Edit);
        ASSERT_TRUE(R.Ok) << Name << ": " << Edit << ": " << R.Error;
        Model->apply(Edit);
      }
      for (const std::string &Q :
           {std::string("gmod main"), std::string("query main p1"),
            std::string("guse p2"), std::string("gmod cq" + S)}) {
        R = Svc.call(Name, Q);
        ASSERT_TRUE(R.Ok) << Name << ": " << Q << ": " << R.Error;
        EXPECT_EQ(R.Result, Model->query(Q)) << Name << " round " << S;
      }
    }
  }
  EXPECT_GT(Svc.counters().Evictions, 0u);
  EXPECT_GT(Svc.counters().FaultIns, 0u);
}

//===----------------------------------------------------------------------===//
// The differential storm: many tenants, many clients, forced eviction.
//===----------------------------------------------------------------------===//

TEST(TenantStorm, ConcurrentTenantsMatchOracleUnderEviction) {
  constexpr unsigned NumTenants = 64;
  constexpr unsigned NumClients = 8;
  constexpr unsigned Rounds = 2;

  std::string Dir = freshDir("storm");
  TenantOptions Opts;
  Opts.Shards = 4;
  Opts.DataDir = Dir;
  Opts.MaxResident = 8; // 64 tenants through 8 seats: constant churn
  Opts.CompactWalRecords = 4;
  TenantService Svc(Opts);

  auto NameOf = [](unsigned I) { return "t" + std::to_string(I); };
  auto SpecOf = [](unsigned I) {
    return "procs=" + std::to_string(4 + I % 5) + " globals=3 seed=" +
           std::to_string(100 + I);
  };

  const std::vector<std::string> Edits = tenantEditScript(Rounds);
  const std::vector<std::string> Queries = tenantQueryScript(Rounds);

  // Each client owns a disjoint slice of tenants, so per-tenant command
  // order is deterministic while the service sees all slices at once.
  std::vector<std::string> Failures(NumClients);
  std::vector<std::thread> Clients;
  for (unsigned C = 0; C != NumClients; ++C) {
    Clients.emplace_back([&, C] {
      auto Fail = [&](const std::string &Msg) {
        if (Failures[C].empty())
          Failures[C] = Msg;
      };
      for (unsigned I = C; I < NumTenants; I += NumClients) {
        std::string Name = NameOf(I);
        Response R = Svc.call("", "open " + Name + " " + SpecOf(I));
        if (!R.Ok)
          return Fail(Name + ": open: " + R.Error);
        Oracle Model(SpecOf(I));
        // Interleave edits and queries so snapshots publish mid-script,
        // with eviction racing the whole time.
        for (const std::string &L : Edits) {
          R = Svc.call(Name, L);
          if (!R.Ok)
            return Fail(Name + ": " + L + ": " + R.Error);
          Model.apply(L);
          R = Svc.call(Name, "gmod main");
          if (!R.Ok)
            return Fail(Name + ": gmod main: " + R.Error);
          if (R.Result != Model.query("gmod main"))
            return Fail(Name + ": gmod main diverged after " + L + ": " +
                        R.Result);
        }
        for (const std::string &Q : Queries) {
          R = Svc.call(Name, Q);
          if (!R.Ok)
            return Fail(Name + ": " + Q + ": " + R.Error);
          if (!R.CheckOk)
            return Fail(Name + ": check failed");
          std::string Want = Model.query(Q);
          if (R.Result != Want)
            return Fail(Name + ": " + Q + ": got '" + R.Result + "' want '" +
                        Want + "'");
        }
      }
    });
  }
  for (std::thread &T : Clients)
    T.join();
  for (const std::string &F : Failures)
    EXPECT_EQ(F, "");

  tenant::TenantCounters C = Svc.counters();
  EXPECT_EQ(Svc.tenantCount(), NumTenants);
  EXPECT_GT(C.Evictions, 0u) << "cap 8 over 64 tenants must evict";
  EXPECT_GT(C.FaultIns, 0u) << "evicted tenants were queried again";
  EXPECT_EQ(C.Opens, NumTenants);

  // Quiesced: the resident population respects the cap (in-flight evict
  // posts may still be draining, so allow the enforcement loop's slack).
  Svc.stop();
  EXPECT_LE(Svc.residentCount(), Opts.MaxResident + Opts.Shards);

  // Every tenant survived in the manifest.
  std::string Err;
  std::vector<std::uint8_t> Bytes;
  ASSERT_TRUE(persist::readFileBytes(Dir + "/tenants.json", Bytes, Err)) << Err;
  std::string Manifest(Bytes.begin(), Bytes.end());
  for (unsigned I = 0; I != NumTenants; ++I)
    EXPECT_NE(Manifest.find("\"" + NameOf(I) + "\""), std::string::npos) << I;
}

} // namespace
