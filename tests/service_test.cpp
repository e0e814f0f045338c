//===- tests/service_test.cpp - Concurrent analysis service tests -------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
//
// Covers the src/service stack bottom-up: the JSON codec, the shared
// script driver (including the EditGen -> toScriptLine -> applyEditCommand
// round trip that lets synthetic edit streams drive the server by name),
// snapshot capture, the single-program server (a TenantService hosting
// its program as the implicit tenant ""), the TCP front end, and a
// randomized multi-threaded stress run whose every response is re-checked
// bit-for-bit against the snapshot of the generation that answered it.
// The stress test is the ThreadSanitizer workload in CI.
//
//===----------------------------------------------------------------------===//

#include "analysis/SideEffectAnalyzer.h"
#include "demand/DemandSession.h"
#include "incremental/Edit.h"
#include "observe/Metrics.h"
#include "observe/Trace.h"
#include "ir/AliasInfo.h"
#include "ir/Printer.h"
#include "ir/ProgramBuilder.h"
#include "service/AnalysisSnapshot.h"
#include "support/Json.h"
#include "service/ScriptDriver.h"
#include "service/Server.h"
#include "support/Rng.h"
#include "synth/EditGen.h"
#include "synth/ProgramGen.h"
#include "tenant/Protocol.h"
#include "tenant/TenantService.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>

using namespace ipse;
using namespace ipse::service;
using tenant::TenantService;

namespace {

ir::Program makeProgram(unsigned Procs = 12, unsigned Globals = 6,
                        std::uint64_t Seed = 7) {
  return synth::makeFortranStyleProgram(Procs, Globals, 3, Seed);
}

//===----------------------------------------------------------------------===//
// JSON codec.
//===----------------------------------------------------------------------===//

TEST(Json, ParsesFlatRequestEnvelope) {
  std::string Err;
  auto Obj = parseJsonObject(
      R"({"id":42,"cmd":"gmod main","flag":true,"extra":[1,{"x":2}]})", Err);
  ASSERT_TRUE(Obj.has_value()) << Err;
  EXPECT_EQ(Obj->getUInt("id"), 42u);
  EXPECT_EQ(Obj->getString("cmd"), "gmod main");
  EXPECT_EQ(Obj->getBool("flag"), true);
  EXPECT_TRUE(Obj->has("extra")); // Skipped, not interpreted.
  EXPECT_EQ(Obj->getString("id"), std::nullopt); // Wrong type.
  EXPECT_EQ(Obj->getUInt("missing"), std::nullopt);
}

TEST(Json, UnescapesStrings) {
  std::string Err;
  auto Obj = parseJsonObject(R"({"s":"a\"b\\c\nA"})", Err);
  ASSERT_TRUE(Obj.has_value()) << Err;
  EXPECT_EQ(Obj->getString("s"), "a\"b\\c\nA");
}

TEST(Json, RejectsMalformedInput) {
  std::string Err;
  EXPECT_FALSE(parseJsonObject("not json", Err).has_value());
  EXPECT_FALSE(parseJsonObject(R"({"a":1)", Err).has_value());
  EXPECT_FALSE(parseJsonObject(R"({"a"})", Err).has_value());
}

TEST(Json, WriterRoundTripsThroughParser) {
  JsonWriter W;
  W.field("id", std::uint64_t(7));
  W.field("ok", true);
  W.field("result", "GMOD(p) = {a \"quoted\"\nnewline}");
  W.fieldRaw("nested", "{\"x\":1}");
  std::string Text = W.finish();
  std::string Err;
  auto Obj = parseJsonObject(Text, Err);
  ASSERT_TRUE(Obj.has_value()) << Err << " in " << Text;
  EXPECT_EQ(Obj->getUInt("id"), 7u);
  EXPECT_EQ(Obj->getBool("ok"), true);
  EXPECT_EQ(Obj->getString("result"), "GMOD(p) = {a \"quoted\"\nnewline}");
}

//===----------------------------------------------------------------------===//
// Script driver.
//===----------------------------------------------------------------------===//

TEST(ScriptDriver, ParsesAndClassifiesCommands) {
  auto Cmd = parseScriptLine("  add-mod  p 0 x  # trailing comment", 3);
  ASSERT_TRUE(Cmd.has_value());
  EXPECT_EQ(Cmd->Kind, ScriptCommand::Op::AddMod);
  ASSERT_EQ(Cmd->Args.size(), 3u);
  EXPECT_EQ(Cmd->Args[0], "p");
  EXPECT_EQ(Cmd->LineNo, 3u);
  EXPECT_TRUE(isEditCommand(Cmd->Kind));
  EXPECT_FALSE(isQueryCommand(Cmd->Kind));

  EXPECT_FALSE(parseScriptLine("   # only a comment", 1).has_value());
  EXPECT_FALSE(parseScriptLine("", 1).has_value());

  auto Query = parseScriptLine("gmod main", 1);
  ASSERT_TRUE(Query.has_value());
  EXPECT_TRUE(isQueryCommand(Query->Kind));
  EXPECT_FALSE(isEditCommand(Query->Kind));

  EXPECT_THROW(parseScriptLine("frobnicate x", 9), ScriptError);
  EXPECT_THROW(parseScriptLine("gmod", 9), ScriptError);      // Arity.
  EXPECT_THROW(parseScriptLine("add-call p 0", 9), ScriptError);
  try {
    parseScriptLine("gmod a b", 17);
    FAIL() << "expected ScriptError";
  } catch (const ScriptError &E) {
    EXPECT_EQ(E.LineNo, 17u);
    EXPECT_EQ(E.Message, "'gmod' expects 1 operand(s)");
  }
}

TEST(ScriptDriver, SessionQueriesMatchDirectSessionCalls) {
  demand::DemandSession S(makeProgram());
  DemandSessionQueryTarget Target(S);
  const ir::Program &P = S.program();
  for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
    std::string Name = P.name(ir::ProcId(I));
    QueryResult G = evalQueryCommand(Target, *parseScriptLine("gmod " + Name, 1));
    EXPECT_EQ(G.Text, "GMOD(" + Name + ") = {" +
                          setToString(P, S.gmod(ir::ProcId(I))) + "}");
  }
  QueryResult C = evalQueryCommand(Target, *parseScriptLine("check", 1));
  EXPECT_TRUE(C.CheckOk);
  EXPECT_NE(C.Text.find("check: OK"), std::string::npos);
}

TEST(ScriptDriver, EditScriptLinesReplayAgainstASecondSession) {
  // EditGen stream applied directly to one session; rendered through
  // toScriptLine and replayed by name onto another.  Both must agree —
  // this is the contract that lets the stress/bench drivers feed the
  // service synthetic edits over the wire protocol.
  demand::DemandSession Direct(makeProgram(10, 5, 3));
  demand::DemandSession Replayed(makeProgram(10, 5, 3));
  synth::EditGenConfig Cfg;
  Cfg.Seed = 99;
  synth::EditGen Gen(Cfg);
  for (unsigned I = 0; I != 60; ++I) {
    std::optional<incremental::Edit> E = Gen.next(Direct.program());
    if (!E)
      break;
    std::string Line = incremental::toScriptLine(Direct.program(), *E);
    demand::applyEdit(Direct, *E);
    std::optional<ScriptCommand> Cmd = parseScriptLine(Line, I + 1);
    ASSERT_TRUE(Cmd.has_value()) << Line;
    ASSERT_NO_THROW(applyEditCommand(Replayed, *Cmd)) << Line;
  }
  const ir::Program &P = Direct.program();
  ASSERT_EQ(P.numProcs(), Replayed.program().numProcs());
  ASSERT_EQ(P.numVars(), Replayed.program().numVars());
  for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
    EXPECT_EQ(Direct.gmod(ir::ProcId(I)), Replayed.gmod(ir::ProcId(I)))
        << P.name(ir::ProcId(I));
    EXPECT_EQ(Direct.guse(ir::ProcId(I)), Replayed.guse(ir::ProcId(I)))
        << P.name(ir::ProcId(I));
  }
}

TEST(ScriptDriver, ResolutionErrorsNameTheProblem) {
  demand::DemandSession S(makeProgram());
  try {
    applyEditCommand(S, *parseScriptLine("add-local nope x", 5));
    FAIL() << "expected ScriptError";
  } catch (const ScriptError &E) {
    EXPECT_EQ(E.Message, "unknown procedure 'nope'");
  }
  DemandSessionQueryTarget Target(S);
  EXPECT_THROW(evalQueryCommand(Target, *parseScriptLine("gmod nope", 1)),
               ScriptError);
}

TEST(ScriptDriver, IndicesAreStrictDecimal) {
  // Statement and call-site indices, in queries and in every edit verb,
  // and gen values take decimal digits below 2^32 and nothing else.
  demand::DemandSession S(makeProgram());
  DemandSessionQueryTarget Target(S);
  for (const char *Bad :
       {"mod main 0x", "mod main +0", "use main -1", "mod main 99999999999",
        "mod main 4294967296", "query main#0x", "query main#", "query main#-1"})
    EXPECT_THROW(evalQueryCommand(Target, *parseScriptLine(Bad, 1)),
                 ScriptError)
        << Bad;
  for (const char *Bad : {"add-mod main 0x g0", "rm-mod main +0 g0",
                          "add-use main -0 g0", "rm-use main 1e3 g0",
                          "add-call main 0x p1", "rm-call main -1"})
    EXPECT_THROW(resolveEditCommand(S.program(), *parseScriptLine(Bad, 1)),
                 ScriptError)
        << Bad;
  for (const char *Bad : {"procs=-1", "globals=0x10", "seed=", "depth=+1",
                          "procs=4294967296"})
    EXPECT_THROW(parseGenSpec({Bad}, 1), ScriptError) << Bad;
  try {
    evalQueryCommand(Target, *parseScriptLine("mod main 0x", 3));
    ADD_FAILURE() << "expected ScriptError";
  } catch (const ScriptError &E) {
    EXPECT_EQ(E.LineNo, 3u);
    EXPECT_EQ(E.Message, "'0x' is not a decimal number below 2^32");
  }
  EXPECT_EQ(parseGenSpec({"procs=4294967295"}, 1).NumProcs, 4294967295u);
  EXPECT_NO_THROW(evalQueryCommand(Target, *parseScriptLine("mod main 00", 1)));
}

//===----------------------------------------------------------------------===//
// Snapshot capture.
//===----------------------------------------------------------------------===//

/// Reads counted by expectSnapshotReads.
struct SnapshotReads {
  unsigned Covered = 0, Missed = 0;
};

/// Compares every read a query can make of \p Snap — GMOD, GUSE and RMOD
/// of every procedure, MOD and USE under no aliases of every statement,
/// DMOD of every call site — with a fresh batch analysis of its program
/// and with the live session \p Live.  A covered read must equal both; a
/// read of a procedure \p Snap does not cover must throw UncoveredRead.
SnapshotReads expectSnapshotReads(const AnalysisSnapshot &Snap,
                                  demand::DemandSession &Live) {
  using analysis::EffectKind;
  const ir::Program &P = Snap.program();
  const analysis::BatchAnalysis Batch(P, /*WithUse=*/true);
  const ir::AliasInfo NoAliases(P);
  SnapshotReads R;
  auto Read = [&](bool Covered, auto Got, const auto &Want,
                  const std::string &What) {
    if (!Covered) {
      EXPECT_THROW(Got(), UncoveredRead) << What;
      ++R.Missed;
      return;
    }
    EXPECT_EQ(Got(), Want) << What;
    ++R.Covered;
  };
  auto CalleesCovered = [&](ir::StmtId St, EffectKind Kind) {
    for (ir::CallSiteId C : P.stmt(St).Calls)
      if (!Snap.covered(P.callSite(C).Callee, Kind))
        return false;
    return true;
  };

  for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
    const ir::ProcId Proc(I);
    const std::string Name = P.name(Proc);
    Read(Snap.covered(Proc, EffectKind::Mod),
         [&]() -> EffectSet { return Snap.gmod(Proc); }, Batch.Mod.gmod(Proc),
         "gmod " + Name);
    Read(Snap.covered(Proc, EffectKind::Use),
         [&]() -> EffectSet { return Snap.guse(Proc); },
         Batch.Use->gmod(Proc), "guse " + Name);
    EXPECT_EQ(Live.gmod(Proc), Batch.Mod.gmod(Proc)) << Name;
    EXPECT_EQ(Live.guse(Proc), Batch.Use->gmod(Proc)) << Name;
    for (ir::VarId F : P.proc(Proc).Formals)
      for (EffectKind Kind : {EffectKind::Mod, EffectKind::Use}) {
        const bool Want = Batch.of(Kind).rmodContains(F);
        Read(Snap.covered(Proc, Kind),
             [&] { return Snap.rmodContains(F, Kind); }, Want,
             "rmod " + P.name(F));
        EXPECT_EQ(Live.rmodContains(F, Kind), Want) << P.name(F);
      }
  }
  for (std::uint32_t I = 0; I != P.numStmts(); ++I) {
    const ir::StmtId St(I);
    const std::string What = "stmt " + std::to_string(I);
    // MOD(s) under the empty alias relation is DMOD(s).
    EXPECT_EQ(Batch.Mod.mod(St, NoAliases), Batch.Mod.dmod(St)) << What;
    Read(CalleesCovered(St, EffectKind::Mod),
         [&] { return Snap.modNoAlias(St); }, Batch.Mod.dmod(St),
         "mod " + What);
    Read(CalleesCovered(St, EffectKind::Use),
         [&] { return Snap.useNoAlias(St); }, Batch.Use->dmod(St),
         "use " + What);
    EXPECT_EQ(Live.dmod(St), Batch.Mod.dmod(St)) << What;
    EXPECT_EQ(Live.duse(St), Batch.Use->dmod(St)) << What;
  }
  for (std::uint32_t I = 0; I != P.numCallSites(); ++I) {
    const ir::CallSiteId C(I);
    const std::string What = "call site " + std::to_string(I);
    Read(Snap.covered(P.callSite(C).Callee, EffectKind::Mod),
         [&] { return Snap.dmodSite(C); }, Batch.Mod.dmod(C), What);
    EXPECT_EQ(Live.dmod(C), Batch.Mod.dmod(C)) << What;
  }
  return R;
}

TEST(AnalysisSnapshot, MatchesBatchAnalyzersAndLiveSession) {
  // A snapshot of a fully solved session answers every read.
  {
    demand::DemandSession S(makeProgram());
    S.ensureSolvedAll();
    auto Snap = AnalysisSnapshot::capture(S, S.generation());
    SnapshotReads R = expectSnapshotReads(*Snap, S);
    EXPECT_GT(R.Covered, 0u);
    EXPECT_EQ(R.Missed, 0u);
  }
  // One taken after a query solved only part of the program answers the
  // reads its coverage holds and refuses the rest.  (makeProgram's
  // procedures all depend on one another; a generated program has small
  // regions.)
  synth::ProgramGenConfig Cfg;
  Cfg.NumProcs = 10;
  Cfg.NumGlobals = 5;
  Cfg.Seed = 7;
  unsigned PartialSnapshots = 0;
  for (std::uint32_t I = 0; I != Cfg.NumProcs + 1; ++I) {
    demand::DemandSession S(synth::generateProgram(Cfg));
    S.gmod(ir::ProcId(I));
    if (S.coveredCount(analysis::EffectKind::Mod) == S.program().numProcs())
      continue;
    auto Snap = AnalysisSnapshot::capture(S, S.generation());
    SnapshotReads R = expectSnapshotReads(*Snap, S);
    EXPECT_GT(R.Covered, 0u) << "after gmod of proc " << I;
    EXPECT_GT(R.Missed, 0u) << "after gmod of proc " << I;
    ++PartialSnapshots;
  }
  EXPECT_GT(PartialSnapshots, 0u);
}

/// A snapshot covering every procedure: \p S solved everywhere, then copied.
std::shared_ptr<const AnalysisSnapshot>
fullSnapshot(demand::DemandSession &S, std::uint64_t Generation) {
  S.ensureSolvedAll();
  return AnalysisSnapshot::capture(S, Generation);
}

TEST(AnalysisSnapshot, IsImmuneToLaterSessionEdits) {
  demand::DemandSession S(makeProgram());
  auto Snap = fullSnapshot(S, S.generation());
  std::string Before =
      setToString(Snap->program(), Snap->gmod(S.program().main()));
  std::size_t ProcsBefore = Snap->program().numProcs();

  // Mutate the session heavily; the snapshot must not move.
  ir::VarId G = S.addGlobal("snap_g");
  ir::ProcId NewProc = S.addProc("snap_p", S.program().main());
  ir::StmtId St = S.addStmt(NewProc);
  S.addMod(St, G);
  S.ensureSolvedAll();

  EXPECT_EQ(Snap->program().numProcs(), ProcsBefore);
  EXPECT_EQ(setToString(Snap->program(), Snap->gmod(Snap->program().main())),
            Before);
}

TEST(AnalysisSnapshot, FullPublishCountsNoQueries) {
  // A full-snapshot publish is a whole-program sweep, not N queries: it
  // must not inflate the session's query counters or the exported
  // demand.memo_hits metric, before or after an edit.
  demand::DemandSession S(makeProgram());
  observe::Counter &Hits =
      observe::MetricsRegistry::global().counter("demand.memo_hits");
  const std::uint64_t HitsBefore = Hits.value();
  fullSnapshot(S, S.generation());

  ir::VarId G;
  for (std::uint32_t I = 0; I != S.program().numVars(); ++I)
    if (S.program().var(ir::VarId(I)).Kind == ir::VarKind::Global) {
      G = ir::VarId(I);
      break;
    }
  ASSERT_TRUE(G.isValid());
  S.addMod(S.addStmt(S.program().main()), G);
  auto Snap = fullSnapshot(S, S.generation());
  fullSnapshot(S, S.generation());

  EXPECT_EQ(S.stats().Queries, 0u);
  EXPECT_EQ(S.stats().MemoHits, 0u);
  EXPECT_EQ(Hits.value(), HitsBefore);
  EXPECT_TRUE(Snap->gmod(Snap->program().main()).test(G.index()));
}

//===----------------------------------------------------------------------===//
// The single-program server: the implicit tenant.
//===----------------------------------------------------------------------===//

/// A server hosting makeProgram(...) as its implicit tenant.
std::unique_ptr<TenantService> serveProgram(ir::Program P,
                                            tenant::TenantOptions Opts = {}) {
  return std::make_unique<TenantService>(Opts, std::move(P));
}

TEST(ImplicitTenant, UseQueriesWithoutAUsePipelineAnswerAnError) {
  // `serve --no-use`: a USE query is a clean error reply — against the
  // published snapshot on the inline path and the live engine on the
  // shard path alike — and the server keeps answering everything else.
  const ir::Program Ref = makeProgram();
  const std::string Main = Ref.name(Ref.main());
  const std::string Leaf = Ref.name(ir::ProcId(Ref.numProcs() - 1));
  tenant::TenantOptions Opts;
  Opts.TrackUse = false;
  auto Svc = serveProgram(makeProgram(), Opts);
  for (const std::string &Line :
       {"guse " + Main, "use " + Main + " 0", "guse " + Leaf}) {
    Response R = Svc->call("", Line);
    EXPECT_FALSE(R.Ok) << Line;
    EXPECT_EQ(R.Error, "no USE pipeline (started with --no-use)") << Line;
  }
  Response G = Svc->call("", "gmod " + Main);
  ASSERT_TRUE(G.Ok) << G.Error;
  EXPECT_EQ(G.Result.rfind("GMOD(" + Main + ") = {", 0), 0u) << G.Result;
  Response C = Svc->call("", "check");
  ASSERT_TRUE(C.Ok) << C.Error;
  EXPECT_TRUE(C.CheckOk) << C.Result;
  // The `check` solved everything: these now answer from a snapshot that
  // covers the whole program.
  for (const std::string &Line : {"guse " + Main, "use " + Main + " 0"})
    EXPECT_EQ(Svc->call("", Line).Error,
              "no USE pipeline (started with --no-use)")
        << Line;
  Response E = Svc->call("", "add-global nouse_g");
  EXPECT_TRUE(E.Ok) << E.Error;
  EXPECT_TRUE(Svc->call("", "check").CheckOk);
}

TEST(ImplicitTenant, AnswersQueriesAndAppliesEdits) {
  auto Svc = serveProgram(makeProgram());

  demand::DemandSession Ref(makeProgram());
  std::string MainName = Ref.program().name(Ref.program().main());

  Response R = Svc->call("", "gmod " + MainName);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Generation, 0u);
  EXPECT_EQ(R.Result, "GMOD(" + MainName + ") = {" +
                          setToString(Ref.program(),
                                      Ref.gmod(Ref.program().main())) +
                          "}");

  Response E = Svc->call("", "add-global svc_g");
  ASSERT_TRUE(E.Ok) << E.Error;
  EXPECT_EQ(E.Generation, 1u);
  EXPECT_EQ(Svc->generation(""), 1u);

  Response C = Svc->call("", "check");
  ASSERT_TRUE(C.Ok) << C.Error;
  EXPECT_TRUE(C.CheckOk) << C.Result;
  EXPECT_EQ(C.Generation, 1u);

  Response Bad = Svc->call("", "gmod nope");
  EXPECT_FALSE(Bad.Ok);
  EXPECT_EQ(Bad.Error, "unknown procedure 'nope'");
  EXPECT_EQ(Bad.Generation, 1u);

  Response Parse = Svc->call("", "definitely-not-a-command");
  EXPECT_FALSE(Parse.Ok);
  EXPECT_EQ(Parse.Generation, 1u);

  Response NotServed = Svc->call("", "load x.mp");
  EXPECT_FALSE(NotServed.Ok);
  EXPECT_EQ(NotServed.Error, "command not available while serving");
  EXPECT_EQ(NotServed.Generation, 1u);

  Response Stats = Svc->call("", "stats");
  ASSERT_TRUE(Stats.Ok);
  EXPECT_TRUE(Stats.ResultIsJson);
  EXPECT_EQ(Stats.Generation, 1u);
  std::string Err;
  auto Obj = parseJsonObject(Stats.Result, Err);
  ASSERT_TRUE(Obj.has_value()) << Err << " in " << Stats.Result;
  EXPECT_EQ(Obj->getUInt("edits"), 1u);
  EXPECT_EQ(Obj->getUInt("tenants"), 1u);

  tenant::TenantCounters Cnt = Svc->counters();
  EXPECT_EQ(Cnt.Edits, 1u);
  EXPECT_GE(Cnt.Errors, 3u);
}

//===----------------------------------------------------------------------===//
// Request-scoped tracing through the server.
//===----------------------------------------------------------------------===//

/// Copies each span's identity out of the live SpanRecord (Tags is only
/// valid during onSpan).  Reader and shard threads both deliver here.
struct ServiceTagSink : observe::TraceSink {
  struct Row {
    std::string Name;
    std::string TraceId;
    std::uint64_t Generation;
  };
  std::mutex M;
  std::vector<Row> Rows;
  void onSpan(const observe::SpanRecord &R) override {
    std::lock_guard<std::mutex> Lock(M);
    Rows.push_back({R.Name, R.Tags ? R.Tags->TraceId : std::string(),
                    R.Tags ? R.Tags->Generation : 0});
  }
  std::vector<Row> named(const std::string &Name) {
    std::lock_guard<std::mutex> Lock(M);
    std::vector<Row> Out;
    for (const Row &R : Rows)
      if (R.Name == Name)
        Out.push_back(R);
    return Out;
  }
};

TEST(ImplicitTenant, EchoesTraceIdsAndTagsSpans) {
  ServiceTagSink Sink;
  tenant::TenantOptions Opts;
  Opts.Sink = &Sink;
  auto Svc = serveProgram(makeProgram(), Opts);

  Response Q = Svc->call("", "gmod main", "req-q");
  ASSERT_TRUE(Q.Ok) << Q.Error;
  EXPECT_EQ(Q.TraceId, "req-q");

  Response E = Svc->call("", "add-global trace_g", "req-e");
  ASSERT_TRUE(E.Ok) << E.Error;
  EXPECT_EQ(E.TraceId, "req-e");
  EXPECT_EQ(E.Generation, 1u);

  // Inline verbs and inline errors echo too.
  EXPECT_EQ(Svc->call("", "stats", "req-s").TraceId, "req-s");
  EXPECT_EQ(Svc->call("", "load x.mp", "req-x").TraceId, "req-x");
  // No trace supplied: none invented at this layer.
  EXPECT_EQ(Svc->call("", "gmod main").TraceId, "");

  if (!observe::enabled())
    return;
  // The query's evaluation span carries its trace id and the snapshot
  // generation that answered it (0: before the edit).
  std::vector<ServiceTagSink::Row> Queries = Sink.named("tenant.query");
  bool SawQuery = false;
  for (const ServiceTagSink::Row &R : Queries)
    if (R.TraceId == "req-q") {
      SawQuery = true;
      EXPECT_EQ(R.Generation, 0u);
    }
  EXPECT_TRUE(SawQuery);
  // The flush span carries the editing request's id and the generation it
  // produced.
  std::vector<ServiceTagSink::Row> Flushes = Sink.named("tenant.flush");
  ASSERT_FALSE(Flushes.empty());
  EXPECT_EQ(Flushes[0].TraceId, "req-e");
  EXPECT_EQ(Flushes[0].Generation, 1u);
}

TEST(AnalysisSnapshot, CheckRefusesBeforeBuildingItsBatchAnalysis) {
  // A snapshot of a session nothing has solved covers nothing: `check`
  // misses at its first read, before its batch analysis records a span.
  demand::DemandSession S(makeProgram());
  auto Snap = AnalysisSnapshot::capture(S, S.generation());
  ServiceTagSink Sink;
  {
    observe::TraceScope Scope(nullptr, &Sink);
    EXPECT_THROW(evalQueryCommand(*Snap, *parseScriptLine("check", 1)),
                 UncoveredRead);
  }
  EXPECT_TRUE(Sink.Rows.empty());
  // Solved everywhere, the same session's snapshot checks out.
  EXPECT_TRUE(
      evalQueryCommand(*fullSnapshot(S, S.generation()),
                       *parseScriptLine("check", 1))
          .CheckOk);
}

TEST(ImplicitTenant, MetricsVerbSpeaksJsonAndPrometheus) {
  auto Svc = serveProgram(makeProgram());
  // Touch the latency paths so the exported histograms are non-trivial.
  ASSERT_TRUE(Svc->call("", "gmod main").Ok);
  ASSERT_TRUE(Svc->call("", "add-global prom_g").Ok);

  Response Json = Svc->call("", "metrics");
  ASSERT_TRUE(Json.Ok) << Json.Error;
  EXPECT_TRUE(Json.ResultIsJson);
  std::string Err;
  ASSERT_TRUE(parseJsonObject(Json.Result, Err).has_value())
      << Err << " in " << Json.Result;

  Response Prom = Svc->call("", "metrics --format=prom");
  ASSERT_TRUE(Prom.Ok) << Prom.Error;
  // Prometheus text is a plain string payload, not a JSON object.
  EXPECT_FALSE(Prom.ResultIsJson);
  EXPECT_NE(Prom.Result.find("# TYPE"), std::string::npos) << Prom.Result;
  EXPECT_NE(Prom.Result.find("ipse_tenant_read_lat_us_bucket"),
            std::string::npos)
      << Prom.Result;
  EXPECT_NE(Prom.Result.find("ipse_tenant_write_lat_us_count"),
            std::string::npos)
      << Prom.Result;
}

//===----------------------------------------------------------------------===//
// TCP front end.
//===----------------------------------------------------------------------===//

TEST(Server, RenderedResponsesParseBack) {
  Response R;
  R.Id = 9;
  R.Ok = true;
  R.Generation = 4;
  R.Result = "GMOD(p) = {a}";
  std::string Line = renderResponse(R);
  std::string Err;
  auto Obj = parseJsonObject(Line, Err);
  ASSERT_TRUE(Obj.has_value()) << Err;
  EXPECT_EQ(Obj->getUInt("id"), 9u);
  EXPECT_EQ(Obj->getBool("ok"), true);
  EXPECT_EQ(Obj->getUInt("gen"), 4u);
  EXPECT_EQ(Obj->getString("result"), "GMOD(p) = {a}");

  Response Retry;
  Retry.Ok = false;
  Retry.Retry = true;
  Retry.Error = "overloaded";
  auto RObj = parseJsonObject(renderResponse(Retry), Err);
  ASSERT_TRUE(RObj.has_value());
  EXPECT_EQ(RObj->getBool("retry"), true);
  EXPECT_EQ(RObj->getString("error"), "overloaded");
}

/// Runs \p Script through runClient against \p Port; returns the output.
std::string runScript(std::uint16_t Port, std::string Script, int &Exit) {
  std::FILE *In = fmemopen(Script.data(), Script.size(), "r");
  EXPECT_NE(In, nullptr);
  char *OutBuf = nullptr;
  std::size_t OutLen = 0;
  std::FILE *Out = open_memstream(&OutBuf, &OutLen);
  EXPECT_NE(Out, nullptr);
  Exit = runClient(Port, In, Out);
  std::fclose(In);
  std::fclose(Out);
  std::string Output(OutBuf, OutLen);
  std::free(OutBuf);
  return Output;
}

TEST(Server, TcpRoundTripThroughLineClient) {
  auto Svc = serveProgram(makeProgram());
  TcpServer Server(tenant::tenantConnectionHandler(*Svc));
  std::string Error;
  ASSERT_TRUE(Server.start(0, Error)) << Error;
  ASSERT_NE(Server.port(), 0);

  int Exit = 0;
  std::string Output = runScript(Server.port(),
                                 "gmod main\n"
                                 "add-global tcp_g\n"
                                 "gmod main\n"
                                 "check\n"
                                 "# a comment line\n"
                                 "\n",
                                 Exit);
  EXPECT_EQ(Exit, 0) << Output;
  EXPECT_NE(Output.find("\"result\":\"GMOD(main) = {"), std::string::npos)
      << Output;
  EXPECT_NE(Output.find("check: OK"), std::string::npos) << Output;
  EXPECT_EQ(Output.find("\"ok\":false"), std::string::npos) << Output;
  // Four commands -> four response lines (comments/blanks are free).
  EXPECT_EQ(std::count(Output.begin(), Output.end(), '\n'), 4);

  Server.stop();
  EXPECT_EQ(Svc->counters().Edits, 1u);
}

TEST(Server, ScriptErrorsComeBackAsErrorResponses) {
  auto Svc = serveProgram(makeProgram());
  TcpServer Server(tenant::tenantConnectionHandler(*Svc));
  std::string Error;
  ASSERT_TRUE(Server.start(0, Error)) << Error;

  int Exit = 0;
  std::string Output = runScript(Server.port(), "gmod nope\n", Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Output.find("unknown procedure 'nope'"), std::string::npos)
      << Output;
  Server.stop();
}

TEST(Server, RmProcPreconditionsComeBackAsErrorsAndTheServerKeepsAnswering) {
  // main calls outer, which nests and calls inner; leaf is never called.
  ir::ProgramBuilder B;
  ir::ProcId Main = B.createMain("main");
  ir::VarId G = B.addGlobal("g");
  ir::ProcId Outer = B.createProc("outer", Main);
  ir::ProcId Inner = B.createProc("inner", Outer);
  ir::ProcId Leaf = B.createProc("leaf", Main);
  B.addMod(B.addStmt(Inner), G);
  B.addMod(B.addStmt(Leaf), G);
  B.addCallStmt(Main, Outer, {});
  B.addCallStmt(Outer, Inner, {});

  auto Svc = serveProgram(B.finish());
  TcpServer Server(tenant::tenantConnectionHandler(*Svc));
  std::string Error;
  ASSERT_TRUE(Server.start(0, Error)) << Error;

  int Exit = 0;
  std::string Output = runScript(Server.port(),
                                 "rm-proc inner\n"
                                 "rm-proc outer\n"
                                 "rm-proc main\n"
                                 "gmod main\n"
                                 "rm-proc leaf\n"
                                 "check\n",
                                 Exit);
  EXPECT_EQ(Exit, 1) << Output; // Three refusals.
  EXPECT_NE(Output.find("cannot remove 'inner': 'outer' calls it"),
            std::string::npos)
      << Output;
  EXPECT_NE(Output.find("cannot remove 'outer': it has nested procedures"),
            std::string::npos)
      << Output;
  EXPECT_NE(Output.find("cannot remove the main program 'main'"),
            std::string::npos)
      << Output;
  // The server survived all three and keeps answering: the query, the
  // legal removal and the check all succeed.
  EXPECT_NE(Output.find("\"result\":\"GMOD(main) = {g}\""),
            std::string::npos)
      << Output;
  EXPECT_NE(Output.find("check: OK"), std::string::npos) << Output;
  EXPECT_EQ(std::count(Output.begin(), Output.end(), '\n'), 6) << Output;
  Server.stop();
}

TEST(Server, TraceIdsAreEchoedOrServerAssigned) {
  auto Svc = serveProgram(makeProgram());
  tenant::TenantConnection Conn;

  std::mutex M;
  std::condition_variable Emitted;
  std::vector<std::string> Lines;
  auto Emit = [&](const std::string &L) {
    std::lock_guard<std::mutex> Lock(M);
    Lines.push_back(L);
    Emitted.notify_all();
  };
  tenant::handleTenantRequestLine(
      *Svc, Conn, R"({"id":1,"cmd":"gmod main","trace":"cli-7"})", Emit);
  tenant::handleTenantRequestLine(*Svc, Conn, R"({"id":2,"cmd":"rmod main"})",
                                  Emit);
  // Inline error paths carry the trace too.
  tenant::handleTenantRequestLine(
      *Svc, Conn, R"({"id":3,"cmd":"load x.mp","trace":"cli-9"})", Emit);

  // Resident queries answer on the calling thread, but wait regardless:
  // for the third response, not for a span of wall time.  The bound only
  // keeps a lost response from hanging the suite.
  std::unique_lock<std::mutex> Lock(M);
  Emitted.wait_for(Lock, std::chrono::minutes(1),
                   [&] { return Lines.size() == 3; });
  ASSERT_EQ(Lines.size(), 3u);

  std::map<std::uint64_t, JsonObject> ById;
  for (const std::string &L : Lines) {
    std::string Err;
    auto Obj = parseJsonObject(L, Err);
    ASSERT_TRUE(Obj.has_value()) << Err << " in " << L;
    ById.emplace(*Obj->getUInt("id"), *Obj);
  }
  // Client-supplied ids come back verbatim.
  EXPECT_EQ(ById.at(1).getString("trace"), "cli-7");
  EXPECT_EQ(ById.at(3).getString("trace"), "cli-9");
  EXPECT_EQ(ById.at(3).getBool("ok"), false);
  // No trace supplied: the server assigns one ("t<N>").
  std::optional<std::string> Assigned = ById.at(2).getString("trace");
  ASSERT_TRUE(Assigned.has_value());
  EXPECT_EQ(Assigned->front(), 't');
  EXPECT_GT(Assigned->size(), 1u);
}

TEST(Server, MetricsAndStatsFlowOverTcp) {
  auto Svc = serveProgram(makeProgram());
  TcpServer Server(tenant::tenantConnectionHandler(*Svc));
  std::string Error;
  ASSERT_TRUE(Server.start(0, Error)) << Error;

  // The line client: stats and both metrics formats are served inline
  // over the wire, and every request carries a client trace id.
  int Exit = 0;
  std::string Output = runScript(Server.port(),
                                 "gmod main\n"
                                 "stats\n"
                                 "metrics\n"
                                 "metrics --format=prom\n",
                                 Exit);
  EXPECT_EQ(Exit, 0) << Output;
  EXPECT_NE(Output.find("\"edits\":"), std::string::npos) << Output;
  EXPECT_NE(Output.find("\"counters\""), std::string::npos) << Output;
  EXPECT_NE(Output.find("# TYPE"), std::string::npos) << Output;
  EXPECT_NE(Output.find("\"trace\":\"c1\""), std::string::npos) << Output;

  // The one-shot metrics scraper, both formats.
  char *DumpBuf = nullptr;
  std::size_t DumpLen = 0;
  std::FILE *Dump = open_memstream(&DumpBuf, &DumpLen);
  EXPECT_EQ(runMetricsDump(Server.port(), /*Prom=*/true, Dump), 0);
  std::fclose(Dump);
  std::string Prom(DumpBuf, DumpLen);
  std::free(DumpBuf);
  EXPECT_NE(Prom.find("# TYPE"), std::string::npos) << Prom;
  EXPECT_NE(Prom.find("ipse_tenant_read_lat_us_count"), std::string::npos)
      << Prom;
  // Decoded payload, not a protocol envelope.
  EXPECT_EQ(Prom.find("\"ok\""), std::string::npos) << Prom;

  Dump = open_memstream(&DumpBuf, &DumpLen);
  EXPECT_EQ(runMetricsDump(Server.port(), /*Prom=*/false, Dump), 0);
  std::fclose(Dump);
  std::string Json(DumpBuf, DumpLen);
  std::free(DumpBuf);
  std::string Err;
  ASSERT_TRUE(parseJsonObject(Json, Err).has_value()) << Err << " in " << Json;
  EXPECT_NE(Json.find("\"histograms\""), std::string::npos) << Json;

  Server.stop();
  // Nobody is listening afterwards: the dump fails cleanly.
  std::FILE *Null = std::fopen("/dev/null", "w");
  EXPECT_EQ(runMetricsDump(Server.port(), true, Null), 1);
  std::fclose(Null);
}

/// This process's virtual size in KiB (/proc/self/status VmSize).
std::uint64_t vmSizeKiB() {
  std::ifstream In("/proc/self/status");
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind("VmSize:", 0) == 0)
      return std::strtoull(Line.c_str() + 7, nullptr, 10);
  return 0;
}

TEST(Server, FinishedConnectionsAreReaped) {
  // Each finished connection used to keep an unjoined thread — and its
  // whole stack — until stop(): a server scraped by metrics-dump grew by
  // one stack per scrape.  Finished connections must be reaped instead.
  auto Svc = serveProgram(makeProgram());
  TcpServer Server(tenant::tenantConnectionHandler(*Svc));
  std::string Error;
  ASSERT_TRUE(Server.start(0, Error)) << Error;
  std::FILE *Null = std::fopen("/dev/null", "w");
  ASSERT_EQ(runMetricsDump(Server.port(), /*Prom=*/false, Null), 0);
  const std::uint64_t Before = vmSizeKiB();
  ASSERT_GT(Before, 0u);
  for (int I = 0; I != 200; ++I)
    ASSERT_EQ(runMetricsDump(Server.port(), /*Prom=*/false, Null), 0) << I;
  const std::uint64_t After = vmSizeKiB();
  std::fclose(Null);
  EXPECT_LT(After, Before + 128 * 1024)
      << "VmSize grew from " << Before << " KiB to " << After << " KiB";
  Server.stop();
}

//===----------------------------------------------------------------------===//
// Randomized concurrency stress: every response must be bit-for-bit
// consistent with the snapshot of the generation it cites.  This is the
// TSan workload in CI.
//===----------------------------------------------------------------------===//

TEST(ServiceStress, EveryResponseMatchesItsSnapshotGeneration) {
  tenant::TenantOptions Opts;
  Opts.QueueCapacity = 128;
  auto Svc = serveProgram(makeProgram(24, 8, 11), Opts);

  // Edits are serial, so generation G is the state after G edits: a
  // mirror session that applies the same edits yields the expected
  // snapshot of every generation the server can publish.
  demand::DemandSession Mirror(makeProgram(24, 8, 11));
  std::map<std::uint64_t, std::shared_ptr<const AnalysisSnapshot>> History;
  History[Mirror.generation()] =
      fullSnapshot(Mirror, Mirror.generation());

  // Query pool drawn from the initial program; later generations may
  // invalidate some names (rm-proc), which must surface as clean error
  // responses, never as torn data.
  std::vector<std::string> Pool;
  {
    const ir::Program &P = Mirror.program();
    for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
      std::string N = P.name(ir::ProcId(I));
      Pool.push_back("gmod " + N);
      Pool.push_back("guse " + N);
      Pool.push_back("rmod " + N);
      Pool.push_back("mod " + N + " 0");
      Pool.push_back("use " + N + " 1");
    }
  }

  constexpr unsigned NumReaders = 4;
  constexpr unsigned QueriesPerReader = 120;
  constexpr unsigned NumEdits = 50;
  struct Logged {
    std::string Cmd;
    Response R;
  };
  std::vector<std::vector<Logged>> Logs(NumReaders);
  std::vector<std::thread> Readers;
  for (unsigned T = 0; T != NumReaders; ++T)
    Readers.emplace_back([&, T] {
      Rng R(1000 + T);
      Logs[T].reserve(QueriesPerReader);
      for (unsigned I = 0; I != QueriesPerReader; ++I) {
        const std::string &Cmd = Pool[R.next() % Pool.size()];
        Logs[T].push_back({Cmd, Svc->call("", Cmd)});
      }
    });

  // Main thread is the edit stream: EditGen against the mirror's program,
  // shipped through the script grammar like a real client.
  synth::EditGenConfig ECfg;
  ECfg.Seed = 77;
  synth::EditGen Gen(ECfg);
  unsigned EditsApplied = 0;
  for (unsigned I = 0; I != NumEdits; ++I) {
    std::optional<incremental::Edit> E = Gen.next(Mirror.program());
    if (!E)
      break;
    std::string Line = incremental::toScriptLine(Mirror.program(), *E);
    demand::applyEdit(Mirror, *E);
    Response R = Svc->call("", Line);
    ASSERT_TRUE(R.Ok) << R.Error << " for " << Line;
    ASSERT_EQ(R.Generation, Mirror.generation()) << Line;
    History[R.Generation] = fullSnapshot(Mirror, R.Generation);
    ++EditsApplied;
  }
  for (std::thread &T : Readers)
    T.join();
  ASSERT_GT(EditsApplied, 0u);

  Response Final = Svc->call("", "check");
  ASSERT_TRUE(Final.Ok) << Final.Error;
  EXPECT_TRUE(Final.CheckOk) << Final.Result;

  // Replay: each response must reproduce exactly against the snapshot of
  // its generation — same text for successes, same message for errors.
  unsigned Replayed = 0;
  for (const auto &Log : Logs)
    for (const Logged &L : Log) {
      auto It = History.find(L.R.Generation);
      ASSERT_NE(It, History.end())
          << "response cites unknown generation " << L.R.Generation;
      std::optional<ScriptCommand> Cmd = parseScriptLine(L.Cmd, 0);
      ASSERT_TRUE(Cmd.has_value());
      try {
        QueryResult QR = evalQueryCommand(*It->second, *Cmd);
        EXPECT_TRUE(L.R.Ok) << L.Cmd << " gen " << L.R.Generation;
        EXPECT_EQ(QR.Text, L.R.Result)
            << L.Cmd << " torn at gen " << L.R.Generation;
      } catch (const ScriptError &E) {
        EXPECT_FALSE(L.R.Ok) << L.Cmd << " gen " << L.R.Generation;
        EXPECT_EQ(E.Message, L.R.Error) << L.Cmd;
      }
      ++Replayed;
    }
  EXPECT_EQ(Replayed, NumReaders * QueriesPerReader);

  // Independently, every expected snapshot must equal a fresh batch run
  // over its own program copy.
  for (const auto &[Gen2, Snap] : History) {
    const ir::Program &P = Snap->program();
    analysis::SideEffectAnalyzer Mod(P);
    for (std::uint32_t I = 0; I != P.numProcs(); ++I)
      ASSERT_EQ(Snap->gmod(ir::ProcId(I)), Mod.gmod(ir::ProcId(I)))
          << "snapshot gen " << Gen2 << " proc " << P.name(ir::ProcId(I));
  }
}

} // namespace
