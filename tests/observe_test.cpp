//===- tests/observe_test.cpp - Observability layer tests ---------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
//
// The tracing/metrics layer: span nesting and delivery, CostReport
// aggregation, the JSON-lines sink round-trip, registry thread-safety,
// and — the load-bearing property — that observing an analysis never
// changes its results, on any engine, and that the ipse::Analyzer facade
// renders byte-identical reports on every engine with profiling on or off.
//
// Span-content assertions are guarded on observe::enabled() so the suite
// also passes under -DIPSE_OBSERVE=OFF, where spans compile to nothing.
//
//===----------------------------------------------------------------------===//

#include "SolverMatrix.h"
#include "api/Ipse.h"
#include "observe/CostReport.h"
#include "observe/Metrics.h"
#include "observe/Trace.h"
#include "support/Json.h"
#include "synth/ProgramGen.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

using namespace ipse;
using analysis::EffectKind;

namespace {

/// A sink that just remembers every closed span.
struct CollectingSink : observe::TraceSink {
  std::vector<observe::SpanRecord> Records;
  void onSpan(const observe::SpanRecord &R) override { Records.push_back(R); }
};

//===----------------------------------------------------------------------===//
// Spans and scopes.
//===----------------------------------------------------------------------===//

TEST(Trace, SpansNestAndCloseInnermostFirst) {
  if (!observe::enabled())
    GTEST_SKIP() << "built with IPSE_OBSERVE=OFF";
  CollectingSink Sink;
  {
    observe::TraceScope Scope(nullptr, &Sink);
    observe::TraceSpan Outer("outer");
    { observe::TraceSpan Inner("inner"); }
    { observe::TraceSpan Inner("inner"); }
  }
  ASSERT_EQ(Sink.Records.size(), 3u);
  EXPECT_STREQ(Sink.Records[0].Name, "inner");
  EXPECT_EQ(Sink.Records[0].Depth, 1u);
  EXPECT_STREQ(Sink.Records[1].Name, "inner");
  EXPECT_EQ(Sink.Records[1].Depth, 1u);
  EXPECT_STREQ(Sink.Records[2].Name, "outer");
  EXPECT_EQ(Sink.Records[2].Depth, 0u);
  // A span's window covers its children.
  EXPECT_GE(Sink.Records[2].WallNs,
            Sink.Records[0].WallNs + Sink.Records[1].WallNs);
}

TEST(Trace, NoScopeMeansNoDelivery) {
  if (!observe::enabled())
    GTEST_SKIP() << "built with IPSE_OBSERVE=OFF";
  // No TraceScope installed: spans must be inert (and must not crash).
  observe::TraceSpan S("orphan");
  S.closeNow();
  observe::ManualSpan M("orphan");
  M.close();
  observe::addCounter("orphan", 1);
}

TEST(Trace, ManualSpanClosesExactlyOnce) {
  if (!observe::enabled())
    GTEST_SKIP() << "built with IPSE_OBSERVE=OFF";
  CollectingSink Sink;
  {
    observe::TraceScope Scope(nullptr, &Sink);
    observe::ManualSpan M("phase");
    M.close();
    M.close(); // idempotent; the destructor must not re-emit either
  }
  ASSERT_EQ(Sink.Records.size(), 1u);
  EXPECT_STREQ(Sink.Records[0].Name, "phase");
}

TEST(Trace, ScopesShadowAndRestore) {
  if (!observe::enabled())
    GTEST_SKIP() << "built with IPSE_OBSERVE=OFF";
  CollectingSink OuterSink, InnerSink;
  {
    observe::TraceScope Outer(nullptr, &OuterSink);
    {
      observe::TraceScope Inner(nullptr, &InnerSink);
      observe::TraceSpan S("shadowed");
    }
    observe::TraceSpan S("restored");
  }
  ASSERT_EQ(InnerSink.Records.size(), 1u);
  EXPECT_STREQ(InnerSink.Records[0].Name, "shadowed");
  ASSERT_EQ(OuterSink.Records.size(), 1u);
  EXPECT_STREQ(OuterSink.Records[0].Name, "restored");
}

//===----------------------------------------------------------------------===//
// CostReport (plain data, compiled under OFF as well).
//===----------------------------------------------------------------------===//

TEST(CostReport, AggregatesByPhaseName) {
  observe::CostReport R;
  observe::SpanRecord A;
  A.Name = "gmod";
  A.WallNs = 100;
  A.BitOps = 5;
  R.addSpan(A);
  R.addSpan(A);
  observe::SpanRecord B;
  B.Name = "rmod";
  B.WallNs = 40;
  R.addSpan(B);
  R.addCounter("steps", 3);
  R.addCounter("steps", 4);

  ASSERT_NE(R.phase("gmod"), nullptr);
  EXPECT_EQ(R.phase("gmod")->Count, 2u);
  EXPECT_EQ(R.phase("gmod")->WallNs, 200u);
  EXPECT_EQ(R.phase("gmod")->BitOps, 10u);
  EXPECT_EQ(R.phase("missing"), nullptr);
  EXPECT_EQ(R.counter("steps"), 7u);
  EXPECT_EQ(R.counter("missing"), 0u);

  observe::CostReport Other;
  Other.addSpan(A);
  Other.addCounter("steps", 10);
  R.merge(Other);
  EXPECT_EQ(R.phase("gmod")->Count, 3u);
  EXPECT_EQ(R.counter("steps"), 17u);

  // Rows keep first-seen order (pipeline order for one thread).
  ASSERT_EQ(R.phases().size(), 2u);
  EXPECT_EQ(R.phases()[0].Name, "gmod");
  EXPECT_EQ(R.phases()[1].Name, "rmod");

  std::string Text = R.toText();
  EXPECT_NE(Text.find("gmod"), std::string::npos);
  EXPECT_NE(Text.find("steps"), std::string::npos);
  std::string Json = R.toJson();
  EXPECT_NE(Json.find("\"phases\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"gmod\""), std::string::npos);
  EXPECT_NE(Json.find("\"steps\":17"), std::string::npos);
}

TEST(CostReport, ScopeAccumulatesSpansAndCounters) {
  observe::CostReport R;
  {
    observe::TraceScope Scope(&R);
    { observe::TraceSpan S("alpha"); }
    { observe::TraceSpan S("alpha"); }
    observe::addCounter("beta", 21);
  }
  if (!observe::enabled()) {
    EXPECT_TRUE(R.empty());
    return;
  }
  ASSERT_NE(R.phase("alpha"), nullptr);
  EXPECT_EQ(R.phase("alpha")->Count, 2u);
  EXPECT_EQ(R.counter("beta"), 21u);
}

//===----------------------------------------------------------------------===//
// Metrics registry (functional even under OFF).
//===----------------------------------------------------------------------===//

TEST(Metrics, CountersAreMonotoneUnderThreads) {
  observe::MetricsRegistry Reg;
  constexpr unsigned Threads = 4, PerThread = 10000;
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&Reg] {
      // get-or-create races on the same name must hand back one counter.
      observe::Counter &C = Reg.counter("test.events");
      for (unsigned I = 0; I != PerThread; ++I)
        C.add();
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(Reg.counter("test.events").value(),
            std::uint64_t(Threads) * PerThread);
}

TEST(Metrics, ReferencesStayStableAcrossRegistrations) {
  observe::MetricsRegistry Reg;
  observe::Counter &A = Reg.counter("a");
  A.add(7);
  for (int I = 0; I != 100; ++I)
    Reg.counter("fill." + std::to_string(I));
  EXPECT_EQ(&A, &Reg.counter("a"));
  EXPECT_EQ(Reg.counter("a").value(), 7u);
}

TEST(Metrics, GaugesHistogramsAndJson) {
  observe::MetricsRegistry Reg;
  Reg.counter("c").add(3);
  Reg.gauge("g").set(-5);
  Reg.gauge("g").add(2);
  Reg.histogram("h").record(100);
  Reg.histogram("h").record(200);

  std::string Json = Reg.toJson();
  EXPECT_NE(Json.find("\"c\":3"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"g\":-3"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"h\":{"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"count\":2"), std::string::npos) << Json;
}

//===----------------------------------------------------------------------===//
// JSON-lines sink round-trip.
//===----------------------------------------------------------------------===//

TEST(JsonLinesSink, RoundTripsThroughTheFlatJsonParser) {
  if (!observe::enabled())
    GTEST_SKIP() << "built with IPSE_OBSERVE=OFF";
  std::string Path = testing::TempDir() + "/ipse_observe_trace.jsonl";
  std::string Error;
  std::unique_ptr<observe::JsonLinesSink> Sink =
      observe::JsonLinesSink::open(Path, Error);
  ASSERT_NE(Sink, nullptr) << Error;
  {
    observe::TraceScope Scope(nullptr, Sink.get());
    { observe::TraceSpan S("alpha"); }
    { observe::TraceSpan S("beta"); }
  }
  Sink.reset(); // closes the file

  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::vector<std::string> Names;
  std::string Line;
  while (std::getline(In, Line)) {
    std::string ParseError;
    std::optional<JsonObject> Obj =
        parseJsonObject(Line, ParseError);
    ASSERT_TRUE(Obj.has_value()) << Line << ": " << ParseError;
    ASSERT_TRUE(Obj->getString("span").has_value()) << Line;
    EXPECT_TRUE(Obj->getUInt("depth").has_value()) << Line;
    EXPECT_TRUE(Obj->getUInt("start_ns").has_value()) << Line;
    EXPECT_TRUE(Obj->getUInt("wall_ns").has_value()) << Line;
    EXPECT_TRUE(Obj->getUInt("bv_ops").has_value()) << Line;
    Names.push_back(*Obj->getString("span"));
  }
  ASSERT_EQ(Names.size(), 2u);
  EXPECT_EQ(Names[0], "alpha");
  EXPECT_EQ(Names[1], "beta");
  std::remove(Path.c_str());
}

TEST(JsonLinesSink, OpenFailureReportsError) {
  std::string Error;
  EXPECT_EQ(observe::JsonLinesSink::open("/nonexistent-dir/x.jsonl", Error),
            nullptr);
  EXPECT_FALSE(Error.empty());
}

//===----------------------------------------------------------------------===//
// Request tags and thread ids on spans.
//===----------------------------------------------------------------------===//

/// SpanRecord.Tags points into the live TraceScope, so a sink that wants
/// them past onSpan() must copy — which is also what this sink asserts.
struct TagCollectingSink : observe::TraceSink {
  struct Row {
    std::string Name;
    std::uint32_t Tid;
    bool Tagged;
    std::string TraceId;
    std::uint64_t Generation;
  };
  std::vector<Row> Rows;
  void onSpan(const observe::SpanRecord &R) override {
    Rows.push_back({R.Name, R.Tid, R.Tags != nullptr,
                    R.Tags ? R.Tags->TraceId : std::string(),
                    R.Tags ? R.Tags->Generation : 0});
  }
};

TEST(Trace, TaggedScopeStampsEverySpan) {
  if (!observe::enabled())
    GTEST_SKIP() << "built with IPSE_OBSERVE=OFF";
  TagCollectingSink Sink;
  {
    observe::TraceScope Scope(nullptr, &Sink,
                              observe::ScopeTags{"req-42", 7, {}});
    observe::TraceSpan Outer("outer");
    { observe::TraceSpan Inner("inner"); }
  }
  {
    // An untagged scope delivers spans with no tags.
    observe::TraceScope Scope(nullptr, &Sink);
    observe::TraceSpan S("untagged");
  }
  ASSERT_EQ(Sink.Rows.size(), 3u);
  for (unsigned I = 0; I != 2; ++I) {
    EXPECT_TRUE(Sink.Rows[I].Tagged) << Sink.Rows[I].Name;
    EXPECT_EQ(Sink.Rows[I].TraceId, "req-42");
    EXPECT_EQ(Sink.Rows[I].Generation, 7u);
    EXPECT_EQ(Sink.Rows[I].Tid, observe::currentTid());
  }
  EXPECT_FALSE(Sink.Rows[2].Tagged);
}

TEST(Trace, CurrentTidIsStablePerThreadAndDistinctAcrossThreads) {
  std::uint32_t Mine = observe::currentTid();
  EXPECT_GT(Mine, 0u);
  EXPECT_EQ(observe::currentTid(), Mine);
  std::uint32_t Other = 0;
  std::thread([&Other] { Other = observe::currentTid(); }).join();
  EXPECT_GT(Other, 0u);
  EXPECT_NE(Other, Mine);
}

//===----------------------------------------------------------------------===//
// Chrome Trace Event sink.
//===----------------------------------------------------------------------===//

std::string slurpFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

TEST(ChromeTraceSink, FileIsAValidJsonDocumentAtEveryMoment) {
  if (!observe::enabled())
    GTEST_SKIP() << "built with IPSE_OBSERVE=OFF";
  std::string Path = testing::TempDir() + "/ipse_observe_trace.chrome.json";
  std::string Error;
  std::unique_ptr<observe::ChromeTraceSink> Sink =
      observe::ChromeTraceSink::open(Path, Error);
  ASSERT_NE(Sink, nullptr) << Error;

  // Empty trace: already a well-formed (empty) array.
  std::string Doc = slurpFile(Path);
  EXPECT_TRUE(validateJsonDocument(Doc, Error)) << Error << Doc;

  {
    observe::TraceScope Scope(nullptr, Sink.get(),
                              observe::ScopeTags{"q1", 3, {}});
    { observe::TraceSpan S("alpha"); }
    // Mid-stream, with the sink still open and more spans to come: the
    // file must parse as-is (the crash-durability property).
    Doc = slurpFile(Path);
    EXPECT_TRUE(validateJsonDocument(Doc, Error)) << Error << Doc;
    { observe::TraceSpan S("beta"); }
  }
  Sink.reset();

  Doc = slurpFile(Path);
  ASSERT_TRUE(validateJsonDocument(Doc, Error)) << Error << Doc;
  // Complete events with the span names, thread id, and request tags.
  EXPECT_NE(Doc.find("\"name\":\"alpha\""), std::string::npos) << Doc;
  EXPECT_NE(Doc.find("\"name\":\"beta\""), std::string::npos) << Doc;
  EXPECT_NE(Doc.find("\"ph\":\"X\""), std::string::npos) << Doc;
  std::string Tid = "\"tid\":" + std::to_string(observe::currentTid());
  EXPECT_NE(Doc.find(Tid), std::string::npos) << Doc;
  EXPECT_NE(Doc.find("\"trace\":\"q1\""), std::string::npos) << Doc;
  EXPECT_NE(Doc.find("\"gen\":3"), std::string::npos) << Doc;
  std::remove(Path.c_str());
}

TEST(ChromeTraceSink, HostileTraceIdsAreEscapedOut) {
  if (!observe::enabled())
    GTEST_SKIP() << "built with IPSE_OBSERVE=OFF";
  std::string Path = testing::TempDir() + "/ipse_observe_hostile.chrome.json";
  std::string Error;
  std::unique_ptr<observe::ChromeTraceSink> Sink =
      observe::ChromeTraceSink::open(Path, Error);
  ASSERT_NE(Sink, nullptr) << Error;
  {
    // A wire-supplied id full of JSON-breaking characters must not be
    // able to corrupt the document.
    observe::TraceScope Scope(
        nullptr, Sink.get(),
        observe::ScopeTags{"a\"b\\c\nd\te}", 1, {}});
    observe::TraceSpan S("hostile");
  }
  Sink.reset();
  std::string Doc = slurpFile(Path);
  EXPECT_TRUE(validateJsonDocument(Doc, Error)) << Error << Doc;
  EXPECT_NE(Doc.find("\"trace\":\"abcde}\""), std::string::npos) << Doc;
  std::remove(Path.c_str());
}

TEST(ChromeTraceSink, OpenFailureReportsError) {
  std::string Error;
  EXPECT_EQ(observe::ChromeTraceSink::open("/nonexistent-dir/x.json", Error),
            nullptr);
  EXPECT_FALSE(Error.empty());
}

//===----------------------------------------------------------------------===//
// The differential guarantee: observing never changes results.
//===----------------------------------------------------------------------===//

TEST(ObserveDifferential, TracedRunsMatchUntracedOnEveryEngine) {
  synth::ProgramGenConfig Cfg;
  Cfg.NumProcs = 24;
  Cfg.NumGlobals = 8;
  Cfg.Seed = 7;
  Cfg.MaxNestDepth = 3;
  ir::Program P = synth::generateProgram(Cfg);

  for (const testmatrix::SolverEngine &E : testmatrix::allSolverEngines()) {
    if (E.TwoLevelOnly && P.maxProcLevel() > 1)
      continue;
    for (EffectKind K : {EffectKind::Mod, EffectKind::Use}) {
      analysis::GModResult Plain = E.Solve(P, K);
      observe::CostReport Costs;
      CollectingSink Sink;
      analysis::GModResult Traced = [&] {
        observe::TraceScope Scope(&Costs, &Sink);
        return E.Solve(P, K);
      }();
      ASSERT_EQ(Plain.GMod.size(), Traced.GMod.size()) << E.Name;
      for (std::size_t I = 0; I != Plain.GMod.size(); ++I)
        EXPECT_EQ(Plain.GMod[I], Traced.GMod[I])
            << E.Name << " proc " << I << " kind "
            << (K == EffectKind::Mod ? "mod" : "use");
    }
  }
}

//===----------------------------------------------------------------------===//
// The facade.
//===----------------------------------------------------------------------===//

TEST(Facade, ReportsByteIdenticalAcrossEnginesAndProfiling) {
  synth::ProgramGenConfig Cfg;
  Cfg.NumProcs = 16;
  Cfg.NumGlobals = 6;
  Cfg.Seed = 11;
  Cfg.MaxNestDepth = 2;
  ir::Program P = synth::generateProgram(Cfg);
  analysis::ReportOptions RO;
  RO.IncludeRMod = true;
  const std::string Baseline = analysis::makeReport(P, RO);

  using Engine = ipse::AnalysisOptions::Engine;
  for (Engine E : {Engine::Sequential, Engine::Demand}) {
    for (bool Profile : {false, true}) {
      ipse::AnalysisOptions O;
      O.Backend = E;
      O.Threads = 3;
      O.Profile = Profile;
      ipse::ReportRun Run = ipse::Analyzer(O).report(P, RO);
      EXPECT_TRUE(Run.Ok);
      EXPECT_EQ(Run.Output, Baseline)
          << "engine " << int(E) << " profile " << Profile;
      if (Profile && observe::enabled()) {
        EXPECT_NE(Run.Costs.phase("report"), nullptr);
        EXPECT_NE(Run.Costs.phase("render"), nullptr);
      }
      if (!Profile) {
        EXPECT_TRUE(Run.Costs.empty());
      }
    }
  }
}

TEST(Facade, AnalyzeAnswersTheSameQueriesOnEveryEngine) {
  synth::ProgramGenConfig Cfg;
  Cfg.NumProcs = 12;
  Cfg.NumGlobals = 5;
  Cfg.Seed = 3;
  Cfg.MaxNestDepth = 2;
  ir::Program P = synth::generateProgram(Cfg);

  ipse::AnalysisOptions SeqO;
  SeqO.Backend = ipse::AnalysisOptions::Engine::Sequential;
  ipse::Analysis Seq = ipse::Analyzer(SeqO).analyze(P);

  using Engine = ipse::AnalysisOptions::Engine;
  for (Engine E : {Engine::Sequential, Engine::Demand}) {
    ipse::AnalysisOptions O;
    O.Backend = E;
    O.Threads = 2;
    ipse::Analysis A = ipse::Analyzer(O).analyze(P);
    EXPECT_EQ(A.engine(), E);
    for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
      ir::ProcId Proc(I);
      EXPECT_EQ(A.gmod(Proc), Seq.gmod(Proc)) << "proc " << I;
      EXPECT_EQ(A.guse(Proc), Seq.guse(Proc)) << "proc " << I;
      EXPECT_EQ(A.setToString(A.gmod(Proc)), Seq.setToString(Seq.gmod(Proc)));
    }
    for (std::uint32_t I = 0; I != P.numCallSites(); ++I) {
      ir::CallSiteId C(I);
      EXPECT_EQ(A.dmod(C), Seq.dmod(C)) << "site " << I;
      EXPECT_EQ(A.dmod(C, EffectKind::Use), Seq.dmod(C, EffectKind::Use));
    }
  }
}

TEST(Facade, ThreadsNeverChooseTheEngine) {
  ipse::AnalysisOptions O;
  EXPECT_EQ(O.Backend, ipse::AnalysisOptions::Engine::Sequential);
  O.Threads = 4;
  ipse::Analysis A = ipse::Analyzer(O).analyze(synth::makeChainProgram(8, 2));
  EXPECT_EQ(A.engine(), ipse::AnalysisOptions::Engine::Sequential);
}

TEST(Facade, ProfiledAnalyzeCollectsPhases) {
  synth::ProgramGenConfig Cfg;
  Cfg.NumProcs = 10;
  Cfg.Seed = 5;
  ir::Program P = synth::generateProgram(Cfg);
  ipse::AnalysisOptions O;
  O.Profile = true;
  ipse::Analysis A = ipse::Analyzer(O).analyze(P);
  if (!observe::enabled()) {
    EXPECT_TRUE(A.costs().empty());
    return;
  }
  for (const char *Phase : {"graphs", "local", "rmod", "imodplus", "gmod"})
    EXPECT_NE(A.costs().phase(Phase), nullptr) << Phase;
  EXPECT_GT(A.costs().counter("rmod.boolean_steps"), 0u);
}

TEST(Facade, AnalyzeBuildsTheShapeOnceAndThePassesPerKind) {
  ir::Program P = synth::makeNestedProgram(3, 5, 2);
  for (bool TrackUse : {true, false}) {
    ipse::AnalysisOptions O;
    O.Profile = true;
    O.TrackUse = TrackUse;
    ipse::Analysis A = ipse::Analyzer(O).analyze(P);
    if (!observe::enabled()) {
      EXPECT_TRUE(A.costs().empty());
      continue;
    }
    const std::uint64_t Kinds = TrackUse ? 2 : 1;
    ASSERT_NE(A.costs().phase("graphs"), nullptr);
    EXPECT_EQ(A.costs().phase("graphs")->Count, 1u) << TrackUse;
    for (const char *Phase : {"local", "rmod", "imodplus", "gmod"}) {
      ASSERT_NE(A.costs().phase(Phase), nullptr) << Phase;
      EXPECT_EQ(A.costs().phase(Phase)->Count, Kinds) << Phase << TrackUse;
    }
  }
}

TEST(Facade, ReportSourceSurfacesDiagnostics) {
  ipse::Analyzer An;
  ipse::ReportRun Bad = An.reportSource("proc p { this is not miniproc");
  EXPECT_FALSE(Bad.Ok);
  EXPECT_TRUE(Bad.Output.empty());
  EXPECT_FALSE(Bad.Diagnostics.empty());

  ipse::ReportRun Good = An.reportSource("program main;\n"
                                         "var g;\n"
                                         "proc p();\n"
                                         "  begin\n"
                                         "    g := 0;\n"
                                         "  end;\n"
                                         "begin\n"
                                         "  call p();\n"
                                         "end.\n");
  EXPECT_TRUE(Good.Ok) << Good.Diagnostics;
  EXPECT_NE(Good.Output.find("GMOD = { g }"), std::string::npos)
      << Good.Output;
}

TEST(Facade, SessionScriptRunsAndPrintsMetrics) {
  std::string Path = testing::TempDir() + "/ipse_observe_script_out.txt";
  std::FILE *Out = std::fopen(Path.c_str(), "w+");
  ASSERT_NE(Out, nullptr);
  ipse::AnalysisOptions O;
  O.Profile = true;
  observe::CostReport Costs;
  int Exit = ipse::Analyzer(O).runSessionScript(
      "gen procs=6 globals=4 seed=1\n"
      "gmod p0\n"
      "check\n"
      "metrics\n"
      "stats\n",
      Out, &Costs);
  EXPECT_EQ(Exit, 0);
  std::fflush(Out);
  std::fclose(Out);
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  std::string Text = SS.str();
  EXPECT_NE(Text.find("GMOD(p0)"), std::string::npos) << Text;
  EXPECT_NE(Text.find("\"counters\""), std::string::npos) << Text;
  EXPECT_NE(Text.find("edits 0"), std::string::npos) << Text;
  std::remove(Path.c_str());
}

TEST(Facade, SessionScriptErrorsReturnNonZero) {
  std::FILE *Out = std::fopen("/dev/null", "w");
  ASSERT_NE(Out, nullptr);
  ipse::Analyzer An;
  // Query before any program is loaded.
  EXPECT_EQ(An.runSessionScript("gmod p0\n", Out), 1);
  // Unknown command.
  EXPECT_EQ(An.runSessionScript("gen procs=2\nfrobnicate\n", Out), 1);
  std::fclose(Out);
}

} // namespace
