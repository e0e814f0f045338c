//===- bench/e2e/Batch.cpp - The in-process batch half ------------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
//
// A compiler invoking the analysis: one caller, closed loop, round-robin
// over the workload's program set.  Every round runs every timed
// operation on every program, so each program contributes the same number
// of samples, and each metric is the geometric mean over programs of the
// per-program statistic (a pooled median over programs of very different
// sizes would jump between programs from run to run).
//
// The traced run replaces Analyzer::analyze's internals with explicit
// calls to the paper's phase functions, in the order and with the GMOD
// algorithm choice of analysis::SideEffectAnalyzer, and records a span
// around each.
//
//===----------------------------------------------------------------------===//

#include "E2e.h"

#include "analysis/GMod.h"
#include "analysis/IModPlus.h"
#include "analysis/LocalEffects.h"
#include "analysis/MultiLevelGMod.h"
#include "analysis/RMod.h"
#include "analysis/VarMasks.h"
#include "api/Ipse.h"
#include "baselines/WorklistSolver.h"
#include "frontend/Frontend.h"
#include "graph/BindingGraph.h"
#include "graph/CallGraph.h"
#include "support/OpCount.h"

#include <cstdio>
#include <functional>
#include <map>
#include <memory>

using namespace ipse;
using namespace ipse::e2e;
using analysis::EffectKind;

namespace {

Analyzer analyzerWith(unsigned Threads) {
  AnalysisOptions O;
  O.Threads = Threads;
  return Analyzer(O);
}

struct ProgramRun {
  // Untraced loops.
  std::vector<double> Analyze1, Analyze4, Report, QueryCold;
  // Traced loop.
  std::vector<double> Masks, Graphs, Local, RMod, IModPlus, GMod, PhaseSum;
  std::vector<double> Compile, ReportIR, DemandOpen, DemandQuery;
  std::uint64_t LocalOps = 0, GModOps = 0, RModSteps = 0;
  double RegionFrac = 0;
  // References the loops check every answer against.
  EffectSet TargetGMod;
  std::string RefReport;
};

/// The two pipelines Analyzer::analyze runs (MOD, then USE), one phase
/// function at a time, each under a span.  Returns GMOD(Target).
EffectSet runPhases(const BatchProgram &BP, ProgramRun &PR, SpanLog &Log,
                    bool CountOps) {
  const ir::Program &P = BP.P;
  const std::string Args = "\"program\":\"" + BP.Name + "\"";
  double Masks = 0, Graphs = 0, Local = 0, RMod = 0, IModPlus = 0, GMod = 0;
  auto Phase = [&](const char *Name, double &Acc,
                   const std::function<void()> &Fn) {
    std::int64_t S = nowNs();
    Fn();
    std::int64_t E = nowNs();
    Acc += (E - S) / 1e6;
    Log.add(Name, "analysis", S, E, 1, Args);
  };
  EffectSet Target;
  for (EffectKind Kind : {EffectKind::Mod, EffectKind::Use}) {
    std::unique_ptr<analysis::VarMasks> VM;
    std::unique_ptr<graph::CallGraph> CG;
    std::unique_ptr<graph::BindingGraph> BG;
    std::unique_ptr<analysis::LocalEffects> LE;
    analysis::RModResult RM;
    std::vector<EffectSet> IMP;
    analysis::GModResult GM;
    Phase("masks", Masks,
          [&] { VM = std::make_unique<analysis::VarMasks>(P); });
    Phase("graphs", Graphs, [&] {
      CG = std::make_unique<graph::CallGraph>(P);
      BG = std::make_unique<graph::BindingGraph>(P);
    });
    OpCountScope LocalOps;
    Phase("local", Local, [&] {
      LE = std::make_unique<analysis::LocalEffects>(P, *VM, Kind);
    });
    const std::uint64_t LocalDelta = LocalOps.delta();
    Phase("rmod", RMod, [&] { RM = analysis::solveRMod(P, *BG, *LE); });
    Phase("imodplus", IModPlus,
          [&] { IMP = analysis::computeIModPlus(P, *LE, RM); });
    OpCountScope GModOps;
    // The analyzer's own Auto rule: findgmod for two-level programs, the
    // combined multi-level algorithm otherwise.
    Phase("gmod", GMod, [&] {
      GM = P.maxProcLevel() <= 1
               ? analysis::solveGMod(P, *CG, *VM, IMP)
               : analysis::solveMultiLevelCombined(P, *CG, *VM, IMP);
    });
    if (CountOps) {
      PR.LocalOps += LocalDelta;
      PR.GModOps += GModOps.delta();
      PR.RModSteps += RM.BooleanSteps;
    }
    if (Kind == EffectKind::Mod)
      Target = GM.of(BP.Target);
  }
  PR.Masks.push_back(Masks);
  PR.Graphs.push_back(Graphs);
  PR.Local.push_back(Local);
  PR.RMod.push_back(RMod);
  PR.IModPlus.push_back(IModPlus);
  PR.GMod.push_back(GMod);
  PR.PhaseSum.push_back(Masks + Graphs + Local + RMod + IModPlus + GMod);
  return Target;
}

/// Checks one program's batch answers once, untimed: GMOD/GUSE of every
/// procedure against the worklist solver of equation (1), the K=4 engine
/// against K=1, and the three report paths against each other.
void checkOracles(const BatchProgram &BP, const Analysis &A, ProgramRun &PR,
                  RunResult &R) {
  const ir::Program &P = BP.P;
  analysis::VarMasks VM(P);
  graph::CallGraph CG(P);
  Analysis A4 = analyzerWith(4).analyze(P);
  for (EffectKind Kind : {EffectKind::Mod, EffectKind::Use}) {
    analysis::LocalEffects LE(P, VM, Kind);
    // Equation (1) by worklist iteration.  The round-robin baseline
    // (baselines::solveIterative) needs one sweep per chain link, so it
    // cannot finish the 100 000-procedure chain; the serving half uses it
    // on every tenant instead.
    baselines::IterativeResult W = baselines::solveWorklist(P, CG, VM, LE);
    for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
      ir::ProcId Proc(I);
      if (W.GMod.of(Proc) != A.gmod(Proc, Kind)) {
        R.mismatch(BP.Name + ": GMOD(" + P.name(Proc) +
                   ") differs from equation (1)");
        break;
      }
      if (A4.gmod(Proc, Kind) != A.gmod(Proc, Kind)) {
        R.mismatch(BP.Name + ": K=4 GMOD(" + P.name(Proc) + ") differs");
        break;
      }
    }
  }
  PR.TargetGMod = A.gmod(BP.Target);
  if (BP.Source.empty())
    return;
  // The source round trip renumbers call sites (the frontend numbers them
  // in source order), so it is checked by name: every procedure's GMOD
  // and GUSE must render the same.  The three report paths then run on
  // the compiled program and must agree byte for byte.
  frontend::CompileResult C = frontend::compileMiniProc(BP.Source);
  if (!C.succeeded()) {
    R.mismatch(BP.Name + ": emitted source does not compile");
    return;
  }
  const ir::Program &P2 = *C.Program;
  Analysis A2 = analyzerWith(1).analyze(P2);
  std::map<std::string, ir::ProcId> ByName;
  for (std::uint32_t I = 0; I != P2.numProcs(); ++I)
    ByName[P2.name(ir::ProcId(I))] = ir::ProcId(I);
  for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
    const ir::ProcId Proc(I);
    auto It = ByName.find(P.name(Proc));
    if (It == ByName.end() ||
        renderSet(P, A.gmod(Proc)) != renderSet(P2, A2.gmod(It->second)) ||
        renderSet(P, A.guse(Proc)) != renderSet(P2, A2.guse(It->second))) {
      R.mismatch(BP.Name + ": " + P.name(Proc) +
                 " differs after the source round trip");
      break;
    }
  }
  PR.RefReport = analyzerWith(1).report(P2).Output;
  if (analyzerWith(4).report(P2).Output != PR.RefReport)
    R.mismatch(BP.Name + ": K=4 report differs from K=1");
  ReportRun FromSource = analyzerWith(1).reportSource(BP.Source);
  if (!FromSource.Ok || FromSource.Output != PR.RefReport)
    R.mismatch(BP.Name + ": report from source differs from K=1");
}

double msBetween(std::int64_t S, std::int64_t E) { return (E - S) / 1e6; }

constexpr unsigned BatchSlices = 5;

} // namespace

struct BatchHalf::Impl {
  const Options &O;
  std::vector<BatchProgram> Progs;
  RunResult &R;
  SpanLog &Log;
  std::vector<ProgramRun> Runs;
  const Analyzer K1 = analyzerWith(1), K4 = analyzerWith(4);
  long BaseRssKb = 0;
  double ColdMs = 0;
  unsigned Round = 0;

  Impl(const Options &O, std::vector<BatchProgram> Programs, RunResult &R,
       SpanLog &Log)
      : O(O), Progs(std::move(Programs)), R(R), Log(Log), Runs(Progs.size()) {}

  void checkTarget(std::size_t I, const EffectSet &Got, const char *What) {
    ++R.Attempted;
    if (Got != Runs[I].TargetGMod)
      R.mismatch(Progs[I].Name + ": " + What + " GMOD(target) differs");
  }

  /// Every timed operation once per round, so a slow stretch of the host
  /// is shared by all metrics instead of landing on one of them.  Reports
  /// cost more than ten analyses, so they run every other round.
  void untracedRound(std::size_t I) {
    const BatchProgram &BP = Progs[I];
    ProgramRun &PR = Runs[I];
    for (int K = 0; K != 3; ++K) {
      Clock::time_point S = Clock::now();
      Analysis A = K1.analyze(BP.P);
      PR.Analyze1.push_back(msSince(S));
      checkTarget(I, A.gmod(BP.Target), "K=1");
    }
    {
      Clock::time_point S = Clock::now();
      Analysis A = K4.analyze(BP.P);
      PR.Analyze4.push_back(msSince(S));
      checkTarget(I, A.gmod(BP.Target), "K=4");
    }
    {
      Clock::time_point S = Clock::now();
      std::unique_ptr<demand::DemandSession> D = K1.open_demand(BP.P);
      const EffectSet &G = D->gmod(BP.Target);
      PR.QueryCold.push_back(msSince(S));
      PR.RegionFrac = double(D->stats().RegionProcs) / BP.P.numProcs();
      checkTarget(I, G, "demand");
    }
    if (!BP.Source.empty() && Round % 2 == 0) {
      Clock::time_point S = Clock::now();
      ReportRun Run = K1.reportSource(BP.Source);
      PR.Report.push_back(msSince(S));
      ++R.Attempted;
      if (!Run.Ok || Run.Output != PR.RefReport)
        R.mismatch(BP.Name + ": report from source differs");
    }
  }

  /// The traced round: the same public calls plus the phase pipeline,
  /// the frontend alone and the IR-path report, each under a span.
  void tracedRound(std::size_t I) {
    const BatchProgram &BP = Progs[I];
    ProgramRun &PR = Runs[I];
    const std::string Args = "\"program\":\"" + BP.Name + "\"";
    std::int64_t S = nowNs();
    Analysis A = K1.analyze(BP.P);
    std::int64_t E = nowNs();
    PR.Analyze1.push_back(msBetween(S, E));
    Log.add("analyze", "api", S, E, 1, Args);
    checkTarget(I, A.gmod(BP.Target), "K=1");
    checkTarget(I, runPhases(BP, PR, Log, PR.Analyze1.size() == 1),
                "phase pipeline");
    S = nowNs();
    Analysis A4 = K4.analyze(BP.P);
    E = nowNs();
    PR.Analyze4.push_back(msBetween(S, E));
    Log.add("analyze.k4", "api", S, E, 1, Args);
    if (!BP.Source.empty()) {
      S = nowNs();
      frontend::CompileResult C = frontend::compileMiniProc(BP.Source);
      E = nowNs();
      PR.Compile.push_back(msBetween(S, E));
      Log.add("frontend.compile", "frontend", S, E, 1, Args);
      if (!C.succeeded()) {
        R.mismatch(BP.Name + ": source does not compile");
        return;
      }
      S = nowNs();
      ReportRun Run = K1.report(*C.Program);
      E = nowNs();
      PR.ReportIR.push_back(msBetween(S, E));
      Log.add("report", "api", S, E, 1, Args);
      ++R.Attempted;
      if (Run.Output != PR.RefReport)
        R.mismatch(BP.Name + ": report differs");
    }
    S = nowNs();
    std::unique_ptr<demand::DemandSession> D = K1.open_demand(BP.P);
    E = nowNs();
    PR.DemandOpen.push_back(msBetween(S, E));
    Log.add("demand.open", "demand", S, E, 1, Args);
    S = nowNs();
    const EffectSet &G = D->gmod(BP.Target);
    E = nowNs();
    PR.DemandQuery.push_back(msBetween(S, E));
    Log.add("demand.query", "demand", S, E, 1, Args);
    PR.RegionFrac = double(D->stats().RegionProcs) / BP.P.numProcs();
    checkTarget(I, G, "demand");
  }

  void finish(long HwmKb);
};

BatchHalf::BatchHalf(const Options &O, std::vector<BatchProgram> Programs,
                     RunResult &R, SpanLog &Log)
    : I(std::make_unique<Impl>(O, std::move(Programs), R, Log)) {}

BatchHalf::~BatchHalf() = default;

void BatchHalf::setUp() {
  Impl &B = *I;
  B.BaseRssKb = procStatusKb("self", "VmRSS");
  for (std::size_t P = 0; P != B.Progs.size(); ++P) {
    std::int64_t S = nowNs();
    Analysis A = B.K1.analyze(B.Progs[P].P);
    std::int64_t E = nowNs();
    B.ColdMs += msBetween(S, E);
    B.Log.add("analyze.cold", "setup", S, E, 1,
              "\"program\":\"" + B.Progs[P].Name + "\"");
    checkOracles(B.Progs[P], A, B.Runs[P], B.R);
  }
  std::fprintf(stderr, "ipse-e2e: batch set-up %.1f ms (cold analyze)\n",
               B.ColdMs);
}

void BatchHalf::loop(double BudgetMs) {
  Impl &B = *I;
  const unsigned MinRounds = B.O.Smoke ? 1 : 2;
  Clock::time_point Start = Clock::now();
  for (unsigned Done = 0; Done < MinRounds || msSince(Start) < BudgetMs;
       ++Done, ++B.Round)
    for (std::size_t P = 0; P != B.Progs.size(); ++P)
      B.O.Trace ? B.tracedRound(P) : B.untracedRound(P);
}

void BatchHalf::finish(long HwmKb) { I->finish(HwmKb); }

void BatchHalf::Impl::finish(long HwmKb) {
  const std::size_t N = Progs.size();
  // Aggregate: each program's statistic is the median over five equal
  // time slices of its samples (a slow stretch of the host moves one
  // slice), and the workload's is their geometric mean over programs.
  auto Sliced = [](const std::vector<double> &V, double Q) {
    return median(sliceQuantiles(V, BatchSlices, Q));
  };
  auto Across = [&](auto Get, double Q, bool ReportOnly = false) {
    std::vector<double> PerProgram;
    std::uint64_t Count = 0;
    for (std::size_t I = 0; I != N; ++I) {
      if (ReportOnly && Progs[I].Source.empty())
        continue;
      std::vector<double> V = Get(Runs[I]);
      if (V.empty())
        continue;
      Count += V.size();
      PerProgram.push_back(Sliced(V, Q));
    }
    return std::make_pair(geomean(PerProgram), Count);
  };
  auto SliceArray = [&](Json &J, const char *Key, const std::vector<double> &V,
                        double Q) {
    J.key(Key).beginArray();
    for (double X : sliceQuantiles(V, BatchSlices, Q))
      J.num(X);
    J.endArray();
  };
  auto Put = [](std::map<std::string, Metric> &M, const std::string &Name,
                std::pair<double, std::uint64_t> V, const char *Unit) {
    M[Name] = Metric{V.first, Unit, V.second};
  };

  Json Programs;
  Programs.beginArray();
  for (std::size_t I = 0; I != N; ++I) {
    ProgramRun &PR = Runs[I];
    Programs.beginObject()
        .key("name").str(Progs[I].Name)
        .key("procs").num(std::uint64_t(Progs[I].P.numProcs()))
        .key("call_sites").num(std::uint64_t(Progs[I].P.numCallSites()))
        .key("vars").num(std::uint64_t(Progs[I].P.numVars()))
        .key("levels").num(std::uint64_t(Progs[I].P.maxProcLevel()))
        .key("analyze_p50_ms").num(median(PR.Analyze1))
        .key("analyze_samples").num(std::uint64_t(PR.Analyze1.size()))
        .key("analyze_k4_p50_ms").num(median(PR.Analyze4))
        .key("demand_region_frac").num(PR.RegionFrac);
    if (!O.Trace) {
      Programs.key("analyze_p90_ms").num(quantile(PR.Analyze1, 0.9))
          .key("query_cold_p50_ms").num(median(PR.QueryCold));
      SliceArray(Programs, "analyze_p50s", PR.Analyze1, 0.5);
      SliceArray(Programs, "analyze_p90s", PR.Analyze1, 0.9);
      SliceArray(Programs, "analyze_k4_p50s", PR.Analyze4, 0.5);
      SliceArray(Programs, "query_cold_p50s", PR.QueryCold, 0.5);
      if (!PR.Report.empty()) {
        Programs.key("report_p50_ms").num(median(PR.Report))
            .key("report_samples").num(std::uint64_t(PR.Report.size()));
        SliceArray(Programs, "report_p50s", PR.Report, 0.5);
      }
    } else {
      Programs.key("masks_ms").num(median(PR.Masks))
          .key("graphs_ms").num(median(PR.Graphs))
          .key("local_ms").num(median(PR.Local))
          .key("rmod_ms").num(median(PR.RMod))
          .key("imodplus_ms").num(median(PR.IModPlus))
          .key("gmod_ms").num(median(PR.GMod))
          .key("phase_sum_ms").num(median(PR.PhaseSum))
          .key("local_bv_ops").num(PR.LocalOps)
          .key("gmod_bv_ops").num(PR.GModOps)
          .key("rmod_boolean_steps").num(PR.RModSteps)
          .key("demand_open_ms").num(median(PR.DemandOpen))
          .key("demand_query_ms").num(median(PR.DemandQuery));
      if (!PR.Compile.empty())
        Programs.key("compile_ms").num(median(PR.Compile))
            .key("report_ms").num(median(PR.ReportIR));
    }
    Programs.endObject();
  }
  Programs.endArray();
  R.Detail["batch_programs"] = Programs.text();
  R.Detail["batch_cold_ms"] = formatNumber(ColdMs);
  R.Detail["batch_rss_base_kb"] = std::to_string(BaseRssKb);

  const double ColdS = ColdMs / 1000;
  R.EndToEnd["setup_s"].Value += ColdS;

  auto A1 = [](ProgramRun &PR) { return PR.Analyze1; };
  if (!O.Trace) {
    Put(R.EndToEnd, "analyze_p50_ms", Across(A1, 0.5), "ms");
    Put(R.EndToEnd, "analyze_p90_ms", Across(A1, 0.9), "ms");
    Put(R.EndToEnd, "analyze_k4_p50_ms",
        Across([](ProgramRun &PR) { return PR.Analyze4; }, 0.5), "ms");
    Put(R.EndToEnd, "report_p50_ms",
        Across([](ProgramRun &PR) { return PR.Report; }, 0.5, true), "ms");
    Put(R.EndToEnd, "query_cold_p50_ms",
        Across([](ProgramRun &PR) { return PR.QueryCold; }, 0.5), "ms");
    R.EndToEnd["batch_rss_mb"] =
        Metric{(HwmKb - BaseRssKb) / 1024.0, "MiB", 0};
    return;
  }

  // Per-layer numbers from the traced loop.
  auto Layer = [&](const char *Name, std::vector<double> ProgramRun::*F,
                   bool ReportOnly = false) {
    auto V = Across([F](ProgramRun &PR) { return PR.*F; }, 0.5, ReportOnly);
    Put(R.Layers, Name, V, "ms");
    return V.first;
  };
  const double Analyze = Across(A1, 0.5).first;
  Layer("analysis.masks_ms", &ProgramRun::Masks);
  const double Graphs = Layer("graph.build_ms", &ProgramRun::Graphs);
  Layer("analysis.local_ms", &ProgramRun::Local);
  const double RMod = Layer("analysis.rmod_ms", &ProgramRun::RMod);
  Layer("analysis.imodplus_ms", &ProgramRun::IModPlus);
  Layer("analysis.gmod_ms", &ProgramRun::GMod);
  const double PhaseSum =
      Across([](ProgramRun &PR) { return PR.PhaseSum; }, 0.5).first;
  Layer("frontend.compile_ms", &ProgramRun::Compile, /*ReportOnly=*/true);
  // render = report(P) - analyze(P), per report program.
  std::vector<double> Render, ReportShare;
  std::uint64_t RenderSamples = 0;
  for (std::size_t I = 0; I != N; ++I) {
    if (Runs[I].ReportIR.empty())
      continue;
    const double Rep = median(Runs[I].ReportIR);
    const double Ana = median(Runs[I].Analyze1);
    const double Comp = median(Runs[I].Compile);
    Render.push_back(std::max(Rep - Ana, 1e-6));
    ReportShare.push_back((Comp + Rep - Ana) / (Comp + Rep));
    RenderSamples += Runs[I].ReportIR.size();
  }
  R.Layers["report.render_ms"] = Metric{geomean(Render), "ms", RenderSamples};
  R.Layers["report.frontend_render_share"] =
      Metric{geomean(ReportShare), "ratio", 0};
  std::uint64_t LocalOps = 0, GModOps = 0, RModSteps = 0;
  std::vector<double> K4Ratio, Regions;
  for (std::size_t I = 0; I != N; ++I) {
    LocalOps += Runs[I].LocalOps;
    GModOps += Runs[I].GModOps;
    RModSteps += Runs[I].RModSteps;
    K4Ratio.push_back(median(Runs[I].Analyze4) / median(Runs[I].Analyze1));
    Regions.push_back(Runs[I].RegionFrac);
  }
  R.Layers["analysis.local_bv_ops"] = Metric{double(LocalOps), "count", 0};
  R.Layers["analysis.gmod_bv_ops"] = Metric{double(GModOps), "count", 0};
  R.Layers["analysis.rmod_boolean_steps"] =
      Metric{double(RModSteps), "count", 0};
  R.Layers["analysis.span_coverage"] =
      Metric{PhaseSum / Analyze, "ratio", 0};
  R.Layers["analysis.graph_rmod_share"] =
      Metric{(Graphs + RMod) / PhaseSum, "ratio", 0};
  R.Layers["trace_overhead_pct"] =
      Metric{(PhaseSum - Analyze) / Analyze * 100, "%", 0};
  R.Layers["parallel.k4_ratio"] = Metric{geomean(K4Ratio), "ratio", N};
  Layer("demand.open_ms", &ProgramRun::DemandOpen);
  Layer("demand.query_ms", &ProgramRun::DemandQuery);
  R.Layers["demand.region_frac"] = Metric{median(Regions), "ratio", N};
}
