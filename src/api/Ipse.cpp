//===- api/Ipse.cpp - The unified public analysis facade ----------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "api/Ipse.h"

#include "frontend/Frontend.h"
#include "observe/FlightRecorder.h"
#include "observe/Metrics.h"
#include "observe/Prometheus.h"
#include "service/ScriptDriver.h"

#include <cassert>
#include <fstream>
#include <optional>
#include <sstream>

using namespace ipse;
using analysis::EffectKind;

//===----------------------------------------------------------------------===//
// Analysis: the unified query handle.
//===----------------------------------------------------------------------===//

struct Analysis::Impl {
  AnalysisOptions::Engine Engine = AnalysisOptions::Engine::Sequential;
  bool TrackUse = true;
  observe::CostReport Costs;

  // Sequential.
  std::unique_ptr<analysis::SideEffectAnalyzer> SeqMod, SeqUse;
  // Session.
  std::unique_ptr<incremental::AnalysisSession> Session;
  // Demand (lazy: queries solve their region on first touch).
  std::unique_ptr<demand::DemandSession> Demand;
};

Analysis::Analysis(std::unique_ptr<Impl> Impl) : I(std::move(Impl)) {}
Analysis::Analysis(Analysis &&) noexcept = default;
Analysis &Analysis::operator=(Analysis &&) noexcept = default;
Analysis::~Analysis() = default;

AnalysisOptions::Engine Analysis::engine() const { return I->Engine; }

const observe::CostReport &Analysis::costs() const { return I->Costs; }

const EffectSet &Analysis::gmod(ir::ProcId Proc) const {
  return gmod(Proc, EffectKind::Mod);
}

const EffectSet &Analysis::guse(ir::ProcId Proc) const {
  return gmod(Proc, EffectKind::Use);
}

const EffectSet &Analysis::gmod(ir::ProcId Proc, EffectKind Kind) const {
  assert((Kind == EffectKind::Mod || I->TrackUse) &&
         "USE queries need AnalysisOptions::TrackUse");
  switch (I->Engine) {
  case AnalysisOptions::Engine::Sequential:
    return (Kind == EffectKind::Mod ? *I->SeqMod : *I->SeqUse).gmod(Proc);
  case AnalysisOptions::Engine::Demand:
    return I->Demand->gmod(Proc, Kind);
  default:
    return I->Session->gmod(Proc, Kind);
  }
}

bool Analysis::rmodContains(ir::VarId Formal, EffectKind Kind) const {
  assert((Kind == EffectKind::Mod || I->TrackUse) &&
         "USE queries need AnalysisOptions::TrackUse");
  switch (I->Engine) {
  case AnalysisOptions::Engine::Sequential:
    return (Kind == EffectKind::Mod ? *I->SeqMod : *I->SeqUse)
        .rmodContains(Formal);
  case AnalysisOptions::Engine::Demand:
    return I->Demand->rmodContains(Formal, Kind);
  default:
    return I->Session->rmodContains(Formal, Kind);
  }
}

EffectSet Analysis::dmod(ir::StmtId S) const {
  switch (I->Engine) {
  case AnalysisOptions::Engine::Sequential:
    return I->SeqMod->dmod(S);
  case AnalysisOptions::Engine::Demand:
    return I->Demand->dmod(S);
  default:
    return I->Session->dmod(S);
  }
}

EffectSet Analysis::dmod(ir::CallSiteId C) const {
  return dmod(C, EffectKind::Mod);
}

EffectSet Analysis::dmod(ir::CallSiteId C, EffectKind Kind) const {
  assert((Kind == EffectKind::Mod || I->TrackUse) &&
         "USE queries need AnalysisOptions::TrackUse");
  switch (I->Engine) {
  case AnalysisOptions::Engine::Sequential:
    return (Kind == EffectKind::Mod ? *I->SeqMod : *I->SeqUse).dmod(C);
  case AnalysisOptions::Engine::Demand:
    return I->Demand->dmod(C, Kind);
  default:
    return I->Session->dmod(C, Kind);
  }
}

EffectSet Analysis::mod(ir::StmtId S, const ir::AliasInfo &Aliases) const {
  switch (I->Engine) {
  case AnalysisOptions::Engine::Sequential:
    return I->SeqMod->mod(S, Aliases);
  case AnalysisOptions::Engine::Demand:
    return I->Demand->mod(S, Aliases);
  default:
    return I->Session->mod(S, Aliases);
  }
}

const analysis::GModResult &Analysis::gmodResult(EffectKind Kind) const {
  assert((Kind == EffectKind::Mod || I->TrackUse) &&
         "USE queries need AnalysisOptions::TrackUse");
  switch (I->Engine) {
  case AnalysisOptions::Engine::Sequential:
    return (Kind == EffectKind::Mod ? *I->SeqMod : *I->SeqUse).gmodResult();
  case AnalysisOptions::Engine::Demand:
    // Full-plane export: forces the whole program solved.
    return I->Demand->gmodResult(Kind);
  default:
    return I->Session->gmodResult(Kind);
  }
}

std::string Analysis::setToString(const EffectSet &Set) const {
  switch (I->Engine) {
  case AnalysisOptions::Engine::Sequential:
    return I->SeqMod->setToString(Set);
  case AnalysisOptions::Engine::Demand:
    return I->Demand->setToString(Set);
  default:
    return I->Session->setToString(Set);
  }
}

//===----------------------------------------------------------------------===//
// Analyzer.
//===----------------------------------------------------------------------===//

namespace {

/// One effect kind of a session or a demand session, presented through
/// the batch analyzers' query surface so analysis::renderReport treats
/// all engines alike.  The report sweeps every procedure, so under demand
/// it is the one path that pays for the full program.
template <class SessionT> class KindView {
public:
  KindView(SessionT &S, EffectKind Kind) : S(S), Kind(Kind) {}
  const EffectSet &gmod(ir::ProcId Proc) const { return S.gmod(Proc, Kind); }
  bool rmodContains(ir::VarId F) const { return S.rmodContains(F, Kind); }
  EffectSet dmod(ir::CallSiteId C) const { return S.dmod(C, Kind); }

private:
  SessionT &S;
  EffectKind Kind;
};

std::string renderForEngine(const AnalysisOptions &Opts, const ir::Program &P,
                            analysis::ReportOptions R) {
  observe::TraceSpan Span("report");
  switch (Opts.Backend) {
  case AnalysisOptions::Engine::Sequential:
    return analysis::makeReport(P, R, Opts.Threads);
  case AnalysisOptions::Engine::Demand: {
    demand::DemandOptions DO = Opts.demandView();
    DO.TrackUse = DO.TrackUse || R.IncludeUse;
    demand::DemandSession S(P, DO);
    KindView Mod(S, EffectKind::Mod);
    KindView Use(S, EffectKind::Use);
    return analysis::renderReport(P, R, Mod, R.IncludeUse ? &Use : nullptr);
  }
  default: {
    incremental::SessionOptions SO = Opts.sessionView();
    SO.TrackUse = SO.TrackUse || R.IncludeUse;
    incremental::AnalysisSession S(P, SO);
    KindView Mod(S, EffectKind::Mod);
    KindView Use(S, EffectKind::Use);
    return analysis::renderReport(P, R, Mod, R.IncludeUse ? &Use : nullptr);
  }
  }
}

void printSessionStats(const incremental::SessionStats &St, std::FILE *Out) {
  std::fprintf(Out,
               "edits %llu  flushes %llu  effect-only %llu  intra-scc %llu"
               "  recondense %llu  full-rebuild %llu  components %llu"
               "  rmod-resolves %llu\n",
               (unsigned long long)St.EditsApplied,
               (unsigned long long)St.Flushes,
               (unsigned long long)St.EffectOnlyFlushes,
               (unsigned long long)St.IntraSccFlushes,
               (unsigned long long)St.Recondensations,
               (unsigned long long)St.FullRebuilds,
               (unsigned long long)St.ComponentsRecomputed,
               (unsigned long long)St.RModResolves);
}

void printDemandStats(const demand::DemandStats &St, std::FILE *Out) {
  std::fprintf(Out,
               "edits %llu  queries %llu  region-solves %llu"
               "  region-procs %llu  memo-hits %llu  invalidations %llu"
               "  absorbed %llu  full-resets %llu\n",
               (unsigned long long)St.EditsApplied,
               (unsigned long long)St.Queries,
               (unsigned long long)St.RegionSolves,
               (unsigned long long)St.RegionProcs,
               (unsigned long long)St.MemoHits,
               (unsigned long long)St.Invalidations,
               (unsigned long long)St.AbsorbedEdits,
               (unsigned long long)St.FullResets);
}

} // namespace

Analysis Analyzer::analyze(const ir::Program &P) const {
  EffectSet::setDefaultRepresentation(Opts.Repr);
  auto Impl = std::make_unique<Analysis::Impl>();
  Impl->Engine = Opts.Backend;
  Impl->TrackUse = Opts.TrackUse;
  {
    std::optional<observe::TraceScope> Scope;
    if (Opts.Profile || Opts.Sink)
      Scope.emplace(Opts.Profile ? &Impl->Costs : nullptr, Opts.Sink);

    switch (Impl->Engine) {
    case AnalysisOptions::Engine::Sequential:
      Impl->SeqMod = std::make_unique<analysis::SideEffectAnalyzer>(
          P, Opts.analyzerView(EffectKind::Mod), Opts.Threads);
      if (Opts.TrackUse)
        Impl->SeqUse = std::make_unique<analysis::SideEffectAnalyzer>(
            P, Opts.analyzerView(EffectKind::Use), Opts.Threads);
      break;
    case AnalysisOptions::Engine::Demand:
      // No eager solve: the first query pays for its region only.
      Impl->Demand =
          std::make_unique<demand::DemandSession>(P, Opts.demandView());
      break;
    default:
      Impl->Session = std::make_unique<incremental::AnalysisSession>(
          P, Opts.sessionView());
      Impl->Session->flush();
      break;
    }
  }
  return Analysis(std::move(Impl));
}

ReportRun Analyzer::report(const ir::Program &P,
                           analysis::ReportOptions R) const {
  EffectSet::setDefaultRepresentation(Opts.Repr);
  ReportRun Run;
  std::optional<observe::TraceScope> Scope;
  if (Opts.Profile || Opts.Sink)
    Scope.emplace(Opts.Profile ? &Run.Costs : nullptr, Opts.Sink);
  Run.Output = renderForEngine(Opts, P, R);
  return Run;
}

ReportRun Analyzer::reportSource(std::string_view Source,
                                 analysis::ReportOptions R) const {
  EffectSet::setDefaultRepresentation(Opts.Repr);
  ReportRun Run;
  std::optional<observe::TraceScope> Scope;
  if (Opts.Profile || Opts.Sink)
    Scope.emplace(Opts.Profile ? &Run.Costs : nullptr, Opts.Sink);

  observe::ManualSpan ParseSpan("parse");
  frontend::CompileResult CR = frontend::compileMiniProc(Source);
  ParseSpan.close();
  Run.Diagnostics = CR.Diags.renderAll();
  if (!CR.succeeded()) {
    Run.Ok = false;
    return Run;
  }
  Run.Output = renderForEngine(Opts, *CR.Program, R);
  return Run;
}

std::unique_ptr<incremental::AnalysisSession>
Analyzer::open_session(ir::Program Initial) const {
  EffectSet::setDefaultRepresentation(Opts.Repr);
  return std::make_unique<incremental::AnalysisSession>(std::move(Initial),
                                                        Opts.sessionView());
}

std::unique_ptr<demand::DemandSession>
Analyzer::open_demand(ir::Program Initial) const {
  EffectSet::setDefaultRepresentation(Opts.Repr);
  return std::make_unique<demand::DemandSession>(std::move(Initial),
                                                 Opts.demandView());
}

std::unique_ptr<tenant::TenantService>
Analyzer::serve(std::optional<ir::Program> Initial) const {
  EffectSet::setDefaultRepresentation(Opts.Repr);
  return std::make_unique<tenant::TenantService>(Opts.tenantView(),
                                                 std::move(Initial));
}

int Analyzer::runSessionScript(const std::string &Script, std::FILE *Out,
                               observe::CostReport *CostsOut) const {
  EffectSet::setDefaultRepresentation(Opts.Repr);
  std::optional<observe::TraceScope> Scope;
  if ((Opts.Profile && CostsOut) || Opts.Sink)
    Scope.emplace(Opts.Profile ? CostsOut : nullptr, Opts.Sink);

  // Under --engine=demand the script runs against a DemandSession: edits
  // funnel through the same resolved-Edit wire form, and queries solve
  // only the region they touch.
  const bool UseDemand = Opts.Backend == AnalysisOptions::Engine::Demand;
  std::optional<incremental::AnalysisSession> S;
  std::optional<demand::DemandSession> D;
  auto session = [&](unsigned LineNo) -> incremental::AnalysisSession & {
    if (!S)
      throw service::ScriptError{
          LineNo, "no program loaded ('load' or 'gen' must come first)"};
    return *S;
  };
  auto demandSession = [&](unsigned LineNo) -> demand::DemandSession & {
    if (!D)
      throw service::ScriptError{
          LineNo, "no program loaded ('load' or 'gen' must come first)"};
    return *D;
  };

  bool AllChecksPassed = true;
  std::istringstream Lines(Script);
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(Lines, Line)) {
    ++LineNo;
    try {
      std::optional<service::ScriptCommand> Cmd =
          service::parseScriptLine(Line, LineNo);
      if (!Cmd)
        continue;
      using Op = service::ScriptCommand::Op;
      if (Cmd->Kind == Op::Load) {
        std::ifstream In(Cmd->Args[0]);
        if (!In)
          throw service::ScriptError{LineNo,
                                     "cannot open '" + Cmd->Args[0] + "'"};
        std::ostringstream SS;
        SS << In.rdbuf();
        frontend::CompileResult CR = frontend::compileMiniProc(SS.str());
        if (!CR.succeeded())
          throw service::ScriptError{LineNo, CR.Diags.renderAll()};
        if (UseDemand)
          D.emplace(std::move(*CR.Program), Opts.demandView());
        else
          S.emplace(std::move(*CR.Program), Opts.sessionView());
      } else if (Cmd->Kind == Op::Gen) {
        ir::Program P =
            synth::generateProgram(parseGenSpec(Cmd->Args, LineNo));
        if (UseDemand)
          D.emplace(std::move(P), Opts.demandView());
        else
          S.emplace(std::move(P), Opts.sessionView());
      } else if (Cmd->Kind == Op::Stats) {
        if (UseDemand)
          printDemandStats(demandSession(LineNo).stats(), Out);
        else
          printSessionStats(session(LineNo).stats(), Out);
      } else if (Cmd->Kind == Op::Metrics) {
        observe::MetricsRegistry &Reg = observe::MetricsRegistry::global();
        bool Prom = !Cmd->Args.empty() && Cmd->Args[0] == "--format=prom";
        std::string Text = Prom ? observe::prometheusText(Reg) : Reg.toJson();
        std::fprintf(Out, "%s%s", Text.c_str(),
                     (!Text.empty() && Text.back() == '\n') ? "" : "\n");
      } else if (Cmd->Kind == Op::Debug) {
        std::string Trace = observe::flight::renderChromeTrace();
        std::fputs(Trace.c_str(), Out);
      } else if (service::isTenantCommand(Cmd->Kind)) {
        throw service::ScriptError{
            LineNo, "open/close/attach need a server (ipse-cli serve)"};
      } else if (service::isEditCommand(Cmd->Kind)) {
        if (UseDemand) {
          demand::DemandSession &DS = demandSession(LineNo);
          demand::applyEdit(DS,
                            service::resolveEditCommand(DS.program(), *Cmd));
        } else {
          service::applyEditCommand(session(LineNo), *Cmd);
        }
      } else if (UseDemand) {
        service::DemandSessionQueryTarget Target(demandSession(LineNo));
        service::QueryResult R = service::evalQueryCommand(Target, *Cmd);
        std::fprintf(Out, "%s\n", R.Text.c_str());
        AllChecksPassed &= R.CheckOk;
      } else {
        service::SessionQueryTarget Target(session(LineNo));
        service::QueryResult R = service::evalQueryCommand(Target, *Cmd);
        std::fprintf(Out, "%s\n", R.Text.c_str());
        AllChecksPassed &= R.CheckOk;
      }
    } catch (const service::ScriptError &E) {
      std::fprintf(stderr, "session script line %u: %s\n", E.LineNo,
                   E.Message.c_str());
      return 1;
    }
  }
  return AllChecksPassed ? 0 : 1;
}

synth::ProgramGenConfig ipse::parseGenSpec(const std::vector<std::string> &Args,
                                           unsigned LineNo) {
  // The parser moved next to the rest of the script grammar so the tenant
  // service can build programs for `open` without depending on this layer.
  return service::parseGenSpec(Args, LineNo);
}
