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
  bool TrackUse = true;
  observe::CostReport Costs;
  // Both kinds over one shape.
  std::optional<analysis::BatchAnalysis> Batch;
};

Analysis::Analysis(std::unique_ptr<Impl> Impl) : I(std::move(Impl)) {}
Analysis::Analysis(Analysis &&) noexcept = default;
Analysis &Analysis::operator=(Analysis &&) noexcept = default;
Analysis::~Analysis() = default;

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
  return I->Batch->of(Kind).gmod(Proc);
}

bool Analysis::rmodContains(ir::VarId Formal, EffectKind Kind) const {
  assert((Kind == EffectKind::Mod || I->TrackUse) &&
         "USE queries need AnalysisOptions::TrackUse");
  return I->Batch->of(Kind).rmodContains(Formal);
}

EffectSet Analysis::dmod(ir::StmtId S) const { return I->Batch->Mod.dmod(S); }

EffectSet Analysis::dmod(ir::CallSiteId C) const {
  return dmod(C, EffectKind::Mod);
}

EffectSet Analysis::dmod(ir::CallSiteId C, EffectKind Kind) const {
  assert((Kind == EffectKind::Mod || I->TrackUse) &&
         "USE queries need AnalysisOptions::TrackUse");
  return I->Batch->of(Kind).dmod(C);
}

EffectSet Analysis::mod(ir::StmtId S, const ir::AliasInfo &Aliases) const {
  return I->Batch->Mod.mod(S, Aliases);
}

const analysis::GModResult &Analysis::gmodResult(EffectKind Kind) const {
  assert((Kind == EffectKind::Mod || I->TrackUse) &&
         "USE queries need AnalysisOptions::TrackUse");
  return I->Batch->of(Kind).gmodResult();
}

std::string Analysis::setToString(const EffectSet &Set) const {
  return I->Batch->Mod.setToString(Set);
}

//===----------------------------------------------------------------------===//
// Analyzer.
//===----------------------------------------------------------------------===//

namespace {

void printDemandStats(const demand::DemandStats &St, std::FILE *Out) {
  std::fprintf(Out,
               "edits %llu  queries %llu  region-solves %llu"
               "  region-procs %llu  batch-solves %llu  memo-hits %llu"
               "  invalidations %llu  absorbed %llu  components %llu"
               "  full-resets %llu\n",
               (unsigned long long)St.EditsApplied,
               (unsigned long long)St.Queries,
               (unsigned long long)St.RegionSolves,
               (unsigned long long)St.RegionProcs,
               (unsigned long long)St.BatchSolves,
               (unsigned long long)St.MemoHits,
               (unsigned long long)St.Invalidations,
               (unsigned long long)St.AbsorbedEdits,
               (unsigned long long)St.ComponentsRecomputed,
               (unsigned long long)St.FullResets);
}

} // namespace

Analysis Analyzer::analyze(const ir::Program &P) const {
  EffectSet::setDefaultRepresentation(Opts.Repr);
  auto Impl = std::make_unique<Analysis::Impl>();
  Impl->TrackUse = Opts.TrackUse;
  {
    std::optional<observe::TraceScope> Scope;
    if (Opts.Profile || Opts.Sink)
      Scope.emplace(Opts.Profile ? &Impl->Costs : nullptr, Opts.Sink);
    Impl->Batch.emplace(P, Opts.TrackUse);
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
  observe::TraceSpan Span("report");
  Run.Output = analysis::makeReport(P, R);
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
  observe::TraceSpan Span("report");
  Run.Output = analysis::makeReport(*CR.Program, R);
  return Run;
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

  // The script drives one DemandSession.  As in the server, each query
  // solves only the region it touches.
  std::optional<demand::DemandSession> D;
  auto session = [&](unsigned LineNo) -> demand::DemandSession & {
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
        D.emplace(std::move(*CR.Program), Opts.demandView());
      } else if (Cmd->Kind == Op::Gen) {
        ir::Program P =
            synth::generateProgram(parseGenSpec(Cmd->Args, LineNo));
        D.emplace(std::move(P), Opts.demandView());
      } else if (Cmd->Kind == Op::Stats) {
        printDemandStats(session(LineNo).stats(), Out);
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
        service::applyEditCommand(session(LineNo), *Cmd);
      } else {
        service::DemandSessionQueryTarget Target(session(LineNo));
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
