//===- analysis/Report.h - Human-readable analysis reports ------*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders the results of the side-effect pipeline as a stable text report
/// — per-procedure GMOD/GUSE and per-call-site DMOD/DUSE — the format an
/// optimizing compiler's diagnostics would show and the golden corpus
/// tests pin down.
///
/// The rendering itself (renderReport) is a template over any pair of
/// engines exposing the SideEffectAnalyzer query surface, so the batch
/// analyzer and the demand engine produce the report through the same
/// code path — byte-identical by construction, which is what the
/// facade's cross-engine differential tests rely on.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_ANALYSIS_REPORT_H
#define IPSE_ANALYSIS_REPORT_H

#include "ir/Program.h"
#include "observe/Trace.h"
#include "support/EffectSet.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ipse {
namespace analysis {

/// What the report should include.
struct ReportOptions {
  bool IncludeUse = true;      ///< Also run and print the USE problem.
  bool IncludeCallSites = true; ///< Per-call-site DMOD/DUSE lines.
  bool IncludeRMod = false;     ///< Per-formal RMOD/RUSE lines.
};

/// Renders variable sets for one report.  The qualified name of every
/// variable is built once, and its rank in sorted-name order computed by
/// one O(V log V) sort; a set then renders by sorting the integer ranks
/// of its members and appending the cached names.  Same text as
/// ir::setToString, without a string built or compared per member.
class SetRenderer {
public:
  explicit SetRenderer(const ir::Program &P);

  /// Appends \p Set's members' names, in name order, joined by ", ".
  void append(std::string &Out, const EffectSet &Set);

private:
  std::vector<std::string> Names;    ///< Qualified names, by rank.
  std::vector<std::uint32_t> RankOf; ///< Rank, by VarId.
  std::vector<std::uint32_t> Ranks;  ///< Scratch: one set's member ranks.
};

/// Renders the report from finished engines.  \p Mod answers the MOD
/// problem; \p Use (may be null iff !Options.IncludeUse) answers USE.
/// Engines need gmod(ProcId), rmodContains(VarId) and dmod(CallSiteId).
/// Deterministic: procedures in id order, sets sorted by qualified name.
/// Runs under a `render` span.
template <class ModEngine, class UseEngine>
std::string renderReport(const ir::Program &P, ReportOptions Options,
                         const ModEngine &Mod, const UseEngine *Use) {
  observe::TraceSpan Span("render");
  SetRenderer Sets(P);
  std::string Out = "procedures:\n";
  auto Line = [&](const char *Head, const EffectSet &Set) {
    Out += Head;
    Sets.append(Out, Set);
    Out += " }\n";
  };
  for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
    ir::ProcId Proc(I);
    Out.append("  ").append(P.name(Proc)).append(":\n");
    Line("    GMOD = { ", Mod.gmod(Proc));
    if (Options.IncludeUse)
      Line("    GUSE = { ", Use->gmod(Proc));
    if (Options.IncludeRMod) {
      for (ir::VarId F : P.proc(Proc).Formals) {
        Out.append("    ").append(P.name(F)).append(": ");
        Out += Mod.rmodContains(F) ? "RMOD" : "-";
        if (Options.IncludeUse)
          Out += Use->rmodContains(F) ? " RUSE" : " -";
        Out += "\n";
      }
    }
  }

  if (Options.IncludeCallSites) {
    Out += "call sites:\n";
    for (std::uint32_t I = 0; I != P.numCallSites(); ++I) {
      ir::CallSiteId Site(I);
      const ir::CallSite &C = P.callSite(Site);
      Out.append("  s").append(std::to_string(I)).append(": ");
      Out.append(P.name(C.Caller)).append(" -> ");
      Out.append(P.name(C.Callee)).append(":\n");
      Line("    DMOD = { ", Mod.dmod(Site));
      if (Options.IncludeUse)
        Line("    DUSE = { ", Use->dmod(Site));
    }
  }
  return Out;
}

/// Runs the pipeline(s) on \p P and renders the report via renderReport.
std::string makeReport(const ir::Program &P,
                       ReportOptions Options = ReportOptions());

} // namespace analysis
} // namespace ipse

#endif // IPSE_ANALYSIS_REPORT_H
