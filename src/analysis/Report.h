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

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ipse {
namespace analysis {

/// What the report should include.
struct ReportOptions {
  bool IncludeUse = true;      ///< Also run and print the USE problem.
  bool IncludeCallSites = true; ///< Per-call-site DMOD/DUSE lines.
  bool IncludeRMod = false;     ///< Per-formal RMOD/RUSE lines.
};

/// The name table of one report.  Every variable's qualified name is
/// written once into one byte arena, in the order of the names, so a
/// variable's rank is the position of its name in sorted order.  A set
/// renders as a sorted list of ranks: the names come out of the arena in
/// that order, with no string built or compared per member.  Same text as
/// ir::setToString.
class SetRenderer {
public:
  explicit SetRenderer(const ir::Program &P);

  /// Appends the ranks of \p Set's members to \p Out, ascending.
  void appendSortedRanks(const EffectSet &Set,
                         std::vector<std::uint32_t> &Out) const;

  /// DMOD (or DUSE) of call site \p Site, be(GMOD(q)) as projectCallSite
  /// computes it, as sorted ranks: from \p Callee, GMOD(q) of the
  /// callee q as sorted ranks, with no set built and no sort.  Writes
  /// \p Out.
  void callSiteRanks(ir::CallSiteId Site,
                     std::span<const std::uint32_t> Callee,
                     std::vector<std::uint32_t> &Out);

  /// The bytes of the names, each with its separator, that \p Callee,
  /// the sorted GMOD list of \p Q, passes to the line of each call site:
  /// the members \p Q does not declare.
  std::size_t passBytes(ir::ProcId Q,
                        std::span<const std::uint32_t> Callee) const;

  /// At least lineSize(Head, Ranks) for the Ranks callSiteRanks(Site,
  /// Callee) writes: \p PassBytes, the callee's passBytes, plus the names
  /// of all the bound actuals, a repeated one and one already passed
  /// through included.  No merge.
  std::size_t callSiteLineBound(std::string_view Head, ir::CallSiteId Site,
                                std::span<const std::uint32_t> Callee,
                                std::size_t PassBytes);

  /// Appends \p Head, the names of \p Ranks (ascending) joined by ", ",
  /// and " }\n" to \p Out, growing it once, by the line's exact size.
  void appendLine(std::string &Out, std::string_view Head,
                  std::span<const std::uint32_t> Ranks) const;

  /// The bytes appendLine(Out, Head, Ranks) appends.
  std::size_t lineSize(std::string_view Head,
                       std::span<const std::uint32_t> Ranks) const;

private:
  /// Sets Bound to the sorted ranks of the variable actuals of \p Site
  /// bound to a formal in \p Callee; returns the callee.
  ir::ProcId boundRanks(ir::CallSiteId Site,
                        std::span<const std::uint32_t> Callee);

  static constexpr std::string_view Sep = ", ", Tail = " }\n";

  const ir::Program &P;
  /// Qualified names in rank order, each followed by Sep: name R and its
  /// Sep are Arena[Offset[R], Offset[R+1]).
  std::string Arena;
  std::vector<std::uint32_t> Offset;
  std::vector<std::uint32_t> RankOf;   ///< Rank, by VarId.
  std::vector<ir::ProcId> OwnerOfRank; ///< Declaring procedure, by rank.
  std::vector<std::uint32_t> Bound;    ///< Scratch: one site's bound actuals.
};

/// One sorted rank list per procedure, in one flat pool: every GMOD (or
/// GUSE) set of a report, sorted once.  add() the procedures in id order.
class RankLists {
public:
  void add(const SetRenderer &Names, const EffectSet &Set) {
    const ir::ProcId Proc(static_cast<std::uint32_t>(Pass.size()));
    Names.appendSortedRanks(Set, Pool);
    Offset.push_back(Pool.size());
    Pass.push_back(Names.passBytes(Proc, of(Proc)));
  }

  std::span<const std::uint32_t> of(ir::ProcId Proc) const {
    return {Pool.data() + Offset[Proc.index()],
            Pool.data() + Offset[Proc.index() + 1]};
  }

  std::size_t passBytes(ir::ProcId Proc) const { return Pass[Proc.index()]; }

private:
  std::vector<std::uint32_t> Pool;
  std::vector<std::size_t> Offset{0}; ///< List I: [Offset[I], Offset[I+1]).
  std::vector<std::size_t> Pass;      ///< passBytes, by list.
};

/// Renders the report from finished engines.  \p Mod answers the MOD
/// problem; \p Use (may be null iff !Options.IncludeUse) answers USE.
/// Engines need gmod(ProcId) and rmodContains(VarId) only: each call
/// site's DMOD/DUSE line is projected from its callee's sorted GMOD/GUSE
/// list, as projectCallSite projects the set.  Deterministic: procedures
/// in id order, sets sorted by qualified name.  Runs under a `render`
/// span.
template <class ModEngine, class UseEngine>
std::string renderReport(const ir::Program &P, ReportOptions Options,
                         const ModEngine &Mod, const UseEngine *Use) {
  observe::TraceSpan Span("render");
  SetRenderer Names(P);
  RankLists GMod, GUse;
  for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
    GMod.add(Names, Mod.gmod(ir::ProcId(I)));
    if (Options.IncludeUse)
      GUse.add(Names, Use->gmod(ir::ProcId(I)));
  }

  // The text is emitted twice: once to bound its bytes (a call site's
  // line from its callee's passBytes and its bound actuals, with no
  // merge), then into a string reserved to that bound.  It is allocated
  // once; grown by doubling, its last copy held up to twice the report's
  // bytes.  The bound exceeds the text by the names of the bound actuals
  // that a line lists once: a few bytes per call site.
  std::string Out;
  std::size_t Size = 0;
  bool Sizing = true;
  auto Put = [&](std::string_view Text) {
    if (Sizing)
      Size += Text.size();
    else
      Out.append(Text);
  };
  auto Line = [&](std::string_view Head,
                  std::span<const std::uint32_t> Ranks) {
    if (Sizing)
      Size += Names.lineSize(Head, Ranks);
    else
      Names.appendLine(Out, Head, Ranks);
  };
  std::vector<std::uint32_t> Ranks;
  auto SiteLine = [&](std::string_view Head, ir::CallSiteId Site,
                      ir::ProcId Callee, const RankLists &Lists) {
    if (Sizing) {
      Size += Names.callSiteLineBound(Head, Site, Lists.of(Callee),
                                      Lists.passBytes(Callee));
    } else {
      Names.callSiteRanks(Site, Lists.of(Callee), Ranks);
      Names.appendLine(Out, Head, Ranks);
    }
  };
  auto Emit = [&] {
    Put("procedures:\n");
    for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
      ir::ProcId Proc(I);
      Put("  ");
      Put(P.name(Proc));
      Put(":\n");
      Line("    GMOD = { ", GMod.of(Proc));
      if (Options.IncludeUse)
        Line("    GUSE = { ", GUse.of(Proc));
      if (Options.IncludeRMod) {
        for (ir::VarId F : P.proc(Proc).Formals) {
          Put("    ");
          Put(P.name(F));
          Put(": ");
          Put(Mod.rmodContains(F) ? "RMOD" : "-");
          if (Options.IncludeUse)
            Put(Use->rmodContains(F) ? " RUSE" : " -");
          Put("\n");
        }
      }
    }
    if (!Options.IncludeCallSites)
      return;
    Put("call sites:\n");
    for (std::uint32_t I = 0; I != P.numCallSites(); ++I) {
      ir::CallSiteId Site(I);
      const ir::CallSite &C = P.callSite(Site);
      Put("  s");
      Put(std::to_string(I));
      Put(": ");
      Put(P.name(C.Caller));
      Put(" -> ");
      Put(P.name(C.Callee));
      Put(":\n");
      SiteLine("    DMOD = { ", Site, C.Callee, GMod);
      if (Options.IncludeUse)
        SiteLine("    DUSE = { ", Site, C.Callee, GUse);
    }
  };
  Emit();
  Out.reserve(Size);
  Sizing = false;
  Emit();
  assert(Out.size() <= Size && "report size underestimated");
  return Out;
}

/// Runs the pipeline(s) on \p P and renders the report via renderReport.
std::string makeReport(const ir::Program &P,
                       ReportOptions Options = ReportOptions());

} // namespace analysis
} // namespace ipse

#endif // IPSE_ANALYSIS_REPORT_H
