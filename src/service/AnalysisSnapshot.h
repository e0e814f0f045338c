//===- service/AnalysisSnapshot.h - Immutable analysis results --*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One immutable, self-contained copy of a full analysis solution: the
/// program as of some session generation, the shared variable masks, and
/// the per-effect-kind GMOD / RMOD results.  The service publishes a new
/// snapshot after each committed edit batch (a shared_ptr swap)
/// and readers answer every query from whichever snapshot they pinned —
/// MVCC in miniature: readers never block writers, writers never tear
/// readers, and a pinned snapshot stays valid for as long as the pin is
/// held, regardless of how many generations the writer publishes meanwhile.
///
/// Self-containment is the invariant that makes the concurrency story
/// trivial: a snapshot holds copies, not references into the session, so
/// nothing a reader touches is ever written again.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_SERVICE_ANALYSISSNAPSHOT_H
#define IPSE_SERVICE_ANALYSISSNAPSHOT_H

#include "analysis/EffectKind.h"
#include "analysis/GMod.h"
#include "analysis/VarMasks.h"
#include "ir/AliasInfo.h"
#include "ir/Program.h"
#include "service/ScriptDriver.h"
#include "support/EffectSet.h"

#include <memory>

namespace ipse {
namespace service {

class AnalysisSnapshot final : public QueryTarget {
public:
  /// Solves whatever \p Session has not covered (ensureSolvedAll) and
  /// copies the full solution.  \p Generation is the session generation
  /// the copy reflects (the service passes Session.generation() after
  /// draining an edit batch).
  static std::shared_ptr<const AnalysisSnapshot>
  capture(demand::DemandSession &Session, std::uint64_t Generation);

  /// Copies a demand session's planes as they stand — solved procedures
  /// only, no fixed-point work.  Readers must gate every query through
  /// covers(); the service falls back to the writer (which extends the
  /// region and republishes) when a query names an uncovered procedure.
  /// Soundness of per-procedure coverage: Solved(p) implies every
  /// procedure p's answers depend on is also Solved, so covered planes
  /// hold final bits even though the rest of the plane is stale or empty.
  static std::shared_ptr<const AnalysisSnapshot>
  capturePartial(demand::DemandSession &Session, std::uint64_t Generation);

  std::uint64_t generation() const { return Gen; }

  /// The program state this snapshot was computed from.
  const ir::Program &program() const override { return P; }

  const EffectSet &gmod(ir::ProcId Proc) const override {
    assert(covered(Proc, analysis::EffectKind::Mod) && "uncovered GMOD read");
    return ModResult.of(Proc);
  }
  const EffectSet &guse(ir::ProcId Proc) const override {
    assert(HasUse && "guse on a snapshot without a USE pipeline");
    assert(covered(Proc, analysis::EffectKind::Use) && "uncovered GUSE read");
    return UseResult.of(Proc);
  }
  bool rmodContains(ir::VarId Formal,
                    analysis::EffectKind Kind) const override {
    return (Kind == analysis::EffectKind::Mod ? ModRMod : UseRMod)
        .test(Formal.index());
  }
  EffectSet modNoAlias(ir::StmtId S) const override;
  EffectSet useNoAlias(ir::StmtId S) const override;
  EffectSet dmodSite(ir::CallSiteId C) const override;

  bool tracksUse() const override { return HasUse; }

  /// True when this snapshot holds only a solved region (capturePartial).
  bool partial() const { return Partial; }

  /// True when \p Proc's plane entries are final in \p Kind.  Full
  /// snapshots cover everything.
  bool covered(ir::ProcId Proc, analysis::EffectKind Kind) const {
    if (!Partial)
      return true;
    const std::vector<char> &C =
        Kind == analysis::EffectKind::Mod ? ModCovered : UseCovered;
    return Proc.index() < C.size() && C[Proc.index()];
  }

  /// True when \p Cmd (a query command) is answerable from this snapshot's
  /// covered region.  Commands with unresolvable names report covered —
  /// they fail identically against any target, so the normal evaluation
  /// path should render the error.
  bool covers(const ScriptCommand &Cmd) const;

private:
  AnalysisSnapshot() = default;

  /// be(GMOD(callee)) for partial snapshots, which carry no VarMasks: the
  /// callee's local mask is rebuilt per call, keeping resident memory
  /// proportional to the solved region instead of O(procs × vars).
  EffectSet projectSitePartial(const analysis::GModResult &G,
                               ir::CallSiteId Site) const;
  EffectSet effectOfStmtPartial(const analysis::GModResult &G,
                                ir::StmtId S) const;

  std::uint64_t Gen = 0;
  ir::Program P;
  std::unique_ptr<analysis::VarMasks> Masks;
  analysis::GModResult ModResult, UseResult;
  EffectSet ModRMod, UseRMod;
  ir::AliasInfo NoAliases;
  bool HasUse = false;
  bool Partial = false;
  std::vector<char> ModCovered, UseCovered;
};

} // namespace service
} // namespace ipse

#endif // IPSE_SERVICE_ANALYSISSNAPSHOT_H
