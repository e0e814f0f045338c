//===- analysis/LocalEffects.h - LMOD / IMOD collection ---------*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Computes the paper's IMOD sets (§2):
///
///   IMOD(p) = ∪_{s∈p} LMOD(s)
///
/// and the §3.3 lexical-nesting extension, which treats the bodies of
/// procedures nested in p as extensions of p's body:
///
///   IMOD(p) = ∪_{s∈p} LMOD(s) ∪ ∪_{q∈Nest(p)} (IMOD(q) \ LOCAL(q))
///
/// computed bottom-up over the nesting tree in time linear in the program.
/// For a two-level program the two coincide.  (The paper writes the filter
/// as an intersection with LOCAL(q); the lost overbar — see DESIGN.md —
/// makes it set subtraction.)
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_ANALYSIS_LOCALEFFECTS_H
#define IPSE_ANALYSIS_LOCALEFFECTS_H

#include "analysis/EffectKind.h"
#include "analysis/VarMasks.h"
#include "ir/Program.h"
#include "support/EffectSet.h"

#include <vector>

namespace ipse {
namespace analysis {

/// Per-procedure initially-modified (or initially-used) sets.
class LocalEffects {
public:
  /// Computes IMOD (own and nesting-extended) for every procedure.
  LocalEffects(const ir::Program &P, const VarMasks &Masks, EffectKind Kind);

  /// IMOD(p) considering only statements literally in p's body.
  const EffectSet &own(ir::ProcId P) const { return Own[P.index()]; }

  /// The §3.3 nesting-extended IMOD(p).  Equal to own(p) when p nests no
  /// procedures.
  const EffectSet &extended(ir::ProcId P) const { return Ext[P.index()]; }

  /// True iff formal \p F is directly modified (used) within its owner's
  /// extended body — the IMOD(fp_i^p) node value of §3.2.
  bool formalBit(const ir::Program &P, ir::VarId F) const {
    assert(P.var(F).Kind == ir::VarKind::Formal && "not a formal");
    return Ext[P.var(F).Owner.index()].test(F.index());
  }

  EffectKind kind() const { return Kind; }

  /// Moves the own / extended planes out, one per procedure, leaving this
  /// object empty — for callers that keep them past the analysis (the
  /// demand engine's batch path installs them as its resident planes).
  std::vector<EffectSet> takeOwn() { return std::move(Own); }
  std::vector<EffectSet> takeExtended() { return std::move(Ext); }

  /// IMOD(p) from \p Proc's own body alone, recomputed from the program —
  /// the per-procedure re-propagation entry point the incremental engine
  /// uses after an LMOD/LUSE delta.  Equals own(Proc) on a fresh program.
  static EffectSet computeOwn(const ir::Program &P, std::size_t NumVars,
                              EffectKind Kind, ir::ProcId Proc);

private:
  std::vector<EffectSet> Own;
  std::vector<EffectSet> Ext;
  EffectKind Kind;
};

} // namespace analysis
} // namespace ipse

#endif // IPSE_ANALYSIS_LOCALEFFECTS_H
