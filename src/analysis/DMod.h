//===- analysis/DMod.h - DMOD and MOD at call sites -------------*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The final projection steps of the pipeline (§2 equation (2) and §5):
///
///   DMOD(s) = LMOD(s) ∪ ∪_{e=(p,q)∈s} be(GMOD(q))
///
/// where the full binding function be at a call of q (i) passes through
/// every member of GMOD(q) that is not local to q (it survives q's return)
/// and (ii) maps each formal of q in GMOD(q) to the variable actual bound
/// to it (non-variable actuals bind no storage and are dropped).  MOD(s)
/// then extends DMOD(s) by one application of the ALIAS(p) pairs:
///
///   ∀x ∈ DMOD(s): if <x,y> ∈ ALIAS(p) then y ∈ MOD(s).
///
/// These are the only bodies of both steps.  The batch analyzer, the
/// demand engine and the service's snapshots all project through them;
/// each supplies GMOD(q) and LOCAL(q) of a callee q its own way (a
/// CalleeSets).
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_ANALYSIS_DMOD_H
#define IPSE_ANALYSIS_DMOD_H

#include "analysis/GMod.h"
#include "analysis/VarMasks.h"
#include "ir/AliasInfo.h"
#include "ir/Program.h"
#include "support/EffectSet.h"

namespace ipse {
namespace analysis {

/// What the projection reads of a callee q: GMOD(q), in the effect kind
/// being projected, and LOCAL(q).
class CalleeSets {
public:
  virtual ~CalleeSets() = default;
  virtual const EffectSet &gmod(ir::ProcId Q) const = 0;
  /// LOCAL(q): a mask the implementation keeps, or one it builds into
  /// \p Scratch and returns.
  virtual const EffectSet &local(ir::ProcId Q, EffectSet &Scratch) const = 0;
};

/// CalleeSets over a batch solution and its VarMasks.
class MaskedCallees final : public CalleeSets {
public:
  MaskedCallees(const VarMasks &Masks, const GModResult &GMod)
      : Masks(Masks), GMod(GMod) {}
  const EffectSet &gmod(ir::ProcId Q) const override { return GMod.of(Q); }
  const EffectSet &local(ir::ProcId Q, EffectSet &) const override {
    return Masks.local(Q);
  }

private:
  const VarMasks &Masks;
  const GModResult &GMod;
};

/// be(GMOD(q)) for one call site: the call's contribution to the DMOD of
/// its enclosing statement.  O(|vars| / word + formals of q).
EffectSet projectCallSite(const ir::Program &P, const CalleeSets &Callees,
                          ir::CallSiteId Site);

/// DMOD(s) by equation (2).
EffectSet dmodOfStmt(const ir::Program &P, const CalleeSets &Callees,
                     ir::StmtId S);

/// MOD(s): DMOD(s) closed (one application) under ALIAS of the enclosing
/// procedure (§5 step 2).  Linear in |DMOD(s)| + |ALIAS(p)|.
EffectSet modOfStmt(const ir::Program &P, const CalleeSets &Callees,
                    const ir::AliasInfo &Aliases, ir::StmtId S);

/// MOD(s) over a batch solution (modOfStmt through MaskedCallees).
EffectSet modOfStmt(const ir::Program &P, const VarMasks &Masks,
                    const GModResult &GMod, const ir::AliasInfo &Aliases,
                    ir::StmtId S);

} // namespace analysis
} // namespace ipse

#endif // IPSE_ANALYSIS_DMOD_H
