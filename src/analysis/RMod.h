//===- analysis/RMod.h - RMOD on the binding multi-graph --------*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's first contribution (§3.2, Figure 1): RMOD(p) — the formal
/// parameters of p that may be modified by an invocation of p — computed on
/// the binding multi-graph β by the four-step algorithm:
///
///   (1) find the strongly connected components of β;
///   (2) replace each SCC by a representer whose IMOD is the or of its
///       members' IMOD bits;
///   (3) traverse the derived graph from leaves to roots applying
///       equation (6):  RMOD(m) = IMOD(m) ∨ ∨_{e=(m,n)∈Eβ} RMOD(n);
///   (4) copy each representer's RMOD back to the SCC members.
///
/// Every step is O(Nβ + Eβ) *simple boolean* steps — the order-of-magnitude
/// improvement over bit-vector methods that §3.2 argues for.  Formals that
/// participate in no binding event have no β node; for them RMOD is just
/// their IMOD bit (equation (6) with no edges).
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_ANALYSIS_RMOD_H
#define IPSE_ANALYSIS_RMOD_H

#include "analysis/LocalEffects.h"
#include "graph/BindingGraph.h"
#include "graph/Tarjan.h"
#include "ir/Program.h"
#include "support/EffectSet.h"

namespace ipse {
namespace analysis {

/// The solution of the reference-formal-parameter problem.
struct RModResult {
  /// One bit per VarId index; set exactly for the formals f with
  /// f ∈ RMOD(owner(f)).
  EffectSet ModifiedFormals;

  /// Simple boolean steps the solver performed (for E1 measurements).
  std::uint64_t BooleanSteps = 0;

  bool contains(ir::VarId Formal) const {
    return ModifiedFormals.test(Formal.index());
  }
};

/// The IMOD(fp_i^p) node values: one bit per formal directly modified
/// (used) within its owner's nesting-extended body (§3.2, §3.3).
EffectSet formalBits(const ir::Program &P, const LocalEffects &Local);

/// Runs Figure 1 on \p BG.  \p Local supplies the IMOD(fp_i^p) node values
/// (nesting-extended, per §3.3).
RModResult solveRMod(const ir::Program &P, const graph::BindingGraph &BG,
                     const LocalEffects &Local);

/// Runs Figure 1 over \p Sccs, the SCCs of \p BG (step (1)), with explicit
/// per-formal IMOD node values.  \p FormalBits has one bit per VarId index;
/// only formal indices are consulted.  solveRMod() is this with the SCCs
/// computed there and bits drawn from \p Local.
RModResult solveRModOnBits(const ir::Program &P, const graph::BindingGraph &BG,
                           const graph::SccDecomposition &Sccs,
                           const EffectSet &FormalBits);

} // namespace analysis
} // namespace ipse

#endif // IPSE_ANALYSIS_RMOD_H
