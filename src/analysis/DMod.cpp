//===- analysis/DMod.cpp - DMOD and MOD at call sites -------------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "analysis/DMod.h"

using namespace ipse;
using namespace ipse::analysis;

namespace {

/// Out ∪= be(GMOD(q)) for the call \p Site of q.
void addCallSite(const ir::Program &P, const CalleeSets &Callees,
                 ir::CallSiteId Site, EffectSet &Scratch, EffectSet &Out) {
  const ir::CallSite &C = P.callSite(Site);
  const ir::Procedure &Callee = P.proc(C.Callee);
  const EffectSet &G = Callees.gmod(C.Callee);

  // Pass-through of everything that outlives the callee's activation.
  Out.orWithAndNot(G, Callees.local(C.Callee, Scratch));

  // Formal-to-actual projection.
  for (unsigned Pos = 0; Pos != C.Actuals.size(); ++Pos) {
    const ir::Actual &A = C.Actuals[Pos];
    if (A.isVariable() && G.test(Callee.Formals[Pos].index()))
      Out.set(A.Var.index());
  }
}

} // namespace

EffectSet analysis::projectCallSite(const ir::Program &P,
                                    const CalleeSets &Callees,
                                    ir::CallSiteId Site) {
  EffectSet Out(P.numVars()), Scratch;
  addCallSite(P, Callees, Site, Scratch, Out);
  return Out;
}

EffectSet analysis::dmodOfStmt(const ir::Program &P, const CalleeSets &Callees,
                               ir::StmtId S) {
  const ir::Statement &Stmt = P.stmt(S);
  EffectSet Out(P.numVars()), Scratch;
  for (ir::VarId V : Stmt.LMod)
    Out.set(V.index());
  for (ir::CallSiteId C : Stmt.Calls)
    addCallSite(P, Callees, C, Scratch, Out);
  return Out;
}

EffectSet analysis::modOfStmt(const ir::Program &P, const CalleeSets &Callees,
                              const ir::AliasInfo &Aliases, ir::StmtId S) {
  const EffectSet DMod = dmodOfStmt(P, Callees, S);
  ir::ProcId Proc = P.stmt(S).Parent;
  // One application of the pairs against DMOD(s): aliases of DMOD members
  // join MOD, but newly added variables do not trigger further pairs (§5).
  EffectSet Out = DMod;
  for (const auto &[X, Y] : Aliases.pairs(Proc)) {
    if (DMod.test(X.index()))
      Out.set(Y.index());
    if (DMod.test(Y.index()))
      Out.set(X.index());
  }
  return Out;
}

EffectSet analysis::modOfStmt(const ir::Program &P, const VarMasks &Masks,
                              const GModResult &GMod,
                              const ir::AliasInfo &Aliases, ir::StmtId S) {
  return modOfStmt(P, MaskedCallees(Masks, GMod), Aliases, S);
}
