//===- analysis/VarMasks.cpp - Shared variable-set masks ---------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "analysis/VarMasks.h"

using namespace ipse;
using namespace ipse::analysis;

VarMasks::VarMasks(const ir::Program &P) {
  const std::size_t V = P.numVars();
  Locals.assign(P.numProcs(), EffectSet(V));
  Global = EffectSet(V);
  Levels.assign(P.maxProcLevel() + 1, EffectSet(V));

  for (std::uint32_t I = 0; I != V; ++I) {
    ir::VarId Id(I);
    const ir::Variable &Var = P.var(Id);
    Locals[Var.Owner.index()].set(I);
    unsigned Level = P.proc(Var.Owner).Level;
    Levels[Level].set(I);
    if (Level == 0)
      Global.set(I);
  }
}

EffectSet analysis::localMask(const ir::Program &P, ir::ProcId Proc) {
  EffectSet M(P.numVars());
  const ir::Procedure PR = P.proc(Proc);
  for (ir::VarId F : PR.Formals)
    M.set(F.index());
  for (ir::VarId L : PR.Locals)
    M.set(L.index());
  return M;
}
