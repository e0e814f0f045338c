//===- baselines/SwiftStyleSolver.cpp - CK'84-style bit-vector solve ----------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "baselines/SwiftStyleSolver.h"

#include "analysis/IModPlus.h"
#include "graph/Tarjan.h"

using namespace ipse;
using namespace ipse::baselines;
using namespace ipse::graph;

namespace {

/// Shared elimination driver: solve X(p) = Init(p) ∪ ∪_{e=(p,q)} F_e(X(q))
/// on the call multi-graph by SCC condensation with per-component
/// iteration.  ApplyEdge(Site, Out, X) must or F_e(X[callee]) into Out and
/// return true on change.  Returns the number of edge applications.
template <typename ApplyEdgeT>
std::uint64_t eliminate(const ir::Program &P, const CallGraph &CG,
                        std::vector<EffectSet> &X, ApplyEdgeT ApplyEdge) {
  const Digraph &G = CG.graph();
  SccDecomposition Sccs = computeSccs(G);
  std::uint64_t Steps = 0;

  for (std::uint32_t C = 0; C != Sccs.numSccs(); ++C) {
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (NodeId M : Sccs.members(C)) {
        for (const Adjacency &A : G.succs(M)) {
          ++Steps;
          Changed |= ApplyEdge(CG.callSite(A.Edge), X[M], X);
        }
      }
      // Acyclic components stabilize after one sweep; components with
      // cycles iterate until their members' sets stop growing.
      if (Sccs.members(C).size() == 1 && !Changed)
        break;
    }
    (void)P;
  }
  return Steps;
}

} // namespace

SwiftRModResult
baselines::solveSwiftRMod(const ir::Program &P, const CallGraph &CG,
                          const analysis::VarMasks &Masks,
                          const analysis::LocalEffects &Local) {
  const std::size_t V = P.numVars();

  // The universe of phase 1: every formal parameter in the program
  // ("bit vectors as long as the total number of reference formal
  // parameters", §3.2).
  EffectSet FormalsMask(V);
  for (std::uint32_t I = 0; I != V; ++I)
    if (P.var(ir::VarId(I)).Kind == ir::VarKind::Formal)
      FormalsMask.set(I);

  // X(p): formals (own or of enclosing scopes) modified by invoking p.
  std::vector<EffectSet> X;
  X.reserve(P.numProcs());
  for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
    EffectSet Init(V);
    Init.orWithIntersectMinus(Local.extended(ir::ProcId(I)), FormalsMask,
                              EffectSet(V));
    X.push_back(std::move(Init));
  }

  SwiftRModResult Result;
  Result.BitVectorSteps = eliminate(
      P, CG, X,
      [&](ir::CallSiteId Site, EffectSet &Out,
          const std::vector<EffectSet> &Cur) {
        const ir::CallSite &C = P.callSite(Site);
        const ir::Procedure &Callee = P.proc(C.Callee);
        const EffectSet &S = Cur[C.Callee.index()];
        // Formals of enclosing scopes pass through; the callee's own
        // formals project onto formal actuals.
        bool Changed = Out.orWithAndNot(S, Masks.local(C.Callee));
        for (unsigned Pos = 0; Pos != C.Actuals.size(); ++Pos) {
          const ir::Actual &A = C.Actuals[Pos];
          if (!A.isVariable() || !S.test(Callee.Formals[Pos].index()))
            continue;
          if (P.var(A.Var).Kind != ir::VarKind::Formal)
            continue;
          if (!Out.test(A.Var.index())) {
            Out.set(A.Var.index());
            Changed = true;
          }
        }
        return Changed;
      });

  // RMOD(p) = X(p) restricted to p's own formals.
  Result.RMod.ModifiedFormals = EffectSet(V);
  for (std::uint32_t I = 0; I != P.numProcs(); ++I)
    Result.RMod.ModifiedFormals.orWithIntersectMinus(
        X[I], Masks.local(ir::ProcId(I)), EffectSet(V));
  Result.RMod.ModifiedFormals.andWith(FormalsMask);
  return Result;
}

SwiftResult baselines::solveSwift(const ir::Program &P, const CallGraph &CG,
                                  const analysis::VarMasks &Masks,
                                  const analysis::LocalEffects &Local) {
  SwiftResult Result;

  SwiftRModResult Phase1 = solveSwiftRMod(P, CG, Masks, Local);
  Result.BitVectorSteps = Phase1.BitVectorSteps;

  std::vector<EffectSet> G =
      analysis::computeIModPlus(P, Local, Phase1.RMod);
  Result.BitVectorSteps += eliminate(
      P, CG, G,
      [&](ir::CallSiteId Site, EffectSet &Out,
          const std::vector<EffectSet> &Cur) {
        const ir::CallSite &C = P.callSite(Site);
        // Equation (4): everything not local to the callee survives.
        return Out.orWithAndNot(Cur[C.Callee.index()],
                                Masks.local(C.Callee));
      });

  Result.GMod.GMod = std::move(G);
  return Result;
}
