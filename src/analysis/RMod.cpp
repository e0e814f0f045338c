//===- analysis/RMod.cpp - RMOD on the binding multi-graph --------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "analysis/RMod.h"

using namespace ipse;
using namespace ipse::analysis;

RModResult analysis::solveRModOnBits(const ir::Program &P,
                                     const graph::BindingGraph &BG,
                                     const graph::SccDecomposition &Sccs,
                                     const EffectSet &FormalBits) {
  assert(FormalBits.size() == P.numVars() && "formal bits over wrong universe");
  RModResult Result;
  Result.ModifiedFormals = EffectSet(P.numVars());
  std::uint64_t Steps = 0;

  // Formals without a β node: RMOD bit = IMOD bit (no binding events).
  // Formals with a node are seeded the same way; β propagation adds more.
  for (std::uint32_t I = 0; I != P.numProcs(); ++I)
    for (ir::VarId F : P.proc(ir::ProcId(I)).Formals) {
      ++Steps;
      if (FormalBits.test(F.index()))
        Result.ModifiedFormals.set(F.index());
    }

  const graph::Digraph &G = BG.graph();
  assert(Sccs.SccOf.size() == G.numNodes() && "SCCs of another graph");

  // Steps (2)+(3) fused: SCC ids are in reverse topological order, so a
  // single sweep in increasing id sees every successor component first.
  // The representer value of a component is IMOD of its members or'ed with
  // the RMOD of every component reachable by one edge (equation (6)).
  std::vector<char> SccRMod(Sccs.numSccs(), 0);
  for (std::uint32_t C = 0; C != Sccs.numSccs(); ++C) {
    char Value = 0;
    for (graph::NodeId N : Sccs.members(C)) {
      ++Steps;
      Value |= FormalBits.test(BG.formal(N).index()) ? 1 : 0;
      for (const graph::Adjacency &A : G.succs(N)) {
        ++Steps;
        // Same-component edges contribute nothing new; successor
        // components are already final (reverse topological order).
        Value |= SccRMod[Sccs.SccOf[A.Dst]];
      }
      if (Value)
        break; // Early exit: the component's value is already true.
    }
    // Even with the early exit we must still or in successors of the
    // remaining members when Value is false; the loop above only breaks
    // when Value became true, so reaching here with 0 means all members
    // and successors were examined.
    SccRMod[C] = Value;
  }

  // Step (4): copy the representer value to every member.
  for (std::uint32_t C = 0; C != Sccs.numSccs(); ++C) {
    if (!SccRMod[C])
      continue;
    for (graph::NodeId N : Sccs.members(C)) {
      ++Steps;
      Result.ModifiedFormals.set(BG.formal(N).index());
    }
  }

  Result.BooleanSteps = Steps;
  return Result;
}

EffectSet analysis::formalBits(const ir::Program &P,
                               const LocalEffects &Local) {
  EffectSet Bits(P.numVars());
  for (std::uint32_t I = 0; I != P.numProcs(); ++I)
    for (ir::VarId F : P.proc(ir::ProcId(I)).Formals)
      if (Local.formalBit(P, F))
        Bits.set(F.index());
  return Bits;
}

RModResult analysis::solveRMod(const ir::Program &P,
                               const graph::BindingGraph &BG,
                               const LocalEffects &Local) {
  return solveRModOnBits(P, BG, graph::computeSccs(BG.graph()),
                         formalBits(P, Local));
}
