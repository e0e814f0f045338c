//===- analysis/LevelSolvers.cpp - Condensation GMOD kernel -------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "analysis/LevelSolvers.h"

using namespace ipse;
using namespace ipse::analysis;
using namespace ipse::graph;

GModResult analysis::solveGModLevels(const ir::Program &P,
                                     const graph::CallGraph &CG,
                                     const SccDecomposition &Sccs,
                                     const VarMasks &Masks,
                                     const std::vector<EffectSet> &IModPlus) {
  const unsigned DP = P.maxProcLevel();
  const Digraph &G = CG.graph();
  assert(Sccs.SccOf.size() == G.numNodes() && "SCCs of another graph");

  const std::size_t V = P.numVars();

  // Below[L] = variables declared at nesting levels < L: the §4 filter for
  // an edge whose callee sits at level L (only those variables survive the
  // return).  For two-level programs Below[1] is exactly GLOBAL, making
  // this the Figure 2 filter.  Dense whatever the set policy: every fold
  // filters through one, and a dense filter keeps dense folds on the plain
  // word loop (a sparse one sends them through a word cursor).
  std::vector<EffectSet> Below(
      DP + 1, EffectSet(V, EffectSet::Representation::Dense));
  for (unsigned L = 1; L <= DP; ++L) {
    Below[L] = Below[L - 1];
    Below[L].orWith(Masks.level(L - 1));
  }

  GModResult Result;
  Result.GMod.resize(P.numProcs());

  struct IntraEdge {
    std::uint32_t From; ///< Caller procedure index.
    std::uint32_t To;   ///< Callee procedure index (same component).
    unsigned CalleeLevel;
  };

  // Flat per-procedure nesting levels: the per-edge filter choice becomes
  // one array load instead of a Program::proc chase.
  std::vector<unsigned> ProcLevel(P.numProcs());
  for (std::uint32_t I = 0; I != P.numProcs(); ++I)
    ProcLevel[I] = P.proc(ir::ProcId(I)).Level;

  auto Kernel = [&](std::uint32_t C) {
    std::span<const NodeId> Members = Sccs.members(C);

    // Init members from IMOD+ and fold cross edges: callee components
    // have lower ids, so they ran before this one and are final.
    std::vector<IntraEdge> Intra;
    bool Uniform = true;
    unsigned UniformLevel = 0;
    for (NodeId M : Members)
      Result.GMod[M] = IModPlus[M];
    for (NodeId M : Members) {
      // One adjacency per call site (C is a multi-graph), in call-site
      // order — the same edges and order the sequential solvers walk.
      for (const Adjacency &A : G.succs(M)) {
        const std::uint32_t Q = A.Dst;
        const unsigned Level = ProcLevel[Q];
        if (Sccs.SccOf[Q] == C) {
          if (Intra.empty())
            UniformLevel = Level;
          else
            Uniform &= Level == UniformLevel;
          Intra.push_back({M, Q, Level});
        } else {
          Result.GMod[M].orWithIntersect(Result.GMod[Q], Below[Level]);
        }
      }
    }
    if (Intra.empty())
      return;

    if (Uniform) {
      // Representative fast path (the paper's SCC collapse): when every
      // intra edge carries the same filter F = Below[UniformLevel], the
      // fixed point is Val[m] = Init[m] ∪ (∪_n Init[n] ∩ F) for every
      // member — strong connectivity routes each member's filtered
      // contribution to all others, and F∘F = F closes the loop.  Two
      // linear sweeps instead of an O(diameter)-round iteration, which
      // is what keeps a single giant SCC from serializing the solve.
      // Rep collects only filtered bits, so it stays as small (and as
      // sparse) as what it hands every member.
      EffectSet Rep(V);
      for (NodeId M : Members)
        Rep.orWithIntersect(Result.GMod[M], Below[UniformLevel]);
      for (NodeId M : Members)
        Result.GMod[M].orWith(Rep);
      return;
    }

    // Mixed callee levels inside one component (possible only with
    // nesting, e.g. a recursion cycle through different levels): iterate
    // the per-edge updates to the local fixed point, Gauss–Seidel style.
    // Deterministic: fixed edge order over this component's own vectors.
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (const IntraEdge &E : Intra)
        Changed |= Result.GMod[E.From].orWithIntersect(Result.GMod[E.To],
                                                       Below[E.CalleeLevel]);
    }
  };

  // Ascending id order: reverse-topological (graph/Tarjan.h), so callees
  // before callers.
  for (std::uint32_t C = 0; C != Sccs.numSccs(); ++C)
    Kernel(C);
  return Result;
}
