//===- analysis/MultiLevelGMod.cpp - GMOD with nested scoping ----------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
//
// Correctness sketch (details in DESIGN.md): a variable v declared at level
// i-1 by procedure d belongs to GMOD(p) — beyond IMOD+(p) — exactly when a
// call chain from p reaches, without ever invoking d, a procedure whose
// IMOD+ contains v.  Lexical scoping confines such chains to procedures
// nested inside d, which all sit at levels >= i, so the chains of problem i
// (edges whose callee level is >= i) capture them exactly, and v is never
// local to any procedure on such a chain (no kills: pure reachability).
// Visibility also confines every nontrivial G_i component and every
// DFS-tree path between its members to d's subtree, which is what makes
// the per-problem Tarjan bookkeeping of the combined variant sound inside
// one full-graph DFS.
//
//===----------------------------------------------------------------------===//

#include "analysis/MultiLevelGMod.h"

#include "graph/Tarjan.h"

#include <algorithm>

using namespace ipse;
using namespace ipse::analysis;
using namespace ipse::graph;

/// Level of the procedure a call-graph node represents.
static unsigned levelOf(const ir::Program &P, NodeId N) {
  return P.proc(ir::ProcId(N)).Level;
}

GModResult
analysis::solveMultiLevelRepeated(const ir::Program &P, const CallGraph &CG,
                                  const VarMasks &Masks,
                                  const std::vector<EffectSet> &IModPlus) {
  const Digraph &G = CG.graph();
  const std::size_t N = G.numNodes();
  const std::size_t V = P.numVars();
  const unsigned DP = P.maxProcLevel();

  GModResult Result;
  Result.GMod = IModPlus;

  for (unsigned Level = 1; Level <= DP; ++Level) {
    // Problem `Level`: the subgraph keeping edges whose callee is declared
    // at `Level` or deeper, tracking the variables declared at Level-1.
    Digraph Sub(N);
    for (EdgeId E = 0; E != G.numEdges(); ++E)
      if (levelOf(P, G.edgeTarget(E)) >= Level)
        Sub.addEdge(G.edgeSource(E), G.edgeTarget(E));
    Sub.finalize();

    SccDecomposition Sccs = computeSccs(Sub);
    const EffectSet &Tracked = Masks.level(Level - 1);

    // Reachability union over the condensation; SCC ids are already in
    // reverse topological order, so one increasing sweep suffices.
    std::vector<EffectSet> Soln(Sccs.numSccs(), EffectSet(V));
    EffectSet Empty(V);
    for (std::uint32_t C = 0; C != Sccs.numSccs(); ++C) {
      EffectSet &S = Soln[C];
      for (NodeId M : Sccs.members(C)) {
        S.orWithIntersectMinus(IModPlus[M], Tracked, Empty);
        for (const Adjacency &A : Sub.succs(M)) {
          std::uint32_t SuccC = Sccs.SccOf[A.Dst];
          if (SuccC != C)
            S.orWith(Soln[SuccC]);
        }
      }
    }

    for (NodeId M = 0; M != N; ++M)
      Result.GMod[M].orWith(Soln[Sccs.SccOf[M]]);
  }
  return Result;
}

GModResult
analysis::solveMultiLevelCombined(const ir::Program &P, const CallGraph &CG,
                                  const VarMasks &Masks,
                                  const std::vector<EffectSet> &IModPlus) {
  const Digraph &G = CG.graph();
  const std::size_t N = G.numNodes();
  const std::size_t V = P.numVars();
  const unsigned DP = P.maxProcLevel();
  constexpr std::uint32_t Unvisited = 0;

  GModResult Result;
  Result.GMod = IModPlus;
  if (DP == 0)
    return Result; // Only main exists; nothing to propagate.

  // Below[L] = variables declared at levels 0..L-1.  The equation-(4)
  // filter across an edge whose callee sits at level L is exactly Below[L]
  // (everything shallower than the callee survives its return).
  std::vector<EffectSet> Below(DP + 1, EffectSet(V));
  for (unsigned L = 1; L <= DP; ++L) {
    Below[L] = Below[L - 1];
    Below[L].orWith(Masks.level(L - 1));
  }

  std::vector<std::uint32_t> Dfn(N, Unvisited);
  // Lowlink vectors, one slot per problem 1..DP, laid out row-major.
  std::vector<std::uint32_t> LL(N * DP, 0);
  auto lowlink = [&](NodeId Node, unsigned Problem) -> std::uint32_t & {
    assert(Problem >= 1 && Problem <= DP && "bad problem index");
    return LL[std::size_t(Node) * DP + (Problem - 1)];
  };

  // Parallel stacks: node W is on stacks 1..StackLevel[W].  Pops happen
  // from deeper problems first (their components are subsets and close no
  // later), keeping the membership range a prefix.
  std::vector<std::vector<NodeId>> Stacks(DP + 1);
  std::vector<unsigned> StackLevel(N, 0);

  std::uint32_t NextDfn = 1;
  struct Frame {
    NodeId Node;
    std::uint32_t AdjPos;
  };
  std::vector<Frame> DfsStack;

  auto enter = [&](NodeId W) {
    Dfn[W] = NextDfn++;
    for (unsigned I = 1; I <= DP; ++I) {
      lowlink(W, I) = Dfn[W];
      Stacks[I].push_back(W);
    }
    StackLevel[W] = DP;
    DfsStack.push_back({W, 0});
  };

  std::vector<NodeId> Roots;
  Roots.push_back(P.main().index());
  for (NodeId W = 0; W != N; ++W)
    if (W != P.main().index())
      Roots.push_back(W);

  for (NodeId Root : Roots) {
    if (Dfn[Root] != Unvisited)
      continue;
    enter(Root);

    while (!DfsStack.empty()) {
      Frame &F = DfsStack.back();
      NodeId VNode = F.Node;
      std::span<const Adjacency> Succs = G.succs(VNode);

      if (F.AdjPos < Succs.size()) {
        NodeId W = Succs[F.AdjPos++].Dst;
        if (Dfn[W] == Unvisited) {
          enter(W);
          continue;
        }
        unsigned CalleeLevel = levelOf(P, W);
        // Problems 1..J still see W on their stack; problems J+1..Callee
        // level have W's component closed already.
        unsigned J = std::min<unsigned>(CalleeLevel, StackLevel[W]);
        if (J >= 1 && Dfn[W] < Dfn[VNode])
          lowlink(VNode, J) = std::min(lowlink(VNode, J), Dfn[W]);
        // Equation (4) across the edge for the problems whose component at
        // W is closed (sound but partial for the still-open ones, exactly
        // as in findgmod; the component adjustment completes those).
        Result.GMod[VNode].orWithIntersectMinus(
            Result.GMod[W], Below[CalleeLevel],
            Dfn[W] < Dfn[VNode] ? Below[J] : Below[StackLevel[W]]);
        continue;
      }

      // Correct the lowlink vector: a slot-J update stands for every
      // problem I <= J (deeper problems' graphs are subsets), so propagate
      // minima from deeper problems to shallower ones.
      for (unsigned I = DP - 1; I >= 1; --I) {
        lowlink(VNode, I) =
            std::min(lowlink(VNode, I), lowlink(VNode, I + 1));
        if (I == 1)
          break;
      }

      // Per-problem component closing, deepest problem first.
      for (unsigned I = DP; I >= 1; --I) {
        if (lowlink(VNode, I) == Dfn[VNode]) {
          std::vector<NodeId> &S = Stacks[I];
          while (true) {
            NodeId U = S.back();
            S.pop_back();
            StackLevel[U] = I - 1;
            if (U != VNode)
              Result.GMod[U].orWithIntersectMinus(
                  Result.GMod[VNode], Below[I], Below[I - 1]);
            if (U == VNode)
              break;
          }
        }
        if (I == 1)
          break;
      }

      DfsStack.pop_back();
      if (!DfsStack.empty()) {
        NodeId Parent = DfsStack.back().Node;
        unsigned CalleeLevel = levelOf(P, VNode);
        for (unsigned I = 1; I <= CalleeLevel; ++I)
          lowlink(Parent, I) = std::min(lowlink(Parent, I), lowlink(VNode, I));
        Result.GMod[Parent].orWithIntersectMinus(
            Result.GMod[VNode], Below[CalleeLevel], Below[0]);
      }
    }
  }
  return Result;
}
