//===- graph/Tarjan.cpp - Strongly connected components ---------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "graph/Tarjan.h"

#include <algorithm>

using namespace ipse;
using namespace ipse::graph;

SccDecomposition graph::computeSccs(const Digraph &G) {
  const std::size_t N = G.numNodes();
  constexpr std::uint32_t Unvisited = 0;

  std::vector<std::uint32_t> Dfn(N, Unvisited);
  std::vector<std::uint32_t> LowLink(N, 0);
  std::vector<bool> OnStack(N, false);
  std::vector<NodeId> SccStack;
  std::uint32_t NextDfn = 1;

  SccDecomposition Result;
  Result.SccOf.assign(N, 0);
  Result.Members.reserve(N);
  Result.Offsets.reserve(N + 1);

  // Explicit DFS stack; AdjPos is the index of the next successor to visit.
  struct Frame {
    NodeId Node;
    std::uint32_t AdjPos;
  };
  std::vector<Frame> DfsStack;

  for (NodeId Root = 0; Root != N; ++Root) {
    if (Dfn[Root] != Unvisited)
      continue;
    DfsStack.push_back({Root, 0});
    Dfn[Root] = LowLink[Root] = NextDfn++;
    SccStack.push_back(Root);
    OnStack[Root] = true;

    while (!DfsStack.empty()) {
      Frame &F = DfsStack.back();
      NodeId V = F.Node;
      std::span<const Adjacency> Succs = G.succs(V);
      if (F.AdjPos < Succs.size()) {
        NodeId W = Succs[F.AdjPos++].Dst;
        if (Dfn[W] == Unvisited) {
          Dfn[W] = LowLink[W] = NextDfn++;
          SccStack.push_back(W);
          OnStack[W] = true;
          DfsStack.push_back({W, 0});
        } else if (OnStack[W]) {
          LowLink[V] = std::min(LowLink[V], Dfn[W]);
        }
        continue;
      }

      // All successors of V explored: maybe close a component, then
      // propagate the lowlink to the parent.
      if (LowLink[V] == Dfn[V]) {
        const auto Id = static_cast<std::uint32_t>(Result.numSccs());
        NodeId U;
        do {
          U = SccStack.back();
          SccStack.pop_back();
          OnStack[U] = false;
          Result.SccOf[U] = Id;
          Result.Members.push_back(U);
        } while (U != V);
        Result.Offsets.push_back(
            static_cast<std::uint32_t>(Result.Members.size()));
      }
      DfsStack.pop_back();
      if (!DfsStack.empty()) {
        NodeId Parent = DfsStack.back().Node;
        LowLink[Parent] = std::min(LowLink[Parent], LowLink[V]);
      }
    }
  }
  return Result;
}

Digraph graph::buildCondensation(const Digraph &G,
                                 const SccDecomposition &Sccs) {
  Digraph C(Sccs.numSccs());
  for (EdgeId E = 0; E != G.numEdges(); ++E) {
    std::uint32_t From = Sccs.SccOf[G.edgeSource(E)];
    std::uint32_t To = Sccs.SccOf[G.edgeTarget(E)];
    if (From != To)
      C.addEdge(From, To);
  }
  C.finalize();
  return C;
}
