//===- graph/LevelWidths.cpp - Condensation level widths -----------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "graph/LevelWidths.h"

#include <algorithm>

using namespace ipse;
using namespace ipse::graph;

std::vector<std::uint32_t> graph::levelWidths(const Digraph &G) {
  const std::size_t N = G.numNodes();
  constexpr std::uint32_t Unvisited = 0;
  std::vector<std::uint32_t> Dfn(N, Unvisited), LowLink(N, 0), LevelOf(N, 0);
  std::vector<char> OnStack(N, 0);
  std::vector<NodeId> SccStack;
  struct Frame {
    NodeId Node;
    std::uint32_t AdjPos;
  };
  std::vector<Frame> DfsStack;
  std::vector<std::uint32_t> Widths;
  std::uint32_t NextDfn = 1;

  for (NodeId Root = 0; Root != N; ++Root) {
    if (Dfn[Root] != Unvisited)
      continue;
    Dfn[Root] = LowLink[Root] = NextDfn++;
    SccStack.push_back(Root);
    OnStack[Root] = 1;
    DfsStack.push_back({Root, 0});
    while (!DfsStack.empty()) {
      Frame &F = DfsStack.back();
      const NodeId V = F.Node;
      std::span<const Adjacency> Succs = G.succs(V);
      if (F.AdjPos < Succs.size()) {
        const NodeId W = Succs[F.AdjPos++].Dst;
        if (Dfn[W] == Unvisited) {
          Dfn[W] = LowLink[W] = NextDfn++;
          SccStack.push_back(W);
          OnStack[W] = 1;
          DfsStack.push_back({W, 0});
        } else if (OnStack[W]) {
          LowLink[V] = std::min(LowLink[V], Dfn[W]);
        }
        continue;
      }
      if (LowLink[V] == Dfn[V]) {
        // V roots a component: its members are the stack above V.  Every
        // component they reach has already closed (Tarjan closes
        // components in reverse topological order), and a successor still
        // on the stack is a member — so the closed successors carry the
        // final levels this component's level is one above.
        const std::size_t Begin =
            std::find(SccStack.rbegin(), SccStack.rend(), V).base() -
            SccStack.begin() - 1;
        std::uint32_t Level = 0;
        for (std::size_t I = Begin; I != SccStack.size(); ++I)
          for (const Adjacency &A : G.succs(SccStack[I]))
            if (!OnStack[A.Dst])
              Level = std::max(Level, LevelOf[A.Dst] + 1);
        for (std::size_t I = Begin; I != SccStack.size(); ++I) {
          OnStack[SccStack[I]] = 0;
          LevelOf[SccStack[I]] = Level;
        }
        SccStack.resize(Begin);
        if (Widths.size() <= Level)
          Widths.resize(Level + 1, 0);
        ++Widths[Level];
      }
      DfsStack.pop_back();
      if (!DfsStack.empty()) {
        const NodeId Parent = DfsStack.back().Node;
        LowLink[Parent] = std::min(LowLink[Parent], LowLink[V]);
      }
    }
  }
  return Widths;
}
