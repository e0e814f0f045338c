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

std::vector<std::uint32_t> graph::levelWidths(const Digraph &G,
                                              const SccDecomposition &Sccs) {
  // Ascending ids are reverse-topological: a cross edge out of component
  // C reaches a lower id, whose level is already final.
  std::vector<std::uint32_t> LevelOf(Sccs.numSccs(), 0), Widths;
  for (std::uint32_t C = 0; C != Sccs.numSccs(); ++C) {
    std::uint32_t &Level = LevelOf[C];
    for (NodeId M : Sccs.members(C))
      for (const Adjacency &A : G.succs(M))
        if (Sccs.SccOf[A.Dst] != C)
          Level = std::max(Level, LevelOf[Sccs.SccOf[A.Dst]] + 1);
    if (Widths.size() <= Level)
      Widths.resize(Level + 1, 0);
    ++Widths[Level];
  }
  return Widths;
}
