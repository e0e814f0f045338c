//===- graph/LevelWidths.h - Condensation level widths ----------*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Topological levels of an SCC condensation, counted per level — the
/// shape measure the batch analyzer's kernel choice reads
/// (analysis/SideEffectAnalyzer.h, chooseKernel).  Level(C) is the longest
/// cross-component path from C to a sink of the condensation DAG:
///
///   Level(C) = 0                                 if C has no cross edges out
///   Level(C) = 1 + max over cross edges (C, D) of Level(D)
///
/// Components on one level share no edge, so a level's width says how
/// many independent components the paper's reverse-topological passes
/// (Figures 1-2 both consume callees before callers) meet side by side.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_GRAPH_LEVELWIDTHS_H
#define IPSE_GRAPH_LEVELWIDTHS_H

#include "graph/Digraph.h"
#include "graph/Tarjan.h"

#include <cstdint>
#include <vector>

namespace ipse {
namespace graph {

/// The number of components on each level of \p G's condensation under
/// \p Sccs, from one sweep in ascending component id.  O(N + E).
std::vector<std::uint32_t> levelWidths(const Digraph &G,
                                       const SccDecomposition &Sccs);

/// levelWidths over \p G's own decomposition.
inline std::vector<std::uint32_t> levelWidths(const Digraph &G) {
  return levelWidths(G, computeSccs(G));
}

} // namespace graph
} // namespace ipse

#endif // IPSE_GRAPH_LEVELWIDTHS_H
