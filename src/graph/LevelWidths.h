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

#include <cstdint>
#include <vector>

namespace ipse {
namespace graph {

/// The number of components on each level of \p G's condensation, from
/// one Tarjan pass that materializes neither the components nor the
/// levels (so a 100 000-level chain costs five flat arrays, not 200 000
/// small vectors).  O(N + E).
std::vector<std::uint32_t> levelWidths(const Digraph &G);

} // namespace graph
} // namespace ipse

#endif // IPSE_GRAPH_LEVELWIDTHS_H
