//===- graph/Tarjan.h - Strongly connected components -----------*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tarjan's linear-time SCC algorithm [Tarj 72], implemented iteratively so
/// deep chains do not overflow the machine stack.  Step (1) of the paper's
/// Figure 1 RMOD algorithm; also used by the condensation-based baselines.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_GRAPH_TARJAN_H
#define IPSE_GRAPH_TARJAN_H

#include "graph/Digraph.h"

#include <span>
#include <vector>

namespace ipse {
namespace graph {

/// The SCC decomposition of a Digraph.
///
/// SCC ids are assigned in the order Tarjan closes components, which is a
/// reverse topological order of the condensation: if any edge runs from
/// component c1 to a different component c2, then SccOf id of c2 is smaller
/// than that of c1.  Processing components in increasing id therefore
/// visits callees before callers (Lemma 1 of the paper).
struct SccDecomposition {
  /// Component id per node.
  std::vector<std::uint32_t> SccOf;
  /// Member nodes, grouped by component in id order: component C is
  /// Members[Offsets[C], Offsets[C+1]).
  std::vector<NodeId> Members;
  std::vector<std::uint32_t> Offsets{0};

  std::size_t numSccs() const { return Offsets.size() - 1; }

  /// Member nodes of component \p C.
  std::span<const NodeId> members(std::uint32_t C) const {
    return {Members.data() + Offsets[C], Members.data() + Offsets[C + 1]};
  }
};

/// Computes the SCC decomposition of \p G in O(N + E).
SccDecomposition computeSccs(const Digraph &G);

/// Builds the condensation of \p G under \p Sccs: one node per component,
/// one edge per cross-component edge of G (parallel edges kept; the edge id
/// in the condensation equals the originating edge id in G only by the
/// returned mapping).  The condensation is a DAG whose node ids are the SCC
/// ids, hence already reverse-topologically ordered.
Digraph buildCondensation(const Digraph &G, const SccDecomposition &Sccs);

} // namespace graph
} // namespace ipse

#endif // IPSE_GRAPH_TARJAN_H
