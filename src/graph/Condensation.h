//===- graph/Condensation.h - Resident SCC condensation ---------*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A long-lived SCC condensation of a graph that changes over time — the
/// structure the demand engine keeps resident for its GMOD-only re-solves.
///
/// Component ids inherit the reverse-topological numbering of
/// computeSccs(): for any cross-component edge (u, v), compOf(v) <
/// compOf(u).  Clients that process components in increasing id order
/// therefore see callees before callers, and a dirty-cone recomputation
/// that only ever marks *predecessor* components dirty can drain an
/// ascending worklist in a single pass.
///
/// Any edge delta may merge or split components; the owner drops the
/// partition and rebuild() re-runs Tarjan (O(N + E) integer work, far
/// below the bit-vector cost of re-propagating analysis values).
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_GRAPH_CONDENSATION_H
#define IPSE_GRAPH_CONDENSATION_H

#include "graph/Tarjan.h"

namespace ipse {
namespace graph {

/// The SCC partition of a graph, kept resident across graph versions.
class Condensation {
public:
  Condensation() = default;

  /// Recomputes the partition from \p G (Tarjan, O(N + E)).
  void rebuild(const Digraph &G) { Sccs = computeSccs(G); }

  std::size_t numNodes() const { return Sccs.SccOf.size(); }
  std::size_t numComponents() const { return Sccs.numSccs(); }

  /// Component id of a node; ids are reverse-topological (see file
  /// comment).
  std::uint32_t compOf(NodeId N) const {
    assert(N < Sccs.SccOf.size() && "node out of range");
    return Sccs.SccOf[N];
  }

  /// Member nodes of a component.
  std::span<const NodeId> members(std::uint32_t Comp) const {
    assert(Comp < Sccs.numSccs() && "component out of range");
    return Sccs.members(Comp);
  }

private:
  SccDecomposition Sccs;
};

} // namespace graph
} // namespace ipse

#endif // IPSE_GRAPH_CONDENSATION_H
