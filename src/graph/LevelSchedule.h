//===- graph/LevelSchedule.h - Condensation level scheduling ---*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Topological levels of an SCC condensation — the condensation kernels'
/// schedule (analysis/LevelSolvers.h).  Level(C) is the longest
/// cross-component path from C to a sink of the condensation DAG:
///
///   Level(C) = 0                                 if C has no cross edges out
///   Level(C) = 1 + max over cross edges (C, D) of Level(D)
///
/// Two facts make this a correct parallel schedule for the paper's
/// reverse-topological passes (Figures 1-2 both consume callees before
/// callers):
///
///  - every cross-component edge leaves from a strictly higher level, so by
///    the time level L runs, every component a level-L component reads is
///    already final (it ran at some level < L);
///  - components on the same level share no edge at all, so they touch
///    disjoint state and can run concurrently without locks.
///
/// Computing the levels is O(N + E) integer work: SCC ids are already
/// reverse-topological (graph/Tarjan.h), so one ascending sweep sees every
/// callee component's level before the caller's.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_GRAPH_LEVELSCHEDULE_H
#define IPSE_GRAPH_LEVELSCHEDULE_H

#include "graph/Tarjan.h"

#include <cstdint>
#include <vector>

namespace ipse {
namespace graph {

/// The level partition of a condensation DAG.
struct LevelSchedule {
  /// Level per component id.
  std::vector<std::uint32_t> LevelOf;
  /// Component ids per level, each bucket sorted ascending (a deterministic
  /// task order, so work distribution — though not interleaving — is
  /// independent of the scheduling of previous levels).
  std::vector<std::vector<std::uint32_t>> Buckets;

  std::size_t numLevels() const { return Buckets.size(); }
  const std::vector<std::uint32_t> &level(std::size_t L) const {
    return Buckets[L];
  }
};

/// Builds the schedule for \p Sccs over \p G (the graph the decomposition
/// came from).  O(N + E).
LevelSchedule computeLevelSchedule(const Digraph &G,
                                   const SccDecomposition &Sccs);

/// The number of components on each level of \p G's condensation —
/// the widths of computeLevelSchedule's buckets, from one Tarjan pass
/// that materializes neither the components nor the buckets (so a
/// 100 000-level chain costs five flat arrays, not 200 000 small
/// vectors).  O(N + E).
std::vector<std::uint32_t> levelWidths(const Digraph &G);

} // namespace graph
} // namespace ipse

#endif // IPSE_GRAPH_LEVELSCHEDULE_H
