//===- graph/Reachability.h - Call-graph reachability -----------*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reachability over the call graph and the linear-time elimination of
/// unreachable procedures that §3.3 of the paper invokes as a preprocessing
/// step ("a linear-time algorithm that eliminates unreachable procedures
/// can be invoked").
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_GRAPH_REACHABILITY_H
#define IPSE_GRAPH_REACHABILITY_H

#include "ir/Program.h"
#include "support/EffectSet.h"

namespace ipse {
namespace graph {

/// Returns the set of procedures reachable from main by call chains
/// (including main itself), as a bit per ProcId index.  O(N + E).
EffectSet reachableProcs(const ir::Program &P);

/// Returns a copy of \p P with all unreachable procedures (and their
/// variables, statements, and call sites) removed.  Ids are remapped
/// densely; names are preserved.  The lexical parent of every surviving
/// procedure survives too (a nested procedure is reachable only if its
/// parent is, which this function asserts).  O(size of P).
ir::Program eliminateUnreachable(const ir::Program &P);

} // namespace graph
} // namespace ipse

#endif // IPSE_GRAPH_REACHABILITY_H
