//===- demand/Dependencies.h - Procedure dependencies -----------*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dependency relation the demand engine walks (DemandSession.h),
/// enumerated on the fly from the program instead of stored: a procedure's
/// successors are read off its own call sites and the call sites of its
/// lexical subtree, so a region costs the program parts it touches and
/// opening a session builds no whole-program graph.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_DEMAND_DEPENDENCIES_H
#define IPSE_DEMAND_DEPENDENCIES_H

#include "ir/Program.h"

#include <vector>

namespace ipse {
namespace demand {

namespace detail {

/// Calls \p F(Site, Pos) for every argument of \p Site that passes a
/// formal of \p Proc.
template <typename Fn>
void forEachFormalActual(const ir::Program &P, ir::ProcId Proc,
                         const ir::CallSite &Site, Fn &F) {
  for (unsigned Pos = 0; Pos != Site.Actuals.size(); ++Pos) {
    const ir::Actual &A = Site.Actuals[Pos];
    if (!A.isVariable())
      continue;
    const ir::Variable &V = P.var(A.Var);
    if (V.Kind == ir::VarKind::Formal && V.Owner == Proc)
      F(Site, Pos);
  }
}

/// Calls \p F(Site, Pos) for every argument passing a formal of \p Proc
/// at a call site of a procedure nested, at any depth, inside \p Root
/// (Proc's own view).
template <typename Fn>
void forEachNestedFormalActual(const ir::Program &P, ir::ProcId Proc,
                               const ir::Procedure &Root, Fn &F) {
  if (Root.Nested.empty())
    return;
  std::vector<ir::ProcId> Stack(Root.Nested.begin(), Root.Nested.end());
  while (!Stack.empty()) {
    const ir::Procedure Body = P.proc(Stack.back());
    Stack.pop_back();
    for (ir::CallSiteId Id : Body.CallSites)
      forEachFormalActual(P, Proc, P.callSite(Id), F);
    Stack.insert(Stack.end(), Body.Nested.begin(), Body.Nested.end());
  }
}

} // namespace detail

/// Calls \p F(Site, Pos) once per binding event that passes a formal of
/// \p Proc: argument Pos of a call site in Proc's lexical subtree (Proc's
/// body or any procedure nested in it, §3.3) whose actual is one of Proc's
/// formals.  The event is the β edge fp^Proc -> the callee's formal at
/// Pos; a formal is visible only inside its owner's subtree, so this finds
/// every β edge leaving Proc's formals.
template <typename Fn>
void forEachBindingEvent(const ir::Program &P, ir::ProcId Proc, Fn &&F) {
  const ir::Procedure Root = P.proc(Proc);
  if (Root.Formals.empty())
    return;
  for (ir::CallSiteId Id : Root.CallSites)
    detail::forEachFormalActual(P, Proc, P.callSite(Id), F);
  detail::forEachNestedFormalActual(P, Proc, Root, F);
}

/// Calls \p F(Succ) once per dependency edge leaving \p Proc: a call edge
/// p -> q per call site in Proc's body invoking q, and a β-owner edge
/// p -> owner(g) per β edge fp^p -> g, i.e. per binding event
/// forEachBindingEvent finds (g is a formal of the event's callee).
/// Parallel edges are kept, so the multiset is exactly the call
/// multi-graph's out-edges plus the β-owner image of β's out-edges.  The
/// order is unspecified.
template <typename Fn>
void forEachDependency(const ir::Program &P, ir::ProcId Proc, Fn &&F) {
  const ir::Procedure Root = P.proc(Proc);
  auto Binding = [&](const ir::CallSite &Site, unsigned) { F(Site.Callee); };
  const bool HasFormals = !Root.Formals.empty();
  for (ir::CallSiteId Id : Root.CallSites) {
    const ir::CallSite Site = P.callSite(Id);
    F(Site.Callee);
    if (HasFormals)
      detail::forEachFormalActual(P, Proc, Site, Binding);
  }
  if (HasFormals)
    detail::forEachNestedFormalActual(P, Proc, Root, Binding);
}

} // namespace demand
} // namespace ipse

#endif // IPSE_DEMAND_DEPENDENCIES_H
