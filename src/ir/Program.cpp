//===- ir/Program.cpp - Interprocedural program model ----------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "ir/Program.h"

using namespace ipse;
using namespace ipse::ir;

bool Program::isVisibleIn(VarId V, ProcId P) const {
  return isAncestorOrSelf(var(V).Owner, P);
}

bool Program::isAncestorOrSelf(ProcId Ancestor, ProcId P) const {
  for (ProcId Cur = P; Cur.isValid(); Cur = Procs[Cur.index()].Parent) {
    assert(Cur.index() < Procs.size() && "invalid ProcId");
    if (Cur == Ancestor)
      return true;
  }
  return false;
}

bool Program::verify(std::string &ErrorOut) const {
  auto Fail = [&](const std::string &Msg) {
    ErrorOut = Msg;
    return false;
  };

  if (Procs.empty())
    return Fail("program has no main procedure");
  if (proc(main()).Parent.isValid())
    return Fail("main must have no lexical parent");
  if (proc(main()).Level != 0)
    return Fail("main must be at nesting level 0");
  if (!proc(main()).Formals.empty())
    return Fail("main must have no formal parameters");

  // Membership in the owner's list, precomputed in one pass over every
  // list so the per-entity checks below stay O(1): a procedure is listed
  // iff its parent's Nested names it, a call site iff its caller's
  // CallSites does.
  std::vector<bool> InParentNested(Procs.size()), InCallerList(Calls.size());
  for (std::uint32_t I = 0; I != Procs.size(); ++I) {
    const Procedure Pr = proc(ProcId(I));
    for (ProcId N : Pr.Nested)
      if (N.index() < Procs.size() && Procs[N.index()].Parent == ProcId(I))
        InParentNested[N.index()] = true;
    for (CallSiteId C : Pr.CallSites)
      if (C.index() < Calls.size() && Calls[C.index()].Caller == ProcId(I))
        InCallerList[C.index()] = true;
  }

  // Procedure tree: parent links, Nested lists, and levels must agree.
  for (std::uint32_t I = 0; I != Procs.size(); ++I) {
    ProcId Id(I);
    const Procedure Pr = proc(Id);
    if (I != 0) {
      if (!Pr.Parent.isValid() || Pr.Parent.index() >= Procs.size())
        return Fail("procedure " + Names.text(Pr.Name) + " has a bad parent");
      if (Pr.Level != proc(Pr.Parent).Level + 1)
        return Fail("procedure " + Names.text(Pr.Name) + " has a bad level");
      if (!InParentNested[I])
        return Fail("procedure " + Names.text(Pr.Name) +
                    " missing from its parent's Nested list");
    }
    for (ProcId N : Pr.Nested)
      if (N.index() >= Procs.size() || proc(N).Parent != Id)
        return Fail("bad Nested list in " + Names.text(Pr.Name));

    // Formal ordinals must be dense and correctly owned.
    for (unsigned FI = 0; FI != Pr.Formals.size(); ++FI) {
      const Variable &V = var(Pr.Formals[FI]);
      if (V.Kind != VarKind::Formal || V.Owner != Id || V.FormalPos != FI)
        return Fail("bad formal list in " + Names.text(Pr.Name));
    }
    for (VarId L : Pr.Locals) {
      const Variable &V = var(L);
      bool KindOk = I == 0 ? V.Kind == VarKind::Global
                           : V.Kind == VarKind::Local;
      if (!KindOk || V.Owner != Id)
        return Fail("bad local list in " + Names.text(Pr.Name));
    }
  }

  // Statements: ownership and visibility of referenced variables.
  for (std::uint32_t I = 0; I != Stmts.size(); ++I) {
    const Statement S = stmt(StmtId(I));
    if (!S.Parent.isValid() || S.Parent.index() >= Procs.size())
      return Fail("statement with bad parent");
    for (VarId V : S.LMod)
      if (!isVisibleIn(V, S.Parent))
        return Fail("LMOD references variable " + Names.text(var(V).Name) +
                    " not visible in " + Names.text(proc(S.Parent).Name));
    for (VarId V : S.LUse)
      if (!isVisibleIn(V, S.Parent))
        return Fail("LUSE references variable " + Names.text(var(V).Name) +
                    " not visible in " + Names.text(proc(S.Parent).Name));
    for (CallSiteId C : S.Calls)
      if (C.index() >= Calls.size() || callSite(C).Stmt != StmtId(I))
        return Fail("statement call list is inconsistent");
  }

  // Call sites: callee visibility, actual/formal arity, actual visibility.
  for (std::uint32_t I = 0; I != Calls.size(); ++I) {
    const CallSite C = callSite(CallSiteId(I));
    if (!C.Caller.isValid() || C.Caller.index() >= Procs.size() ||
        !C.Callee.isValid() || C.Callee.index() >= Procs.size())
      return Fail("call site with bad endpoints");
    if (C.Callee == main())
      return Fail("main may not be called");
    if (stmt(C.Stmt).Parent != C.Caller)
      return Fail("call site caller disagrees with its statement");
    // The callee's name must be in scope: its declaring procedure is the
    // caller or one of the caller's lexical ancestors.
    if (!isAncestorOrSelf(proc(C.Callee).Parent, C.Caller))
      return Fail("call from " + Names.text(proc(C.Caller).Name) + " to " +
                  Names.text(proc(C.Callee).Name) +
                  " violates lexical scoping");
    if (C.Actuals.size() != proc(C.Callee).Formals.size())
      return Fail("arity mismatch calling " + Names.text(proc(C.Callee).Name));
    for (const Actual &A : C.Actuals)
      if (A.isVariable() && !isVisibleIn(A.Var, C.Caller))
        return Fail("actual argument not visible at call site in " +
                    Names.text(proc(C.Caller).Name));
    // The caller must list this call site.
    if (!InCallerList[I])
      return Fail("call site missing from its caller's list");
  }

  ErrorOut.clear();
  return true;
}
