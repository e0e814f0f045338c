//===- ir/ProgramEditor.cpp - In-place program mutation ----------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "ir/ProgramEditor.h"

#include <algorithm>

using namespace ipse;
using namespace ipse::ir;

namespace {

/// Appends \p V to one list and compacts the list's pool once its dead
/// slots outnumber the live ones, so every append is amortized O(|list|).
template <typename T, typename Row>
void appendTo(Pool<T> &Pl, std::vector<Row> &Rows, std::uint32_t RowIdx,
              Slice Row::*Field, T V) {
  Pl.append(Rows[RowIdx].*Field, V);
  if (Pl.sparse())
    Pl.relayout(Rows, Field);
}

/// Removes the first occurrence of \p V from one list; false if absent.
template <typename T, typename Row>
bool removeFrom(Pool<T> &Pl, std::vector<Row> &Rows, std::uint32_t RowIdx,
                Slice Row::*Field, T V) {
  Slice &S = Rows[RowIdx].*Field;
  std::span<const T> List = Pl.view(S);
  auto It = std::find(List.begin(), List.end(), V);
  if (It == List.end())
    return false;
  Pl.erase(S, static_cast<std::size_t>(It - List.begin()));
  if (Pl.sparse())
    Pl.relayout(Rows, Field);
  return true;
}

/// Overwrites the first occurrence of \p From in a list with \p To.
template <typename T> void replaceIn(Pool<T> &Pl, Slice S, T From, T To) {
  auto First = Pl.Items.begin() + S.Begin, Last = First + S.Size;
  auto It = std::find(First, Last, From);
  assert(It != Last && "call site missing from owner list");
  *It = To;
}

} // namespace

void ProgramEditor::addMod(StmtId S, VarId V) {
  assert(S.index() < P.Stmts.size() && "bad statement");
  assert(P.isVisibleIn(V, P.Stmts[S.index()].Parent) &&
         "LMOD variable not visible in its statement's procedure");
  appendTo(P.LModPool, P.Stmts, S.index(), &Program::StmtRow::LMod, V);
}

bool ProgramEditor::removeMod(StmtId S, VarId V) {
  assert(S.index() < P.Stmts.size() && "bad statement");
  return removeFrom(P.LModPool, P.Stmts, S.index(), &Program::StmtRow::LMod,
                    V);
}

void ProgramEditor::addUse(StmtId S, VarId V) {
  assert(S.index() < P.Stmts.size() && "bad statement");
  assert(P.isVisibleIn(V, P.Stmts[S.index()].Parent) &&
         "LUSE variable not visible in its statement's procedure");
  appendTo(P.LUsePool, P.Stmts, S.index(), &Program::StmtRow::LUse, V);
}

bool ProgramEditor::removeUse(StmtId S, VarId V) {
  assert(S.index() < P.Stmts.size() && "bad statement");
  return removeFrom(P.LUsePool, P.Stmts, S.index(), &Program::StmtRow::LUse,
                    V);
}

StmtId ProgramEditor::addStmt(ProcId Parent) {
  assert(Parent.index() < P.Procs.size() && "bad parent");
  StmtId Id(static_cast<std::uint32_t>(P.Stmts.size()));
  Program::StmtRow S;
  S.Parent = Parent;
  P.Stmts.push_back(S);
  appendTo(P.StmtPool, P.Procs, Parent.index(), &Program::ProcRow::Stmts, Id);
  return Id;
}

CallSiteId ProgramEditor::addCall(StmtId S, ProcId Callee,
                                  std::vector<Actual> Actuals) {
  assert(S.index() < P.Stmts.size() && "bad statement");
  assert(Callee.index() < P.Procs.size() && "bad callee");
  assert(Callee != P.main() && "main may not be called");
  ProcId Caller = P.Stmts[S.index()].Parent;
  assert(P.isAncestorOrSelf(P.Procs[Callee.index()].Parent, Caller) &&
         "call violates lexical scoping");
  assert(Actuals.size() == P.Procs[Callee.index()].Formals.Size &&
         "arity mismatch at new call site");
#ifndef NDEBUG
  for (const Actual &A : Actuals)
    assert((!A.isVariable() || P.isVisibleIn(A.Var, Caller)) &&
           "actual argument not visible at call site");
#endif
  CallSiteId Id(static_cast<std::uint32_t>(P.Calls.size()));
  Program::CallRow C;
  C.Caller = Caller;
  C.Callee = Callee;
  C.Stmt = S;
  P.Calls.push_back(C);
  for (const Actual &A : Actuals)
    appendTo(P.ActualPool, P.Calls, Id.index(), &Program::CallRow::Actuals,
             A);
  appendTo(P.CallPool, P.Stmts, S.index(), &Program::StmtRow::Calls, Id);
  appendTo(P.CallSitePool, P.Procs, Caller.index(),
           &Program::ProcRow::CallSites, Id);
  return Id;
}

CallSiteId ProgramEditor::removeCall(CallSiteId C) {
  assert(C.index() < P.Calls.size() && "bad call site");

  // Unlink C from its statement and caller.
  const Program::CallRow Doomed = P.Calls[C.index()];
  [[maybe_unused]] bool Found =
      removeFrom(P.CallPool, P.Stmts, Doomed.Stmt.index(),
                 &Program::StmtRow::Calls, C);
  assert(Found && "call site missing from its statement's list");
  Found = removeFrom(P.CallSitePool, P.Procs, Doomed.Caller.index(),
                     &Program::ProcRow::CallSites, C);
  assert(Found && "call site missing from its caller's list");
  P.ActualPool.Dead += Doomed.Actuals.Size;

  CallSiteId Last(static_cast<std::uint32_t>(P.Calls.size() - 1));
  CallSiteId Moved;
  if (C != Last) {
    // Move the last call site into the hole and patch the two lists that
    // refer to it by id.
    const Program::CallRow &M = P.Calls[C.index()] = P.Calls.back();
    replaceIn(P.CallPool, P.Stmts[M.Stmt.index()].Calls, Last, C);
    replaceIn(P.CallSitePool, P.Procs[M.Caller.index()].CallSites, Last, C);
    Moved = Last;
  }
  P.Calls.pop_back();
  if (P.ActualPool.sparse())
    P.ActualPool.relayout(P.Calls, &Program::CallRow::Actuals);
  return Moved;
}

ProcId ProgramEditor::addProc(std::string_view Name, ProcId Parent) {
  assert(Parent.index() < P.Procs.size() && "bad parent");
  ProcId Id(static_cast<std::uint32_t>(P.Procs.size()));
  Program::ProcRow Pr;
  Pr.Name = P.Names.intern(Name);
  Pr.Parent = Parent;
  Pr.Level = P.Procs[Parent.index()].Level + 1;
  P.Procs.push_back(Pr);
  appendTo(P.NestedPool, P.Procs, Parent.index(), &Program::ProcRow::Nested,
           Id);
  P.MaxLevel = std::max(P.MaxLevel, Pr.Level);
  return Id;
}

VarId ProgramEditor::addVar(ProcId Owner, std::string_view Name,
                            VarKind Kind) {
  VarId Id(static_cast<std::uint32_t>(P.Vars.size()));
  Variable V;
  V.Name = P.Names.intern(Name);
  V.Kind = Kind;
  V.Owner = Owner;
  if (Kind == VarKind::Formal) {
    V.FormalPos = P.Procs[Owner.index()].Formals.Size;
    appendTo(P.FormalPool, P.Procs, Owner.index(),
             &Program::ProcRow::Formals, Id);
  } else {
    appendTo(P.LocalPool, P.Procs, Owner.index(), &Program::ProcRow::Locals,
             Id);
  }
  P.Vars.push_back(V);
  return Id;
}

VarId ProgramEditor::addGlobal(std::string_view Name) {
  return addVar(P.main(), Name, VarKind::Global);
}

VarId ProgramEditor::addLocal(ProcId Owner, std::string_view Name) {
  assert(Owner.index() < P.Procs.size() && "bad owner");
  return addVar(Owner, Name,
                Owner == P.main() ? VarKind::Global : VarKind::Local);
}

VarId ProgramEditor::addFormal(ProcId Owner, std::string_view Name) {
  assert(Owner.index() < P.Procs.size() && "bad owner");
  assert(Owner != P.main() && "main has no formals");
#ifndef NDEBUG
  for (const Program::CallRow &C : P.Calls)
    assert(C.Callee != Owner &&
           "cannot add a formal to a procedure that is already called");
#endif
  return addVar(Owner, Name, VarKind::Formal);
}

namespace {

/// Old-id -> new-id maps for removeProc; the invalid sentinel marks
/// removed entities.  One call operator per pooled element type.
struct Remap {
  std::vector<std::uint32_t> Proc, Var, Stmt, Call;

  ProcId operator()(ProcId Id) const { return ProcId(Proc[Id.index()]); }
  VarId operator()(VarId Id) const { return VarId(Var[Id.index()]); }
  StmtId operator()(StmtId Id) const { return StmtId(Stmt[Id.index()]); }
  CallSiteId operator()(CallSiteId Id) const {
    return CallSiteId(Call[Id.index()]);
  }
  Actual operator()(Actual A) const {
    return A.isVariable() ? Actual::variable((*this)(A.Var)) : A;
  }
};

} // namespace

void ProgramEditor::removeProc(ProcId Target) {
  assert(Target.index() < P.Procs.size() && "bad procedure");
  assert(Target != P.main() && "cannot remove main");
  assert(P.Procs[Target.index()].Nested.Size == 0 &&
         "cannot remove a procedure with nested procedures");
#ifndef NDEBUG
  for (const Program::CallRow &C : P.Calls)
    assert(C.Callee != Target && "cannot remove a procedure that is called");
#endif

  const std::uint32_t DeadProc = Target.index();

  // Shifting (rather than swapping) preserves relative order, and with it
  // the parent-id < child-id invariant that LocalEffects depends on.
  auto buildShift = [](std::size_t Count, auto IsDead) {
    std::vector<std::uint32_t> Map(Count);
    std::uint32_t Next = 0;
    for (std::uint32_t I = 0; I != Count; ++I)
      Map[I] = IsDead(I) ? ~std::uint32_t(0) : Next++;
    return Map;
  };
  Remap M;
  M.Proc = buildShift(P.Procs.size(),
                      [&](std::uint32_t I) { return I == DeadProc; });
  M.Var = buildShift(P.Vars.size(), [&](std::uint32_t I) {
    return P.Vars[I].Owner.index() == DeadProc;
  });
  M.Stmt = buildShift(P.Stmts.size(), [&](std::uint32_t I) {
    return P.Stmts[I].Parent.index() == DeadProc;
  });
  M.Call = buildShift(P.Calls.size(), [&](std::uint32_t I) {
    return P.Calls[I].Caller.index() == DeadProc;
  });

  auto compact = [](auto &Table, const std::vector<std::uint32_t> &Map) {
    std::uint32_t Next = 0;
    for (std::uint32_t I = 0; I != Table.size(); ++I)
      if (Map[I] != ~std::uint32_t(0))
        Table[Next++] = Table[I];
    Table.resize(Next);
  };

  // Unlink from the parent's Nested list before remapping.
  [[maybe_unused]] bool Found =
      removeFrom(P.NestedPool, P.Procs, P.Procs[DeadProc].Parent.index(),
                 &Program::ProcRow::Nested, Target);
  assert(Found && "procedure missing from its parent's Nested list");

  compact(P.Procs, M.Proc);
  compact(P.Vars, M.Var);
  compact(P.Stmts, M.Stmt);
  compact(P.Calls, M.Call);

  for (Program::ProcRow &Pr : P.Procs)
    if (Pr.Parent.isValid())
      Pr.Parent = M(Pr.Parent);
  for (Variable &V : P.Vars)
    V.Owner = M(V.Owner);
  for (Program::StmtRow &S : P.Stmts)
    S.Parent = M(S.Parent);
  for (Program::CallRow &C : P.Calls) {
    C.Caller = M(C.Caller);
    C.Callee = M(C.Callee);
    C.Stmt = M(C.Stmt);
  }
  // Every list is re-laid out tightly through the id maps.  Visibility
  // confines every variable a surviving statement touches to surviving
  // owners: only the dead procedure's own statements could reference its
  // variables, and those rows are gone.
  Program::forEachList(P, [&](auto &Pool, auto &Rows, auto Field) {
    Pool.relayout(Rows, Field, M);
  });

  P.MaxLevel = 0;
  for (const Program::ProcRow &Pr : P.Procs)
    P.MaxLevel = std::max(P.MaxLevel, Pr.Level);
}
