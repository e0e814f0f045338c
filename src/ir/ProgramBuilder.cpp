//===- ir/ProgramBuilder.cpp - Incremental program construction ------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "ir/ProgramBuilder.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

using namespace ipse;
using namespace ipse::ir;

void ProgramBuilder::reserve(std::size_t Procs, std::size_t Vars,
                             std::size_t Stmts, std::size_t Calls) {
  P.Procs.reserve(Procs);
  P.Vars.reserve(Vars);
  P.Stmts.reserve(Stmts);
  P.Calls.reserve(Calls);
  P.Names.reserve(Procs + Vars);
}

ProcId ProgramBuilder::createMain(std::string_view Name) {
  assert(!MainCreated && "main already created");
  MainCreated = true;
  Program::ProcRow Main;
  Main.Name = P.Names.intern(Name);
  Main.Level = 0;
  P.Procs.push_back(Main);
  return ProcId(0);
}

ProcId ProgramBuilder::createProc(std::string_view Name, ProcId Parent) {
  assert(MainCreated && "create main first");
  assert(Parent.index() < P.Procs.size() && "bad parent");
  ProcId Id(static_cast<std::uint32_t>(P.Procs.size()));
  Program::ProcRow Pr;
  Pr.Name = P.Names.intern(Name);
  Pr.Parent = Parent;
  Pr.Level = P.Procs[Parent.index()].Level + 1;
  P.Procs.push_back(Pr);
  P.NestedPool.stage(P.Procs[Parent.index()].Nested, Id);
  P.MaxLevel = std::max(P.MaxLevel, Pr.Level);
  return Id;
}

VarId ProgramBuilder::addVar(ProcId Owner, std::string_view Name,
                             VarKind Kind) {
  assert(MainCreated && "create main first");
  assert(Owner.index() < P.Procs.size() && "bad owner");
  VarId Id(static_cast<std::uint32_t>(P.Vars.size()));
  Program::ProcRow &Pr = P.Procs[Owner.index()];
  Variable V;
  V.Name = P.Names.intern(Name);
  V.Kind = Kind;
  V.Owner = Owner;
  if (Kind == VarKind::Formal) {
    V.FormalPos = Pr.Formals.Size;
    P.FormalPool.stage(Pr.Formals, Id);
  } else {
    P.LocalPool.stage(Pr.Locals, Id);
  }
  P.Vars.push_back(V);
  return Id;
}

VarId ProgramBuilder::addGlobal(std::string_view Name) {
  return addVar(ProcId(0), Name, VarKind::Global);
}

VarId ProgramBuilder::addLocal(ProcId Owner, std::string_view Name) {
  return addVar(Owner, Name,
                Owner == ProcId(0) ? VarKind::Global : VarKind::Local);
}

VarId ProgramBuilder::addFormal(ProcId Owner, std::string_view Name) {
  assert(Owner != ProcId(0) && "main has no formals");
  return addVar(Owner, Name, VarKind::Formal);
}

StmtId ProgramBuilder::addStmt(ProcId Parent) {
  assert(Parent.index() < P.Procs.size() && "bad parent");
  StmtId Id(static_cast<std::uint32_t>(P.Stmts.size()));
  Program::StmtRow S;
  S.Parent = Parent;
  P.Stmts.push_back(S);
  P.StmtPool.stage(P.Procs[Parent.index()].Stmts, Id);
  return Id;
}

void ProgramBuilder::addMod(StmtId S, VarId V) {
  assert(S.index() < P.Stmts.size() && "bad statement");
  P.LModPool.stage(P.Stmts[S.index()].LMod, V);
}

void ProgramBuilder::addUse(StmtId S, VarId V) {
  assert(S.index() < P.Stmts.size() && "bad statement");
  P.LUsePool.stage(P.Stmts[S.index()].LUse, V);
}

CallSiteId ProgramBuilder::addCall(StmtId S, ProcId Callee,
                                   std::vector<Actual> Actuals) {
  assert(S.index() < P.Stmts.size() && "bad statement");
  assert(Callee.index() < P.Procs.size() && "bad callee");
  CallSiteId Id(static_cast<std::uint32_t>(P.Calls.size()));
  Program::CallRow C;
  C.Caller = P.Stmts[S.index()].Parent;
  C.Callee = Callee;
  C.Stmt = S;
  for (const Actual &A : Actuals)
    P.ActualPool.stage(C.Actuals, A);
  P.Calls.push_back(C);
  P.CallPool.stage(P.Stmts[S.index()].Calls, Id);
  P.CallSitePool.stage(P.Procs[C.Caller.index()].CallSites, Id);
  return Id;
}

CallSiteId ProgramBuilder::addCall(StmtId S, ProcId Callee,
                                   const std::vector<VarId> &Vars) {
  std::vector<Actual> Actuals;
  Actuals.reserve(Vars.size());
  for (VarId V : Vars)
    Actuals.push_back(Actual::variable(V));
  return addCall(S, Callee, std::move(Actuals));
}

CallSiteId ProgramBuilder::addCallStmt(ProcId Caller, ProcId Callee,
                                       const std::vector<VarId> &Vars) {
  return addCall(addStmt(Caller), Callee, Vars);
}

Program ProgramBuilder::finish() {
  assert(MainCreated && "program without main");
  // Drop the staging slack: every pool is laid out once, in row order.
  Program::forEachList(P, [](auto &Pool, auto &Rows, auto Field) {
    Pool.relayout(Rows, Field);
  });
  std::string Error;
  if (!P.verify(Error)) {
    // A builder-produced program that fails verification is a programming
    // error in the client; fail loudly even in release builds.
    std::fprintf(stderr,
                 "ipse: ProgramBuilder produced an invalid program: %s\n",
                 Error.c_str());
    std::abort();
  }
  return std::move(P);
}
