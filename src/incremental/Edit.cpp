//===- incremental/Edit.cpp - First-class program deltas ----------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "incremental/Edit.h"

#include "ir/Printer.h"

#include <sstream>

using namespace ipse;
using namespace ipse::incremental;

void Edit::encode(ByteWriter &W) const {
  W.u8(static_cast<std::uint8_t>(Kind));
  W.u32(Stmt.index());
  W.u32(Var.index());
  W.u32(Proc.index());
  W.u32(Callee.index());
  W.u32(Call.index());
  W.u32(static_cast<std::uint32_t>(Actuals.size()));
  for (const ir::Actual &A : Actuals)
    W.u32(A.Var.index());
  W.str(Name);
}

bool Edit::decode(ByteReader &R, Edit &Out) {
  std::uint8_t Kind = 0;
  if (!R.u8(Kind) || Kind > static_cast<std::uint8_t>(EditKind::RemoveProc))
    return false;
  Out.Kind = static_cast<EditKind>(Kind);
  std::uint32_t Stmt, Var, Proc, Callee, Call, NumActuals;
  if (!R.u32(Stmt) || !R.u32(Var) || !R.u32(Proc) || !R.u32(Callee) ||
      !R.u32(Call) || !R.u32(NumActuals))
    return false;
  Out.Stmt = ir::StmtId(Stmt);
  Out.Var = ir::VarId(Var);
  Out.Proc = ir::ProcId(Proc);
  Out.Callee = ir::ProcId(Callee);
  Out.Call = ir::CallSiteId(Call);
  // A corrupt count would otherwise reserve gigabytes before the reads
  // fail; each actual takes 4 bytes, so the remaining length bounds it.
  if (NumActuals > R.remaining() / 4)
    return false;
  Out.Actuals.clear();
  Out.Actuals.reserve(NumActuals);
  for (std::uint32_t I = 0; I != NumActuals; ++I) {
    std::uint32_t Raw;
    if (!R.u32(Raw))
      return false;
    Out.Actuals.push_back(ir::Actual{ir::VarId(Raw)});
  }
  return R.str(Out.Name);
}

namespace {

/// Position of \p S in its procedure's body (the script grammar's stmtIdx).
std::size_t stmtIndexInProc(const ir::Program &P, ir::StmtId S) {
  std::span<const ir::StmtId> Stmts = P.proc(P.stmt(S).Parent).Stmts;
  for (std::size_t I = 0; I != Stmts.size(); ++I)
    if (Stmts[I] == S)
      return I;
  assert(false && "statement not in its parent's body");
  return 0;
}

/// Position of \p C in its caller's call-site list (the grammar's k).
std::size_t callIndexInProc(const ir::Program &P, ir::CallSiteId C) {
  std::span<const ir::CallSiteId> Sites =
      P.proc(P.callSite(C).Caller).CallSites;
  for (std::size_t I = 0; I != Sites.size(); ++I)
    if (Sites[I] == C)
      return I;
  assert(false && "call site not in its caller's list");
  return 0;
}

} // namespace

std::string incremental::toScriptLine(const ir::Program &P, const Edit &E) {
  std::ostringstream OS;
  auto effect = [&](const char *Cmd) {
    OS << Cmd << " " << P.name(P.stmt(E.Stmt).Parent) << " "
       << stmtIndexInProc(P, E.Stmt) << " " << P.name(E.Var);
  };
  switch (E.Kind) {
  case EditKind::AddMod:
    effect("add-mod");
    break;
  case EditKind::RemoveMod:
    effect("rm-mod");
    break;
  case EditKind::AddUse:
    effect("add-use");
    break;
  case EditKind::RemoveUse:
    effect("rm-use");
    break;
  case EditKind::AddCall:
    OS << "add-call " << P.name(P.stmt(E.Stmt).Parent) << " "
       << stmtIndexInProc(P, E.Stmt) << " " << P.name(E.Callee);
    for (const ir::Actual &A : E.Actuals)
      OS << " " << (A.isVariable() ? P.name(A.Var) : std::string("_"));
    break;
  case EditKind::RemoveCall:
    OS << "rm-call " << P.name(P.callSite(E.Call).Caller) << " "
       << callIndexInProc(P, E.Call);
    break;
  case EditKind::AddStmt:
    OS << "add-stmt " << P.name(E.Proc);
    break;
  case EditKind::AddProc:
    OS << "add-proc " << E.Name << " " << P.name(E.Proc);
    break;
  case EditKind::AddGlobal:
    OS << "add-global " << E.Name;
    break;
  case EditKind::AddLocal:
    OS << "add-local " << P.name(E.Proc) << " " << E.Name;
    break;
  case EditKind::AddFormal:
    OS << "add-formal " << P.name(E.Proc) << " " << E.Name;
    break;
  case EditKind::RemoveProc:
    OS << "rm-proc " << P.name(E.Proc);
    break;
  }
  return OS.str();
}

std::string incremental::toString(const ir::Program &P, const Edit &E) {
  std::ostringstream OS;
  auto stmtAt = [&](ir::StmtId S) {
    OS << P.name(P.stmt(S).Parent) << "#s" << S.index();
  };
  switch (E.Kind) {
  case EditKind::AddMod:
    OS << "add-mod ";
    stmtAt(E.Stmt);
    OS << " " << ir::qualifiedName(P, E.Var);
    break;
  case EditKind::RemoveMod:
    OS << "rm-mod ";
    stmtAt(E.Stmt);
    OS << " " << ir::qualifiedName(P, E.Var);
    break;
  case EditKind::AddUse:
    OS << "add-use ";
    stmtAt(E.Stmt);
    OS << " " << ir::qualifiedName(P, E.Var);
    break;
  case EditKind::RemoveUse:
    OS << "rm-use ";
    stmtAt(E.Stmt);
    OS << " " << ir::qualifiedName(P, E.Var);
    break;
  case EditKind::AddCall: {
    OS << "add-call ";
    stmtAt(E.Stmt);
    OS << " -> " << P.name(E.Callee) << "(";
    for (std::size_t I = 0; I != E.Actuals.size(); ++I) {
      if (I != 0)
        OS << ", ";
      if (E.Actuals[I].isVariable())
        OS << ir::qualifiedName(P, E.Actuals[I].Var);
      else
        OS << "_";
    }
    OS << ")";
    break;
  }
  case EditKind::RemoveCall: {
    const ir::CallSite &C = P.callSite(E.Call);
    OS << "rm-call " << P.name(C.Caller) << " -> " << P.name(C.Callee) << " #c"
       << E.Call.index();
    break;
  }
  case EditKind::AddStmt:
    OS << "add-stmt " << P.name(E.Proc);
    break;
  case EditKind::AddProc:
    OS << "add-proc " << E.Name << " in " << P.name(E.Proc);
    break;
  case EditKind::AddGlobal:
    OS << "add-global " << E.Name;
    break;
  case EditKind::AddLocal:
    OS << "add-local " << P.name(E.Proc) << "." << E.Name;
    break;
  case EditKind::AddFormal:
    OS << "add-formal " << P.name(E.Proc) << "." << E.Name;
    break;
  case EditKind::RemoveProc:
    OS << "rm-proc " << P.name(E.Proc);
    break;
  }
  return OS.str();
}
