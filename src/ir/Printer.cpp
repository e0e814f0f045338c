//===- ir/Printer.cpp - Human-readable program dumps ------------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "ir/Printer.h"

#include <algorithm>
#include <sstream>

using namespace ipse;
using namespace ipse::ir;

std::string ir::qualifiedName(const Program &P, VarId V) {
  const Variable &Var = P.var(V);
  if (Var.Kind == VarKind::Global)
    return P.name(V);
  return P.name(Var.Owner) + "." + P.name(V);
}

std::string ir::setToString(const Program &P, const EffectSet &Set) {
  std::vector<std::string> Names;
  Set.forEachSetBit([&](std::size_t Idx) {
    Names.push_back(qualifiedName(P, VarId(static_cast<std::uint32_t>(Idx))));
  });
  std::sort(Names.begin(), Names.end());
  std::string Out;
  for (std::size_t I = 0; I != Names.size(); ++I)
    Out.append(I == 0 ? "" : ", ").append(Names[I]);
  return Out;
}

static void printVarList(std::ostringstream &OS, const Program &P,
                         std::span<const VarId> Vars) {
  bool First = true;
  for (VarId V : Vars) {
    if (!First)
      OS << ", ";
    First = false;
    OS << P.name(V);
  }
}

static void printProc(std::ostringstream &OS, const Program &P, ProcId Id,
                      unsigned Indent) {
  const Procedure &Pr = P.proc(Id);
  std::string Pad(Indent, ' ');
  OS << Pad << (Id == P.main() ? "program " : "proc ") << P.name(Id);
  if (!Pr.Formals.empty()) {
    OS << "(";
    printVarList(OS, P, Pr.Formals);
    OS << ")";
  }
  OS << "  [level " << Pr.Level << "]\n";
  if (!Pr.Locals.empty()) {
    OS << Pad << "  var ";
    printVarList(OS, P, Pr.Locals);
    OS << "\n";
  }
  for (ProcId N : Pr.Nested)
    printProc(OS, P, N, Indent + 2);
  for (StmtId SId : Pr.Stmts) {
    const Statement &S = P.stmt(SId);
    OS << Pad << "  stmt s" << SId.index() << ":";
    if (!S.LMod.empty()) {
      OS << " mod{";
      printVarList(OS, P, S.LMod);
      OS << "}";
    }
    if (!S.LUse.empty()) {
      OS << " use{";
      printVarList(OS, P, S.LUse);
      OS << "}";
    }
    for (CallSiteId CId : S.Calls) {
      const CallSite &C = P.callSite(CId);
      OS << " call " << P.name(C.Callee) << "(";
      bool First = true;
      for (const Actual &A : C.Actuals) {
        if (!First)
          OS << ", ";
        First = false;
        if (A.isVariable())
          OS << P.name(A.Var);
        else
          OS << "<expr>";
      }
      OS << ")";
    }
    OS << "\n";
  }
}

std::string ir::printProgram(const Program &P) {
  std::ostringstream OS;
  printProc(OS, P, P.main(), 0);
  return OS.str();
}
