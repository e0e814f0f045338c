//===- synth/SourceGen.cpp - Emit MiniProc source from IR ----------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "synth/SourceGen.h"

#include <sstream>

using namespace ipse;
using namespace ipse::synth;
using namespace ipse::ir;

namespace {

class Emitter {
public:
  explicit Emitter(const Program &P) : P(P) {}

  std::string run() {
    OS << "program " << P.name(P.main()) << ";\n";
    emitBlock(P.main(), 0);
    OS << ".\n";
    return OS.str();
  }

private:
  std::string pad(unsigned Indent) const { return std::string(Indent, ' '); }

  void emitBlock(ProcId Proc, unsigned Indent) {
    const Procedure &Pr = P.proc(Proc);
    std::string Pad = pad(Indent);
    if (!Pr.Locals.empty()) {
      OS << Pad << "var ";
      for (std::size_t I = 0; I != Pr.Locals.size(); ++I) {
        if (I != 0)
          OS << ", ";
        OS << P.name(Pr.Locals[I]);
      }
      OS << ";\n";
    }
    for (ProcId N : Pr.Nested)
      emitProc(N, Indent);
    OS << Pad << "begin\n";
    for (StmtId S : Pr.Stmts)
      emitStmt(S, Indent + 2);
    OS << Pad << "end";
    if (Proc != P.main())
      OS << ";";
    OS << "\n";
  }

  void emitProc(ProcId Proc, unsigned Indent) {
    const Procedure &Pr = P.proc(Proc);
    std::string Pad = pad(Indent);
    OS << Pad << "proc " << P.name(Proc) << "(";
    for (std::size_t I = 0; I != Pr.Formals.size(); ++I) {
      if (I != 0)
        OS << ", ";
      OS << P.name(Pr.Formals[I]);
    }
    OS << ");\n";
    emitBlock(Proc, Indent + 2);
  }

  /// One IR statement becomes: one `read`/assignment per LMOD entry (the
  /// first carrying the LUSE expression), a bare `write` when only LUSE is
  /// present, and one call statement per call site.
  void emitStmt(StmtId S, unsigned Indent) {
    const Statement &Stmt = P.stmt(S);
    std::string Pad = pad(Indent);

    std::string UseExpr = buildUseExpr(Stmt.LUse);
    bool UsesEmitted = false;
    for (std::size_t I = 0; I != Stmt.LMod.size(); ++I) {
      OS << Pad << P.name(Stmt.LMod[I]) << " := ";
      if (!UsesEmitted && !UseExpr.empty()) {
        OS << UseExpr;
        UsesEmitted = true;
      } else {
        OS << "0";
      }
      OS << ";\n";
    }
    if (!UsesEmitted && !UseExpr.empty())
      OS << Pad << "write " << UseExpr << ";\n";

    for (CallSiteId C : Stmt.Calls)
      emitCall(C, Pad);
  }

  std::string buildUseExpr(std::span<const VarId> Uses) {
    if (Uses.empty())
      return "";
    std::ostringstream E;
    for (std::size_t I = 0; I != Uses.size(); ++I) {
      if (I != 0)
        E << " + ";
      E << P.name(Uses[I]);
    }
    return E.str();
  }

  void emitCall(CallSiteId C, const std::string &Pad) {
    const CallSite &Site = P.callSite(C);
    OS << Pad << "call " << P.name(Site.Callee) << "(";
    for (std::size_t I = 0; I != Site.Actuals.size(); ++I) {
      if (I != 0)
        OS << ", ";
      // A non-variable actual re-emits as a literal: still an expression
      // actual after the round trip.
      if (Site.Actuals[I].isVariable())
        OS << P.name(Site.Actuals[I].Var);
      else
        OS << "0";
    }
    OS << ");\n";
  }

  const Program &P;
  std::ostringstream OS;
};

} // namespace

std::string synth::emitMiniProc(const Program &P) {
  return Emitter(P).run();
}
