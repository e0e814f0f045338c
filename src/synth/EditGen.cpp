//===- synth/EditGen.cpp - Random program-delta generator ---------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "synth/EditGen.h"

#include <string>
#include <vector>

using namespace ipse;
using namespace ipse::synth;
using incremental::Edit;
using incremental::EditKind;

namespace {

/// Variables visible inside \p Proc: its own formals and locals plus those
/// of every lexical ancestor (main's locals are the globals).
std::vector<ir::VarId> visibleVars(const ir::Program &P, ir::ProcId Proc) {
  std::vector<ir::VarId> Vars;
  for (ir::ProcId Cur = Proc; Cur.isValid(); Cur = P.proc(Cur).Parent) {
    const ir::Procedure &Pr = P.proc(Cur);
    Vars.insert(Vars.end(), Pr.Formals.begin(), Pr.Formals.end());
    Vars.insert(Vars.end(), Pr.Locals.begin(), Pr.Locals.end());
  }
  return Vars;
}

/// One bit per procedure: true iff some call site targets it.
std::vector<char> calledFlags(const ir::Program &P) {
  std::vector<char> Called(P.numProcs(), 0);
  for (std::uint32_t I = 0; I != P.numCallSites(); ++I)
    Called[P.callSite(ir::CallSiteId(I)).Callee.index()] = 1;
  return Called;
}

} // namespace

std::optional<Edit> EditGen::next(const ir::Program &P) {
  unsigned Weights[12] = {
      Cfg.WeightAddMod,    Cfg.WeightRemoveMod, Cfg.WeightAddUse,
      Cfg.WeightRemoveUse, Cfg.WeightAddCall,   Cfg.WeightRemoveCall,
      Cfg.WeightAddStmt,   Cfg.WeightAddProc,   Cfg.WeightAddGlobal,
      Cfg.WeightAddLocal,  Cfg.WeightAddFormal, Cfg.WeightRemoveProc};
  static const EditKind Kinds[12] = {
      EditKind::AddMod,    EditKind::RemoveMod, EditKind::AddUse,
      EditKind::RemoveUse, EditKind::AddCall,   EditKind::RemoveCall,
      EditKind::AddStmt,   EditKind::AddProc,   EditKind::AddGlobal,
      EditKind::AddLocal,  EditKind::AddFormal, EditKind::RemoveProc};
  if (!Cfg.AllowStructural)
    Weights[4] = Weights[5] = Weights[6] = 0;
  if (!Cfg.AllowUniverse)
    for (unsigned I = 7; I != 12; ++I)
      Weights[I] = 0;

  unsigned Total = 0;
  for (unsigned W : Weights)
    Total += W;
  if (Total == 0)
    return std::nullopt;

  // Some kinds can be momentarily infeasible (nothing to remove, no
  // visible variable, ...); redraw a bounded number of times.
  for (unsigned Attempt = 0; Attempt != 32; ++Attempt) {
    std::uint64_t Pick = R.nextBelow(Total);
    unsigned KindIdx = 0;
    while (Pick >= Weights[KindIdx]) {
      Pick -= Weights[KindIdx];
      ++KindIdx;
    }

    Edit E;
    E.Kind = Kinds[KindIdx];
    switch (E.Kind) {
    case EditKind::AddMod:
    case EditKind::AddUse: {
      if (P.numStmts() == 0)
        break;
      ir::StmtId S(static_cast<std::uint32_t>(R.nextBelow(P.numStmts())));
      std::vector<ir::VarId> Vars = visibleVars(P, P.stmt(S).Parent);
      if (Vars.empty())
        break;
      E.Stmt = S;
      E.Var = Vars[R.nextBelow(Vars.size())];
      return E;
    }
    case EditKind::RemoveMod:
    case EditKind::RemoveUse: {
      if (P.numStmts() == 0)
        break;
      bool WantMod = E.Kind == EditKind::RemoveMod;
      // Start at a random statement and scan for one with a non-empty list.
      std::size_t Start = R.nextBelow(P.numStmts());
      for (std::size_t Off = 0; Off != P.numStmts(); ++Off) {
        ir::StmtId S(
            static_cast<std::uint32_t>((Start + Off) % P.numStmts()));
        std::span<const ir::VarId> List =
            WantMod ? P.stmt(S).LMod : P.stmt(S).LUse;
        if (List.empty())
          continue;
        E.Stmt = S;
        E.Var = List[R.nextBelow(List.size())];
        return E;
      }
      break;
    }
    case EditKind::AddCall: {
      if (P.numStmts() == 0)
        break;
      ir::StmtId S(static_cast<std::uint32_t>(R.nextBelow(P.numStmts())));
      ir::ProcId Caller = P.stmt(S).Parent;
      // Callable from Caller: any procedure but main whose declaring scope
      // encloses (or is) the caller.
      std::vector<ir::ProcId> Callees;
      for (std::uint32_t I = 1; I != P.numProcs(); ++I)
        if (P.isAncestorOrSelf(P.proc(ir::ProcId(I)).Parent, Caller))
          Callees.push_back(ir::ProcId(I));
      if (Callees.empty())
        break;
      ir::ProcId Callee = Callees[R.nextBelow(Callees.size())];
      std::vector<ir::VarId> Vars = visibleVars(P, Caller);
      E.Stmt = S;
      E.Callee = Callee;
      for (std::size_t I = 0; I != P.proc(Callee).Formals.size(); ++I) {
        if (!Vars.empty() && R.nextChance(Cfg.VarActualPct, 100))
          E.Actuals.push_back(
              ir::Actual::variable(Vars[R.nextBelow(Vars.size())]));
        else
          E.Actuals.push_back(ir::Actual::expression());
      }
      return E;
    }
    case EditKind::RemoveCall: {
      if (P.numCallSites() == 0)
        break;
      E.Call =
          ir::CallSiteId(static_cast<std::uint32_t>(R.nextBelow(P.numCallSites())));
      return E;
    }
    case EditKind::AddStmt: {
      E.Proc = ir::ProcId(static_cast<std::uint32_t>(R.nextBelow(P.numProcs())));
      return E;
    }
    case EditKind::AddProc: {
      std::vector<ir::ProcId> Parents;
      for (std::uint32_t I = 0; I != P.numProcs(); ++I)
        if (P.proc(ir::ProcId(I)).Level < Cfg.MaxNestDepth)
          Parents.push_back(ir::ProcId(I));
      if (Parents.empty())
        break;
      E.Proc = Parents[R.nextBelow(Parents.size())];
      E.Name = "zz_p" + std::to_string(NameCounter++);
      return E;
    }
    case EditKind::AddGlobal: {
      E.Name = "zz_v" + std::to_string(NameCounter++);
      return E;
    }
    case EditKind::AddLocal: {
      E.Proc = ir::ProcId(static_cast<std::uint32_t>(R.nextBelow(P.numProcs())));
      E.Name = "zz_v" + std::to_string(NameCounter++);
      return E;
    }
    case EditKind::AddFormal: {
      // Only procedures no call site targets yet (arity stability), and
      // never main.
      std::vector<char> Called = calledFlags(P);
      std::vector<ir::ProcId> Owners;
      for (std::uint32_t I = 1; I != P.numProcs(); ++I)
        if (!Called[I])
          Owners.push_back(ir::ProcId(I));
      if (Owners.empty())
        break;
      E.Proc = Owners[R.nextBelow(Owners.size())];
      E.Name = "zz_v" + std::to_string(NameCounter++);
      return E;
    }
    case EditKind::RemoveProc: {
      std::vector<char> Called = calledFlags(P);
      std::vector<ir::ProcId> Targets;
      for (std::uint32_t I = 1; I != P.numProcs(); ++I)
        if (!Called[I] && P.proc(ir::ProcId(I)).Nested.empty())
          Targets.push_back(ir::ProcId(I));
      if (Targets.empty())
        break;
      E.Proc = Targets[R.nextBelow(Targets.size())];
      return E;
    }
    }
  }
  return std::nullopt;
}
