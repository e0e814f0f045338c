//===- service/AnalysisSnapshot.cpp - Immutable analysis results --------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "service/AnalysisSnapshot.h"

#include "analysis/DMod.h"
#include "demand/DemandSession.h"

using namespace ipse;
using namespace ipse::service;
using analysis::EffectKind;

std::shared_ptr<const AnalysisSnapshot>
AnalysisSnapshot::capture(demand::DemandSession &Session,
                          std::uint64_t Generation) {
  // No make_shared: the constructor is private and capture is the only
  // producer.
  std::shared_ptr<AnalysisSnapshot> S(new AnalysisSnapshot());
  S->Gen = Generation;
  // One sweep covers both kinds (they share the batch pass set-up when the
  // uncovered region is large); the accessors below find every procedure
  // covered, which costs O(1), and copy.  The session is not edited
  // concurrently (capture runs on its tenant's writer shard).
  Session.ensureSolvedAll();
  S->P = Session.program();
  S->Masks = std::make_unique<analysis::VarMasks>(S->P);
  S->ModResult = Session.gmodResult(EffectKind::Mod);
  S->ModRMod = Session.rmodBits(EffectKind::Mod);
  S->HasUse = Session.options().TrackUse;
  if (S->HasUse) {
    S->UseResult = Session.gmodResult(EffectKind::Use);
    S->UseRMod = Session.rmodBits(EffectKind::Use);
  }
  S->NoAliases = ir::AliasInfo(S->P);
  return S;
}

std::shared_ptr<const AnalysisSnapshot>
AnalysisSnapshot::capturePartial(demand::DemandSession &Session,
                                 std::uint64_t Generation) {
  std::shared_ptr<AnalysisSnapshot> S(new AnalysisSnapshot());
  S->Gen = Generation;
  S->P = Session.program();
  S->Partial = true;
  // No VarMasks: partial snapshots must stay O(solved region) resident,
  // and VarMasks is O(procs × vars) bits.  The per-query paths below
  // rebuild the one callee mask they need instead.
  S->ModResult = Session.peekGModResult(EffectKind::Mod);
  S->ModRMod = Session.peekRModBits(EffectKind::Mod);
  S->ModCovered = Session.coveredFlags(EffectKind::Mod);
  S->HasUse = Session.options().TrackUse;
  if (S->HasUse) {
    S->UseResult = Session.peekGModResult(EffectKind::Use);
    S->UseRMod = Session.peekRModBits(EffectKind::Use);
    S->UseCovered = Session.coveredFlags(EffectKind::Use);
  }
  S->NoAliases = ir::AliasInfo(S->P);
  return S;
}

EffectSet AnalysisSnapshot::projectSitePartial(const analysis::GModResult &G,
                                               ir::CallSiteId Site) const {
  const ir::CallSite &C = P.callSite(Site);
  const ir::Procedure &Callee = P.proc(C.Callee);
  EffectSet Local(P.numVars());
  for (ir::VarId F : Callee.Formals)
    Local.set(F.index());
  for (ir::VarId L : Callee.Locals)
    Local.set(L.index());
  const EffectSet &GM = G.of(C.Callee);
  EffectSet Out(P.numVars());
  Out.orWithAndNot(GM, Local);
  for (unsigned Pos = 0; Pos != C.Actuals.size(); ++Pos) {
    const ir::Actual &A = C.Actuals[Pos];
    if (A.isVariable() && GM.test(Callee.Formals[Pos].index()))
      Out.set(A.Var.index());
  }
  return Out;
}

EffectSet
AnalysisSnapshot::effectOfStmtPartial(const analysis::GModResult &G,
                                      ir::StmtId S) const {
  const ir::Statement &Stmt = P.stmt(S);
  EffectSet Out(P.numVars());
  // Direct effects come from LMod for both kinds — DMOD/DUSE differ only
  // in which GMOD plane the call sites project (mirrors dmodOfStmt).
  for (ir::VarId V : Stmt.LMod)
    Out.set(V.index());
  for (ir::CallSiteId C : Stmt.Calls)
    Out.orWith(projectSitePartial(G, C));
  return Out;
}

EffectSet AnalysisSnapshot::modNoAlias(ir::StmtId S) const {
  if (Partial)
    return effectOfStmtPartial(ModResult, S);
  return analysis::modOfStmt(P, *Masks, ModResult, NoAliases, S);
}

EffectSet AnalysisSnapshot::useNoAlias(ir::StmtId S) const {
  assert(HasUse && "snapshot captured without a USE pipeline");
  if (Partial)
    return effectOfStmtPartial(UseResult, S);
  return analysis::modOfStmt(P, *Masks, UseResult, NoAliases, S);
}

EffectSet AnalysisSnapshot::dmodSite(ir::CallSiteId C) const {
  if (Partial)
    return projectSitePartial(ModResult, C);
  return analysis::projectCallSite(P, *Masks, ModResult, C);
}

bool AnalysisSnapshot::covers(const ScriptCommand &Cmd) const {
  // Without a USE pipeline a USE command fails the same everywhere; let
  // evaluation render the error.
  if (!Partial || (!HasUse && (Cmd.Kind == ScriptCommand::Op::GUse ||
                               Cmd.Kind == ScriptCommand::Op::Use)))
    return true;
  const std::vector<std::string> &A = Cmd.Args;
  using Op = ScriptCommand::Op;
  using analysis::EffectKind;
  try {
    switch (Cmd.Kind) {
    case Op::GMod:
    case Op::RMod:
      // RMOD(p) of p's formals is final whenever Solved(p).
      return covered(findProc(P, A[0], Cmd.LineNo), EffectKind::Mod);
    case Op::GUse:
      return covered(findProc(P, A[0], Cmd.LineNo), EffectKind::Use);
    case Op::Mod:
    case Op::Use: {
      // DMOD/DUSE of a statement needs GMOD of every callee the statement
      // reaches; the direct LMOD bits are in the program copy itself.
      EffectKind Kind = Cmd.Kind == Op::Mod ? EffectKind::Mod
                                            : EffectKind::Use;
      ir::ProcId Proc = findProc(P, A[0], Cmd.LineNo);
      unsigned Idx = 0;
      for (char Ch : A[1]) {
        if (Ch < '0' || Ch > '9')
          return true; // malformed; let evaluation render the error
        Idx = Idx * 10 + unsigned(Ch - '0');
      }
      ir::StmtId St = stmtAt(P, Proc, Idx, Cmd.LineNo);
      for (ir::CallSiteId C : P.stmt(St).Calls)
        if (!covered(P.callSite(C).Callee, Kind))
          return false;
      return true;
    }
    case Op::Query:
      for (const std::string &Arg : A) {
        std::size_t Hash = Arg.find('#');
        ir::ProcId Proc =
            findProc(P, Hash == std::string::npos ? Arg : Arg.substr(0, Hash),
                     Cmd.LineNo);
        if (Hash == std::string::npos) {
          if (!covered(Proc, EffectKind::Mod))
            return false;
          continue;
        }
        unsigned K = 0;
        for (char Ch : Arg.substr(Hash + 1)) {
          if (Ch < '0' || Ch > '9')
            return true;
          K = K * 10 + unsigned(Ch - '0');
        }
        std::span<const ir::CallSiteId> Sites = P.proc(Proc).CallSites;
        if (K >= Sites.size())
          return true;
        if (!covered(P.callSite(Sites[K]).Callee, EffectKind::Mod))
          return false;
      }
      return true;
    case Op::Check:
      // `check` sweeps every procedure in both kinds.
      for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
        if (!covered(ir::ProcId(I), EffectKind::Mod))
          return false;
        if (HasUse && !covered(ir::ProcId(I), EffectKind::Use))
          return false;
      }
      return true;
    default:
      return true;
    }
  } catch (const ScriptError &) {
    // Unresolvable names fail identically against any target; report
    // covered so the evaluation path renders the error.
    return true;
  }
}
