//===- service/ScriptDriver.cpp - Shared session-script parsing ---------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "service/ScriptDriver.h"

#include "analysis/SideEffectAnalyzer.h"
#include "demand/DemandSession.h"
#include "synth/ProgramGen.h"

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <sstream>

using namespace ipse;
using namespace ipse::service;
using ir::ProcId;
using ir::Program;
using ir::StmtId;
using ir::VarId;

namespace {

[[noreturn]] void die(unsigned LineNo, std::string Msg) {
  throw ScriptError{LineNo, std::move(Msg)};
}

struct OpSpec {
  const char *Name;
  ScriptCommand::Op Op;
  /// Exact operand count, or -1 for "validated at execution" (gen,
  /// add-call).
  int Arity;
};

constexpr OpSpec Specs[] = {
    {"load", ScriptCommand::Op::Load, 1},
    {"gen", ScriptCommand::Op::Gen, -1},
    {"add-mod", ScriptCommand::Op::AddMod, 3},
    {"rm-mod", ScriptCommand::Op::RmMod, 3},
    {"add-use", ScriptCommand::Op::AddUse, 3},
    {"rm-use", ScriptCommand::Op::RmUse, 3},
    {"add-stmt", ScriptCommand::Op::AddStmt, 1},
    {"add-call", ScriptCommand::Op::AddCall, -1},
    {"rm-call", ScriptCommand::Op::RmCall, 2},
    {"add-proc", ScriptCommand::Op::AddProc, 2},
    {"add-global", ScriptCommand::Op::AddGlobal, 1},
    {"add-local", ScriptCommand::Op::AddLocal, 2},
    {"add-formal", ScriptCommand::Op::AddFormal, 2},
    {"rm-proc", ScriptCommand::Op::RmProc, 1},
    {"gmod", ScriptCommand::Op::GMod, 1},
    {"guse", ScriptCommand::Op::GUse, 1},
    {"rmod", ScriptCommand::Op::RMod, 1},
    {"mod", ScriptCommand::Op::Mod, 2},
    {"use", ScriptCommand::Op::Use, 2},
    {"query", ScriptCommand::Op::Query, -1},
    {"check", ScriptCommand::Op::Check, 0},
    {"stats", ScriptCommand::Op::Stats, 0},
    {"metrics", ScriptCommand::Op::Metrics, -1},
    {"debug", ScriptCommand::Op::Debug, 0},
    {"open", ScriptCommand::Op::Open, -1},
    {"close", ScriptCommand::Op::Close, 1},
    {"attach", ScriptCommand::Op::Attach, 1},
};

/// A statement or call-site index, or a `gen` value: decimal digits
/// only, below 2^32.  Signs, hex prefixes, an empty operand and overflow
/// are script errors.
std::uint32_t parseNumber(std::string_view S, unsigned LineNo) {
  bool Ok = !S.empty() && S.find_first_not_of("0123456789") == S.npos;
  std::uint64_t V = 0;
  for (std::size_t I = 0; Ok && I != S.size(); ++I) {
    V = V * 10 + unsigned(S[I] - '0');
    Ok = V <= UINT32_MAX;
  }
  if (!Ok)
    die(LineNo, "'" + std::string(S) +
                    "' is not a decimal number below 2^32");
  return static_cast<std::uint32_t>(V);
}

} // namespace

bool service::isEditCommand(ScriptCommand::Op Op) {
  switch (Op) {
  case ScriptCommand::Op::AddMod:
  case ScriptCommand::Op::RmMod:
  case ScriptCommand::Op::AddUse:
  case ScriptCommand::Op::RmUse:
  case ScriptCommand::Op::AddStmt:
  case ScriptCommand::Op::AddCall:
  case ScriptCommand::Op::RmCall:
  case ScriptCommand::Op::AddProc:
  case ScriptCommand::Op::AddGlobal:
  case ScriptCommand::Op::AddLocal:
  case ScriptCommand::Op::AddFormal:
  case ScriptCommand::Op::RmProc:
    return true;
  default:
    return false;
  }
}

bool service::isQueryCommand(ScriptCommand::Op Op) {
  switch (Op) {
  case ScriptCommand::Op::GMod:
  case ScriptCommand::Op::GUse:
  case ScriptCommand::Op::RMod:
  case ScriptCommand::Op::Mod:
  case ScriptCommand::Op::Use:
  case ScriptCommand::Op::Query:
  case ScriptCommand::Op::Check:
    return true;
  default:
    return false;
  }
}

synth::ProgramGenConfig
service::parseGenSpec(const std::vector<std::string> &Args, unsigned LineNo) {
  synth::ProgramGenConfig Cfg;
  for (const std::string &Arg : Args) {
    std::size_t Eq = Arg.find('=');
    if (Eq == std::string::npos)
      throw ScriptError{LineNo, "'gen' operands are key=value"};
    std::string Key = Arg.substr(0, Eq);
    unsigned Val = parseNumber(std::string_view(Arg).substr(Eq + 1), LineNo);
    if (Key == "procs")
      Cfg.NumProcs = Val;
    else if (Key == "globals")
      Cfg.NumGlobals = Val;
    else if (Key == "seed")
      Cfg.Seed = Val;
    else if (Key == "depth")
      Cfg.MaxNestDepth = Val;
    else
      throw ScriptError{LineNo, "unknown 'gen' key '" + Key + "'"};
  }
  return Cfg;
}

bool service::isTenantCommand(ScriptCommand::Op Op) {
  switch (Op) {
  case ScriptCommand::Op::Open:
  case ScriptCommand::Op::Close:
  case ScriptCommand::Op::Attach:
    return true;
  default:
    return false;
  }
}

bool service::isValidTenantName(std::string_view Name) {
  if (Name.empty() || Name.size() > 64)
    return false;
  for (char C : Name) {
    bool Legal = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
                 (C >= '0' && C <= '9') || C == '_' || C == '.' || C == '-';
    if (!Legal)
      return false;
  }
  return true;
}

std::string_view service::stripComment(std::string_view Line) {
  // A '#' opens a comment only at line start or after whitespace; mid-token
  // it is data ("query p12#0" names p12's call site 0).
  for (std::size_t Hash = Line.find('#'); Hash != std::string_view::npos;
       Hash = Line.find('#', Hash + 1))
    if (Hash == 0 || std::isspace(static_cast<unsigned char>(Line[Hash - 1])))
      return Line.substr(0, Hash);
  return Line;
}

std::optional<ScriptCommand> service::parseScriptLine(std::string_view Line,
                                                      unsigned LineNo) {
  std::istringstream Tok{std::string(stripComment(Line))};
  std::vector<std::string> T;
  for (std::string W; Tok >> W;)
    T.push_back(W);
  if (T.empty())
    return std::nullopt;

  for (const OpSpec &Spec : Specs) {
    if (T[0] != Spec.Name)
      continue;
    ScriptCommand Cmd;
    Cmd.Kind = Spec.Op;
    Cmd.LineNo = LineNo;
    Cmd.Args.assign(T.begin() + 1, T.end());
    if (Spec.Arity >= 0 &&
        Cmd.Args.size() != static_cast<std::size_t>(Spec.Arity))
      die(LineNo, "'" + T[0] + "' expects " + std::to_string(Spec.Arity) +
                      " operand(s)");
    if (Spec.Op == ScriptCommand::Op::AddCall && Cmd.Args.size() < 3)
      die(LineNo, "'add-call' expects <proc> <stmtIdx> <callee> ...");
    if (Spec.Op == ScriptCommand::Op::Query && Cmd.Args.empty())
      die(LineNo, "'query' expects at least one <proc> or <proc>#<k>");
    if (isTenantCommand(Spec.Op)) {
      if (Cmd.Args.empty())
        die(LineNo, "'" + T[0] + "' expects a tenant name");
      if (!isValidTenantName(Cmd.Args[0]))
        die(LineNo, "invalid tenant name '" + Cmd.Args[0] +
                        "' (1-64 chars from [A-Za-z0-9_.-])");
    }
    if (Spec.Op == ScriptCommand::Op::Metrics &&
        (Cmd.Args.size() > 1 ||
         (Cmd.Args.size() == 1 && Cmd.Args[0] != "--format=json" &&
          Cmd.Args[0] != "--format=prom")))
      die(LineNo, "'metrics' expects at most '--format=json|prom'");
    return Cmd;
  }
  die(LineNo, "unknown command '" + T[0] + "'");
}

ProcId service::findProc(const Program &P, const std::string &Name,
                         unsigned LineNo) {
  for (std::uint32_t I = 0; I != P.numProcs(); ++I)
    if (P.name(ProcId(I)) == Name)
      return ProcId(I);
  die(LineNo, "unknown procedure '" + Name + "'");
}

VarId service::findVisibleVar(const Program &P, ProcId Scope,
                              const std::string &Name, unsigned LineNo) {
  for (ProcId Cur = Scope; Cur.isValid(); Cur = P.proc(Cur).Parent) {
    for (VarId V : P.proc(Cur).Formals)
      if (P.name(V) == Name)
        return V;
    for (VarId V : P.proc(Cur).Locals)
      if (P.name(V) == Name)
        return V;
  }
  die(LineNo,
      "no variable '" + Name + "' visible in '" + P.name(Scope) + "'");
}

StmtId service::stmtAt(const Program &P, ProcId Proc, unsigned Idx,
                       unsigned LineNo) {
  std::span<const StmtId> Stmts = P.proc(Proc).Stmts;
  if (Idx >= Stmts.size())
    die(LineNo, "procedure '" + P.name(Proc) + "' has only " +
                    std::to_string(Stmts.size()) + " statements");
  return Stmts[Idx];
}

incremental::Edit service::resolveEditCommand(const Program &P,
                                              const ScriptCommand &Cmd) {
  const std::vector<std::string> &A = Cmd.Args;
  const unsigned LineNo = Cmd.LineNo;
  incremental::Edit E;
  switch (Cmd.Kind) {
  case ScriptCommand::Op::AddMod:
  case ScriptCommand::Op::RmMod:
  case ScriptCommand::Op::AddUse:
  case ScriptCommand::Op::RmUse: {
    ProcId Proc = findProc(P, A[0], LineNo);
    E.Kind = Cmd.Kind == ScriptCommand::Op::AddMod ? incremental::EditKind::AddMod
             : Cmd.Kind == ScriptCommand::Op::RmMod
                 ? incremental::EditKind::RemoveMod
             : Cmd.Kind == ScriptCommand::Op::AddUse
                 ? incremental::EditKind::AddUse
                 : incremental::EditKind::RemoveUse;
    E.Stmt = stmtAt(P, Proc, parseNumber(A[1], LineNo), LineNo);
    E.Var = findVisibleVar(P, Proc, A[2], LineNo);
    return E;
  }
  case ScriptCommand::Op::AddStmt:
    E.Kind = incremental::EditKind::AddStmt;
    E.Proc = findProc(P, A[0], LineNo);
    return E;
  case ScriptCommand::Op::AddCall: {
    ProcId Proc = findProc(P, A[0], LineNo);
    E.Kind = incremental::EditKind::AddCall;
    E.Stmt = stmtAt(P, Proc, parseNumber(A[1], LineNo), LineNo);
    E.Callee = findProc(P, A[2], LineNo);
    // ProgramEditor::addCall's preconditions, refused here as script
    // errors instead of tripping its asserts.
    if (E.Callee == P.main())
      die(LineNo, "cannot call the main program '" + A[2] + "'");
    if (!P.isAncestorOrSelf(P.proc(E.Callee).Parent, Proc))
      die(LineNo, "'" + A[2] + "' is not visible in '" + A[0] + "'");
    for (std::size_t I = 3; I != A.size(); ++I)
      E.Actuals.push_back(A[I] == "_" ? ir::Actual::expression()
                                      : ir::Actual::variable(findVisibleVar(
                                            P, Proc, A[I], LineNo)));
    if (E.Actuals.size() != P.proc(E.Callee).Formals.size())
      die(LineNo, "arity mismatch: '" + A[2] + "' takes " +
                      std::to_string(P.proc(E.Callee).Formals.size()) +
                      " argument(s)");
    return E;
  }
  case ScriptCommand::Op::RmCall: {
    ProcId Proc = findProc(P, A[0], LineNo);
    unsigned K = parseNumber(A[1], LineNo);
    if (K >= P.proc(Proc).CallSites.size())
      die(LineNo, "procedure '" + A[0] + "' has only " +
                      std::to_string(P.proc(Proc).CallSites.size()) +
                      " call sites");
    E.Kind = incremental::EditKind::RemoveCall;
    E.Call = P.proc(Proc).CallSites[K];
    return E;
  }
  case ScriptCommand::Op::AddProc:
    E.Kind = incremental::EditKind::AddProc;
    E.Name = A[0];
    E.Proc = findProc(P, A[1], LineNo);
    return E;
  case ScriptCommand::Op::AddGlobal:
    E.Kind = incremental::EditKind::AddGlobal;
    E.Name = A[0];
    return E;
  case ScriptCommand::Op::AddLocal:
    E.Kind = incremental::EditKind::AddLocal;
    E.Proc = findProc(P, A[0], LineNo);
    E.Name = A[1];
    return E;
  case ScriptCommand::Op::AddFormal:
    E.Kind = incremental::EditKind::AddFormal;
    E.Proc = findProc(P, A[0], LineNo);
    E.Name = A[1];
    return E;
  case ScriptCommand::Op::RmProc: {
    // ProgramEditor::removeProc's preconditions, refused here as script
    // errors instead of tripping its asserts.
    E.Kind = incremental::EditKind::RemoveProc;
    E.Proc = findProc(P, A[0], LineNo);
    if (E.Proc == P.main())
      die(LineNo, "cannot remove the main program '" + A[0] + "'");
    if (!P.proc(E.Proc).Nested.empty())
      die(LineNo, "cannot remove '" + A[0] + "': it has nested procedures");
    for (std::uint32_t I = 0; I != P.numCallSites(); ++I) {
      const ir::CallSite &C = P.callSite(ir::CallSiteId(I));
      if (C.Callee == E.Proc)
        die(LineNo, "cannot remove '" + A[0] + "': '" + P.name(C.Caller) +
                        "' calls it");
    }
    return E;
  }
  default:
    die(LineNo, "not an edit command");
  }
}

incremental::Edit service::applyEditCommand(demand::DemandSession &Session,
                                            const ScriptCommand &Cmd) {
  incremental::Edit E = resolveEditCommand(Session.program(), Cmd);
  demand::applyEdit(Session, E);
  return E;
}

//===----------------------------------------------------------------------===//
// Query evaluation over a QueryTarget.
//===----------------------------------------------------------------------===//

const Program &DemandSessionQueryTarget::program() const {
  return S.program();
}
bool DemandSessionQueryTarget::tracksUse() const {
  return S.options().TrackUse;
}
const EffectSet &DemandSessionQueryTarget::gmod(ProcId Proc) const {
  return S.gmod(Proc);
}
const EffectSet &DemandSessionQueryTarget::guse(ProcId Proc) const {
  return S.guse(Proc);
}
bool DemandSessionQueryTarget::rmodContains(VarId Formal,
                                            analysis::EffectKind Kind) const {
  return S.rmodContains(Formal, Kind);
}
// MOD(s) under the empty alias relation is DMOD(s).
EffectSet DemandSessionQueryTarget::modNoAlias(StmtId St) const {
  return S.dmod(St);
}
EffectSet DemandSessionQueryTarget::useNoAlias(StmtId St) const {
  return S.duse(St);
}
EffectSet DemandSessionQueryTarget::dmodSite(ir::CallSiteId C) const {
  return S.dmod(C);
}
bool DemandSessionQueryTarget::demandCounters(
    std::uint64_t &RegionProcs, std::uint64_t &MemoHits,
    std::uint64_t &FrontierCuts) const {
  const demand::DemandStats &St = S.stats();
  RegionProcs = St.RegionProcs;
  MemoHits = St.MemoHits;
  FrontierCuts = St.FrontierCuts;
  return true;
}


namespace {

/// `check`: the target's answers must equal a fresh batch analysis of its
/// program — the end-to-end consistency probe every driver exposes.  A
/// target without a USE pipeline is checked on MOD alone.  Every answer
/// is read before the batch analysis is built, so a target that cannot
/// answer (a snapshot read off its coverage) refuses at no solving cost.
QueryResult evalCheck(const QueryTarget &Target) {
  const Program &P = Target.program();
  const bool WithUse = Target.tracksUse();
  std::vector<EffectSet> GMod, GUse;
  std::vector<char> RMod, RUse; // Per formal, in procedure order.
  for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
    ProcId Proc(I);
    GMod.push_back(Target.gmod(Proc));
    if (WithUse)
      GUse.push_back(Target.guse(Proc));
    for (VarId F : P.proc(Proc).Formals) {
      RMod.push_back(Target.rmodContains(F, analysis::EffectKind::Mod));
      if (WithUse)
        RUse.push_back(Target.rmodContains(F, analysis::EffectKind::Use));
    }
  }
  const analysis::BatchAnalysis Batch(P, WithUse);
  bool Ok = true;
  std::size_t Formal = 0;
  for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
    ProcId Proc(I);
    if (GMod[I] != Batch.Mod.gmod(Proc) ||
        (WithUse && GUse[I] != Batch.Use->gmod(Proc)))
      Ok = false;
    for (VarId F : P.proc(Proc).Formals) {
      if (bool(RMod[Formal]) != Batch.Mod.rmodContains(F) ||
          (WithUse && bool(RUse[Formal]) != Batch.Use->rmodContains(F)))
        Ok = false;
      ++Formal;
    }
  }
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "check: %s (%u procedures, %u call sites)",
                Ok ? "OK" : "MISMATCH",
                static_cast<unsigned>(P.numProcs()),
                static_cast<unsigned>(P.numCallSites()));
  return QueryResult{Buf, Ok};
}

} // namespace

QueryResult service::evalQueryCommand(const QueryTarget &Target,
                                      const ScriptCommand &Cmd) {
  const std::vector<std::string> &A = Cmd.Args;
  const unsigned LineNo = Cmd.LineNo;
  if ((Cmd.Kind == ScriptCommand::Op::GUse ||
       Cmd.Kind == ScriptCommand::Op::Use) &&
      !Target.tracksUse())
    die(LineNo, "no USE pipeline (started with --no-use)");
  std::ostringstream OS;
  switch (Cmd.Kind) {
  case ScriptCommand::Op::GMod:
  case ScriptCommand::Op::GUse: {
    const Program &P = Target.program();
    ProcId Proc = findProc(P, A[0], LineNo);
    bool IsMod = Cmd.Kind == ScriptCommand::Op::GMod;
    const EffectSet &Set = IsMod ? Target.gmod(Proc) : Target.guse(Proc);
    OS << (IsMod ? "GMOD" : "GUSE") << "(" << A[0] << ") = {"
       << setToString(Target.program(), Set) << "}";
    return QueryResult{OS.str(), true};
  }
  case ScriptCommand::Op::RMod: {
    const Program &P = Target.program();
    ProcId Proc = findProc(P, A[0], LineNo);
    std::string Names;
    for (VarId F : P.proc(Proc).Formals)
      if (Target.rmodContains(F, analysis::EffectKind::Mod)) {
        if (!Names.empty())
          Names += ", ";
        Names += P.name(F);
      }
    OS << "RMOD(" << A[0] << ") = {" << Names << "}";
    return QueryResult{OS.str(), true};
  }
  case ScriptCommand::Op::Mod:
  case ScriptCommand::Op::Use: {
    const Program &P = Target.program();
    ProcId Proc = findProc(P, A[0], LineNo);
    StmtId St = stmtAt(P, Proc, parseNumber(A[1], LineNo), LineNo);
    bool IsMod = Cmd.Kind == ScriptCommand::Op::Mod;
    EffectSet Set = IsMod ? Target.modNoAlias(St) : Target.useNoAlias(St);
    OS << (IsMod ? "MOD" : "USE") << "(" << A[0] << "#" << A[1] << ") = {"
       << setToString(Target.program(), Set) << "}";
    return QueryResult{OS.str(), true};
  }
  case ScriptCommand::Op::Query: {
    // Demand-style batch query: each operand is a procedure (GMOD) or a
    // proc#k call site (DMOD of proc's k-th call site).  One output line,
    // operands joined by "; ", so protocol clients get one response.
    // Demand-driven targets additionally report this query's attribution
    // as the delta of the session's cumulative counters.
    std::uint64_t RP0 = 0, MH0 = 0, FC0 = 0;
    bool HasStats = Target.demandCounters(RP0, MH0, FC0);
    const Program &P = Target.program();
    for (std::size_t I = 0; I != A.size(); ++I) {
      if (I != 0)
        OS << "; ";
      std::size_t Hash = A[I].find('#');
      if (Hash == std::string::npos) {
        ProcId Proc = findProc(P, A[I], LineNo);
        OS << "GMOD(" << A[I] << ") = {"
           << setToString(P, Target.gmod(Proc)) << "}";
        continue;
      }
      std::string Name = A[I].substr(0, Hash);
      ProcId Proc = findProc(P, Name, LineNo);
      unsigned K =
          parseNumber(std::string_view(A[I]).substr(Hash + 1), LineNo);
      std::span<const ir::CallSiteId> Sites = P.proc(Proc).CallSites;
      if (K >= Sites.size())
        die(LineNo, "procedure '" + Name + "' has only " +
                        std::to_string(Sites.size()) + " call sites");
      OS << "DMOD(" << Name << "#" << K << ") = {"
         << setToString(P, Target.dmodSite(Sites[K])) << "}";
    }
    QueryResult R;
    R.Text = OS.str();
    if (HasStats) {
      std::uint64_t RP1 = 0, MH1 = 0, FC1 = 0;
      Target.demandCounters(RP1, MH1, FC1);
      R.HasStats = true;
      R.RegionProcs = RP1 - RP0;
      R.MemoHits = MH1 - MH0;
      R.FrontierCuts = FC1 - FC0;
    }
    return R;
  }
  case ScriptCommand::Op::Check:
    return evalCheck(Target);
  default:
    die(LineNo, "not a query command");
  }
}
