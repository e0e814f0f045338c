//===- demand/DemandSession.cpp - The stateful analysis engine ----------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "demand/DemandSession.h"

#include "analysis/DMod.h"
#include "analysis/IModPlus.h"
#include "analysis/LocalEffects.h"
#include "analysis/RMod.h"
#include "analysis/SideEffectAnalyzer.h"
#include "demand/Dependencies.h"
#include "graph/CallGraph.h"
#include "graph/Tarjan.h"
#include "ir/Printer.h"
#include "ir/ProgramEditor.h"
#include "observe/Metrics.h"
#include "observe/Trace.h"

#include <algorithm>
#include <numeric>
#include <queue>
#include <type_traits>

using namespace ipse;
using namespace ipse::demand;
using analysis::EffectKind;

namespace {

constexpr std::uint32_t NoSlot = ~std::uint32_t(0);

std::size_t kindIndex(EffectKind Kind) {
  return Kind == EffectKind::Mod ? 0 : 1;
}

/// Adds \p Value to \p List unless \p Flag says it is already there.
void addUnique(std::vector<std::uint32_t> &List, std::vector<char> &Flag,
               std::uint32_t Value) {
  if (Flag.size() <= Value)
    Flag.resize(Value + 1, 0);
  if (Flag[Value])
    return;
  Flag[Value] = 1;
  List.push_back(Value);
}

/// Grows a row table to cover row \p Row (and every row allocated so far).
template <typename T>
void fitRows(std::vector<T> &Rows, std::uint32_t Row, std::uint32_t NumRows) {
  if (Rows.size() <= Row)
    Rows.resize(NumRows);
}

/// Empties a list addUnique built, clearing only the flags it set.
void clearUnique(std::vector<std::uint32_t> &List, std::vector<char> &Flag) {
  for (std::uint32_t Value : List)
    Flag[Value] = 0;
  List.clear();
}

/// The monotone-growth prune: IMOD+(p) moving from \p Old to \p New leaves
/// the least fixed point unchanged iff it only grew and every new bit is
/// already in the memoized GMOD(p) — the old solution still satisfies p's
/// equation (IMOD+(p) ⊆ GMOD(p) always holds, so "grew by absorbed bits"
/// is exactly Old ⊆ New ⊆ GMOD(p)).
bool absorbed(const EffectSet &Old, const EffectSet &New,
              const EffectSet &GMod) {
  return Old.isSubsetOf(New) && New.isSubsetOf(GMod);
}

/// True when a call site binds a formal (of the caller or a lexical
/// ancestor) — the only call sites that carry β edges.
bool bindsFormal(const ir::Program &P, const ir::CallSite &Site) {
  for (const ir::Actual &A : Site.Actuals)
    if (A.isVariable() && P.var(A.Var).Kind == ir::VarKind::Formal)
      return true;
  return false;
}

std::vector<ir::ProcId> allProcs(const ir::Program &P) {
  std::vector<ir::ProcId> All;
  All.reserve(P.numProcs());
  for (std::uint32_t I = 0; I != P.numProcs(); ++I)
    All.push_back(ir::ProcId(I));
  return All;
}

} // namespace

//===----------------------------------------------------------------------===//
// Construction.
//===----------------------------------------------------------------------===//

DemandSession::DemandSession(ir::Program Initial, DemandOptions Options)
    : P(std::move(Initial)), Opts(Options) {
  initKindStates();
  rebuildVarStructure();
}

DemandSession::DemandSession(ir::Program Initial, DemandOptions Options,
                             SessionPlanes Planes)
    : P(std::move(Initial)), Opts(Options) {
  observe::TraceSpan Span("demand.restore");
  initKindStates();
  assert(Planes.Kinds.size() == States.size() &&
         "restored planes must match the TrackUse configuration");
  rebuildVarStructure();
  // The planes arrive in procedure order: row p is procedure p.
  const std::uint32_t N = P.numProcs();
  std::iota(RowOf.begin(), RowOf.end(), 0u);
  NumRows = N;
  Stats.ResidentProcs = N;
  for (SessionPlanes::KindPlanes &KP : Planes.Kinds) {
    KindState &K = state(KP.Kind);
    assert(KP.Own.size() == P.numProcs() && KP.Ext.size() == P.numProcs() &&
           KP.IModPlus.size() == P.numProcs() &&
           KP.GMod.size() == P.numProcs() &&
           KP.FormalBits.size() == P.numVars() &&
           KP.RModBits.size() == P.numVars() &&
           "restored plane dimensions must match the program");
    K.Own = std::move(KP.Own);
    K.Ext = std::move(KP.Ext);
    K.FormalBits = std::move(KP.FormalBits);
    K.RModBits = std::move(KP.RModBits);
    K.IModPlus = std::move(KP.IModPlus);
    K.GMod.GMod = std::move(KP.GMod);
    K.Ready.assign(N, 1);
    K.Solved.assign(N, 1);
    K.NumSolved = N;
  }
  Generation = CleanGeneration = Planes.Generation;
}

void DemandSession::initKindStates() {
  States.emplace_back();
  States.back().Kind = EffectKind::Mod;
  if (Opts.TrackUse) {
    States.emplace_back();
    States.back().Kind = EffectKind::Use;
  }
  const std::size_t N = P.numProcs();
  const std::size_t V = P.numVars();
  for (KindState &K : States) {
    K.FormalBits = EffectSet(V);
    K.RModBits = EffectSet(V);
    K.Ready.assign(N, 0);
    K.Solved.assign(N, 0);
  }
  // No procedure holds a row yet.
  RowOf.assign(N, NoRow);
  NumRows = 0;
  LocalMasks.clear();
  LocalMaskReady.clear();
  Stats.ResidentProcs = 0;
}

DemandSession::KindState &DemandSession::state(EffectKind Kind) {
  if (Kind == EffectKind::Mod)
    return States[0];
  assert(Opts.TrackUse && "session was configured without a USE pipeline");
  return States[1];
}

//===----------------------------------------------------------------------===//
// Shared structure: linear integer work, no fixed points, no dense
// per-procedure planes.
//===----------------------------------------------------------------------===//

void DemandSession::rebuildVarStructure() {
  const std::size_t V = P.numVars();
  const unsigned DP = P.maxProcLevel();

  // The level filters are read by every GMOD step; dense words keep those
  // steps on the plain word loop whatever the representation policy.  No
  // filter holds a deepest-level variable, so only the declarations of
  // shallower procedures are visited.
  const EffectSet Empty(V, EffectSet::Representation::Dense);
  std::vector<EffectSet> Levels(DP + 1, Empty);
  for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
    const ir::Procedure PR = P.proc(ir::ProcId(I));
    if (PR.Level == DP)
      continue;
    for (ir::VarId F : PR.Formals)
      Levels[PR.Level].set(F.index());
    for (ir::VarId L : PR.Locals)
      Levels[PR.Level].set(L.index());
  }
  Below.assign(DP + 1, Empty);
  for (unsigned L = 1; L <= DP; ++L) {
    Below[L] = Below[L - 1];
    Below[L].orWith(Levels[L - 1]);
  }
}

const graph::Digraph &DemandSession::revDeps() {
  if (RevDeps)
    return *RevDeps;
  // The reverse of forEachDependency over every procedure, found from the
  // call sites' side in one linear pass: call edges first (edge id =
  // call-site id), then one β-owner edge per binding event.
  RevDeps.emplace(P.numProcs());
  for (std::uint32_t I = 0; I != P.numCallSites(); ++I) {
    const ir::CallSite C = P.callSite(ir::CallSiteId(I));
    RevDeps->addEdge(C.Callee.index(), C.Caller.index());
  }
  for (std::uint32_t I = 0; I != P.numCallSites(); ++I) {
    const ir::CallSite C = P.callSite(ir::CallSiteId(I));
    for (const ir::Actual &A : C.Actuals)
      if (A.isVariable() && P.var(A.Var).Kind == ir::VarKind::Formal)
        RevDeps->addEdge(C.Callee.index(), P.var(A.Var).Owner.index());
  }
  RevDeps->finalize();
  return *RevDeps;
}

const EffectSet &DemandSession::localMask(ir::ProcId Proc) {
  const std::uint32_t R = row(Proc.index());
  fitRows(LocalMasks, R, NumRows);
  fitRows(LocalMaskReady, R, NumRows);
  if (!LocalMaskReady[R]) {
    LocalMasks[R] = analysis::localMask(P, Proc);
    LocalMaskReady[R] = 1;
  }
  return LocalMasks[R];
}

std::uint32_t DemandSession::rowOf(std::uint32_t Proc) {
  std::uint32_t &R = RowOf[Proc];
  if (R != NoRow)
    return R;
  R = NumRows++;
  Stats.ResidentProcs = NumRows;
  return R;
}

void DemandSession::placeRowsInProcOrder() {
  const std::uint32_t N = P.numProcs();
  bool InOrder = true;
  for (std::uint32_t I = 0; I != N; ++I) {
    if (RowOf[I] == NoRow)
      RowOf[I] = NumRows++;
    InOrder &= RowOf[I] == I;
  }
  Stats.ResidentProcs = NumRows;
  if (InOrder)
    return;
  // A table holds rows up to the last one its kind used; one that is
  // empty holds none.
  auto Place = [&](auto &Rows) {
    if (Rows.empty())
      return;
    Rows.resize(N);
    std::remove_reference_t<decltype(Rows)> Out(N);
    for (std::uint32_t I = 0; I != N; ++I)
      Out[I] = std::move(Rows[RowOf[I]]);
    Rows = std::move(Out);
  };
  for (KindState &K : States) {
    Place(K.Own);
    Place(K.Ext);
    Place(K.IModPlus);
    Place(K.GMod.GMod);
  }
  Place(LocalMasks);
  Place(LocalMaskReady);
  std::iota(RowOf.begin(), RowOf.end(), 0u);
}

void DemandSession::fullReset() {
  ++Stats.FullResets;
  rebuildVarStructure();
  RevDeps.reset();
  CondValid = false;
  States.clear();
  initKindStates();
}

void DemandSession::nextEpoch() {
  if (++Epoch == 0) {
    std::fill(ProcStamp.begin(), ProcStamp.end(), 0);
    std::fill(CompStamp.begin(), CompStamp.end(), 0);
    Epoch = 1;
  }
  ProcStamp.resize(P.numProcs(), 0);
  ProcSlot.resize(P.numProcs(), 0);
}

//===----------------------------------------------------------------------===//
// Edits: apply to the program, record invalidation dirt.
//===----------------------------------------------------------------------===//

void DemandSession::bump() {
  ++Generation;
  ++Stats.EditsApplied;
}

void DemandSession::markEffectDirty(EffectKind Kind, ir::ProcId Proc) {
  if (Kind == EffectKind::Use && !Opts.TrackUse)
    return;
  std::size_t I = kindIndex(Kind);
  addUnique(DirtyEffectProcs[I], DirtyEffectFlag[I], Proc.index());
}

void DemandSession::markCallDelta(const ir::CallSite &Site) {
  CallStructureDirty = true;
  const std::uint32_t Caller = Site.Caller.index();
  if (bindsFormal(P, Site))
    addUnique(BetaDirtyProcs, BetaDirtyFlag, Caller);
  else
    addUnique(CallDirtyProcs, CallDirtyFlag, Caller);
}

void DemandSession::markUniverseDirty() { UniverseDirty = true; }

void DemandSession::addMod(ir::StmtId S, ir::VarId V) {
  ir::ProgramEditor(P).addMod(S, V);
  markEffectDirty(EffectKind::Mod, P.stmt(S).Parent);
  bump();
}

bool DemandSession::removeMod(ir::StmtId S, ir::VarId V) {
  if (!ir::ProgramEditor(P).removeMod(S, V))
    return false;
  markEffectDirty(EffectKind::Mod, P.stmt(S).Parent);
  bump();
  return true;
}

void DemandSession::addUse(ir::StmtId S, ir::VarId V) {
  ir::ProgramEditor(P).addUse(S, V);
  markEffectDirty(EffectKind::Use, P.stmt(S).Parent);
  bump();
}

bool DemandSession::removeUse(ir::StmtId S, ir::VarId V) {
  if (!ir::ProgramEditor(P).removeUse(S, V))
    return false;
  markEffectDirty(EffectKind::Use, P.stmt(S).Parent);
  bump();
  return true;
}

ir::StmtId DemandSession::addStmt(ir::ProcId Parent) {
  ir::StmtId S = ir::ProgramEditor(P).addStmt(Parent);
  bump(); // An empty statement changes no analysis result.
  return S;
}

ir::CallSiteId DemandSession::addCall(ir::StmtId S, ir::ProcId Callee,
                                      std::vector<ir::Actual> Actuals) {
  ir::CallSiteId C =
      ir::ProgramEditor(P).addCall(S, Callee, std::move(Actuals));
  markCallDelta(P.callSite(C));
  bump();
  return C;
}

ir::CallSiteId DemandSession::removeCall(ir::CallSiteId C) {
  // Record before the program forgets the site.
  markCallDelta(P.callSite(C));
  ir::CallSiteId Moved = ir::ProgramEditor(P).removeCall(C);
  bump();
  return Moved;
}

ir::ProcId DemandSession::addProc(std::string_view Name, ir::ProcId Parent) {
  ir::ProcId Id = ir::ProgramEditor(P).addProc(Name, Parent);
  markUniverseDirty();
  bump();
  return Id;
}

ir::VarId DemandSession::addGlobal(std::string_view Name) {
  ir::VarId Id = ir::ProgramEditor(P).addGlobal(Name);
  markUniverseDirty();
  bump();
  return Id;
}

ir::VarId DemandSession::addLocal(ir::ProcId Owner, std::string_view Name) {
  ir::VarId Id = ir::ProgramEditor(P).addLocal(Owner, Name);
  markUniverseDirty();
  bump();
  return Id;
}

ir::VarId DemandSession::addFormal(ir::ProcId Owner, std::string_view Name) {
  ir::VarId Id = ir::ProgramEditor(P).addFormal(Owner, Name);
  markUniverseDirty();
  bump();
  return Id;
}

void DemandSession::removeProc(ir::ProcId Target) {
  ir::ProgramEditor(P).removeProc(Target);
  markUniverseDirty();
  bump();
}

void demand::applyEdit(DemandSession &Session, const incremental::Edit &E) {
  using incremental::EditKind;
  switch (E.Kind) {
  case EditKind::AddMod:
    Session.addMod(E.Stmt, E.Var);
    break;
  case EditKind::RemoveMod:
    Session.removeMod(E.Stmt, E.Var);
    break;
  case EditKind::AddUse:
    Session.addUse(E.Stmt, E.Var);
    break;
  case EditKind::RemoveUse:
    Session.removeUse(E.Stmt, E.Var);
    break;
  case EditKind::AddCall:
    Session.addCall(E.Stmt, E.Callee, E.Actuals);
    break;
  case EditKind::RemoveCall:
    Session.removeCall(E.Call);
    break;
  case EditKind::AddStmt:
    Session.addStmt(E.Proc);
    break;
  case EditKind::AddProc:
    Session.addProc(E.Name, E.Proc);
    break;
  case EditKind::AddGlobal:
    Session.addGlobal(E.Name);
    break;
  case EditKind::AddLocal:
    Session.addLocal(E.Proc, E.Name);
    break;
  case EditKind::AddFormal:
    Session.addFormal(E.Proc, E.Name);
    break;
  case EditKind::RemoveProc:
    Session.removeProc(E.Proc);
    break;
  }
}

//===----------------------------------------------------------------------===//
// Invalidation.
//===----------------------------------------------------------------------===//

void DemandSession::flushDirt() {
  if (CleanGeneration == Generation)
    return;

  if (UniverseDirty) {
    fullReset();
  } else {
    if (CallStructureDirty) {
      // The reverse index and the condensation describe the old calls.
      RevDeps.reset();
      CondValid = false;
    }
    // A call delta that touches β may add or remove binding edges
    // originating at formals of the caller's lexical ancestors (§3.3), so
    // the reverse closure of the whole lexical chain is un-solved, in
    // every kind.
    for (std::uint32_t C : BetaDirtyProcs)
      for (ir::ProcId Cur(C); Cur.isValid(); Cur = P.proc(Cur).Parent)
        for (KindState &K : States)
          unsolveClosure(K, Cur.index());
    for (KindState &K : States) {
      std::vector<std::uint32_t> Seeds;
      applyEffectDelta(K, DirtyEffectProcs[kindIndex(K.Kind)], Seeds);
      // A β-neutral call delta moves no RMOD bit: only the caller's IMOD+
      // and call edges changed, so GMOD is re-solved from the caller —
      // provided every dependency of the caller is still final (a new
      // callee may never have been solved).
      for (std::uint32_t C : CallDirtyProcs) {
        if (!K.Solved[C])
          continue;
        bool SuccsSolved = true;
        forEachDependency(P, ir::ProcId(C), [&](ir::ProcId Succ) {
          SuccsSolved &= K.Solved[Succ.index()] != 0;
        });
        if (!SuccsSolved) {
          unsolveClosure(K, C);
          continue;
        }
        const std::uint32_t R = row(C);
        K.IModPlus[R] = analysis::computeIModPlusFor(P, K.Ext[R], K.RModBits,
                                                     ir::ProcId(C));
        Seeds.push_back(C);
      }
      if (!Seeds.empty())
        resolveGMod(K, Seeds);
    }
  }

  UniverseDirty = CallStructureDirty = false;
  for (std::size_t I = 0; I != 2; ++I)
    clearUnique(DirtyEffectProcs[I], DirtyEffectFlag[I]);
  clearUnique(CallDirtyProcs, CallDirtyFlag);
  clearUnique(BetaDirtyProcs, BetaDirtyFlag);
  CleanGeneration = Generation;
}

void DemandSession::unsolveClosure(KindState &K, std::uint32_t Root) {
  // If the root is not memoized, neither is anything depending on it (a
  // Solved procedure's dependency successors are all Solved).
  if (Root >= K.Solved.size() || !K.Solved[Root])
    return;
  const graph::Digraph &Rev = revDeps();
  std::vector<std::uint32_t> Stack{Root};
  K.Solved[Root] = 0;
  --K.NumSolved;
  ++Stats.Invalidations;
  while (!Stack.empty()) {
    std::uint32_t Proc = Stack.back();
    Stack.pop_back();
    for (const graph::Adjacency &A : Rev.succs(Proc)) {
      if (!K.Solved[A.Dst])
        continue;
      K.Solved[A.Dst] = 0;
      --K.NumSolved;
      ++Stats.Invalidations;
      Stack.push_back(A.Dst);
    }
  }
}

void DemandSession::makeEffectReady(KindState &K, std::uint32_t Proc) {
  if (K.Ready[Proc])
    return;
  const ir::Procedure PR = P.proc(ir::ProcId(Proc));
  for (ir::ProcId Child : PR.Nested)
    makeEffectReady(K, Child.index());

  EffectSet Ext = analysis::LocalEffects::computeOwn(P, P.numVars(), K.Kind,
                                                     ir::ProcId(Proc));
  const std::uint32_t R = rowOf(Proc);
  fitRows(K.Own, R, NumRows);
  fitRows(K.Ext, R, NumRows);
  fitRows(K.IModPlus, R, NumRows);
  fitRows(K.GMod.GMod, R, NumRows);
  K.Own[R] = Ext;
  for (ir::ProcId Child : PR.Nested)
    Ext.orWithAndNot(K.Ext[row(Child.index())], localMask(Child));
  K.Ext[R] = std::move(Ext);
  for (ir::VarId F : PR.Formals) {
    if (K.Ext[R].test(F.index()))
      K.FormalBits.set(F.index());
    else
      K.FormalBits.reset(F.index());
  }
  K.Ready[Proc] = 1;
}

void DemandSession::applyEffectDelta(KindState &K,
                                     const std::vector<std::uint32_t> &Dirty,
                                     std::vector<std::uint32_t> &Seeds) {
  if (Dirty.empty())
    return;

  // Recompute own IMOD for the touched procedures that have resident
  // state; procedures never made Ready have nothing to invalidate.
  std::vector<std::uint32_t> OwnChanged;
  for (std::uint32_t Proc : Dirty) {
    if (!K.Ready[Proc])
      continue;
    EffectSet New = analysis::LocalEffects::computeOwn(P, P.numVars(), K.Kind,
                                                       ir::ProcId(Proc));
    EffectSet &Own = K.Own[row(Proc)];
    if (New != Own) {
      Own = std::move(New);
      OwnChanged.push_back(Proc);
    }
  }
  if (OwnChanged.empty())
    return;

  // Extended IMOD climbs the lexical chain; a Ready procedure's ancestors
  // are recomputed while they are Ready too (an un-Ready ancestor has no
  // resident Ext, and neither has anything above it).  Children have
  // larger ids than parents, so decreasing id order finishes children
  // first.
  std::vector<std::uint32_t> Chain;
  nextEpoch(); // ProcStamp marks the collected chain.
  for (std::uint32_t Proc : OwnChanged)
    for (ir::ProcId Cur(Proc); Cur.isValid() && K.Ready[Cur.index()];
         Cur = P.proc(Cur).Parent) {
      if (ProcStamp[Cur.index()] == Epoch)
        break; // The rest of this chain is already collected.
      ProcStamp[Cur.index()] = Epoch;
      Chain.push_back(Cur.index());
    }
  std::sort(Chain.begin(), Chain.end(), std::greater<std::uint32_t>());

  std::vector<std::uint32_t> ExtChanged;
  for (std::uint32_t Proc : Chain) {
    const std::uint32_t R = row(Proc);
    EffectSet New = K.Own[R];
    for (ir::ProcId Child : P.proc(ir::ProcId(Proc)).Nested)
      New.orWithAndNot(K.Ext[row(Child.index())], localMask(Child));
    if (New != K.Ext[R]) {
      K.Ext[R] = std::move(New);
      ExtChanged.push_back(Proc);
    }
  }

  for (std::uint32_t Proc : ExtChanged) {
    const std::uint32_t R = row(Proc);
    bool FormalChanged = false;
    for (ir::VarId F : P.proc(ir::ProcId(Proc)).Formals) {
      bool Bit = K.Ext[R].test(F.index());
      if (Bit != K.FormalBits.test(F.index())) {
        if (Bit)
          K.FormalBits.set(F.index());
        else
          K.FormalBits.reset(F.index());
        FormalChanged = true;
      }
    }
    if (!K.Solved[Proc])
      continue;
    if (FormalChanged) {
      // A flipped β input can move RMOD bits, which feed the IMOD+ of
      // every dependency predecessor — no cheap containment test applies.
      unsolveClosure(K, Proc);
      continue;
    }
    // The procedure's formals kept their bits, so RMOD (hence every other
    // procedure's IMOD+) is unaffected; only IMOD+(p) moved, and with it
    // at most the GMOD of p and of its transitive callers.
    EffectSet New = analysis::computeIModPlusFor(P, K.Ext[R], K.RModBits,
                                                 ir::ProcId(Proc));
    if (New == K.IModPlus[R])
      continue;
    const bool Absorbed = absorbed(K.IModPlus[R], New, K.GMod.GMod[R]);
    K.IModPlus[R] = std::move(New);
    if (Absorbed) {
      ++Stats.AbsorbedEdits;
      continue;
    }
    Seeds.push_back(Proc);
  }
}

void DemandSession::resolveGMod(KindState &K,
                                const std::vector<std::uint32_t> &Seeds) {
  observe::TraceSpan Span("demand.gmod-resolve");
  if (!CondValid) {
    graph::CallGraph CG(P);
    Cond.rebuild(CG.graph());
    CondValid = true;
  }
  // Ascending component-id worklist: ids are reverse-topological, so every
  // pop sees its callee components final, and processing a component can
  // only dirty components with larger ids (its callers) — each component
  // is re-evaluated at most once.  Solved is closed under dependency
  // successors, so a component is wholly Solved or wholly not; un-Solved
  // ones are left to their next region.
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>,
                      std::greater<std::uint32_t>>
      Queue;
  nextEpoch(); // CompStamp marks the components already queued.
  CompStamp.resize(Cond.numComponents(), 0);
  auto Enqueue = [&](std::uint32_t Proc) {
    std::uint32_t C = Cond.compOf(Proc);
    if (!K.Solved[Proc] || CompStamp[C] == Epoch)
      return;
    CompStamp[C] = Epoch;
    Queue.push(C);
  };
  for (std::uint32_t Proc : Seeds)
    Enqueue(Proc);

  while (!Queue.empty()) {
    std::uint32_t C = Queue.top();
    Queue.pop();
    ++Stats.ComponentsRecomputed;
    std::span<const graph::NodeId> Members = Cond.members(C);
    solveComponentGMod(K, Members, MemberVals);
    // Early termination: only members whose value actually changed dirty
    // their callers (the call edges among their reverse dependencies).
    for (std::uint32_t J = 0; J != Members.size(); ++J) {
      std::uint32_t M = Members[J];
      EffectSet &Memo = K.GMod.GMod[row(M)];
      if (MemberVals[J] == Memo)
        continue;
      std::swap(Memo, MemberVals[J]);
      for (const graph::Adjacency &A : revDeps().succs(M))
        if (A.Edge < P.numCallSites())
          Enqueue(A.Dst);
    }
  }
}

void DemandSession::solveComponentGMod(KindState &K,
                                       std::span<const std::uint32_t> Members,
                                       std::vector<EffectSet> &Vals) {
  if (MemberSlot.size() < P.numProcs())
    MemberSlot.resize(P.numProcs(), NoSlot);
  Vals.resize(Members.size());
  for (std::uint32_t J = 0; J != Members.size(); ++J) {
    MemberSlot[Members[J]] = J;
    Vals[J] = K.IModPlus[row(Members[J])];
  }

  // Equation (4) with the §4 multi-level filter: across an edge whose
  // callee sits at level L, exactly the variables declared at levels < L
  // survive the return.  Callees outside the component are final (callers
  // solve components in reverse-topological order); intra-component edges
  // iterate to the local fixpoint.
  Intra.clear();
  for (std::uint32_t J = 0; J != Members.size(); ++J) {
    for (ir::CallSiteId Site : P.proc(ir::ProcId(Members[J])).CallSites) {
      const ir::CallSite &C = P.callSite(Site);
      std::uint32_t Q = C.Callee.index();
      unsigned Level = P.proc(C.Callee).Level;
      if (MemberSlot[Q] != NoSlot)
        Intra.push_back({J, MemberSlot[Q], Level});
      else
        Vals[J].orWithIntersect(K.GMod.GMod[row(Q)], Below[Level]);
    }
  }

  bool IterChanged = true;
  while (IterChanged) {
    IterChanged = false;
    for (const IntraEdge &E : Intra)
      IterChanged |=
          Vals[E.FromSlot].orWithIntersect(Vals[E.ToSlot], Below[E.CalleeLevel]);
  }

  for (std::uint32_t M : Members)
    MemberSlot[M] = NoSlot;
}

//===----------------------------------------------------------------------===//
// Region solving.
//===----------------------------------------------------------------------===//

std::size_t DemandSession::noteQuery(KindState &K,
                                     std::span<const ir::ProcId> Procs) {
  ++Stats.Queries;
  std::uint64_t Hits = 0;
  for (ir::ProcId Q : Procs)
    Hits += K.Solved[Q.index()] ? 1 : 0;
  if (Hits) {
    Stats.MemoHits += Hits;
    observe::addCounter("demand.memo_hits", Hits);
    observe::MetricsRegistry::global().counter("demand.memo_hits").add(Hits);
  }
  return Procs.size() - Hits;
}

void DemandSession::noteRegion(std::size_t Size) {
  ++Stats.RegionSolves;
  Stats.RegionProcs += Size;
  observe::addCounter("demand.region_procs", Size);
  observe::MetricsRegistry::global().counter("demand.region_procs").add(Size);
}

void DemandSession::ensureSolved(std::span<const ir::ProcId> Procs,
                                 EffectKind Kind) {
  flushDirt();
  KindState &K = state(Kind);
  if (!noteQuery(K, Procs))
    return;
  std::vector<std::uint32_t> Region;
  collectRegion(K, Procs, Region);
  noteRegion(Region.size());
  if (batchWorthy(Region.size())) {
    KindState *const One[] = {&K};
    solveBatch(One);
  } else {
    solveRegion(K, Region);
  }
}

void DemandSession::ensureSolvedAll() {
  flushDirt();
  std::vector<KindState *> Batch;
  for (KindState &K : States) {
    // The region of a whole-program sweep is exactly the uncovered set:
    // its size decides the path before any walk.
    const std::size_t Missing = P.numProcs() - K.NumSolved;
    if (!Missing)
      continue;
    noteRegion(Missing);
    if (batchWorthy(Missing)) {
      Batch.push_back(&K);
      continue;
    }
    std::vector<std::uint32_t> Region;
    collectRegion(K, allProcs(P), Region);
    solveRegion(K, Region);
  }
  // The kinds share one call graph and one set of masks.
  if (!Batch.empty())
    solveBatch(Batch);
}

bool DemandSession::covered(ir::ProcId Proc, EffectKind Kind) {
  flushDirt();
  return state(Kind).Solved[Proc.index()];
}

std::size_t DemandSession::coveredCount(EffectKind Kind) {
  flushDirt();
  return state(Kind).NumSolved;
}

void DemandSession::collectRegion(KindState &K,
                                  std::span<const ir::ProcId> Procs,
                                  std::vector<std::uint32_t> &Region) {
  // The query's region: closure of the un-covered queried procedures
  // under the dependency successor relation, cut at Solved procedures
  // (whose memoized planes are the frontier summaries).
  nextEpoch();
  std::vector<std::uint32_t> Stack;
  for (ir::ProcId Q : Procs) {
    std::uint32_t I = Q.index();
    if (!K.Solved[I] && ProcStamp[I] != Epoch) {
      ProcStamp[I] = Epoch;
      Stack.push_back(I);
    }
  }
  while (!Stack.empty()) {
    std::uint32_t Proc = Stack.back();
    Stack.pop_back();
    ProcSlot[Proc] = static_cast<std::uint32_t>(Region.size());
    Region.push_back(Proc);
    forEachDependency(P, ir::ProcId(Proc), [&](ir::ProcId Succ) {
      const std::uint32_t D = Succ.index();
      if (K.Solved[D]) {
        // The memo frontier cut this edge: the callee's plane is final
        // and folds in as a constant instead of growing the region.
        ++Stats.FrontierCuts;
        return;
      }
      if (ProcStamp[D] != Epoch) {
        ProcStamp[D] = Epoch;
        Stack.push_back(D);
      }
    });
  }
}

void DemandSession::solveRegion(KindState &K,
                                const std::vector<std::uint32_t> &Region) {
  observe::TraceSpan Span("demand.solve");
  for (std::uint32_t Proc : Region)
    makeEffectReady(K, Proc);

  solveRegionRMod(K, Region);
  for (std::uint32_t Proc : Region) {
    const std::uint32_t R = row(Proc);
    K.IModPlus[R] = analysis::computeIModPlusFor(P, K.Ext[R], K.RModBits,
                                                 ir::ProcId(Proc));
  }
  solveRegionGMod(K, Region);

  for (std::uint32_t Proc : Region)
    K.Solved[Proc] = 1;
  K.NumSolved += Region.size();
  settleRows();
}

void DemandSession::solveBatch(std::span<KindState *const> Kinds) {
  observe::TraceSpan Span("demand.batch");
  const std::uint32_t N = P.numProcs();
  // The batch planes come in procedure order; so must the rows.
  placeRowsInProcOrder();
  const analysis::ProgramShape Shape(P);
  for (KindState *K : Kinds) {
    analysis::LocalEffects Local(P, Shape.Masks, K->Kind);
    K->FormalBits = analysis::formalBits(P, Local);
    analysis::PassResults R =
        analysis::solvePasses(Shape, Local, K->FormalBits, Shape.Kernel);
    K->Own = Local.takeOwn();
    K->Ext = Local.takeExtended();
    K->RModBits = std::move(R.RMod.ModifiedFormals);
    K->IModPlus = std::move(R.IModPlus);
    K->GMod = std::move(R.GMod);
    K->Ready.assign(N, 1);
    K->Solved.assign(N, 1);
    K->NumSolved = N;
    ++Stats.BatchSolves;
  }
}

void DemandSession::solveRegionRMod(KindState &K,
                                    const std::vector<std::uint32_t> &Region) {
  // Sub-β over the region's formals, node Base[slot] + FormalPos, its
  // edges enumerated from the binding events of each region procedure.
  // Successors outside the region belong to Solved procedures (the region
  // is β-owner closed), so their final RMOD bits fold in as constants —
  // exactly how the global Figure-1 sweep folds earlier components into
  // later ones.  A formal with no binding edge keeps its IMOD bit.
  std::vector<std::uint32_t> Base(Region.size());
  std::vector<ir::VarId> Nodes;
  for (std::uint32_t I = 0; I != Region.size(); ++I) {
    Base[I] = static_cast<std::uint32_t>(Nodes.size());
    for (ir::VarId F : P.proc(ir::ProcId(Region[I])).Formals)
      Nodes.push_back(F);
  }

  graph::Digraph Sub(Nodes.size());
  std::vector<char> Init(Nodes.size(), 0);
  for (std::uint32_t I = 0; I != Nodes.size(); ++I)
    Init[I] = K.FormalBits.test(Nodes[I].index()) ? 1 : 0;
  for (std::uint32_t I = 0; I != Region.size(); ++I)
    forEachBindingEvent(
        P, ir::ProcId(Region[I]), [&](const ir::CallSite &C, unsigned Pos) {
          const std::uint32_t From =
              Base[I] + P.var(C.Actuals[Pos].Var).FormalPos;
          const std::uint32_t Q = C.Callee.index();
          if (ProcStamp[Q] == Epoch)
            Sub.addEdge(From, Base[ProcSlot[Q]] + Pos);
          else if (K.RModBits.test(P.proc(C.Callee).Formals[Pos].index()))
            Init[From] = 1;
        });
  Sub.finalize();

  graph::SccDecomposition Sccs = graph::computeSccs(Sub);
  std::vector<char> SccVal(Sccs.numSccs(), 0);
  for (std::uint32_t C = 0; C != Sccs.numSccs(); ++C) {
    char Value = 0;
    for (graph::NodeId M : Sccs.members(C)) {
      Value |= Init[M];
      for (const graph::Adjacency &Adj : Sub.succs(M))
        Value |= SccVal[Sccs.SccOf[Adj.Dst]];
      if (Value)
        break;
    }
    SccVal[C] = Value;
  }

  for (std::uint32_t I = 0; I != Nodes.size(); ++I) {
    if (SccVal[Sccs.SccOf[I]])
      K.RModBits.set(Nodes[I].index());
    else
      K.RModBits.reset(Nodes[I].index());
  }
}

void DemandSession::solveRegionGMod(KindState &K,
                                    const std::vector<std::uint32_t> &Region) {
  // Sub call graph over the region; callees outside it are Solved and
  // fold in as constants through the §4 level filter, as do region
  // components already finished by the ascending sweep.
  graph::Digraph Sub(Region.size());
  for (std::uint32_t I = 0; I != Region.size(); ++I)
    for (ir::CallSiteId Site : P.proc(ir::ProcId(Region[I])).CallSites) {
      std::uint32_t Q = P.callSite(Site).Callee.index();
      if (ProcStamp[Q] == Epoch)
        Sub.addEdge(I, ProcSlot[Q]);
    }
  Sub.finalize();

  // Components in ascending id order (reverse-topological): callees in
  // earlier components are installed before their callers read them.
  graph::SccDecomposition Sccs = graph::computeSccs(Sub);
  std::vector<std::uint32_t> Procs;
  for (std::uint32_t C = 0; C != Sccs.numSccs(); ++C) {
    Procs.clear();
    for (graph::NodeId Slot : Sccs.members(C))
      Procs.push_back(Region[Slot]);
    solveComponentGMod(K, Procs, MemberVals);
    for (std::uint32_t J = 0; J != Procs.size(); ++J)
      K.GMod.GMod[row(Procs[J])] = std::move(MemberVals[J]);
  }
}

//===----------------------------------------------------------------------===//
// Queries.
//===----------------------------------------------------------------------===//

const EffectSet &DemandSession::gmod(ir::ProcId Proc) {
  return gmod(Proc, EffectKind::Mod);
}

const EffectSet &DemandSession::guse(ir::ProcId Proc) {
  return gmod(Proc, EffectKind::Use);
}

const EffectSet &DemandSession::gmod(ir::ProcId Proc, EffectKind Kind) {
  ensureSolved({{Proc}}, Kind);
  return state(Kind).GMod.GMod[row(Proc.index())];
}

const EffectSet &DemandSession::imodPlus(ir::ProcId Proc, EffectKind Kind) {
  ensureSolved({{Proc}}, Kind);
  return state(Kind).IModPlus[row(Proc.index())];
}

const EffectSet &DemandSession::imod(ir::ProcId Proc, EffectKind Kind) {
  flushDirt();
  KindState &K = state(Kind);
  makeEffectReady(K, Proc.index());
  settleRows();
  return K.Ext[row(Proc.index())];
}

bool DemandSession::rmodContains(ir::VarId Formal) {
  return rmodContains(Formal, EffectKind::Mod);
}

bool DemandSession::rmodContains(ir::VarId Formal, EffectKind Kind) {
  ir::ProcId Owner = P.var(Formal).Owner;
  ensureSolved({{Owner}}, Kind);
  return state(Kind).RModBits.test(Formal.index());
}

/// A kind's GMOD rows and the cached LOCAL masks, as the projection in
/// analysis/DMod reads them.  Every callee read must be Solved.
class DemandSession::Callees final : public analysis::CalleeSets {
public:
  Callees(DemandSession &S, const KindState &K) : S(S), K(K) {}
  const EffectSet &gmod(ir::ProcId Q) const override {
    return K.GMod.GMod[S.row(Q.index())];
  }
  const EffectSet &local(ir::ProcId Q, EffectSet &) const override {
    return S.localMask(Q);
  }

private:
  DemandSession &S;
  const KindState &K;
};

EffectSet DemandSession::effectOfStmt(EffectKind Kind, ir::StmtId S,
                                      const ir::AliasInfo *Aliases) {
  const ir::Statement &Stmt = P.stmt(S);
  std::vector<ir::ProcId> CalleeProcs;
  CalleeProcs.reserve(Stmt.Calls.size());
  for (ir::CallSiteId C : Stmt.Calls)
    CalleeProcs.push_back(P.callSite(C).Callee);
  ensureSolved(CalleeProcs, Kind);
  const Callees Q(*this, state(Kind));
  return Aliases ? analysis::modOfStmt(P, Q, *Aliases, S)
                 : analysis::dmodOfStmt(P, Q, S);
}

EffectSet DemandSession::dmod(ir::StmtId S) {
  return effectOfStmt(EffectKind::Mod, S, nullptr);
}

EffectSet DemandSession::duse(ir::StmtId S) {
  return effectOfStmt(EffectKind::Use, S, nullptr);
}

EffectSet DemandSession::dmod(ir::CallSiteId C) {
  return dmod(C, EffectKind::Mod);
}

EffectSet DemandSession::dmod(ir::CallSiteId C, EffectKind Kind) {
  ir::ProcId Callee = P.callSite(C).Callee;
  ensureSolved({{Callee}}, Kind);
  return analysis::projectCallSite(P, Callees(*this, state(Kind)), C);
}

EffectSet DemandSession::mod(ir::StmtId S, const ir::AliasInfo &Aliases) {
  return effectOfStmt(EffectKind::Mod, S, &Aliases);
}

EffectSet DemandSession::use(ir::StmtId S, const ir::AliasInfo &Aliases) {
  return effectOfStmt(EffectKind::Use, S, &Aliases);
}


//===----------------------------------------------------------------------===//
// Whole-program export hooks.
//===----------------------------------------------------------------------===//

const analysis::GModResult &DemandSession::gmodResult(EffectKind Kind) {
  ensureSolvedAll(); // Every procedure holds a row, in procedure order.
  return state(Kind).GMod;
}

analysis::GModResult DemandSession::peekGModResult(EffectKind Kind) {
  flushDirt();
  const KindState &K = state(Kind);
  if (K.GMod.GMod.size() == P.numProcs())
    return K.GMod; // Every row, in procedure order.
  analysis::GModResult Out;
  Out.GMod.resize(P.numProcs());
  for (std::uint32_t I = 0; I != P.numProcs(); ++I)
    if (K.Solved[I])
      Out.GMod[I] = K.GMod.GMod[row(I)];
  return Out;
}

const EffectSet &DemandSession::peekRModBits(EffectKind Kind) {
  flushDirt();
  return state(Kind).RModBits;
}

std::vector<char> DemandSession::coveredFlags(EffectKind Kind) {
  flushDirt();
  return state(Kind).Solved;
}

SessionPlanes DemandSession::exportPlanes() {
  ensureSolvedAll(); // Every procedure holds a row, in procedure order.
  assert(NumRows == P.numProcs() && "a covered session holds every row");
  SessionPlanes Out;
  Out.Generation = Generation;
  for (const KindState &K : States) {
    SessionPlanes::KindPlanes KP;
    KP.Kind = K.Kind;
    KP.Own = K.Own;
    KP.Ext = K.Ext;
    KP.FormalBits = K.FormalBits;
    KP.RModBits = K.RModBits;
    KP.IModPlus = K.IModPlus;
    KP.GMod = K.GMod.GMod;
    Out.Kinds.push_back(std::move(KP));
  }
  return Out;
}
