//===- demand/DemandSession.cpp - The stateful analysis engine ----------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "demand/DemandSession.h"

#include "analysis/IModPlus.h"
#include "analysis/LocalEffects.h"
#include "analysis/RMod.h"
#include "analysis/SideEffectAnalyzer.h"
#include "analysis/VarMasks.h"
#include "graph/CallGraph.h"
#include "graph/Tarjan.h"
#include "ir/Printer.h"
#include "ir/ProgramEditor.h"
#include "observe/Metrics.h"
#include "observe/Trace.h"

#include <algorithm>
#include <queue>

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
  rebuildBindingStructure();
}

DemandSession::DemandSession(ir::Program Initial, DemandOptions Options,
                             SessionPlanes Planes)
    : P(std::move(Initial)), Opts(Options) {
  observe::TraceSpan Span("demand.restore");
  initKindStates();
  assert(Planes.Kinds.size() == States.size() &&
         "restored planes must match the TrackUse configuration");
  rebuildVarStructure();
  rebuildBindingStructure();
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
    K.Ready.assign(P.numProcs(), 1);
    K.Solved.assign(P.numProcs(), 1);
    K.NumSolved = P.numProcs();
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
    K.Own.assign(N, EffectSet());
    K.Ext.assign(N, EffectSet());
    K.FormalBits = EffectSet(V);
    K.RModBits = EffectSet(V);
    K.IModPlus.assign(N, EffectSet());
    K.GMod.GMod.assign(N, EffectSet());
    K.Ready.assign(N, 0);
    K.Solved.assign(N, 0);
  }
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
  // steps on the SIMD kernels whatever the representation policy.
  const EffectSet Empty(V, EffectSet::Representation::Dense);
  std::vector<EffectSet> Levels(DP + 1, Empty);
  for (std::uint32_t I = 0; I != V; ++I) {
    unsigned L = P.varLevel(ir::VarId(I));
    assert(L <= DP && "variable deeper than the deepest procedure");
    Levels[L].set(I);
  }
  Below.assign(DP + 1, Empty);
  for (unsigned L = 1; L <= DP; ++L) {
    Below[L] = Below[L - 1];
    Below[L].orWith(Levels[L - 1]);
  }

  LocalMasks.assign(P.numProcs(), EffectSet());
  LocalMaskReady.assign(P.numProcs(), 0);
}

void DemandSession::rebuildBindingStructure() {
  BG = std::make_unique<graph::BindingGraph>(P);

  Deps = graph::Digraph(P.numProcs());
  for (std::uint32_t I = 0; I != P.numCallSites(); ++I) {
    const ir::CallSite &C = P.callSite(ir::CallSiteId(I));
    Deps.addEdge(C.Caller.index(), C.Callee.index());
  }
  // β-owner edges: RMOD of a formal of a reads the RMOD of its β
  // successors, whose owners need not be callees of a (the binding event
  // can sit in a procedure nested inside a, §3.3).  Folding them into the
  // same graph makes one closure walk dependency-complete.
  const graph::Digraph &G = BG->graph();
  for (graph::NodeId Node = 0; Node != BG->numNodes(); ++Node) {
    std::uint32_t A = P.var(BG->formal(Node)).Owner.index();
    for (const graph::Adjacency &Adj : G.succs(Node))
      Deps.addEdge(A, P.var(BG->formal(Adj.Dst)).Owner.index());
  }
  Deps.finalize();
  RevDeps = Deps.reversed();
}

const EffectSet &DemandSession::localMask(ir::ProcId Proc) {
  std::uint32_t I = Proc.index();
  if (!LocalMaskReady[I]) {
    EffectSet M(P.numVars());
    const ir::Procedure &PR = P.proc(Proc);
    for (ir::VarId F : PR.Formals)
      M.set(F.index());
    for (ir::VarId L : PR.Locals)
      M.set(L.index());
    LocalMasks[I] = std::move(M);
    LocalMaskReady[I] = 1;
  }
  return LocalMasks[I];
}

void DemandSession::fullReset() {
  ++Stats.FullResets;
  rebuildVarStructure();
  rebuildBindingStructure();
  CondValid = false;
  States.clear();
  initKindStates();
}

void DemandSession::nextEpoch() {
  if (++Epoch == 0) {
    std::fill(ProcStamp.begin(), ProcStamp.end(), 0);
    std::fill(NodeStamp.begin(), NodeStamp.end(), 0);
    Epoch = 1;
  }
  ProcStamp.resize(P.numProcs(), 0);
  ProcSlot.resize(P.numProcs(), 0);
  NodeStamp.resize(BG->numNodes(), 0);
  NodeSlot.resize(BG->numNodes(), 0);
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
      rebuildBindingStructure();
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
        const std::span<const graph::Adjacency> Succs = Deps.succs(C);
        if (!std::all_of(Succs.begin(), Succs.end(),
                         [&](const graph::Adjacency &A) {
                           return K.Solved[A.Dst] != 0;
                         })) {
          unsolveClosure(K, C);
          continue;
        }
        K.IModPlus[C] = analysis::computeIModPlusFor(P, K.Ext[C], K.RModBits,
                                                     ir::ProcId(C));
        Seeds.push_back(C);
      }
      if (!Seeds.empty())
        resolveGMod(K, Seeds);
    }
  }

  UniverseDirty = CallStructureDirty = false;
  for (std::size_t I = 0; I != 2; ++I) {
    DirtyEffectProcs[I].clear();
    DirtyEffectFlag[I].assign(P.numProcs(), 0);
  }
  CallDirtyProcs.clear();
  CallDirtyFlag.assign(P.numProcs(), 0);
  BetaDirtyProcs.clear();
  BetaDirtyFlag.assign(P.numProcs(), 0);
  CleanGeneration = Generation;
}

void DemandSession::unsolveClosure(KindState &K, std::uint32_t Root) {
  // If the root is not memoized, neither is anything depending on it (a
  // Solved procedure's dependency successors are all Solved).
  if (Root >= K.Solved.size() || !K.Solved[Root])
    return;
  std::vector<std::uint32_t> Stack{Root};
  K.Solved[Root] = 0;
  --K.NumSolved;
  ++Stats.Invalidations;
  while (!Stack.empty()) {
    std::uint32_t Proc = Stack.back();
    Stack.pop_back();
    for (const graph::Adjacency &A : RevDeps.succs(Proc)) {
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
  const ir::Procedure &PR = P.proc(ir::ProcId(Proc));
  for (ir::ProcId Child : PR.Nested)
    makeEffectReady(K, Child.index());

  K.Own[Proc] = analysis::LocalEffects::computeOwn(P, P.numVars(), K.Kind,
                                                   ir::ProcId(Proc));
  EffectSet Ext = K.Own[Proc];
  for (ir::ProcId Child : PR.Nested)
    Ext.orWithAndNot(K.Ext[Child.index()], localMask(Child));
  K.Ext[Proc] = std::move(Ext);
  for (ir::VarId F : PR.Formals) {
    if (K.Ext[Proc].test(F.index()))
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
    if (New != K.Own[Proc]) {
      K.Own[Proc] = std::move(New);
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
  std::vector<char> InChain;
  for (std::uint32_t Proc : OwnChanged)
    for (ir::ProcId Cur(Proc); Cur.isValid() && K.Ready[Cur.index()];
         Cur = P.proc(Cur).Parent) {
      if (InChain.size() > Cur.index() && InChain[Cur.index()])
        break; // The rest of this chain is already collected.
      addUnique(Chain, InChain, Cur.index());
    }
  std::sort(Chain.begin(), Chain.end(), std::greater<std::uint32_t>());

  std::vector<std::uint32_t> ExtChanged;
  for (std::uint32_t Proc : Chain) {
    EffectSet New = K.Own[Proc];
    for (ir::ProcId Child : P.proc(ir::ProcId(Proc)).Nested)
      New.orWithAndNot(K.Ext[Child.index()], localMask(Child));
    if (New != K.Ext[Proc]) {
      K.Ext[Proc] = std::move(New);
      ExtChanged.push_back(Proc);
    }
  }

  for (std::uint32_t Proc : ExtChanged) {
    bool FormalChanged = false;
    for (ir::VarId F : P.proc(ir::ProcId(Proc)).Formals) {
      bool Bit = K.Ext[Proc].test(F.index());
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
    EffectSet New = analysis::computeIModPlusFor(P, K.Ext[Proc], K.RModBits,
                                                 ir::ProcId(Proc));
    if (New == K.IModPlus[Proc])
      continue;
    const bool Absorbed =
        absorbed(K.IModPlus[Proc], New, K.GMod.GMod[Proc]);
    K.IModPlus[Proc] = std::move(New);
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
  std::vector<char> Pending(Cond.numComponents(), 0);
  auto Enqueue = [&](std::uint32_t Proc) {
    std::uint32_t C = Cond.compOf(Proc);
    if (!K.Solved[Proc] || Pending[C])
      return;
    Pending[C] = 1;
    Queue.push(C);
  };
  for (std::uint32_t Proc : Seeds)
    Enqueue(Proc);

  while (!Queue.empty()) {
    std::uint32_t C = Queue.top();
    Queue.pop();
    ++Stats.ComponentsRecomputed;
    const std::vector<graph::NodeId> &Members = Cond.members(C);
    solveComponentGMod(K, Members, MemberVals);
    // Early termination: only members whose value actually changed dirty
    // their callers (the call edges among their reverse dependencies).
    for (std::uint32_t J = 0; J != Members.size(); ++J) {
      std::uint32_t M = Members[J];
      if (MemberVals[J] == K.GMod.GMod[M])
        continue;
      std::swap(K.GMod.GMod[M], MemberVals[J]);
      for (const graph::Adjacency &A : RevDeps.succs(M))
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
    Vals[J] = K.IModPlus[Members[J]];
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
        Vals[J].orWithIntersect(K.GMod.GMod[Q], Below[Level]);
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
    for (const graph::Adjacency &A : Deps.succs(Proc)) {
      if (K.Solved[A.Dst]) {
        // The memo frontier cut this edge: the callee's plane is final
        // and folds in as a constant instead of growing the region.
        ++Stats.FrontierCuts;
        continue;
      }
      if (ProcStamp[A.Dst] != Epoch) {
        ProcStamp[A.Dst] = Epoch;
        Stack.push_back(A.Dst);
      }
    }
  }
}

void DemandSession::solveRegion(KindState &K,
                                const std::vector<std::uint32_t> &Region) {
  observe::TraceSpan Span("demand.solve");
  for (std::uint32_t Proc : Region)
    makeEffectReady(K, Proc);

  solveRegionRMod(K, Region);
  for (std::uint32_t Proc : Region)
    K.IModPlus[Proc] = analysis::computeIModPlusFor(P, K.Ext[Proc], K.RModBits,
                                                    ir::ProcId(Proc));
  solveRegionGMod(K, Region);

  for (std::uint32_t Proc : Region)
    K.Solved[Proc] = 1;
  K.NumSolved += Region.size();
}

void DemandSession::solveBatch(std::span<KindState *const> Kinds) {
  observe::TraceSpan Span("demand.batch");
  const std::uint32_t N = P.numProcs();
  graph::CallGraph CG(P);
  analysis::VarMasks Masks(P);
  const analysis::PassKernel Kernel = analysis::chooseKernel(P, CG);
  for (KindState *K : Kinds) {
    analysis::LocalEffects Local(P, Masks, K->Kind);
    K->FormalBits = analysis::formalBits(P, Local);
    analysis::PassResults R = analysis::solvePasses(
        P, CG, *BG, Masks, Local, K->FormalBits, Kernel, /*Lanes=*/1);
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
  // Sub-β over the region's formal nodes.  Successors outside the region
  // belong to Solved procedures (the region is β-owner closed), so their
  // final RMOD bits fold in as constants — exactly how the global Figure-1
  // sweep folds earlier components into later ones.
  std::vector<graph::NodeId> Nodes;
  for (std::uint32_t Proc : Region)
    for (ir::VarId F : P.proc(ir::ProcId(Proc)).Formals) {
      graph::NodeId N = BG->nodeOf(F);
      if (N != graph::BindingGraph::NoNode) {
        NodeStamp[N] = Epoch;
        NodeSlot[N] = static_cast<std::uint32_t>(Nodes.size());
        Nodes.push_back(N);
      }
    }

  graph::Digraph Sub(Nodes.size());
  std::vector<char> Init(Nodes.size(), 0);
  const graph::Digraph &G = BG->graph();
  for (std::uint32_t I = 0; I != Nodes.size(); ++I) {
    graph::NodeId N = Nodes[I];
    if (K.FormalBits.test(BG->formal(N).index()))
      Init[I] = 1;
    for (const graph::Adjacency &Adj : G.succs(N)) {
      if (NodeStamp[Adj.Dst] == Epoch)
        Sub.addEdge(I, NodeSlot[Adj.Dst]);
      else
        Init[I] |= K.RModBits.test(BG->formal(Adj.Dst).index()) ? 1 : 0;
    }
  }
  Sub.finalize();

  graph::SccDecomposition Sccs = graph::computeSccs(Sub);
  std::vector<char> SccVal(Sccs.numSccs(), 0);
  for (std::uint32_t C = 0; C != Sccs.numSccs(); ++C) {
    char Value = 0;
    for (graph::NodeId M : Sccs.Members[C]) {
      Value |= Init[M];
      for (const graph::Adjacency &Adj : Sub.succs(M))
        Value |= SccVal[Sccs.SccOf[Adj.Dst]];
      if (Value)
        break;
    }
    SccVal[C] = Value;
  }

  // Install region bits: a formal with a β node takes its component's
  // value; one without takes its IMOD bit (no binding events).
  for (std::uint32_t I = 0; I != Nodes.size(); ++I) {
    ir::VarId F = BG->formal(Nodes[I]);
    if (SccVal[Sccs.SccOf[I]])
      K.RModBits.set(F.index());
    else
      K.RModBits.reset(F.index());
  }
  for (std::uint32_t Proc : Region)
    for (ir::VarId F : P.proc(ir::ProcId(Proc)).Formals)
      if (BG->nodeOf(F) == graph::BindingGraph::NoNode) {
        if (K.FormalBits.test(F.index()))
          K.RModBits.set(F.index());
        else
          K.RModBits.reset(F.index());
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
  for (const std::vector<graph::NodeId> &Members : Sccs.Members) {
    Procs.clear();
    for (graph::NodeId Slot : Members)
      Procs.push_back(Region[Slot]);
    solveComponentGMod(K, Procs, MemberVals);
    for (std::uint32_t J = 0; J != Procs.size(); ++J)
      K.GMod.GMod[Procs[J]] = std::move(MemberVals[J]);
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
  return state(Kind).GMod.GMod[Proc.index()];
}

const EffectSet &DemandSession::imodPlus(ir::ProcId Proc, EffectKind Kind) {
  ensureSolved({{Proc}}, Kind);
  return state(Kind).IModPlus[Proc.index()];
}

const EffectSet &DemandSession::imod(ir::ProcId Proc, EffectKind Kind) {
  flushDirt();
  KindState &K = state(Kind);
  makeEffectReady(K, Proc.index());
  return K.Ext[Proc.index()];
}

bool DemandSession::rmodContains(ir::VarId Formal) {
  return rmodContains(Formal, EffectKind::Mod);
}

bool DemandSession::rmodContains(ir::VarId Formal, EffectKind Kind) {
  ir::ProcId Owner = P.var(Formal).Owner;
  ensureSolved({{Owner}}, Kind);
  return state(Kind).RModBits.test(Formal.index());
}

EffectSet DemandSession::projectSite(KindState &K, ir::CallSiteId Site) {
  const ir::CallSite &C = P.callSite(Site);
  const ir::Procedure &Callee = P.proc(C.Callee);
  const EffectSet &G = K.GMod.GMod[C.Callee.index()];

  EffectSet Out(P.numVars());
  Out.orWithAndNot(G, localMask(C.Callee));
  for (unsigned Pos = 0; Pos != C.Actuals.size(); ++Pos) {
    const ir::Actual &A = C.Actuals[Pos];
    if (A.isVariable() && G.test(Callee.Formals[Pos].index()))
      Out.set(A.Var.index());
  }
  return Out;
}

EffectSet DemandSession::effectOfStmt(EffectKind Kind, ir::StmtId S,
                                      const ir::AliasInfo *Aliases) {
  const ir::Statement &Stmt = P.stmt(S);
  std::vector<ir::ProcId> Callees;
  Callees.reserve(Stmt.Calls.size());
  for (ir::CallSiteId C : Stmt.Calls)
    Callees.push_back(P.callSite(C).Callee);
  ensureSolved(Callees, Kind);

  KindState &K = state(Kind);
  EffectSet DMod(P.numVars());
  // Direct effects come from LMod for both kinds — DMOD/DUSE differ only
  // in which GMOD plane the call sites project (mirrors dmodOfStmt).
  for (ir::VarId V : Stmt.LMod)
    DMod.set(V.index());
  for (ir::CallSiteId C : Stmt.Calls)
    DMod.orWith(projectSite(K, C));
  if (!Aliases)
    return DMod;

  // One application of the pairs against DMOD(s) (§5 step 2).
  EffectSet Out = DMod;
  for (const auto &[X, Y] : Aliases->pairs(Stmt.Parent)) {
    if (DMod.test(X.index()))
      Out.set(Y.index());
    if (DMod.test(Y.index()))
      Out.set(X.index());
  }
  return Out;
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
  return projectSite(state(Kind), C);
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
  ensureSolvedAll();
  return state(Kind).GMod;
}

const EffectSet &DemandSession::rmodBits(EffectKind Kind) {
  ensureSolvedAll();
  return state(Kind).RModBits;
}

const analysis::GModResult &DemandSession::peekGModResult(EffectKind Kind) {
  flushDirt();
  return state(Kind).GMod;
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
  ensureSolvedAll();
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
