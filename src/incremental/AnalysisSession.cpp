//===- incremental/AnalysisSession.cpp - Delta-driven analysis ----------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "incremental/AnalysisSession.h"

#include "analysis/IModPlus.h"
#include "analysis/LocalEffects.h"
#include "analysis/RMod.h"
#include "analysis/SideEffectAnalyzer.h"
#include "graph/CallGraph.h"
#include "ir/Printer.h"
#include "ir/ProgramEditor.h"
#include "observe/Trace.h"

#include <algorithm>
#include <queue>

using namespace ipse;
using namespace ipse::incremental;
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

} // namespace

AnalysisSession::AnalysisSession(ir::Program Initial, SessionOptions Options)
    : P(std::move(Initial)), Opts(Options) {
  initKindStates();
  rebuildAll();
  // The constructor's build is not a serviced edit; keep the stats clean.
  Stats = SessionStats();
}

AnalysisSession::AnalysisSession(ir::Program Initial, SessionOptions Options,
                                 SessionPlanes Planes)
    : P(std::move(Initial)), Opts(Options) {
  observe::TraceSpan Span("session.restore");
  initKindStates();
  assert(Planes.Kinds.size() == States.size() &&
         "restored planes must match the TrackUse configuration");
  rebuildSharedStructure();
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
  }
  Generation = CleanGeneration = Planes.Generation;
}

void AnalysisSession::initKindStates() {
  States.emplace_back();
  States.back().Kind = EffectKind::Mod;
  if (Opts.TrackUse) {
    States.emplace_back();
    States.back().Kind = EffectKind::Use;
  }
}

SessionPlanes AnalysisSession::exportPlanes() {
  flush();
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

AnalysisSession::KindState &AnalysisSession::state(EffectKind Kind) {
  if (Kind == EffectKind::Mod)
    return States[0];
  assert(Opts.TrackUse && "session was configured without a USE pipeline");
  return States[1];
}

//===----------------------------------------------------------------------===//
// Edits: bookkeeping only, analysis deferred to flush().
//===----------------------------------------------------------------------===//

void AnalysisSession::bump() {
  ++Generation;
  ++Stats.EditsApplied;
}

void AnalysisSession::markEffectDirty(EffectKind Kind, ir::ProcId Proc) {
  if (Kind == EffectKind::Use && !Opts.TrackUse)
    return;
  std::size_t I = kindIndex(Kind);
  addUnique(DirtyEffectProcs[I], DirtyEffectFlag[I], Proc.index());
}

void AnalysisSession::markCallDelta(ir::ProcId Caller, ir::ProcId Callee) {
  CallStructureDirty = true;
  addUnique(CallDirtyProcs, CallDirtyFlag, Caller.index());
  // Classify against the resident condensation: an edge delta whose
  // endpoints share a component preserves the membership partition (an
  // add changes nothing; a removal may split, handled below), anything
  // else may merge or split components.  When a universe delta is already
  // pending the whole state is rebuilt anyway and the resident partition
  // may not even cover the endpoint ids.
  if (!CondDirty && !UniverseDirty &&
      !Cond.sameComponent(Caller.index(), Callee.index()))
    CondDirty = true;
}

void AnalysisSession::markUniverseDirty() { UniverseDirty = true; }

void AnalysisSession::addMod(ir::StmtId S, ir::VarId V) {
  ir::ProgramEditor(P).addMod(S, V);
  markEffectDirty(EffectKind::Mod, P.stmt(S).Parent);
  bump();
}

bool AnalysisSession::removeMod(ir::StmtId S, ir::VarId V) {
  if (!ir::ProgramEditor(P).removeMod(S, V))
    return false;
  markEffectDirty(EffectKind::Mod, P.stmt(S).Parent);
  bump();
  return true;
}

void AnalysisSession::addUse(ir::StmtId S, ir::VarId V) {
  ir::ProgramEditor(P).addUse(S, V);
  markEffectDirty(EffectKind::Use, P.stmt(S).Parent);
  bump();
}

bool AnalysisSession::removeUse(ir::StmtId S, ir::VarId V) {
  if (!ir::ProgramEditor(P).removeUse(S, V))
    return false;
  markEffectDirty(EffectKind::Use, P.stmt(S).Parent);
  bump();
  return true;
}

ir::StmtId AnalysisSession::addStmt(ir::ProcId Parent) {
  ir::StmtId S = ir::ProgramEditor(P).addStmt(Parent);
  bump(); // An empty statement changes no analysis result.
  return S;
}

ir::CallSiteId AnalysisSession::addCall(ir::StmtId S, ir::ProcId Callee,
                                        std::vector<ir::Actual> Actuals) {
  ir::CallSiteId C = ir::ProgramEditor(P).addCall(S, Callee, std::move(Actuals));
  markCallDelta(P.callSite(C).Caller, Callee);
  bump();
  return C;
}

ir::CallSiteId AnalysisSession::removeCall(ir::CallSiteId C) {
  // Classify before the program forgets the edge.  An intra-component
  // removal may split the component, so it dirties the condensation too.
  const ir::CallSite &Site = P.callSite(C);
  ir::ProcId Caller = Site.Caller, Callee = Site.Callee;
  CallStructureDirty = true;
  addUnique(CallDirtyProcs, CallDirtyFlag, Caller.index());
  if (!CondDirty && !UniverseDirty &&
      Cond.sameComponent(Caller.index(), Callee.index()))
    CondDirty = true;
  ir::CallSiteId Moved = ir::ProgramEditor(P).removeCall(C);
  bump();
  return Moved;
}

ir::ProcId AnalysisSession::addProc(std::string_view Name, ir::ProcId Parent) {
  ir::ProcId Id = ir::ProgramEditor(P).addProc(Name, Parent);
  markUniverseDirty();
  bump();
  return Id;
}

ir::VarId AnalysisSession::addGlobal(std::string_view Name) {
  ir::VarId Id = ir::ProgramEditor(P).addGlobal(Name);
  markUniverseDirty();
  bump();
  return Id;
}

ir::VarId AnalysisSession::addLocal(ir::ProcId Owner, std::string_view Name) {
  ir::VarId Id = ir::ProgramEditor(P).addLocal(Owner, Name);
  markUniverseDirty();
  bump();
  return Id;
}

ir::VarId AnalysisSession::addFormal(ir::ProcId Owner, std::string_view Name) {
  ir::VarId Id = ir::ProgramEditor(P).addFormal(Owner, Name);
  markUniverseDirty();
  bump();
  return Id;
}

void AnalysisSession::removeProc(ir::ProcId Target) {
  ir::ProgramEditor(P).removeProc(Target);
  markUniverseDirty();
  bump();
}

//===----------------------------------------------------------------------===//
// Flush: bring resident results up to date.
//===----------------------------------------------------------------------===//

void AnalysisSession::flush() {
  if (CleanGeneration == Generation)
    return;
  observe::TraceSpan FlushSpan("flush");
  ++Stats.Flushes;
  if (UniverseDirty)
    rebuildAll();
  else
    flushIncremental();

  UniverseDirty = CallStructureDirty = CondDirty = false;
  for (std::size_t I = 0; I != 2; ++I) {
    DirtyEffectProcs[I].clear();
    DirtyEffectFlag[I].assign(P.numProcs(), 0);
  }
  CallDirtyProcs.clear();
  CallDirtyFlag.assign(P.numProcs(), 0);
  CleanGeneration = Generation;
}

void AnalysisSession::rebuildDerivedGraphs() {
  Callers.assign(P.numProcs(), {});
  for (std::uint32_t I = 0; I != P.numCallSites(); ++I) {
    const ir::CallSite &C = P.callSite(ir::CallSiteId(I));
    Callers[C.Callee.index()].push_back(C.Caller.index());
  }
}

void AnalysisSession::recondense() {
  observe::TraceSpan Span("flush.recondense");
  graph::CallGraph CG(P);
  Cond.rebuild(CG.graph());
  ++Stats.Recondensations;
}

void AnalysisSession::rebuildSharedStructure() {
  Masks = std::make_unique<analysis::VarMasks>(P);
  BG = std::make_unique<graph::BindingGraph>(P);

  const std::size_t V = P.numVars();
  const unsigned DP = P.maxProcLevel();
  EmptyVars = EffectSet(V);
  Below.assign(DP + 1, EffectSet(V));
  for (unsigned L = 1; L <= DP; ++L) {
    Below[L] = Below[L - 1];
    Below[L].orWith(Masks->level(L - 1));
  }

  graph::CallGraph CG(P);
  Cond.rebuild(CG.graph());
  rebuildDerivedGraphs();
}

void AnalysisSession::rebuildAll() {
  observe::TraceSpan Span("flush.full-rebuild");
  ++Stats.FullRebuilds;
  rebuildSharedStructure();

  graph::CallGraph CG(P);

  // Tier-3 rebuilds redo every pass over the whole program through the
  // batch analyzer's dispatch (kernel by program shape, lanes from
  // SessionOptions::Threads).  Incremental flushes stay sequential: their
  // dirty cones are small by construction.
  const analysis::PassKernel Kernel = analysis::chooseKernel(P, CG);
  for (KindState &K : States) {
    analysis::LocalEffects Local(P, *Masks, K.Kind);
    K.Own.clear();
    K.Ext.clear();
    K.Own.reserve(P.numProcs());
    K.Ext.reserve(P.numProcs());
    for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
      K.Own.push_back(Local.own(ir::ProcId(I)));
      K.Ext.push_back(Local.extended(ir::ProcId(I)));
    }

    K.FormalBits = analysis::formalBits(P, Local);
    analysis::PassResults R = analysis::solvePasses(
        P, CG, *BG, *Masks, Local, K.FormalBits, Kernel, Opts.Threads);
    K.RModBits = std::move(R.RMod.ModifiedFormals);
    K.IModPlus = std::move(R.IModPlus);
    K.GMod = std::move(R.GMod);
  }
}

void AnalysisSession::flushIncremental() {
  const bool Structural = CallStructureDirty;
  // Fast-path/fallback attribution: the span name is the tier this flush
  // actually took (effect-only < intra-scc < call-delta < full-rebuild).
  observe::TraceSpan TierSpan(!Structural ? "flush.effect-only"
                              : CondDirty ? "flush.call-delta"
                                          : "flush.intra-scc");
  if (Structural) {
    BG = std::make_unique<graph::BindingGraph>(P);
    rebuildDerivedGraphs();
    if (CondDirty)
      recondense();
    else
      ++Stats.IntraSccFlushes;
  } else {
    ++Stats.EffectOnlyFlushes;
  }

  for (KindState &K : States) {
    std::vector<std::uint32_t> ExtChanged =
        updateLocalEffects(K, DirtyEffectProcs[kindIndex(K.Kind)]);
    std::vector<std::uint32_t> RModChangedOwners =
        updateRMod(K, ExtChanged, Structural);

    // Procedures whose IMOD+ inputs may have changed: their own extended
    // IMOD, their call-site list, or the RMOD of a callee's formals.
    std::vector<std::uint32_t> Candidates;
    std::vector<char> Seen;
    for (std::uint32_t Proc : ExtChanged)
      addUnique(Candidates, Seen, Proc);
    for (std::uint32_t Proc : CallDirtyProcs)
      addUnique(Candidates, Seen, Proc);
    for (std::uint32_t Owner : RModChangedOwners)
      for (std::uint32_t Caller : Callers[Owner])
        addUnique(Candidates, Seen, Caller);

    std::vector<std::uint32_t> Seeds;
    std::vector<char> SeedSeen;
    for (std::uint32_t Proc : Candidates) {
      EffectSet New = analysis::computeIModPlusFor(P, K.Ext[Proc], K.RModBits,
                                                   ir::ProcId(Proc));
      if (New != K.IModPlus[Proc]) {
        // Monotone-growth prune: if IMOD+(p) only grew and every new bit is
        // already in GMOD(p), the old solution still satisfies p's equation
        // (GMOD(p) = IMOD+(p) ∪ ... is unchanged by absorbed bits), so the
        // least fixed point is identical and p need not seed the cone.
        // IMOD+(p) ⊆ GMOD(p) always holds, so "grew by absorbed bits" is
        // exactly Old ⊆ New && New ⊆ GMOD(p).  This matters when p sits in
        // a large SCC: without it every absorbed edit re-runs the whole
        // component's fixpoint.  (If p is also call-dirty its edges
        // changed; the unconditional seeding below still applies.)
        bool Absorbed = K.IModPlus[Proc].isSubsetOf(New) &&
                        New.isSubsetOf(K.GMod.GMod[Proc]);
        K.IModPlus[Proc] = std::move(New);
        if (!Absorbed)
          addUnique(Seeds, SeedSeen, Proc);
      }
    }
    // A call-site delta changes a procedure's outgoing edges even when its
    // IMOD+ is unchanged; re-condensation can likewise regroup components,
    // so those procedures seed the cone unconditionally.
    for (std::uint32_t Proc : CallDirtyProcs)
      addUnique(Seeds, SeedSeen, Proc);

    if (!Seeds.empty())
      recomputeGMod(K, Seeds);
  }
}

std::vector<std::uint32_t>
AnalysisSession::updateLocalEffects(KindState &K,
                                    const std::vector<std::uint32_t> &Dirty) {
  std::vector<std::uint32_t> ExtChanged;
  if (Dirty.empty())
    return ExtChanged;

  bool AnyOwnChanged = false;
  for (std::uint32_t Proc : Dirty) {
    EffectSet New = analysis::LocalEffects::computeOwn(P, P.numVars(), K.Kind,
                                                       ir::ProcId(Proc));
    if (New != K.Own[Proc]) {
      K.Own[Proc] = std::move(New);
      AnyOwnChanged = true;
    }
  }
  if (!AnyOwnChanged)
    return ExtChanged;

  // The extended IMOD of a procedure depends on its own set and its nested
  // children's extended sets, so a change can only climb the lexical
  // chain.  Collect the ancestor closure and recompute in decreasing id
  // order (children have larger ids than parents, so children are final
  // before their parent is visited).
  std::vector<std::uint32_t> Chain;
  std::vector<char> InChain;
  for (std::uint32_t Proc : Dirty)
    for (ir::ProcId Cur(Proc); Cur.isValid(); Cur = P.proc(Cur).Parent) {
      if (InChain.size() > Cur.index() && InChain[Cur.index()])
        break; // The rest of this chain is already collected.
      addUnique(Chain, InChain, Cur.index());
    }
  std::sort(Chain.begin(), Chain.end(), std::greater<std::uint32_t>());

  for (std::uint32_t Proc : Chain) {
    EffectSet New = K.Own[Proc];
    for (ir::ProcId Child : P.proc(ir::ProcId(Proc)).Nested)
      New.orWithAndNot(K.Ext[Child.index()], Masks->local(Child));
    if (New != K.Ext[Proc]) {
      K.Ext[Proc] = std::move(New);
      ExtChanged.push_back(Proc);
    }
  }
  return ExtChanged;
}

std::vector<std::uint32_t>
AnalysisSession::updateRMod(KindState &K,
                            const std::vector<std::uint32_t> &ExtChanged,
                            bool BetaRebuilt) {
  bool FormalBitsChanged = false;
  for (std::uint32_t Proc : ExtChanged)
    for (ir::VarId F : P.proc(ir::ProcId(Proc)).Formals) {
      bool Bit = K.Ext[Proc].test(F.index());
      if (Bit != K.FormalBits.test(F.index())) {
        if (Bit)
          K.FormalBits.set(F.index());
        else
          K.FormalBits.reset(F.index());
        FormalBitsChanged = true;
      }
    }

  std::vector<std::uint32_t> ChangedOwners;
  if (!BetaRebuilt && !FormalBitsChanged)
    return ChangedOwners;

  analysis::RModResult New = analysis::solveRModOnBits(P, *BG, K.FormalBits);
  ++Stats.RModResolves;
  std::vector<char> Seen;
  for (std::uint32_t I = 0; I != P.numProcs(); ++I)
    for (ir::VarId F : P.proc(ir::ProcId(I)).Formals)
      if (New.ModifiedFormals.test(F.index()) != K.RModBits.test(F.index()))
        addUnique(ChangedOwners, Seen, I);
  K.RModBits = std::move(New.ModifiedFormals);
  return ChangedOwners;
}

void AnalysisSession::recomputeGMod(KindState &K,
                                    const std::vector<std::uint32_t> &Seeds) {
  // Ascending component-id worklist: ids are reverse-topological, so every
  // pop sees its (possibly dirty) callee components already final, and
  // processing a component can only dirty components with larger ids (its
  // callers).  Each component is therefore re-evaluated at most once.
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>,
                      std::greater<std::uint32_t>>
      Queue;
  std::vector<char> Pending(Cond.numComponents(), 0);
  for (std::uint32_t Proc : Seeds) {
    std::uint32_t C = Cond.compOf(Proc);
    if (!Pending[C]) {
      Pending[C] = 1;
      Queue.push(C);
    }
  }

  std::vector<std::uint32_t> Changed;
  while (!Queue.empty()) {
    std::uint32_t C = Queue.top();
    Queue.pop();
    ++Stats.ComponentsRecomputed;
    Changed.clear();
    recomputeComponent(K, C, Changed);
    // Early termination: only components with a member whose value
    // actually changed dirty their callers.
    for (std::uint32_t Member : Changed)
      for (std::uint32_t Caller : Callers[Member]) {
        std::uint32_t CC = Cond.compOf(Caller);
        if (CC != C && !Pending[CC]) {
          Pending[CC] = 1;
          Queue.push(CC);
        }
      }
  }
}

void AnalysisSession::recomputeComponent(KindState &K, std::uint32_t Comp,
                                         std::vector<std::uint32_t> &ChangedOut) {
  const std::vector<graph::NodeId> &Members = Cond.members(Comp);
  if (MemberSlot.size() < P.numProcs())
    MemberSlot.resize(P.numProcs(), NoSlot);
  if (MemberVals.size() < Members.size())
    MemberVals.resize(Members.size());

  for (std::uint32_t I = 0; I != Members.size(); ++I) {
    MemberSlot[Members[I]] = I;
    MemberVals[I] = K.IModPlus[Members[I]];
  }

  // Equation (4) with the §4 multi-level filter: across an edge whose
  // callee sits at level L, exactly the variables declared at levels < L
  // survive the return.  Cross-component callees are final (ascending
  // worklist order); intra-component edges iterate to the local fixpoint.
  struct IntraEdge {
    std::uint32_t FromSlot;
    std::uint32_t ToSlot;
    unsigned CalleeLevel;
  };
  std::vector<IntraEdge> Intra;
  for (std::uint32_t I = 0; I != Members.size(); ++I) {
    for (ir::CallSiteId Site : P.proc(ir::ProcId(Members[I])).CallSites) {
      const ir::CallSite &C = P.callSite(Site);
      std::uint32_t Q = C.Callee.index();
      unsigned Level = P.proc(C.Callee).Level;
      if (MemberSlot[Q] != NoSlot)
        Intra.push_back({I, MemberSlot[Q], Level});
      else
        MemberVals[I].orWithIntersectMinus(K.GMod.GMod[Q], Below[Level],
                                           EmptyVars);
    }
  }

  bool IterChanged = true;
  while (IterChanged) {
    IterChanged = false;
    for (const IntraEdge &E : Intra)
      IterChanged |= MemberVals[E.FromSlot].orWithIntersectMinus(
          MemberVals[E.ToSlot], Below[E.CalleeLevel], EmptyVars);
  }

  for (std::uint32_t I = 0; I != Members.size(); ++I) {
    std::uint32_t M = Members[I];
    if (MemberVals[I] != K.GMod.GMod[M]) {
      std::swap(K.GMod.GMod[M], MemberVals[I]);
      ChangedOut.push_back(M);
    }
    MemberSlot[M] = NoSlot;
  }
}

//===----------------------------------------------------------------------===//
// Queries.
//===----------------------------------------------------------------------===//

const EffectSet &AnalysisSession::gmod(ir::ProcId Proc) {
  return gmod(Proc, EffectKind::Mod);
}

const EffectSet &AnalysisSession::guse(ir::ProcId Proc) {
  return gmod(Proc, EffectKind::Use);
}

const EffectSet &AnalysisSession::gmod(ir::ProcId Proc, EffectKind Kind) {
  flush();
  return state(Kind).GMod.of(Proc);
}

const EffectSet &AnalysisSession::imodPlus(ir::ProcId Proc, EffectKind Kind) {
  flush();
  return state(Kind).IModPlus[Proc.index()];
}

const EffectSet &AnalysisSession::imod(ir::ProcId Proc, EffectKind Kind) {
  flush();
  return state(Kind).Ext[Proc.index()];
}

bool AnalysisSession::rmodContains(ir::VarId Formal) {
  return rmodContains(Formal, EffectKind::Mod);
}

bool AnalysisSession::rmodContains(ir::VarId Formal, EffectKind Kind) {
  flush();
  return state(Kind).RModBits.test(Formal.index());
}

EffectSet AnalysisSession::dmod(ir::StmtId S) {
  flush();
  return analysis::dmodOfStmt(P, *Masks, state(EffectKind::Mod).GMod, S);
}

EffectSet AnalysisSession::duse(ir::StmtId S) {
  flush();
  return analysis::dmodOfStmt(P, *Masks, state(EffectKind::Use).GMod, S);
}

EffectSet AnalysisSession::dmod(ir::CallSiteId C) {
  flush();
  return analysis::projectCallSite(P, *Masks, state(EffectKind::Mod).GMod, C);
}

EffectSet AnalysisSession::dmod(ir::CallSiteId C, EffectKind Kind) {
  flush();
  return analysis::projectCallSite(P, *Masks, state(Kind).GMod, C);
}

EffectSet AnalysisSession::mod(ir::StmtId S, const ir::AliasInfo &Aliases) {
  flush();
  return analysis::modOfStmt(P, *Masks, state(EffectKind::Mod).GMod, Aliases, S);
}

EffectSet AnalysisSession::use(ir::StmtId S, const ir::AliasInfo &Aliases) {
  flush();
  return analysis::modOfStmt(P, *Masks, state(EffectKind::Use).GMod, Aliases, S);
}

const analysis::VarMasks &AnalysisSession::masks() {
  flush();
  return *Masks;
}

const analysis::GModResult &AnalysisSession::gmodResult(EffectKind Kind) {
  flush();
  return state(Kind).GMod;
}

const EffectSet &AnalysisSession::rmodBits(EffectKind Kind) {
  flush();
  return state(Kind).RModBits;
}

