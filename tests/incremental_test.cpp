//===- tests/incremental_test.cpp - The stateful engine under edits -----------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
//
// Tests for demand::DemandSession driven eagerly — every procedure solved
// after each edit (ensureSolvedAll), the way the tenant server's default
// mode, `ipse-cli session` and the persistence layer use it.  Handcrafted
// delta scenarios assert both results and *how* each edit was serviced
// (the DemandStats counters: absorbed, GMOD-only re-solve, region bounded
// by the reverse dependency closure, batch ceiling), and the randomized
// equivalence harness checks after every single edit that the engine's
// answers are bit-for-bit identical to a fresh batch SideEffectAnalyzer
// (and, on small instances, to the iterative equation-(1) oracle).
//
//===----------------------------------------------------------------------===//

#include "analysis/SideEffectAnalyzer.h"
#include "baselines/IterativeSolver.h"
#include "demand/DemandSession.h"
#include "graph/CallGraph.h"
#include "graph/Reachability.h"
#include "graph/Tarjan.h"
#include "incremental/Edit.h"
#include "ir/ProgramBuilder.h"
#include "synth/EditGen.h"
#include "synth/ProgramGen.h"

#include "TestSeed.h"

#include <gtest/gtest.h>

using namespace ipse;
using namespace ipse::demand;
using incremental::Edit;
using analysis::AnalyzerOptions;
using analysis::EffectKind;
using analysis::SideEffectAnalyzer;
using ir::ProcId;
using ir::Program;
using ir::ProgramBuilder;
using ir::StmtId;
using ir::VarId;

namespace {

/// Deterministic alias pairs for MOD/USE checks: in every procedure with at
/// least two formals, alias the first two.
ir::AliasInfo someAliases(const Program &P) {
  ir::AliasInfo Aliases(P);
  for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
    const ir::Procedure &Pr = P.proc(ProcId(I));
    if (Pr.Formals.size() >= 2)
      Aliases.addPair(ProcId(I), Pr.Formals[0], Pr.Formals[1]);
  }
  return Aliases;
}

/// Brings \p S up to date (ensureSolvedAll), then asserts that every query
/// matches a fresh batch analysis of the session's current program — and
/// that none of those queries had to solve anything more.  \p Context goes
/// into failure messages.
void expectEquivalent(DemandSession &S, const std::string &Context) {
  S.ensureSolvedAll();
  const std::uint64_t SolvesBefore = S.stats().RegionSolves;
  const Program &P = S.program();
  SideEffectAnalyzer Mod(P);
  AnalyzerOptions UseOpts;
  UseOpts.Kind = EffectKind::Use;
  SideEffectAnalyzer Use(P, UseOpts);
  ir::AliasInfo Aliases = someAliases(P);

  for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
    ProcId Proc(I);
    EXPECT_EQ(S.gmod(Proc), Mod.gmod(Proc))
        << Context << ": GMOD(" << P.name(Proc) << ")";
    EXPECT_EQ(S.guse(Proc), Use.gmod(Proc))
        << Context << ": GUSE(" << P.name(Proc) << ")";
    EXPECT_EQ(S.imodPlus(Proc, EffectKind::Mod), Mod.imodPlus(Proc))
        << Context << ": IMOD+(" << P.name(Proc) << ")";
    EXPECT_EQ(S.imodPlus(Proc, EffectKind::Use), Use.imodPlus(Proc))
        << Context << ": IUSE+(" << P.name(Proc) << ")";
    EXPECT_EQ(S.imod(Proc, EffectKind::Mod), Mod.imod(Proc))
        << Context << ": IMOD(" << P.name(Proc) << ")";
    for (VarId F : P.proc(Proc).Formals) {
      EXPECT_EQ(S.rmodContains(F), Mod.rmodContains(F))
          << Context << ": RMOD bit of " << P.name(F);
      EXPECT_EQ(S.rmodContains(F, EffectKind::Use), Use.rmodContains(F))
          << Context << ": RUSE bit of " << P.name(F);
    }
  }
  for (std::uint32_t I = 0; I != P.numStmts(); ++I) {
    StmtId St(I);
    EXPECT_EQ(S.dmod(St), Mod.dmod(St)) << Context << ": DMOD(s" << I << ")";
    EXPECT_EQ(S.duse(St), Use.dmod(St)) << Context << ": DUSE(s" << I << ")";
    EXPECT_EQ(S.mod(St, Aliases), Mod.mod(St, Aliases))
        << Context << ": MOD(s" << I << ")";
    EXPECT_EQ(S.use(St, Aliases), Use.mod(St, Aliases))
        << Context << ": USE(s" << I << ")";
  }
  for (std::uint32_t I = 0; I != P.numCallSites(); ++I) {
    ir::CallSiteId C(I);
    EXPECT_EQ(S.dmod(C), Mod.dmod(C)) << Context << ": DMOD(c" << I << ")";
  }
  EXPECT_EQ(S.stats().RegionSolves, SolvesBefore)
      << Context << ": a query after ensureSolvedAll() solved a region";

  // The undecomposed equation-(1) fixpoint is the semantic definition;
  // cross-check on instances small enough for round-robin iteration.  The
  // oracle matches the decomposed pipeline only under the paper's §3.3
  // precondition (no unreachable *nested* procedures — their binding
  // events are attributed to lexical ancestors by β but invisible to
  // equation (1); see UnreachableNestedProcedures in property_test.cpp),
  // and edits routinely create temporarily-unreachable procedures.
  bool OracleApplies =
      P.maxProcLevel() <= 1 ||
      graph::reachableProcs(P).count() == P.numProcs();
  if (P.numProcs() <= 16 && OracleApplies) {
    analysis::VarMasks Masks(P);
    graph::CallGraph CG(P);
    analysis::LocalEffects Local(P, Masks, EffectKind::Mod);
    baselines::IterativeResult Oracle =
        baselines::solveIterative(P, CG, Masks, Local);
    for (std::uint32_t I = 0; I != P.numProcs(); ++I)
      EXPECT_EQ(S.gmod(ProcId(I)), Oracle.GMod.of(ProcId(I)))
          << Context << ": oracle GMOD(" << P.name(ProcId(I)) << ")";
  }
}

//===----------------------------------------------------------------------===//
// Handcrafted delta scenarios.
//===----------------------------------------------------------------------===//

/// main(g, h); p(a){ mod a }; q(){ mod g; call p(h) }; main calls q — plus
/// \p Islands procedures r<i>(){ mod g } that main calls and nothing else
/// touches, so the reverse closure of p ({p, q, main}) can be made a small
/// share of the program.
struct SimpleProgram {
  ProcId Main, PP, QP;
  VarId G, H, A;
  StmtId PS, QS;
  Program P;

  explicit SimpleProgram(unsigned Islands = 0) {
    ProgramBuilder B;
    Main = B.createMain("main");
    G = B.addGlobal("g");
    H = B.addGlobal("h");
    PP = B.createProc("p", Main);
    A = B.addFormal(PP, "a");
    PS = B.addStmt(PP);
    B.addMod(PS, A);
    QP = B.createProc("q", Main);
    QS = B.addStmt(QP);
    B.addMod(QS, G);
    B.addCall(QS, PP, std::vector<VarId>{H});
    B.addCallStmt(Main, QP, {});
    for (unsigned I = 0; I != Islands; ++I) {
      ProcId R = B.createProc("r" + std::to_string(I), Main);
      B.addMod(B.addStmt(R), G);
      B.addCallStmt(Main, R, {});
    }
    P = B.finish();
  }
};

TEST(IncrementalSession, MatchesBatchInitially) {
  SimpleProgram SP;
  DemandSession S(std::move(SP.P));
  // The constructor solves nothing; the first ensureSolvedAll() covers the
  // whole program, so it takes the batch path once per kind.
  EXPECT_EQ(S.stats().RegionSolves, 0u);
  expectEquivalent(S, "initial");
  EXPECT_EQ(S.stats().BatchSolves, 2u);
  EXPECT_EQ(S.stats().RegionSolves, 2u);
}

TEST(IncrementalSession, EffectDeltaTakesFastPath) {
  SimpleProgram SP;
  DemandSession S(std::move(SP.P));
  S.ensureSolvedAll(); // Settle.
  const DemandStats Settled = S.stats();

  // h is already in IMOD+(q) (the call p(h) binds it to p's modified
  // formal), so "mod h" in q moves neither a formal bit nor IMOD+(q):
  // nothing is invalidated, nothing re-solved.
  S.addMod(SP.QS, SP.H);
  EXPECT_TRUE(S.gmod(SP.QP).test(SP.H.index()));
  EXPECT_TRUE(S.gmod(SP.Main).test(SP.H.index()));
  S.ensureSolvedAll();
  EXPECT_EQ(S.stats().Invalidations, Settled.Invalidations);
  EXPECT_EQ(S.stats().RegionSolves, Settled.RegionSolves);
  EXPECT_EQ(S.stats().BatchSolves, Settled.BatchSolves);
  EXPECT_EQ(S.stats().FullResets, 0u);
  expectEquivalent(S, "after addMod");

  // Removing it again restores the old answer, still on the fast path.
  EXPECT_TRUE(S.removeMod(SP.QS, SP.H));
  EXPECT_TRUE(S.gmod(SP.QP).test(SP.H.index()));
  S.ensureSolvedAll();
  EXPECT_EQ(S.stats().Invalidations, Settled.Invalidations);
  EXPECT_EQ(S.stats().RegionSolves, Settled.RegionSolves);
  expectEquivalent(S, "after removeMod");

  // Removing an absent entry is a no-op that does not dirty anything.
  std::uint64_t Gen = S.generation();
  EXPECT_FALSE(S.removeMod(SP.QS, SP.H));
  EXPECT_EQ(S.generation(), Gen);
}

TEST(IncrementalSession, AbsorbedEffectDeltaSkipsGModCone) {
  // r calls p; p mods g, so GMOD(r) already contains g.  Adding "mod g"
  // to r's own body grows IMOD+(r) by a bit GMOD(r) already holds — the
  // least fixed point is unchanged, and the monotone-growth prune must
  // service the edit without re-evaluating a single component.  (r must
  // not be a lexical ancestor of p, else the §3.3 nesting extension
  // absorbs the edit before IMOD+ even changes.)
  ProgramBuilder B;
  ProcId Main = B.createMain("main");
  VarId G = B.addGlobal("g");
  ProcId PP = B.createProc("p", Main);
  B.addMod(B.addStmt(PP), G);
  ProcId RP = B.createProc("r", Main);
  StmtId RS = B.addStmt(RP);
  B.addCall(RS, PP, std::vector<VarId>{});
  B.addCallStmt(Main, RP, {});
  DemandSession S(B.finish());
  S.ensureSolvedAll();
  EXPECT_TRUE(S.gmod(RP).test(G.index()));
  const DemandStats Before = S.stats();

  S.addMod(RS, G);
  S.ensureSolvedAll();
  EXPECT_TRUE(S.gmod(RP).test(G.index()));
  EXPECT_EQ(S.stats().AbsorbedEdits, Before.AbsorbedEdits + 1);
  EXPECT_EQ(S.stats().ComponentsRecomputed, Before.ComponentsRecomputed);
  EXPECT_EQ(S.stats().Invalidations, Before.Invalidations);
  EXPECT_EQ(S.stats().RegionSolves, Before.RegionSolves);
  expectEquivalent(S, "after absorbed addMod");

  // Removing the absorbed bit shrinks IMOD+(r) and must NOT be pruned:
  // the engine re-derives GMOD(r) — a GMOD-only re-solve that keeps r
  // Solved, since no formal bit (hence no RMOD) moved — and finds that g
  // still reaches it via p.
  EXPECT_TRUE(S.removeMod(RS, G));
  EXPECT_TRUE(S.covered(RP, EffectKind::Mod));
  EXPECT_TRUE(S.gmod(RP).test(G.index()));
  EXPECT_GT(S.stats().ComponentsRecomputed, Before.ComponentsRecomputed);
  EXPECT_EQ(S.stats().Invalidations, Before.Invalidations);
  EXPECT_EQ(S.stats().RegionSolves, Before.RegionSolves);
  expectEquivalent(S, "after removing the absorbed bit");
}

TEST(IncrementalSession, GModOnlyResolveStopsAtUnchangedCallers) {
  // main -> q -> p, and main -> r<i>.  "mod h" added to p (a fresh bit
  // for p, whose only formal is a) moves IMOD+(p), hence GMOD(p); the
  // re-solve climbs to q, whose recomputed GMOD already held h (the call
  // p(h) binds it to p's modified formal), and stops there: main and the
  // islands r<i> are never re-evaluated.
  SimpleProgram SP(/*Islands=*/6);
  DemandSession S(std::move(SP.P));
  S.ensureSolvedAll();
  const DemandStats Before = S.stats();

  S.addMod(SP.PS, SP.H);
  S.ensureSolvedAll();
  EXPECT_EQ(S.stats().Invalidations, Before.Invalidations);
  EXPECT_EQ(S.stats().RegionSolves, Before.RegionSolves);
  // p and q: two singleton components, MOD pipeline only.
  EXPECT_EQ(S.stats().ComponentsRecomputed, Before.ComponentsRecomputed + 2);
  expectEquivalent(S, "after mod h in p");

  // Dropping "mod g" from q shrinks GMOD(q); main is recomputed but keeps
  // g through the islands, so the climb ends there.
  const DemandStats Mid = S.stats();
  EXPECT_TRUE(S.removeMod(SP.QS, SP.G));
  S.ensureSolvedAll();
  EXPECT_FALSE(S.gmod(SP.QP).test(SP.G.index()));
  EXPECT_EQ(S.stats().ComponentsRecomputed, Mid.ComponentsRecomputed + 2);
  EXPECT_EQ(S.stats().Invalidations, Mid.Invalidations);
  expectEquivalent(S, "after rm mod g in q");
}

TEST(IncrementalSession, RModRepropagatesOnFormalFlip) {
  SimpleProgram SP(/*Islands=*/4);
  DemandSession S(std::move(SP.P));
  S.ensureSolvedAll();
  const DemandStats Before = S.stats();
  // q's call p(h) already puts h into GMOD(q) via RMOD(a).  Dropping
  // "mod a" must flip RMOD(a) off and drain h back out of GMOD(q).
  EXPECT_TRUE(S.rmodContains(SP.A));
  EXPECT_TRUE(S.gmod(SP.QP).test(SP.H.index()));
  EXPECT_TRUE(S.removeMod(SP.PS, SP.A));
  EXPECT_FALSE(S.rmodContains(SP.A));
  EXPECT_FALSE(S.gmod(SP.QP).test(SP.H.index()));
  S.ensureSolvedAll();
  // The formal flip un-solves exactly the reverse dependency closure of p
  // — {p, q, main} in MOD — and the re-solve covers that region alone,
  // below the batch ceiling (3 of 7 procedures).
  EXPECT_EQ(S.stats().Invalidations, Before.Invalidations + 3);
  EXPECT_EQ(S.stats().RegionProcs, Before.RegionProcs + 3);
  EXPECT_EQ(S.stats().BatchSolves, Before.BatchSolves);
  expectEquivalent(S, "after RMOD flip");
}

TEST(IncrementalSession, CallDeltaWithoutFormalsIsGModOnly) {
  SimpleProgram SP;
  StmtId QS = SP.QS;
  ProcId PP = SP.PP, QP = SP.QP;
  VarId G = SP.G;
  DemandSession S(std::move(SP.P));
  S.ensureSolvedAll();
  const DemandStats Before = S.stats();

  // A new edge q -> p binding the global g: no formal is an actual, so β
  // (hence RMOD) is unchanged; only IMOD+(q) and q's call edges moved,
  // and GMOD is re-solved in place from q (the condensation is rebuilt
  // lazily for the cross-component edge).
  S.addCall(QS, PP, {ir::Actual::variable(G)});
  EXPECT_TRUE(S.gmod(QP).test(G.index()));
  S.ensureSolvedAll();
  EXPECT_EQ(S.stats().Invalidations, Before.Invalidations);
  EXPECT_EQ(S.stats().RegionSolves, Before.RegionSolves);
  EXPECT_GT(S.stats().ComponentsRecomputed, Before.ComponentsRecomputed);
  expectEquivalent(S, "after cross-component addCall");
}

TEST(IncrementalSession, IntraComponentCallIsGModOnly) {
  // main calls p; p and q call each other (one SCC).
  ProgramBuilder B;
  ProcId Main = B.createMain("main");
  VarId G = B.addGlobal("g");
  ProcId PP = B.createProc("p", Main);
  ProcId QP = B.createProc("q", Main);
  StmtId PS = B.addStmt(PP);
  B.addCall(PS, QP, std::vector<VarId>{});
  StmtId QS = B.addStmt(QP);
  B.addMod(QS, G);
  B.addCall(QS, PP, std::vector<VarId>{});
  B.addCallStmt(Main, PP, {});
  DemandSession S(B.finish());
  S.ensureSolvedAll();
  const DemandStats Before = S.stats();

  // Another p -> q edge binds no formal: β and the condensation are
  // rebuilt, GMOD is re-solved in place, and nothing is un-solved.
  ir::CallSiteId Extra = S.addCall(PS, QP, {});
  S.ensureSolvedAll();
  EXPECT_EQ(S.stats().Invalidations, Before.Invalidations);
  EXPECT_EQ(S.stats().RegionSolves, Before.RegionSolves);
  expectEquivalent(S, "after intra-SCC addCall");

  // Removing an intra-component edge can split the SCC; the answer still
  // matches.
  S.removeCall(Extra);
  S.ensureSolvedAll();
  EXPECT_EQ(S.stats().Invalidations, Before.Invalidations);
  expectEquivalent(S, "after intra-SCC removeCall");
}

TEST(IncrementalSession, CallDeltaBindingAFormalUnsolvesCallerChain) {
  // p(a) calls nothing; adding "call p(a)" inside a *nested* procedure n
  // of s(a') binds s's formal — a new β edge from a formal of n's lexical
  // ancestor s — so the reverse closure of n's whole lexical chain is
  // un-solved, and re-solved as one region below the batch ceiling.
  ProgramBuilder B;
  ProcId Main = B.createMain("main");
  VarId G = B.addGlobal("g");
  ProcId PP = B.createProc("p", Main);
  VarId A = B.addFormal(PP, "a");
  B.addMod(B.addStmt(PP), A);
  ProcId SProc = B.createProc("s", Main);
  VarId F = B.addFormal(SProc, "f");
  ProcId NP = B.createProc("n", SProc);
  StmtId NS = B.addStmt(NP);
  B.addCallStmt(SProc, NP, {});
  B.addCallStmt(Main, SProc, std::vector<VarId>{G});
  for (unsigned I = 0; I != 6; ++I) {
    ProcId R = B.createProc("r" + std::to_string(I), Main);
    B.addMod(B.addStmt(R), G);
    B.addCallStmt(Main, R, {});
  }
  DemandSession S(B.finish());
  S.ensureSolvedAll();
  const DemandStats Before = S.stats();

  S.addCall(NS, PP, {ir::Actual::variable(F)});
  EXPECT_TRUE(S.rmodContains(F));
  S.ensureSolvedAll();
  // n, s and main (s's caller) in both kinds; p stays Solved.
  EXPECT_EQ(S.stats().Invalidations, Before.Invalidations + 6);
  EXPECT_EQ(S.stats().RegionProcs, Before.RegionProcs + 6);
  EXPECT_EQ(S.stats().BatchSolves, Before.BatchSolves);
  expectEquivalent(S, "after a formal-binding addCall");
}

TEST(IncrementalSession, UniverseDeltaResetsThenBatchSolves) {
  SimpleProgram SP;
  ProcId QP = SP.QP;
  StmtId QS = SP.QS;
  DemandSession S(std::move(SP.P));
  S.ensureSolvedAll();
  EXPECT_EQ(S.stats().BatchSolves, 2u);

  VarId NewG = S.addGlobal("brand_new");
  S.addMod(QS, NewG);
  EXPECT_TRUE(S.gmod(QP).test(NewG.index()));
  EXPECT_EQ(S.stats().FullResets, 1u);
  expectEquivalent(S, "after addGlobal");

  ProcId R = S.addProc("r", S.program().main());
  StmtId RS = S.addStmt(R);
  S.addMod(RS, NewG);
  S.addCall(RS, QP, {});
  S.ensureSolvedAll();
  EXPECT_EQ(S.stats().FullResets, 2u);
  // A reset leaves nothing covered, so eager re-covering is one batch
  // solve per kind.
  EXPECT_EQ(S.stats().BatchSolves, 6u);
  expectEquivalent(S, "after addProc");

  // r is a leaf and nothing calls it; removing it re-indexes everything.
  S.removeProc(R);
  expectEquivalent(S, "after removeProc");
}

TEST(IncrementalSession, EditsAreLazyAndBatched) {
  SimpleProgram SP;
  StmtId QS = SP.QS;
  VarId G = SP.G, H = SP.H;
  DemandSession S(std::move(SP.P));
  S.ensureSolvedAll();
  const DemandStats Before = S.stats();

  S.addMod(QS, H);
  S.addUse(QS, G);
  S.addUse(QS, H);
  EXPECT_TRUE(S.removeUse(QS, G));
  // Edits only record dirt: no invalidation, prune or re-solve has run.
  EXPECT_EQ(S.stats().EditsApplied, Before.EditsApplied + 4);
  EXPECT_EQ(S.stats().Invalidations, Before.Invalidations);
  EXPECT_EQ(S.stats().AbsorbedEdits, Before.AbsorbedEdits);
  EXPECT_EQ(S.stats().ComponentsRecomputed, Before.ComponentsRecomputed);
  EXPECT_EQ(S.stats().RegionSolves, Before.RegionSolves);

  S.ensureSolvedAll(); // One flush services the whole batch.
  const DemandStats Once = S.stats();
  S.ensureSolvedAll();
  EXPECT_EQ(S.stats().ComponentsRecomputed, Once.ComponentsRecomputed);
  EXPECT_EQ(S.stats().RegionSolves, Once.RegionSolves);
  expectEquivalent(S, "after batched edits");
}

TEST(IncrementalSession, RemoveCallReportsMovedId) {
  SimpleProgram SP;
  ProcId Main = SP.Main;
  DemandSession S(std::move(SP.P));

  // Two call sites exist: c0 = q->p, c1 = main->q.  Removing c0 moves c1
  // into its slot; removing the (new) last site moves nothing.
  ir::CallSiteId Moved = S.removeCall(ir::CallSiteId(0));
  EXPECT_TRUE(Moved.isValid());
  EXPECT_EQ(Moved.index(), 1u);
  EXPECT_EQ(S.program().callSite(ir::CallSiteId(0)).Caller, Main);
  expectEquivalent(S, "after removeCall with move");

  ir::CallSiteId None = S.removeCall(ir::CallSiteId(0));
  EXPECT_FALSE(None.isValid());
  EXPECT_EQ(S.program().numCallSites(), 0u);
  expectEquivalent(S, "after removing last call");
}

TEST(IncrementalSession, ModOnlySessionSkipsUse) {
  SimpleProgram SP;
  ProcId QP = SP.QP;
  StmtId QS = SP.QS;
  VarId H = SP.H;
  DemandOptions Opts;
  Opts.TrackUse = false;
  DemandSession S(std::move(SP.P), Opts);
  S.ensureSolvedAll();
  EXPECT_EQ(S.stats().BatchSolves, 1u); // MOD only.

  S.addUse(QS, H); // Applied to the program, but no USE pipeline exists.
  S.addMod(QS, H);
  S.ensureSolvedAll();
  EXPECT_TRUE(S.gmod(QP).test(H.index()));
  SideEffectAnalyzer Mod(S.program());
  for (std::uint32_t I = 0; I != S.program().numProcs(); ++I)
    EXPECT_EQ(S.gmod(ProcId(I)), Mod.gmod(ProcId(I)));
}

//===----------------------------------------------------------------------===//
// The batch ceiling.
//===----------------------------------------------------------------------===//

/// Forward DAG: proc I calls I+1, I+7, I+13 (when they exist), so the
/// forward closure of a proc K steps from the tail is O(K) (the
/// bench_demand chain shape).
Program makeChain(unsigned NumProcs, unsigned NumGlobals) {
  ProgramBuilder B;
  ProcId Main = B.createMain("main");
  std::vector<VarId> Globals;
  for (unsigned G = 0; G != NumGlobals; ++G)
    Globals.push_back(B.addGlobal("g" + std::to_string(G)));
  std::vector<ProcId> Procs;
  for (unsigned I = 0; I != NumProcs; ++I)
    Procs.push_back(B.createProc("sub" + std::to_string(I), Main));
  for (unsigned I = 0; I != NumProcs; ++I) {
    StmtId S = B.addStmt(Procs[I]);
    B.addMod(S, Globals[I % NumGlobals]);
    B.addUse(S, Globals[(I * 7 + 1) % NumGlobals]);
    for (unsigned Step : {1u, 7u, 13u})
      if (I + Step < NumProcs)
        B.addCallStmt(Procs[I], Procs[I + Step], {});
  }
  B.addCallStmt(Main, Procs[0], {});
  return B.finish();
}

/// GMOD of every procedure, solved by single-procedure queries callees
/// first (ascending call-graph SCC id) so every region stays small and no
/// query reaches the batch ceiling.
std::vector<EffectSet> solvedByRegions(const Program &P, EffectKind Kind) {
  DemandSession S(P);
  graph::CallGraph CG(P);
  graph::SccDecomposition Sccs = graph::computeSccs(CG.graph());
  for (std::uint32_t C = 0; C != Sccs.numSccs(); ++C)
    for (graph::NodeId N : Sccs.members(C))
      (void)S.gmod(ProcId(N), Kind);
  EXPECT_EQ(S.stats().BatchSolves, 0u);
  std::vector<EffectSet> Out;
  for (std::uint32_t I = 0; I != P.numProcs(); ++I)
    Out.push_back(S.gmod(ProcId(I), Kind));
  return Out;
}

TEST(BatchCeiling, ColdEnsureSolvedAllTakesBatchPath) {
  // A layered DAG: small call-graph SCCs, so the callees-first comparison
  // below can stay on region solves.
  Program P = synth::makeLayeredProgram(/*Layers=*/6, /*Width=*/20,
                                        /*Fanout=*/3, /*NumFormals=*/2,
                                        /*NumGlobals=*/64, /*Seed=*/7);
  const std::size_t N = P.numProcs();
  DemandSession S(P);
  S.ensureSolvedAll();
  // One batch solve per kind; the region counted is the dependency
  // region — every procedure, in each kind — and everything is covered.
  EXPECT_EQ(S.stats().BatchSolves, 2u);
  EXPECT_EQ(S.stats().RegionSolves, 2u);
  EXPECT_EQ(S.stats().RegionProcs, 2 * N);
  EXPECT_EQ(S.coveredCount(EffectKind::Mod), N);
  EXPECT_EQ(S.coveredCount(EffectKind::Use), N);
  expectEquivalent(S, "cold batch path");

  // Byte-identical either way: the batch-installed planes equal the ones
  // small region solves build.
  for (EffectKind Kind : {EffectKind::Mod, EffectKind::Use}) {
    std::vector<EffectSet> ByRegions = solvedByRegions(P, Kind);
    for (std::uint32_t I = 0; I != N; ++I)
      EXPECT_EQ(S.gmod(ProcId(I), Kind), ByRegions[I]) << "proc " << I;
  }
}

TEST(BatchCeiling, Fortran4000ColdQueryTakesBatchChainTailDoesNot) {
  {
    // bench_demand's adversarial shape: the last procedure's region is
    // most of the program, so the cold query runs the batch pipeline.
    Program P = synth::makeFortranStyleProgram(4000, 512, 3, /*Seed=*/9);
    ProcId Query(P.numProcs() - 1);
    DemandOptions Opts;
    Opts.TrackUse = false;
    DemandSession S(P, Opts);
    const EffectSet &G = S.gmod(Query);
    EXPECT_EQ(S.stats().BatchSolves, 1u);
    EXPECT_EQ(S.stats().RegionProcs, 3797u); // The dependency region.
    EXPECT_EQ(S.coveredCount(EffectKind::Mod), P.numProcs());
    SideEffectAnalyzer Batch(P);
    EXPECT_EQ(G, Batch.gmod(Query));
    for (std::uint32_t I = 0; I != P.numProcs(); ++I)
      ASSERT_EQ(S.gmod(ProcId(I)), Batch.gmod(ProcId(I))) << "proc " << I;
  }
  {
    // The chain tail reaches 50 procedures: a region solve.
    Program P = makeChain(4000, 256);
    ProcId Query(P.numProcs() - 50);
    DemandOptions Opts;
    Opts.TrackUse = false;
    DemandSession S(P, Opts);
    const EffectSet &G = S.gmod(Query);
    EXPECT_EQ(S.stats().BatchSolves, 0u);
    EXPECT_EQ(S.stats().RegionProcs, 50u);
    EXPECT_EQ(S.coveredCount(EffectKind::Mod), 50u);
    EXPECT_EQ(G, SideEffectAnalyzer(P).gmod(Query));
  }
}

//===----------------------------------------------------------------------===//
// Randomized equivalence harness.
//===----------------------------------------------------------------------===//

Program makeShape(unsigned Shape, std::uint64_t Seed) {
  switch (Shape % 5) {
  case 0: {
    synth::ProgramGenConfig Cfg;
    Cfg.Seed = Seed;
    Cfg.NumProcs = 10;
    Cfg.NumGlobals = 6;
    return synth::generateProgram(Cfg); // Two-level, random recursion.
  }
  case 1: {
    synth::ProgramGenConfig Cfg;
    Cfg.Seed = Seed;
    Cfg.NumProcs = 12;
    Cfg.NumGlobals = 4;
    Cfg.MaxNestDepth = 3; // Multi-level: exercises the §4 solver + Below.
    return synth::generateProgram(Cfg);
  }
  case 2:
    return synth::makeCycleProgram(8, 2); // One big SCC in C and β.
  case 3:
    return synth::makeLayeredProgram(3, 4, 2, 2, 4, Seed); // DAG.
  default:
    return synth::makeFortranStyleProgram(12, 8, 3, Seed);
  }
}

/// One random session: ~EditsPerRun edits, equivalence checked after every
/// single edit.
void runRandomSession(unsigned Shape, std::uint64_t Seed, unsigned EditsPerRun,
                      bool AllowUniverse) {
  DemandSession S(makeShape(Shape, Seed));
  synth::EditGenConfig Cfg;
  Cfg.Seed = Seed * 977 + Shape;
  Cfg.AllowUniverse = AllowUniverse;
  synth::EditGen Gen(Cfg);

  expectEquivalent(S, "shape " + std::to_string(Shape) + " seed " +
                          std::to_string(Seed) + " initial");
  for (unsigned I = 0; I != EditsPerRun; ++I) {
    std::optional<Edit> E = Gen.next(S.program());
    if (!E)
      break;
    std::string Context = "shape " + std::to_string(Shape) + " seed " +
                          std::to_string(Seed) + " edit " + std::to_string(I) +
                          " (" + incremental::toString(S.program(), *E) + ")";
    applyEdit(S, *E);
    std::string VerifyError;
    ASSERT_TRUE(S.program().verify(VerifyError))
        << Context << ": " << VerifyError;
    expectEquivalent(S, Context);
    if (::testing::Test::HasFailure())
      return; // One divergence produces enough output.
  }
}

TEST(IncrementalEquivalence, RandomEditSequences) {
  // 5 shapes x 24 seeds = 120 independent edit sequences, every query
  // compared against fresh batch analyzers after every edit.
  const std::uint64_t Base = testseed::baseSeed(1);
  for (unsigned Shape = 0; Shape != 5; ++Shape)
    for (std::uint64_t Seed = Base; Seed != Base + 24; ++Seed) {
      runRandomSession(Shape, Seed, 12, /*AllowUniverse=*/true);
      ASSERT_FALSE(::testing::Test::HasFailure())
          << "divergence in shape " << Shape << " seed " << Seed;
    }
}

TEST(IncrementalEquivalence, LongEffectOnlySequencesStayIncremental) {
  // With only effect and call deltas enabled the engine must never reset
  // its memo, across a long run of eager re-solves.
  const std::uint64_t Base = testseed::baseSeed(1);
  for (unsigned Shape = 0; Shape != 5; ++Shape) {
    DemandSession S(makeShape(Shape, Base + 41));
    synth::EditGenConfig Cfg;
    Cfg.Seed = Base * 1234 + Shape;
    Cfg.AllowUniverse = false;
    synth::EditGen Gen(Cfg);
    for (unsigned I = 0; I != 40; ++I) {
      std::optional<Edit> E = Gen.next(S.program());
      ASSERT_TRUE(E.has_value());
      applyEdit(S, *E);
      S.ensureSolvedAll();
    }
    EXPECT_EQ(S.stats().FullResets, 0u) << "shape " << Shape;
    expectEquivalent(S, "long run shape " + std::to_string(Shape));
  }
}

} // namespace

IPSE_SEEDED_TEST_MAIN()
