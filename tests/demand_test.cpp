//===- tests/demand_test.cpp - DemandSession tests ----------------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
//
// Tests for the demand-driven engine: handcrafted scenarios asserting both
// the answers and the *region economics* (DemandStats counters — how many
// procedures each query actually solved, whether memo hits hit, whether
// invalidation un-solved the right cone), plus a randomized harness that
// interleaves EditGen edit sequences with random partial query subsets and
// checks every answer bit-for-bit against a fresh batch analyzer.  The
// dependency enumeration the engine walks instead of a stored graph is
// checked against graph::BindingGraph on its own.
//
//===----------------------------------------------------------------------===//

#include "analysis/SideEffectAnalyzer.h"
#include "demand/DemandSession.h"
#include "demand/Dependencies.h"
#include "graph/BindingGraph.h"
#include "incremental/Edit.h"
#include "ir/ProgramBuilder.h"
#include "synth/EditGen.h"
#include "synth/ProgramGen.h"
#include "TestSeed.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

using namespace ipse;
using namespace ipse::demand;
using analysis::AnalyzerOptions;
using analysis::EffectKind;
using analysis::SideEffectAnalyzer;
using incremental::Edit;
using ir::ProcId;
using ir::Program;
using ir::ProgramBuilder;
using ir::StmtId;
using ir::VarId;

namespace {

ir::AliasInfo someAliases(const Program &P) {
  ir::AliasInfo Aliases(P);
  for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
    const ir::Procedure &Pr = P.proc(ProcId(I));
    if (Pr.Formals.size() >= 2)
      Aliases.addPair(ProcId(I), Pr.Formals[0], Pr.Formals[1]);
  }
  return Aliases;
}

/// Full query sweep vs a fresh batch analyzer (forces complete coverage).
void expectEquivalent(DemandSession &S, const std::string &Context) {
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
}

/// main(g, h); p(a){ mod a }; q(){ mod g; call p(h) }; main calls q.
struct SimpleProgram {
  ProcId Main, PP, QP;
  VarId G, H, A;
  StmtId PS, QS;
  Program P;

  SimpleProgram() {
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
    P = B.finish();
  }
};

//===----------------------------------------------------------------------===//
// Handcrafted scenarios.
//===----------------------------------------------------------------------===//

TEST(DemandSession, MatchesBatchInitially) {
  SimpleProgram SP;
  DemandSession S(std::move(SP.P));
  expectEquivalent(S, "initial");
}

TEST(DemandSession, SingleQuerySolvesOnlyItsRegion) {
  // Chain main -> q -> p, plus an island r (called by main) the first
  // queries never depend on.
  SimpleProgram SP;
  ProgramBuilder B; // Rebuild with an extra island proc.
  Program P = std::move(SP.P);
  DemandSession S(std::move(P));

  // p calls nothing: its region is {p} alone.
  const Program &Prog = S.program();
  SideEffectAnalyzer Batch(Prog);
  EXPECT_EQ(S.gmod(SP.PP), Batch.gmod(SP.PP));
  EXPECT_EQ(S.stats().RegionSolves, 1u);
  EXPECT_EQ(S.stats().RegionProcs, 1u);
  EXPECT_TRUE(S.covered(SP.PP, EffectKind::Mod));
  EXPECT_FALSE(S.covered(SP.QP, EffectKind::Mod));
  EXPECT_FALSE(S.covered(SP.Main, EffectKind::Mod));
  EXPECT_EQ(S.coveredCount(EffectKind::Mod), 1u);

  // q depends on p, which is memoized: the second region is {q} alone,
  // with p's planes folded in as a frontier summary.
  EXPECT_EQ(S.gmod(SP.QP), Batch.gmod(SP.QP));
  EXPECT_EQ(S.stats().RegionSolves, 2u);
  EXPECT_EQ(S.stats().RegionProcs, 2u);
  EXPECT_GE(S.stats().MemoHits, 0u);

  EXPECT_EQ(S.gmod(SP.Main), Batch.gmod(SP.Main));
  EXPECT_EQ(S.stats().RegionProcs, 3u);
  EXPECT_EQ(S.coveredCount(EffectKind::Mod), 3u);
}

TEST(DemandSession, RepeatQueriesHitMemo) {
  SimpleProgram SP;
  DemandSession S(std::move(SP.P));
  (void)S.gmod(SP.Main); // Solves {main, q, p}.
  std::uint64_t Solves = S.stats().RegionSolves;
  std::uint64_t Hits = S.stats().MemoHits;

  (void)S.gmod(SP.Main);
  (void)S.gmod(SP.QP);
  (void)S.rmodContains(SP.A);
  EXPECT_EQ(S.stats().RegionSolves, Solves); // Nothing re-solved.
  EXPECT_EQ(S.stats().MemoHits, Hits + 3);
}

TEST(DemandSession, BindingRegionFollowsNestedCallSites) {
  // §3.3: p(f) contains a *nested* procedure n whose call site passes
  // p's formal onward to s(x){ mod x }.  s is not a callee of p, but
  // RMOD(f) depends on RMOD(x) through the β edge f -> x, so p's region
  // must include s via the β-owner edge.  If the region walk only
  // followed call edges, RMOD(f) would read a stale zero and GMOD would
  // diverge from batch.  Uncalled islands keep the region {p, n, s} below
  // the batch ceiling, so the region solve itself must find the edge.
  ProgramBuilder B;
  ProcId Main = B.createMain("main");
  VarId G = B.addGlobal("g");
  for (unsigned I = 0; I != 4; ++I)
    B.addStmt(B.createProc("island" + std::to_string(I), Main));
  ProcId PP = B.createProc("p", Main);
  VarId F = B.addFormal(PP, "f");
  ProcId NP = B.createProc("n", PP); // Nested inside p.
  ProcId SProc = B.createProc("s", Main);
  VarId X = B.addFormal(SProc, "x");
  B.addMod(B.addStmt(SProc), X);
  B.addCall(B.addStmt(NP), SProc, std::vector<VarId>{F});
  B.addCallStmt(PP, NP, {});
  B.addCallStmt(Main, PP, std::vector<VarId>{G});
  DemandSession S(B.finish());

  SideEffectAnalyzer Batch(S.program());
  EXPECT_TRUE(Batch.rmodContains(F)); // Sanity: the β path is live.
  EXPECT_EQ(S.gmod(PP), Batch.gmod(PP));
  EXPECT_TRUE(S.rmodContains(F));
  EXPECT_TRUE(S.covered(SProc, EffectKind::Mod))
      << "region must reach s through the β-owner edge";
  EXPECT_EQ(S.stats().BatchSolves, 0u);
  EXPECT_EQ(S.gmod(Main), Batch.gmod(Main));
}

TEST(DemandSession, EffectDeltaInvalidatesDependents) {
  SimpleProgram SP;
  DemandSession S(std::move(SP.P));
  (void)S.gmod(SP.Main); // Full chain covered.

  // Dropping "mod a" flips RMOD(a) off; q and main depend on it and must
  // be un-solved, then re-answered to the new batch truth.
  EXPECT_TRUE(S.removeMod(SP.PS, SP.A));
  EXPECT_FALSE(S.rmodContains(SP.A));
  EXPECT_GE(S.stats().Invalidations, 1u);
  SideEffectAnalyzer Batch(S.program());
  EXPECT_EQ(S.gmod(SP.QP), Batch.gmod(SP.QP));
  EXPECT_FALSE(S.gmod(SP.QP).test(SP.H.index()));
  expectEquivalent(S, "after RMOD flip");
}

TEST(DemandSession, AbsorbedEffectDeltaKeepsMemo) {
  // r calls p; p mods g, so GMOD(r) already contains g.  Adding "mod g"
  // to r's own body grows IMOD+(r) inside its memoized GMOD — the
  // monotone-growth prune must keep the whole chain Solved.
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
  (void)S.gmod(Main);
  std::uint64_t Solves = S.stats().RegionSolves;

  S.addMod(RS, G);
  EXPECT_TRUE(S.covered(RP, EffectKind::Mod)); // Flushes; r stays Solved.
  EXPECT_GE(S.stats().AbsorbedEdits, 1u);
  EXPECT_TRUE(S.gmod(RP).test(G.index()));
  EXPECT_EQ(S.stats().RegionSolves, Solves); // No region re-solved.
  expectEquivalent(S, "after absorbed addMod");

  // Removing the bit shrinks IMOD+(r): no prune applies, but no formal
  // bit moved either, so GMOD is re-solved in place from r — r stays
  // covered, nothing is un-solved, and the (unchanged) answer holds.
  std::uint64_t Invalidated = S.stats().Invalidations;
  EXPECT_TRUE(S.removeMod(RS, G));
  EXPECT_TRUE(S.covered(RP, EffectKind::Mod));
  EXPECT_EQ(S.stats().Invalidations, Invalidated);
  EXPECT_TRUE(S.gmod(RP).test(G.index()));
  expectEquivalent(S, "after removing the absorbed bit");
}

TEST(DemandSession, CallDeltaReSolvesCallerChain) {
  SimpleProgram SP;
  DemandSession S(std::move(SP.P));
  (void)S.gmod(SP.Main);
  std::uint64_t Invalidated = S.stats().Invalidations;

  // The new call binds a global, not a formal: β and RMOD are unchanged,
  // so the caller chain's GMOD is re-solved in place and stays covered.
  // (A formal-binding call delta un-solves the chain instead; see
  // incremental_test's CallDeltaBindingAFormalUnsolvesCallerChain.)
  S.addCall(SP.QS, SP.PP, {ir::Actual::variable(SP.G)});
  EXPECT_TRUE(S.covered(SP.QP, EffectKind::Mod));
  EXPECT_TRUE(S.covered(SP.Main, EffectKind::Mod));
  EXPECT_TRUE(S.covered(SP.PP, EffectKind::Mod)); // Callee unaffected.
  EXPECT_EQ(S.stats().Invalidations, Invalidated);
  EXPECT_TRUE(S.gmod(SP.QP).test(SP.G.index()));
  expectEquivalent(S, "after addCall");

  S.removeCall(ir::CallSiteId(0));
  expectEquivalent(S, "after removeCall");
}

TEST(DemandSession, UniverseResetCostsNoSolve) {
  SimpleProgram SP;
  DemandSession S(std::move(SP.P));
  (void)S.gmod(SP.Main);

  VarId NewG = S.addGlobal("brand_new");
  S.addMod(SP.QS, NewG);
  // The reset drops all memo but performs no fixed-point work; the next
  // single-proc query re-solves only its own region.
  EXPECT_EQ(S.gmod(SP.PP), SideEffectAnalyzer(S.program()).gmod(SP.PP));
  EXPECT_EQ(S.stats().FullResets, 1u);
  EXPECT_EQ(S.coveredCount(EffectKind::Mod), 1u);
  expectEquivalent(S, "after addGlobal");
}

TEST(DemandSession, WarmRestoreStartsFullyCovered) {
  SimpleProgram SP;
  Program Copy = SP.P;
  DemandSession Cold(std::move(SP.P));
  Cold.ensureSolvedAll();
  SessionPlanes Planes = Cold.exportPlanes();

  DemandSession Warm(std::move(Copy), DemandOptions(), std::move(Planes));
  EXPECT_EQ(Warm.coveredCount(EffectKind::Mod), Warm.program().numProcs());
  (void)Warm.gmod(SP.Main);
  EXPECT_EQ(Warm.stats().RegionSolves, 0u); // Answered from restored memo.
  expectEquivalent(Warm, "warm restore");

  // Replayed edits invalidate through the restored planes; the first query
  // after them solves only the dirty region.
  EXPECT_TRUE(Warm.removeMod(SP.PS, SP.A));
  EXPECT_FALSE(Warm.rmodContains(SP.A));
  EXPECT_GE(Warm.stats().RegionSolves, 1u);
  expectEquivalent(Warm, "warm restore + edit");
}

TEST(DemandSession, ModOnlySessionSkipsUse) {
  SimpleProgram SP;
  ProcId QP = SP.QP;
  StmtId QS = SP.QS;
  VarId H = SP.H;
  DemandOptions Opts;
  Opts.TrackUse = false;
  DemandSession S(std::move(SP.P), Opts);

  S.addUse(QS, H); // Applied to the program; no USE pipeline exists.
  S.addMod(QS, H);
  EXPECT_TRUE(S.gmod(QP).test(H.index()));
  SideEffectAnalyzer Mod(S.program());
  EXPECT_EQ(S.gmod(QP), Mod.gmod(QP));
}

TEST(DemandSession, DModQueriesSolveCalleesOnly) {
  SimpleProgram SP;
  DemandSession S(std::move(SP.P));
  SideEffectAnalyzer Batch(S.program());
  // DMOD of q's statement needs p's GMOD but not main's.
  EXPECT_EQ(S.dmod(SP.QS), Batch.dmod(SP.QS));
  EXPECT_TRUE(S.covered(SP.PP, EffectKind::Mod));
  EXPECT_FALSE(S.covered(SP.Main, EffectKind::Mod));
}

TEST(DemandSession, CallDeltaRebuildsReverseIndex) {
  // main calls q and r; q calls p(h); p(a){ mod a }.  An invalidation
  // builds the reverse dependency index; a later call r -> p must show in
  // it, or un-solving p's dependents would miss r.
  ProgramBuilder B;
  ProcId Main = B.createMain("main");
  VarId G = B.addGlobal("g");
  VarId H = B.addGlobal("h");
  ProcId PP = B.createProc("p", Main);
  VarId A = B.addFormal(PP, "a");
  StmtId PS = B.addStmt(PP);
  B.addMod(PS, A);
  ProcId QP = B.createProc("q", Main);
  B.addCall(B.addStmt(QP), PP, std::vector<VarId>{H});
  ProcId RP = B.createProc("r", Main);
  StmtId RS = B.addStmt(RP);
  B.addCallStmt(Main, QP, {});
  B.addCallStmt(Main, RP, {});
  DemandSession S(B.finish());
  S.ensureSolvedAll();

  // RMOD(a) flips off: p's dependents are un-solved through the index.
  EXPECT_TRUE(S.removeMod(PS, A));
  EXPECT_FALSE(S.covered(QP, EffectKind::Mod));
  S.ensureSolvedAll();

  // r -> p binds a global, so β is untouched and r stays covered.
  S.addCall(RS, PP, {ir::Actual::variable(G)});
  EXPECT_TRUE(S.covered(RP, EffectKind::Mod));

  // RMOD(a) flips back on; r now depends on p and must be un-solved.
  S.addMod(PS, A);
  EXPECT_FALSE(S.covered(RP, EffectKind::Mod));
  EXPECT_TRUE(S.gmod(RP).test(G.index()));
  expectEquivalent(S, "after the call delta");
}

TEST(DemandSession, RowsFollowProcedureOrderOnceCovered) {
  // main calls leaves l0..l5, each modifying its own global.  Querying the
  // leaves last-first, then main, covers the program through one-procedure
  // regions, so rows are allocated out of procedure order; the
  // whole-program exports must still come out in procedure order.
  ProgramBuilder B;
  ProcId Main = B.createMain("main");
  std::vector<ProcId> Leaves;
  for (unsigned I = 0; I != 6; ++I) {
    VarId G = B.addGlobal("g" + std::to_string(I));
    ProcId L = B.createProc("l" + std::to_string(I), Main);
    B.addMod(B.addStmt(L), G);
    B.addCallStmt(Main, L, {});
    Leaves.push_back(L);
  }
  Program P = B.finish();
  Program Copy = P;
  DemandOptions Opts;
  Opts.TrackUse = false;
  DemandSession S(std::move(P), Opts);
  for (auto It = Leaves.rbegin(); It != Leaves.rend(); ++It)
    (void)S.gmod(*It);
  (void)S.gmod(Main);
  EXPECT_EQ(S.stats().BatchSolves, 0u);
  EXPECT_EQ(S.stats().RegionProcs, 7u);
  EXPECT_EQ(S.stats().ResidentProcs, 7u);

  SideEffectAnalyzer Batch(S.program());
  const analysis::GModResult &All = S.gmodResult(EffectKind::Mod);
  ASSERT_EQ(All.GMod.size(), S.program().numProcs());
  for (std::uint32_t I = 0; I != S.program().numProcs(); ++I)
    EXPECT_EQ(All.of(ProcId(I)), Batch.gmod(ProcId(I)))
        << "GMOD(" << S.program().name(ProcId(I)) << ")";

  // The exported planes match a batch-solved session's, entry by entry.
  DemandSession Fresh(std::move(Copy), Opts);
  Fresh.ensureSolvedAll();
  EXPECT_EQ(Fresh.stats().BatchSolves, 1u);
  SessionPlanes Got = S.exportPlanes();
  SessionPlanes Want = Fresh.exportPlanes();
  ASSERT_EQ(Got.Kinds.size(), 1u);
  ASSERT_EQ(Want.Kinds.size(), 1u);
  EXPECT_EQ(Got.Kinds[0].Own, Want.Kinds[0].Own);
  EXPECT_EQ(Got.Kinds[0].Ext, Want.Kinds[0].Ext);
  EXPECT_EQ(Got.Kinds[0].IModPlus, Want.Kinds[0].IModPlus);
  EXPECT_EQ(Got.Kinds[0].GMod, Want.Kinds[0].GMod);
  EXPECT_EQ(Got.Kinds[0].RModBits, Want.Kinds[0].RModBits);
}

TEST(DemandSession, ResidentRowsFollowTheRegion) {
  // Opening builds no per-procedure plane; a cold tail query allocates
  // rows for its region (plus any lexical descendants made Ready with
  // it); a full sweep gives every procedure a row.
  Program P = synth::makeChainProgram(20000, 4);
  const ProcId Tail(static_cast<std::uint32_t>(P.numProcs() - 20));
  DemandSession S(std::move(P));
  EXPECT_EQ(S.stats().ResidentProcs, 0u);

  (void)S.gmod(Tail);
  const Program &Prog = S.program();
  std::uint64_t Descendants = 0;
  std::vector<ProcId> Stack;
  for (std::uint32_t I = 0; I != Prog.numProcs(); ++I)
    if (S.covered(ProcId(I), EffectKind::Mod))
      for (ProcId Child : Prog.proc(ProcId(I)).Nested)
        Stack.push_back(Child);
  while (!Stack.empty()) {
    ProcId Cur = Stack.back();
    Stack.pop_back();
    ++Descendants;
    for (ProcId Child : Prog.proc(Cur).Nested)
      Stack.push_back(Child);
  }
  EXPECT_EQ(S.stats().RegionProcs, 20u);
  EXPECT_GE(S.stats().ResidentProcs, S.stats().RegionProcs);
  EXPECT_LE(S.stats().ResidentProcs, S.stats().RegionProcs + Descendants);

  S.ensureSolvedAll();
  EXPECT_EQ(S.stats().ResidentProcs, Prog.numProcs());
}

//===----------------------------------------------------------------------===//
// The dependency enumeration.
//===----------------------------------------------------------------------===//

using DepList = std::vector<std::uint32_t>;

/// The dependency multisets the enumeration must produce, built the way
/// the batch pipeline sees the program: one call edge per call site, and
/// the β-owner image of every graph::BindingGraph edge.
std::vector<DepList> referenceDeps(const Program &P) {
  std::vector<DepList> Out(P.numProcs());
  for (std::uint32_t I = 0; I != P.numCallSites(); ++I) {
    const ir::CallSite C = P.callSite(ir::CallSiteId(I));
    Out[C.Caller.index()].push_back(C.Callee.index());
  }
  graph::BindingGraph BG(P);
  for (graph::NodeId N = 0; N != BG.numNodes(); ++N) {
    const std::uint32_t Owner = P.var(BG.formal(N)).Owner.index();
    for (const graph::Adjacency &Adj : BG.graph().succs(N))
      Out[Owner].push_back(P.var(BG.formal(Adj.Dst)).Owner.index());
  }
  for (DepList &L : Out)
    std::sort(L.begin(), L.end());
  return Out;
}

void expectDepsMatch(const Program &P, const std::string &Context) {
  const std::vector<DepList> Want = referenceDeps(P);
  for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
    DepList Got;
    forEachDependency(P, ProcId(I),
                      [&](ProcId Succ) { Got.push_back(Succ.index()); });
    std::sort(Got.begin(), Got.end());
    EXPECT_EQ(Got, Want[I])
        << Context << ": successors of " << P.name(ProcId(I));
  }
}

TEST(DemandDependencies, EnumerationMatchesBindingGraphUnderEdits) {
  // Random programs nested at least three deep, whose call sites pass
  // formals of the caller and of its lexical ancestors, before and after
  // edit sequences that exercise every edit kind.
  std::uint64_t Seed = testseed::baseSeed(1);
  std::set<incremental::EditKind> Seen;
  unsigned Programs = 0;
  for (unsigned Tries = 0; Programs != 10 && Tries != 200; ++Tries, ++Seed) {
    synth::ProgramGenConfig Cfg;
    Cfg.Seed = Seed;
    Cfg.NumProcs = 16;
    Cfg.NumGlobals = 4;
    Cfg.MaxNestDepth = 4;
    Cfg.FormalActualBiasPct = 70;
    Program P = synth::generateProgram(Cfg);
    if (P.maxProcLevel() < 3)
      continue;
    ++Programs;
    DemandSession S(std::move(P));
    const std::string Base = "seed " + std::to_string(Seed);
    expectDepsMatch(S.program(), Base + " initial");
    synth::EditGenConfig ECfg;
    ECfg.Seed = Seed * 131 + 7;
    ECfg.MaxNestDepth = 4;
    synth::EditGen Gen(ECfg);
    for (unsigned I = 0; I != 40; ++I) {
      std::optional<Edit> E = Gen.next(S.program());
      if (!E)
        break;
      const std::string Context = Base + " edit " + std::to_string(I) +
                                  " (" + toString(S.program(), *E) + ")";
      applyEdit(S, *E);
      Seen.insert(E->Kind);
      expectDepsMatch(S.program(), Context);
      if (::testing::Test::HasFailure())
        return;
    }
  }
  EXPECT_EQ(Programs, 10u) << "too few seeds nest three deep";
  EXPECT_EQ(Seen.size(), 12u) << "some edit kind never ran";
}

//===----------------------------------------------------------------------===//
// Randomized partial-query harness.
//===----------------------------------------------------------------------===//

Program makeShape(unsigned Shape, std::uint64_t Seed) {
  switch (Shape % 5) {
  case 0: {
    synth::ProgramGenConfig Cfg;
    Cfg.Seed = Seed;
    Cfg.NumProcs = 10;
    Cfg.NumGlobals = 6;
    return synth::generateProgram(Cfg);
  }
  case 1: {
    synth::ProgramGenConfig Cfg;
    Cfg.Seed = Seed;
    Cfg.NumProcs = 12;
    Cfg.NumGlobals = 4;
    Cfg.MaxNestDepth = 3;
    return synth::generateProgram(Cfg);
  }
  case 2:
    return synth::makeCycleProgram(8, 2);
  case 3:
    return synth::makeLayeredProgram(3, 4, 2, 2, 4, Seed);
  default:
    return synth::makeFortranStyleProgram(12, 8, 3, Seed);
  }
}

/// Compares a random subset of procedures against fresh batch analyzers —
/// the demand-specific stress: coverage stays partial, later queries mix
/// memoized frontiers with fresh regions.
void expectSubsetEquivalent(DemandSession &S, std::mt19937_64 &Rng,
                            const std::string &Context) {
  const Program &P = S.program();
  SideEffectAnalyzer Mod(P);
  AnalyzerOptions UseOpts;
  UseOpts.Kind = EffectKind::Use;
  SideEffectAnalyzer Use(P, UseOpts);

  std::uniform_int_distribution<std::uint32_t> PickProc(0, P.numProcs() - 1);
  unsigned Count = 1 + Rng() % 3;
  for (unsigned I = 0; I != Count; ++I) {
    ProcId Proc(PickProc(Rng));
    EXPECT_EQ(S.gmod(Proc), Mod.gmod(Proc))
        << Context << ": GMOD(" << P.name(Proc) << ")";
    EXPECT_EQ(S.guse(Proc), Use.gmod(Proc))
        << Context << ": GUSE(" << P.name(Proc) << ")";
    for (VarId F : P.proc(Proc).Formals)
      EXPECT_EQ(S.rmodContains(F), Mod.rmodContains(F))
          << Context << ": RMOD bit of " << P.name(F);
  }
  if (P.numStmts() != 0) {
    StmtId St(static_cast<std::uint32_t>(Rng() % P.numStmts()));
    EXPECT_EQ(S.dmod(St), Mod.dmod(St))
        << Context << ": DMOD(s" << St.index() << ")";
  }
}

void runRandomSession(unsigned Shape, std::uint64_t Seed,
                      unsigned EditsPerRun) {
  DemandSession S(makeShape(Shape, Seed));
  synth::EditGenConfig Cfg;
  Cfg.Seed = Seed * 977 + Shape;
  Cfg.AllowUniverse = true;
  synth::EditGen Gen(Cfg);
  std::mt19937_64 Rng(Seed * 7919 + Shape);

  std::string Base =
      "shape " + std::to_string(Shape) + " seed " + std::to_string(Seed);
  expectSubsetEquivalent(S, Rng, Base + " initial");
  for (unsigned I = 0; I != EditsPerRun; ++I) {
    std::optional<Edit> E = Gen.next(S.program());
    if (!E)
      break;
    std::string Context = Base + " edit " + std::to_string(I) + " (" +
                          toString(S.program(), *E) + ")";
    applyEdit(S, *E);
    std::string VerifyError;
    ASSERT_TRUE(S.program().verify(VerifyError))
        << Context << ": " << VerifyError;
    expectSubsetEquivalent(S, Rng, Context);
    if (::testing::Test::HasFailure())
      return;
  }
  expectEquivalent(S, Base + " final sweep");
}

TEST(DemandEquivalence, RandomEditAndQuerySequences) {
  std::uint64_t Base = testseed::baseSeed(1);
  for (unsigned Shape = 0; Shape != 5; ++Shape)
    for (std::uint64_t Seed = Base; Seed != Base + 16; ++Seed) {
      runRandomSession(Shape, Seed, 12);
      ASSERT_FALSE(::testing::Test::HasFailure())
          << "divergence in shape " << Shape << " seed " << Seed;
    }
}

TEST(DemandEquivalence, WarmRestoreThenEditsMatchesBatch) {
  // The tenant fault-in shape: solve all, export, restore warm, replay a
  // short edit tail, and answer partial queries — regions must stay small
  // and every answer byte-identical.
  std::uint64_t Base = testseed::baseSeed(1);
  for (unsigned Shape = 0; Shape != 5; ++Shape) {
    Program P = makeShape(Shape, Base + Shape);
    Program Copy = P;
    DemandSession Cold(std::move(P));
    Cold.ensureSolvedAll();
    SessionPlanes Planes = Cold.exportPlanes();

    DemandSession S(std::move(Copy), DemandOptions(), std::move(Planes));
    synth::EditGenConfig Cfg;
    Cfg.Seed = Base + 31 * Shape;
    Cfg.AllowUniverse = false; // Keep the memo warm (no full reset).
    synth::EditGen Gen(Cfg);
    std::mt19937_64 Rng(Base + 57 * Shape);
    for (unsigned I = 0; I != 8; ++I) {
      std::optional<Edit> E = Gen.next(S.program());
      ASSERT_TRUE(E.has_value());
      applyEdit(S, *E);
      expectSubsetEquivalent(S, Rng,
                             "warm shape " + std::to_string(Shape) +
                                 " edit " + std::to_string(I));
      if (::testing::Test::HasFailure())
        return;
    }
    expectEquivalent(S, "warm shape " + std::to_string(Shape) + " final");
  }
}

} // namespace

IPSE_SEEDED_TEST_MAIN()
