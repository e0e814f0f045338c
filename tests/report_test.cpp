//===- tests/report_test.cpp - Report rendering order -------------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
//
// The report renderer ranks every variable's qualified name once, sorts
// each GMOD/GUSE set's ranks once, and projects every DMOD/DUSE line from
// its callee's sorted list.  This suite checks it byte for byte against a
// naive reference renderer (collect the names, std::sort the strings,
// join; DMOD from the analyzer's projectCallSite) on every engine, every
// effect-set representation and K in {1, 4}, and on hand-built call
// sites that each exercise one case of the projection.  The programs are built to make id order and name order
// disagree: a global `p_x` beside a local `p.x`, one local name repeated
// in every procedure, and ids whose order is the reverse of their names'.
//
//===----------------------------------------------------------------------===//

#include "analysis/Report.h"
#include "analysis/SideEffectAnalyzer.h"
#include "api/Ipse.h"
#include "ir/Printer.h"
#include "ir/ProgramBuilder.h"
#include "support/Rng.h"

#include "TestSeed.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

using namespace ipse;
using ir::ProcId;
using ir::VarId;

namespace {

/// A random nested program whose names are adversarial for the renderer.
ir::Program adversarialProgram(std::uint64_t Seed) {
  Rng R(Seed);
  ir::ProgramBuilder B;
  B.createMain("main");
  std::vector<ProcId> Parent = {ProcId()};
  std::vector<std::vector<VarId>> Owned(1);
  // Globals with descending names: ids run z9, z8, ..., z0.
  for (int I = 9; I >= 0; --I)
    Owned[0].push_back(B.addGlobal("z" + std::to_string(I)));
  Owned[0].push_back(B.addGlobal("p_x"));

  const unsigned NumProcs = 4 + R.nextBelow(12);
  for (unsigned I = 0; I != NumProcs; ++I) {
    ProcId Par(static_cast<std::uint32_t>(R.nextBelow(Parent.size())));
    // The first is `p`, so its local renders "p.x" beside the global
    // "p_x"; the rest descend from `y`, against their ids.
    std::string Name = I == 0 ? "p" : std::string(1, char('y' - I));
    ProcId Id = B.createProc(Name, Par);
    Parent.push_back(Par);
    Owned.emplace_back();
    for (unsigned F = 0, N = R.nextBelow(3); F != N; ++F)
      Owned.back().push_back(B.addFormal(Id, "f" + std::to_string(2 - F)));
    Owned.back().push_back(B.addLocal(Id, "x"));
    if (R.nextChance(1, 2))
      Owned.back().push_back(B.addLocal(Id, "t"));
  }

  auto visible = [&](ProcId P) {
    std::vector<VarId> Vars;
    for (ProcId Cur = P; Cur.isValid(); Cur = Parent[Cur.index()])
      Vars.insert(Vars.end(), Owned[Cur.index()].begin(),
                  Owned[Cur.index()].end());
    return Vars;
  };
  auto isAncestorOrSelf = [&](ProcId A, ProcId P) {
    for (ProcId Cur = P; Cur.isValid(); Cur = Parent[Cur.index()])
      if (Cur == A)
        return true;
    return false;
  };
  for (std::uint32_t I = 0; I != Parent.size(); ++I) {
    ProcId P(I);
    std::vector<VarId> Vis = visible(P);
    auto pick = [&] { return Vis[R.nextBelow(Vis.size())]; };
    for (unsigned S = 0, N = 1 + R.nextBelow(3); S != N; ++S) {
      ir::StmtId Stmt = B.addStmt(P);
      B.addMod(Stmt, pick());
      B.addUse(Stmt, pick());
    }
    for (std::uint32_t Q = 1; Q != Parent.size(); ++Q) {
      if (!isAncestorOrSelf(Parent[Q], P) || !R.nextChance(1, 3))
        continue;
      std::vector<VarId> Actuals;
      for (unsigned F = 0; F != Owned[Q].size(); ++F)
        if (B.peek().var(Owned[Q][F]).Kind == ir::VarKind::Formal)
          Actuals.push_back(pick());
      B.addCallStmt(P, ProcId(Q), Actuals);
    }
  }
  return B.finish();
}

/// One set the naive way: every member's qualified name, sorted, joined.
std::string naiveSet(const ir::Program &P, const EffectSet &Set) {
  std::vector<std::string> Names;
  for (std::uint32_t V = 0; V != P.numVars(); ++V)
    if (Set.test(V))
      Names.push_back(ir::qualifiedName(P, VarId(V)));
  std::sort(Names.begin(), Names.end());
  std::string Out;
  for (std::size_t I = 0; I != Names.size(); ++I)
    Out += (I ? ", " : "") + Names[I];
  return Out;
}

/// The whole report, rendered naively from the sequential analyzers.
std::string naiveReport(const ir::Program &P, analysis::ReportOptions O) {
  analysis::SideEffectAnalyzer Mod(P);
  analysis::AnalyzerOptions UseOpts;
  UseOpts.Kind = analysis::EffectKind::Use;
  analysis::SideEffectAnalyzer Use(P, UseOpts);
  std::ostringstream OS;
  OS << "procedures:\n";
  for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
    ProcId Proc(I);
    OS << "  " << P.name(Proc) << ":\n";
    OS << "    GMOD = { " << naiveSet(P, Mod.gmod(Proc)) << " }\n";
    if (O.IncludeUse)
      OS << "    GUSE = { " << naiveSet(P, Use.gmod(Proc)) << " }\n";
    if (O.IncludeRMod)
      for (VarId F : P.proc(Proc).Formals) {
        OS << "    " << P.name(F) << ": "
           << (Mod.rmodContains(F) ? "RMOD" : "-");
        if (O.IncludeUse)
          OS << (Use.rmodContains(F) ? " RUSE" : " -");
        OS << "\n";
      }
  }
  if (!O.IncludeCallSites)
    return OS.str();
  OS << "call sites:\n";
  for (std::uint32_t I = 0; I != P.numCallSites(); ++I) {
    ir::CallSiteId Site(I);
    const ir::CallSite &C = P.callSite(Site);
    OS << "  s" << I << ": " << P.name(C.Caller) << " -> "
       << P.name(C.Callee) << ":\n";
    OS << "    DMOD = { " << naiveSet(P, Mod.dmod(Site)) << " }\n";
    if (O.IncludeUse)
      OS << "    DUSE = { " << naiveSet(P, Use.dmod(Site)) << " }\n";
  }
  return OS.str();
}

/// Renders \p P on both engines and every effect-set representation,
/// checks each report against the naive one, and returns it.
std::string reportOnEveryEngine(const ir::Program &P,
                                analysis::ReportOptions O =
                                    analysis::ReportOptions()) {
  using Engine = AnalysisOptions::Engine;
  using Repr = EffectSet::Representation;
  const std::string Expected = naiveReport(P, O);
  for (Engine E : {Engine::Sequential, Engine::Demand})
    for (Repr Rep : {Repr::Dense, Repr::Sparse, Repr::Auto}) {
      AnalysisOptions Opts;
      Opts.Backend = E;
      Opts.Repr = Rep;
      ReportRun Run = Analyzer(Opts).report(P, O);
      EXPECT_TRUE(Run.Ok);
      EXPECT_EQ(Run.Output, Expected)
          << "engine " << int(E) << " repr " << int(Rep);
    }
  EffectSet::setDefaultRepresentation(Repr::Auto);
  return Expected;
}

/// The text of the report line that starts with \p Head, after \p From.
std::string line(const std::string &Report, const std::string &From,
                 const std::string &Head) {
  std::size_t At = Report.find(From);
  At = At == std::string::npos ? At : Report.find(Head, At);
  if (At == std::string::npos)
    return "<no " + Head + " line after " + From + ">";
  return Report.substr(At, Report.find('\n', At) - At);
}

TEST(ReportOrder, MatchesNaiveRendererOnEveryEngine) {
  using Engine = AnalysisOptions::Engine;
  using Repr = EffectSet::Representation;
  const std::uint64_t Base = testseed::baseSeed(1);
  for (std::uint64_t K = 0; K != 12; ++K) {
    const std::uint64_t Seed = Base + K;
    ir::Program P = adversarialProgram(Seed);
    analysis::ReportOptions O;
    O.IncludeRMod = K % 2 == 1;
    const std::string Expected = naiveReport(P, O);
    for (Engine E : {Engine::Sequential, Engine::Demand})
      for (Repr Rep : {Repr::Dense, Repr::Sparse, Repr::Auto})
        for (unsigned Threads : {1u, 4u}) {
          AnalysisOptions Opts;
          Opts.Backend = E;
          Opts.Repr = Rep;
          Opts.Threads = Threads;
          ReportRun Run = Analyzer(Opts).report(P, O);
          ASSERT_TRUE(Run.Ok);
          EXPECT_EQ(Run.Output, Expected)
              << "seed " << Seed << " engine " << int(E) << " repr "
              << int(Rep) << " K=" << Threads;
        }
  }
  EffectSet::setDefaultRepresentation(Repr::Auto);
}

TEST(ReportOrder, IdOrderIsNotNameOrder) {
  // The fixture is only adversarial if sorting by id would differ.
  ir::Program P = adversarialProgram(testseed::baseSeed(1));
  std::vector<std::string> ById;
  for (std::uint32_t V = 0; V != P.numVars(); ++V)
    ById.push_back(ir::qualifiedName(P, VarId(V)));
  EXPECT_FALSE(std::is_sorted(ById.begin(), ById.end()));
  EXPECT_EQ(ir::qualifiedName(P, VarId(10)), "p_x");
}

TEST(SetRenderer, AppendsInNameOrder) {
  ir::Program P = adversarialProgram(7);
  analysis::SetRenderer Sets(P);
  EffectSet All(P.numVars());
  for (std::uint32_t V = 0; V < P.numVars(); V += 2)
    All.set(V);
  std::vector<std::uint32_t> Ranks;
  Sets.appendSortedRanks(All, Ranks);
  EXPECT_TRUE(std::is_sorted(Ranks.begin(), Ranks.end()));
  std::string Out = "{";
  Sets.appendLine(Out, " ", Ranks);
  EXPECT_EQ(Out, "{ " + naiveSet(P, All) + " }\n");
  EXPECT_EQ(ir::setToString(P, All), naiveSet(P, All));

  Ranks.clear();
  Sets.appendSortedRanks(EffectSet(P.numVars()), Ranks);
  EXPECT_TRUE(Ranks.empty());
  std::string Empty;
  Sets.appendLine(Empty, "{ ", Ranks);
  EXPECT_EQ(Empty, "{  }\n");
}

TEST(SetRenderer, SortsSmallAndLargeSetsAlike) {
  // 3000 globals named against their ids, in sets from one member to
  // every variable, each appended after what the list already holds.
  ir::ProgramBuilder B;
  B.createMain("main");
  for (int I = 2999; I >= 0; --I)
    B.addGlobal(std::string("g").append(std::to_string(I)));
  ir::Program P = B.finish();
  analysis::SetRenderer Sets(P);
  Rng R(testseed::baseSeed(3));
  for (std::uint32_t Size : {1u, 3u, 40u, 500u, 3000u}) {
    EffectSet Set(P.numVars());
    while (Set.count() != Size)
      Set.set(R.nextBelow(P.numVars()));
    std::vector<std::uint32_t> Ranks = {7}; // Appended after, not over.
    Sets.appendSortedRanks(Set, Ranks);
    ASSERT_EQ(Ranks.size(), Size + 1);
    EXPECT_TRUE(std::is_sorted(Ranks.begin() + 1, Ranks.end()));
    std::string Out;
    Sets.appendLine(Out, "", std::span(Ranks).subspan(1));
    EXPECT_EQ(Out, naiveSet(P, Set) + " }\n") << "size " << Size;
  }
}

// Hand-built call sites, each against the naive renderer on every engine
// and with the DMOD line it must produce.

TEST(ReportCallSites, GlobalActualAlsoPassedThrough) {
  // q(f) modifies f and g; main passes g for f.  g both survives q's
  // return and is bound to a modified formal: it is listed once.
  ir::ProgramBuilder B;
  ProcId Main = B.createMain("main");
  VarId G = B.addGlobal("g");
  ProcId Q = B.createProc("q", Main);
  VarId F = B.addFormal(Q, "f");
  ir::StmtId S = B.addStmt(Q);
  B.addMod(S, F);
  B.addMod(S, G);
  B.addUse(S, G);
  B.addCallStmt(Main, Q, {G});
  std::string Report = reportOnEveryEngine(B.finish());
  EXPECT_EQ(line(Report, "s0:", "DMOD"), "DMOD = { g }");
  EXPECT_EQ(line(Report, "s0:", "DUSE"), "DUSE = { g }");
}

TEST(ReportCallSites, OneVariableBoundToTwoFormals) {
  ir::ProgramBuilder B;
  ProcId Main = B.createMain("main");
  VarId G = B.addGlobal("g");
  B.addGlobal("h");
  ProcId Q = B.createProc("q", Main);
  VarId A = B.addFormal(Q, "a");
  VarId Bf = B.addFormal(Q, "b");
  ir::StmtId S = B.addStmt(Q);
  B.addMod(S, A);
  B.addMod(S, Bf);
  B.addCallStmt(Main, Q, {G, G});
  std::string Report = reportOnEveryEngine(B.finish());
  EXPECT_EQ(line(Report, "s0:", "DMOD"), "DMOD = { g }");
  EXPECT_EQ(line(Report, "q:", "GMOD"), "GMOD = { q.a, q.b }");
}

TEST(ReportCallSites, CalleeLocalsAndFormalsDieWithIt) {
  // q(f) with local t modifies f, t and h, and calls itself with t for f.
  // From main only h and the actual bound to f are modified; from q
  // itself, its own t comes back through the binding.
  ir::ProgramBuilder B;
  ProcId Main = B.createMain("main");
  VarId H = B.addGlobal("h");
  VarId X = B.addGlobal("x");
  ProcId Q = B.createProc("q", Main);
  VarId F = B.addFormal(Q, "f");
  VarId T = B.addLocal(Q, "t");
  ir::StmtId S = B.addStmt(Q);
  B.addMod(S, F);
  B.addMod(S, T);
  B.addMod(S, H);
  B.addCallStmt(Main, Q, {X});
  B.addCallStmt(Q, Q, {T});
  std::string Report = reportOnEveryEngine(B.finish());
  EXPECT_EQ(line(Report, "q:", "GMOD"), "GMOD = { h, q.f, q.t }");
  EXPECT_EQ(line(Report, "s0:", "DMOD"), "DMOD = { h, x }");
  EXPECT_EQ(line(Report, "s1:", "DMOD"), "DMOD = { h, q.t }");
}

TEST(ReportCallSites, NestedCalleePassesParentLocalsThrough) {
  // r, nested in p, modifies p's local l: l outlives r's activation, so
  // the call p -> r modifies it, but the call main -> p does not.
  ir::ProgramBuilder B;
  ProcId Main = B.createMain("main");
  B.addGlobal("g");
  ProcId P = B.createProc("p", Main);
  VarId L = B.addLocal(P, "l");
  ProcId R = B.createProc("r", P);
  VarId Own = B.addLocal(R, "own");
  ir::StmtId S = B.addStmt(R);
  B.addMod(S, L);
  B.addMod(S, Own);
  B.addCallStmt(Main, P, {});
  B.addCallStmt(P, R, {});
  std::string Report = reportOnEveryEngine(B.finish());
  EXPECT_EQ(line(Report, "s0:", "DMOD"), "DMOD = {  }");
  EXPECT_EQ(line(Report, "s1:", "DMOD"), "DMOD = { p.l }");
}

TEST(ReportCallSites, NonVariableActualBindsNothing) {
  ir::ProgramBuilder B;
  ProcId Main = B.createMain("main");
  VarId G = B.addGlobal("g");
  ProcId Q = B.createProc("q", Main);
  VarId A = B.addFormal(Q, "a");
  VarId Bf = B.addFormal(Q, "b");
  ir::StmtId S = B.addStmt(Q);
  B.addMod(S, A);
  B.addMod(S, Bf);
  ir::StmtId Call = B.addStmt(Main);
  B.addCall(Call, Q, {ir::Actual::expression(), ir::Actual::variable(G)});
  Call = B.addStmt(Main);
  B.addCall(Call, Q, {ir::Actual::expression(), ir::Actual::expression()});
  std::string Report = reportOnEveryEngine(B.finish());
  EXPECT_EQ(line(Report, "s0:", "DMOD"), "DMOD = { g }");
  EXPECT_EQ(line(Report, "s1:", "DMOD"), "DMOD = {  }");
}

TEST(ReportCallSites, EmptySets) {
  ir::ProgramBuilder B;
  ProcId Main = B.createMain("main");
  VarId G = B.addGlobal("g");
  ProcId Q = B.createProc("q", Main);
  B.addFormal(Q, "f");
  B.addStmt(Q);
  B.addCallStmt(Main, Q, {G});
  std::string Report = reportOnEveryEngine(B.finish());
  EXPECT_EQ(line(Report, "q:", "GMOD"), "GMOD = {  }");
  EXPECT_EQ(line(Report, "q:", "GUSE"), "GUSE = {  }");
  EXPECT_EQ(line(Report, "s0:", "DMOD"), "DMOD = {  }");
  EXPECT_EQ(line(Report, "s0:", "DUSE"), "DUSE = {  }");
}

TEST(ReportCallSites, OptionsDropUseAndCallSiteLines) {
  for (std::uint64_t K = 0; K != 4; ++K) {
    ir::Program P = adversarialProgram(testseed::baseSeed(1) + K);
    analysis::ReportOptions NoUse;
    NoUse.IncludeUse = false;
    NoUse.IncludeRMod = true;
    std::string Report = reportOnEveryEngine(P, NoUse);
    EXPECT_EQ(Report.find("GUSE"), std::string::npos);
    EXPECT_EQ(Report.find("DUSE"), std::string::npos);
    EXPECT_EQ(Report.find("RUSE"), std::string::npos);
    EXPECT_NE(Report.find("DMOD"), std::string::npos);

    analysis::ReportOptions NoSites;
    NoSites.IncludeCallSites = false;
    Report = reportOnEveryEngine(P, NoSites);
    EXPECT_EQ(Report.find("call sites:"), std::string::npos);
    EXPECT_NE(Report.find("GUSE"), std::string::npos);
  }
}

} // namespace

IPSE_SEEDED_TEST_MAIN()
