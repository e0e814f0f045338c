//===- tests/report_test.cpp - Report rendering order -------------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
//
// The report renderer ranks every variable's qualified name once and then
// sorts integer ranks per set.  This suite checks it byte for byte
// against a naive reference renderer (collect the names, std::sort the
// strings, join) on every engine, both effect-set representations and
// K in {1, 4}.  The programs are built to make id order and name order
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
    OS << "    GUSE = { " << naiveSet(P, Use.gmod(Proc)) << " }\n";
    if (O.IncludeRMod)
      for (VarId F : P.proc(Proc).Formals)
        OS << "    " << P.name(F) << ": "
           << (Mod.rmodContains(F) ? "RMOD" : "-")
           << (Use.rmodContains(F) ? " RUSE" : " -") << "\n";
  }
  OS << "call sites:\n";
  for (std::uint32_t I = 0; I != P.numCallSites(); ++I) {
    ir::CallSiteId Site(I);
    const ir::CallSite &C = P.callSite(Site);
    OS << "  s" << I << ": " << P.name(C.Caller) << " -> "
       << P.name(C.Callee) << ":\n";
    OS << "    DMOD = { " << naiveSet(P, Mod.dmod(Site)) << " }\n";
    OS << "    DUSE = { " << naiveSet(P, Use.dmod(Site)) << " }\n";
  }
  return OS.str();
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
      for (Repr Rep : {Repr::Dense, Repr::Sparse})
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
  std::string Out = "{";
  Sets.append(Out, All);
  EXPECT_EQ(Out, "{" + naiveSet(P, All));
  EXPECT_EQ(ir::setToString(P, All), naiveSet(P, All));
  std::string Empty;
  Sets.append(Empty, EffectSet(P.numVars()));
  EXPECT_EQ(Empty, "");
}

} // namespace

IPSE_SEEDED_TEST_MAIN()
