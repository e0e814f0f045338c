//===- tests/property_test.cpp - Cross-algorithm property validation ----------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
//
// The decisive correctness evidence for the reproduction: on hundreds of
// random programs, every algorithm in the repository — the paper's Figure 1
// / Figure 2 / §4 algorithms and all three baselines — must compute the
// same sets, and the invariants the paper's derivation relies on must hold.
//
//===----------------------------------------------------------------------===//

#include "analysis/DMod.h"
#include "analysis/IModPlus.h"
#include "analysis/LocalEffects.h"
#include "analysis/MultiLevelGMod.h"
#include "analysis/RMod.h"
#include "analysis/SideEffectAnalyzer.h"
#include "baselines/IterativeSolver.h"
#include "baselines/RModIterative.h"
#include "baselines/SwiftStyleSolver.h"
#include "baselines/WorklistSolver.h"
#include "graph/BindingGraph.h"
#include "graph/Reachability.h"
#include "graph/Tarjan.h"
#include "ir/Printer.h"
#include "ir/ProgramBuilder.h"
#include "synth/ProgramGen.h"

#include "SolverMatrix.h"

#include <gtest/gtest.h>

#include <tuple>

using namespace ipse;
using namespace ipse::analysis;
using namespace ipse::ir;

namespace {

struct ShapeParam {
  const char *Name;
  synth::ProgramGenConfig Base;
};

ShapeParam shapes[] = {
    {"TwoLevelSmall",
     [] {
       synth::ProgramGenConfig C;
       C.NumProcs = 8;
       C.NumGlobals = 3;
       C.MaxFormals = 3;
       C.MaxCallsPerProc = 3;
       return C;
     }()},
    {"TwoLevelDense",
     [] {
       synth::ProgramGenConfig C;
       C.NumProcs = 30;
       C.NumGlobals = 8;
       C.MaxFormals = 4;
       C.MaxCallsPerProc = 6;
       C.ModDensityPct = 50;
       return C;
     }()},
    {"TwoLevelDag",
     [] {
       synth::ProgramGenConfig C;
       C.NumProcs = 25;
       C.NumGlobals = 5;
       C.AllowRecursion = false;
       return C;
     }()},
    {"NestedDeep",
     [] {
       synth::ProgramGenConfig C;
       C.NumProcs = 20;
       C.NumGlobals = 4;
       C.MaxNestDepth = 5;
       C.MaxCallsPerProc = 4;
       return C;
     }()},
    {"ParameterHeavy",
     [] {
       synth::ProgramGenConfig C;
       C.NumProcs = 20;
       C.NumGlobals = 2;
       C.MaxFormals = 6;
       C.FormalActualBiasPct = 85;
       C.ModDensityPct = 15;
       return C;
     }()},
    {"SparseEffects",
     [] {
       synth::ProgramGenConfig C;
       C.NumProcs = 15;
       C.NumGlobals = 6;
       C.ModDensityPct = 5;
       C.UseDensityPct = 5;
       return C;
     }()},
};

class RandomPrograms
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {
protected:
  /// A random program with the paper's §3.3 precondition established:
  /// every procedure reachable (unreachable-procedure elimination is the
  /// preprocessing step the paper prescribes; see the
  /// UnreachableNestedProcedures test for what goes wrong without it).
  Program makeProgram() const {
    return graph::eliminateUnreachable(makeRawProgram());
  }

  /// The same program before elimination (may contain unreachable
  /// procedures).
  Program makeRawProgram() const {
    synth::ProgramGenConfig Cfg = shapes[std::get<0>(GetParam())].Base;
    Cfg.Seed = std::get<1>(GetParam());
    return synth::generateProgram(Cfg);
  }
};

/// The paper's decomposition (Figure 1 + eq. 5 + Figure 2/§4) must reach
/// the very fixpoint that defines the problem (equation 1) — and so must
/// every baseline and alternative engine, for both MOD and USE.  The
/// engine list lives in tests/SolverMatrix.h; new engines registered there
/// are covered here with no further changes.
TEST_P(RandomPrograms, AllSolversAgreeOnGMod) {
  Program P = makeProgram();
  const std::vector<testmatrix::SolverEngine> &Engines =
      testmatrix::allSolverEngines();
  for (EffectKind Kind : {EffectKind::Mod, EffectKind::Use}) {
    GModResult Oracle = Engines.front().Solve(P, Kind);
    for (std::size_t E = 1; E != Engines.size(); ++E) {
      const testmatrix::SolverEngine &Engine = Engines[E];
      if (Engine.TwoLevelOnly && P.maxProcLevel() > 1)
        continue;
      GModResult Got = Engine.Solve(P, Kind);
      for (std::uint32_t I = 0; I != P.numProcs(); ++I)
        EXPECT_EQ(Got.GMod[I], Oracle.GMod[I])
            << Engine.Name << " vs " << Engines.front().Name << ": "
            << P.name(ProcId(I))
            << (Kind == EffectKind::Mod ? " (MOD)" : " (USE)");
    }
  }
}

TEST_P(RandomPrograms, RModSolversAgree) {
  Program P = makeProgram();
  VarMasks Masks(P);
  graph::CallGraph CG(P);
  graph::BindingGraph BG(P);
  LocalEffects Local(P, Masks, EffectKind::Mod);

  RModResult Fig1 = solveRMod(P, BG, Local);
  RModResult Iter = baselines::solveRModIterative(P, BG, Local);
  baselines::SwiftRModResult Swift =
      baselines::solveSwiftRMod(P, CG, Masks, Local);

  EXPECT_EQ(Fig1.ModifiedFormals, Iter.ModifiedFormals);
  EXPECT_EQ(Fig1.ModifiedFormals, Swift.RMod.ModifiedFormals);
}

/// The β-routed solvers agree with each other even on programs with
/// unreachable procedures (they see the same binding events either way).
TEST_P(RandomPrograms, BetaSolversAgreeOnRawPrograms) {
  Program P = makeRawProgram();
  VarMasks Masks(P);
  graph::CallGraph CG(P);
  graph::BindingGraph BG(P);
  LocalEffects Local(P, Masks, EffectKind::Mod);

  RModResult Fig1 = solveRMod(P, BG, Local);
  RModResult Iter = baselines::solveRModIterative(P, BG, Local);
  EXPECT_EQ(Fig1.ModifiedFormals, Iter.ModifiedFormals);

  std::vector<EffectSet> Plus = computeIModPlus(P, Local, Fig1);
  GModResult Rep = solveMultiLevelRepeated(P, CG, Masks, Plus);
  GModResult Com = solveMultiLevelCombined(P, CG, Masks, Plus);
  for (std::uint32_t I = 0; I != P.numProcs(); ++I)
    EXPECT_EQ(Rep.GMod[I], Com.GMod[I]) << P.name(ProcId(I));
  if (P.maxProcLevel() <= 1) {
    GModResult Fig2 = solveGMod(P, CG, Masks, Plus);
    for (std::uint32_t I = 0; I != P.numProcs(); ++I)
      EXPECT_EQ(Fig2.GMod[I], Com.GMod[I]) << P.name(ProcId(I));
  }
}

/// RMOD(p) is exactly GMOD(p) restricted to p's formals — the glue between
/// the two subproblems.
TEST_P(RandomPrograms, RModIsGModOnFormals) {
  Program P = makeProgram();
  SideEffectAnalyzer An(P);
  for (std::uint32_t I = 0; I != P.numProcs(); ++I)
    for (VarId F : P.proc(ProcId(I)).Formals)
      EXPECT_EQ(An.rmodContains(F), An.gmod(ProcId(I)).test(F.index()))
          << qualifiedName(P, F);
}

/// IMOD(p) ⊆ IMOD+(p) ⊆ GMOD(p): each pipeline stage only adds effects.
TEST_P(RandomPrograms, PipelineStagesAreMonotone) {
  Program P = makeProgram();
  SideEffectAnalyzer An(P);
  for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
    ProcId Proc(I);
    EXPECT_TRUE(An.imod(Proc).isSubsetOf(An.imodPlus(Proc)));
    EXPECT_TRUE(An.imodPlus(Proc).isSubsetOf(An.gmod(Proc)));
  }
}

/// Within a call-graph SCC of a two-level program, the global part of GMOD
/// is the same at every member (the fact lines 19-24 of findgmod exploit).
TEST_P(RandomPrograms, SccMembersShareGlobalGMod) {
  Program P = makeProgram();
  if (P.maxProcLevel() > 1)
    return;
  SideEffectAnalyzer An(P);
  graph::SccDecomposition Sccs =
      graph::computeSccs(An.callGraph().graph());
  const EffectSet &Global = An.masks().global();

  for (std::uint32_t C = 0; C != Sccs.numSccs(); ++C) {
    std::span<const graph::NodeId> Members = Sccs.members(C);
    if (Members.size() < 2)
      continue;
    EffectSet First = An.gmod(ProcId(Members[0]));
    First.andWith(Global);
    for (std::size_t I = 1; I != Members.size(); ++I) {
      EffectSet Other = An.gmod(ProcId(Members[I]));
      Other.andWith(Global);
      EXPECT_EQ(First, Other);
    }
  }
}

/// The same holds on β for RMOD: every node of a binding SCC has the same
/// value (the property equation (6)'s solution method rests on).
TEST_P(RandomPrograms, BindingSccMembersShareRMod) {
  Program P = makeProgram();
  graph::BindingGraph BG(P);
  VarMasks Masks(P);
  LocalEffects Local(P, Masks, EffectKind::Mod);
  RModResult R = solveRMod(P, BG, Local);

  graph::SccDecomposition Sccs = graph::computeSccs(BG.graph());
  for (std::uint32_t C = 0; C != Sccs.numSccs(); ++C) {
    std::span<const graph::NodeId> Members = Sccs.members(C);
    if (Members.size() < 2)
      continue;
    bool First = R.contains(BG.formal(Members[0]));
    for (std::size_t I = 1; I != Members.size(); ++I)
      EXPECT_EQ(R.contains(BG.formal(Members[I])), First);
  }
}

TEST_P(RandomPrograms, DModContainsLMod) {
  Program P = makeProgram();
  SideEffectAnalyzer An(P);
  for (std::uint32_t I = 0; I != P.numStmts(); ++I) {
    EffectSet D = An.dmod(StmtId(I));
    for (VarId V : P.stmt(StmtId(I)).LMod)
      EXPECT_TRUE(D.test(V.index()));
  }
}

/// DMOD at a call site only contains variables that outlive the callee:
/// a callee local appears only when it is itself passed as an actual
/// (possible at recursive calls, where caller and callee coincide).
TEST_P(RandomPrograms, DModContainsCalleeLocalsOnlyViaActuals) {
  Program P = makeProgram();
  SideEffectAnalyzer An(P);
  for (std::uint32_t I = 0; I != P.numCallSites(); ++I) {
    CallSiteId Site(I);
    EffectSet D = An.dmod(Site);
    const CallSite &C = P.callSite(Site);
    EffectSet CalleeLocalPart = D;
    CalleeLocalPart.andWith(An.masks().local(C.Callee));
    for (const Actual &A : C.Actuals)
      if (A.isVariable() && CalleeLocalPart.size() > A.Var.index() &&
          CalleeLocalPart.test(A.Var.index()))
        CalleeLocalPart.reset(A.Var.index());
    EXPECT_TRUE(CalleeLocalPart.none());
  }
}

/// MOD and USE over one shared ProgramShape equal two analyzers that each
/// build their own: kind, kernel, RMOD bits, IMOD+ and GMOD/GUSE; the
/// facade, which solves both kinds over one shape, answers the same.
void expectSharedShapeMatchesPerKind(
    const Program &P, const std::string &Context,
    AnalyzerOptions::GModAlgorithm Algorithm =
        AnalyzerOptions::GModAlgorithm::Auto) {
  const BatchAnalysis Shared(P, /*WithUse=*/true, Algorithm);
  ipse::AnalysisOptions Opts;
  Opts.Algorithm = Algorithm;
  Opts.Repr = EffectSet::defaultRepresentation();
  const ipse::Analysis Facade = ipse::Analyzer(Opts).analyze(P);
  for (EffectKind Kind : {EffectKind::Mod, EffectKind::Use}) {
    const std::string Ctx =
        Context + (Kind == EffectKind::Mod ? " (MOD)" : " (USE)");
    const SideEffectAnalyzer Alone(P, AnalyzerOptions{Kind, Algorithm});
    const SideEffectAnalyzer &S = Shared.of(Kind);
    EXPECT_EQ(S.kind(), Kind) << Ctx;
    EXPECT_EQ(S.kernel(), Alone.kernel()) << Ctx;
    EXPECT_EQ(S.rmodResult().ModifiedFormals,
              Alone.rmodResult().ModifiedFormals)
        << Ctx;
    for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
      const ProcId Proc(I);
      EXPECT_EQ(S.imodPlus(Proc), Alone.imodPlus(Proc)) << Ctx << " " << I;
      EXPECT_EQ(S.gmod(Proc), Alone.gmod(Proc)) << Ctx << " " << I;
      EXPECT_EQ(Facade.gmod(Proc, Kind), Alone.gmod(Proc)) << Ctx << " " << I;
      for (VarId F : P.proc(Proc).Formals)
        EXPECT_EQ(Facade.rmodContains(F, Kind), Alone.rmodContains(F))
            << Ctx << " " << qualifiedName(P, F);
    }
  }
}

TEST_P(RandomPrograms, SharedShapeMatchesPerKindAnalyzers) {
  expectSharedShapeMatchesPerKind(makeProgram(), "random");
}

/// The same on both GMOD kernels, every pinned algorithm, each set
/// representation, nesting and a giant SCC.
TEST(SharedShape, MatchesPerKindAnalyzersOnEveryKernelAndRepr) {
  using Algo = AnalyzerOptions::GModAlgorithm;
  std::vector<std::pair<std::string, Program>> Cases;
  // Four layers of 160 over a 21-word universe: the condensation kernel.
  Cases.emplace_back("wide", synth::makeLayeredProgram(4, 160, 3, 2, 64, 7));
  Cases.emplace_back("giant-scc", synth::makeCycleProgram(400, 3));
  Cases.emplace_back("nested", synth::makeNestedProgram(5, 12, 3));
  Cases.emplace_back("fortran", synth::makeFortranStyleProgram(60, 24, 3, 11));
  bool SawKernel[2] = {false, false};
  for (EffectSet::Representation Repr :
       {EffectSet::Representation::Auto, EffectSet::Representation::Dense,
        EffectSet::Representation::Sparse}) {
    EffectSet::setDefaultRepresentation(Repr);
    for (const auto &[Name, P] : Cases) {
      const std::string Ctx =
          Name + " repr " + std::to_string(static_cast<int>(Repr));
      SawKernel[static_cast<int>(ProgramShape(P).Kernel)] = true;
      expectSharedShapeMatchesPerKind(P, Ctx);
      for (Algo A : {Algo::MultiLevelRepeated, Algo::MultiLevelCombined})
        expectSharedShapeMatchesPerKind(P, Ctx + " pinned", A);
      if (P.maxProcLevel() <= 1)
        expectSharedShapeMatchesPerKind(P, Ctx + " findgmod", Algo::FindGMod);
    }
  }
  EffectSet::setDefaultRepresentation(EffectSet::Representation::Auto);
  EXPECT_TRUE(SawKernel[0] && SawKernel[1]) << "a kernel went untested";
}

/// Elimination is idempotent, and on an all-reachable program a second
/// elimination pass is an exact identity for the analysis results.
TEST_P(RandomPrograms, EliminationIsIdempotent) {
  Program Clean = makeProgram();
  std::string Error;
  ASSERT_TRUE(Clean.verify(Error)) << Error;
  Program Clean2 = graph::eliminateUnreachable(Clean);
  ASSERT_EQ(Clean.numProcs(), Clean2.numProcs());
  ASSERT_EQ(Clean.numVars(), Clean2.numVars());
  ASSERT_EQ(Clean.numCallSites(), Clean2.numCallSites());

  SideEffectAnalyzer An(Clean), An2(Clean2);
  for (std::uint32_t I = 0; I != Clean.numProcs(); ++I) {
    EXPECT_EQ(Clean.name(ProcId(I)), Clean2.name(ProcId(I)));
    EXPECT_EQ(An.setToString(An.gmod(ProcId(I))),
              An2.setToString(An2.gmod(ProcId(I))));
  }
}

/// Documents why the §3.3 reachability precondition matters.  Procedure
/// p1 (nested in p0) is never called; its call sites still contribute
/// binding edges to β, so the β-routed RMOD conservatively reports p0's
/// formal as modified, while the call-chain-routed oracle does not.  After
/// the paper's prescribed elimination the two agree exactly.
TEST(UnreachableNestedProcedures, BetaIsConservativeUntilElimination) {
  ProgramBuilder B;
  ProcId Main = B.createMain("main");
  VarId G = B.addGlobal("g");
  ProcId P0 = B.createProc("p0", Main);
  VarId F0 = B.addFormal(P0, "f0");
  ProcId P1 = B.createProc("p1", P0);
  VarId F1 = B.addFormal(P1, "f1");
  StmtId S = B.addStmt(P1);
  B.addMod(S, F1);                  // p1 modifies its formal...
  B.addCallStmt(P1, P1, {F0});      // ...and binds p0's formal to it.
  B.addCallStmt(Main, P0, {G});     // p0 is reachable; p1 is not.
  Program P = B.finish();

  VarMasks Masks(P);
  graph::CallGraph CG(P);
  graph::BindingGraph BG(P);
  LocalEffects Local(P, Masks, EffectKind::Mod);
  RModResult Beta = solveRMod(P, BG, Local);
  baselines::SwiftRModResult CallRouted =
      baselines::solveSwiftRMod(P, CG, Masks, Local);
  EXPECT_TRUE(Beta.contains(F0));              // Conservative.
  EXPECT_FALSE(CallRouted.RMod.contains(F0));  // Exact.

  Program Clean = graph::eliminateUnreachable(P);
  EXPECT_EQ(Clean.numProcs(), 2u); // p1 removed.
  VarMasks CMasks(Clean);
  graph::CallGraph CCG(Clean);
  graph::BindingGraph CBG(Clean);
  LocalEffects CLocal(Clean, CMasks, EffectKind::Mod);
  RModResult CBeta = solveRMod(Clean, CBG, CLocal);
  baselines::SwiftRModResult CCall =
      baselines::solveSwiftRMod(Clean, CCG, CMasks, CLocal);
  EXPECT_EQ(CBeta.ModifiedFormals, CCall.RMod.ModifiedFormals);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomPrograms,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89)),
    [](const ::testing::TestParamInfo<RandomPrograms::ParamType> &Info) {
      return std::string(shapes[std::get<0>(Info.param)].Name) + "_seed" +
             std::to_string(std::get<1>(Info.param));
    });

} // namespace
