//===- tests/parallel_test.cpp - Condensation GMOD kernel -------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
//
// The differential harness for the condensation GMOD kernel
// (analysis/LevelSolvers.h): on randomized programs across shapes ×
// {MOD, USE}, the kernel must be bit-for-bit equal to the reference
// solvers and the iterative oracle, and to the eagerly driven demand
// engine after replayed edits.  Plus the kernel choice (made from the
// program alone), the level widths that choice reads, and proof that
// AnalysisOptions::Threads changes nothing: byte-identical reports and
// identical word-op counts at every value.
//
// Adversarial shapes: a single giant SCC (one component — the
// representative fast path must still beat Gauss–Seidel), a deep chain
// (one component per level), and a wide star (one level carrying almost
// every component).
//
//===----------------------------------------------------------------------===//

#include "analysis/LevelSolvers.h"
#include "analysis/Report.h"
#include "analysis/SideEffectAnalyzer.h"
#include "api/Ipse.h"
#include "graph/LevelWidths.h"
#include "graph/Reachability.h"
#include "demand/DemandSession.h"
#include "ir/ProgramBuilder.h"
#include "synth/EditGen.h"
#include "synth/ProgramGen.h"

#include "SolverMatrix.h"
#include "TestSeed.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

using namespace ipse;
using namespace ipse::analysis;
using namespace ipse::ir;

namespace {

/// AnalysisOptions::Threads values the invariance tests sweep.
constexpr unsigned ThreadCounts[] = {1, 2, 4, 8};

//===----------------------------------------------------------------------===//
// Level widths: the shape measure the kernel choice reads.
//===----------------------------------------------------------------------===//

/// Checks graph::levelWidths(G) against a reference computed here: the
/// longest cross-component path from each component to a sink, found by
/// relaxing every cross edge until nothing changes (no reliance on the
/// component id order).  Also checks the order the kernels do rely on:
/// every cross edge runs from a higher component id to a lower one, so
/// ascending ids visit callees before callers.
void expectValidWidths(const graph::Digraph &G) {
  graph::SccDecomposition Sccs = graph::computeSccs(G);
  std::vector<std::uint32_t> Level(Sccs.numSccs(), 0);
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (std::uint32_t N = 0; N != G.numNodes(); ++N)
      for (const graph::Adjacency &A : G.succs(graph::NodeId(N))) {
        const std::uint32_t CU = Sccs.SccOf[N], CV = Sccs.SccOf[A.Dst];
        if (CU != CV && Level[CU] < Level[CV] + 1) {
          Level[CU] = Level[CV] + 1;
          Changed = true;
        }
      }
  }
  std::vector<std::uint32_t> Expected;
  for (std::uint32_t L : Level) {
    if (Expected.size() <= L)
      Expected.resize(L + 1, 0);
    ++Expected[L];
  }
  EXPECT_EQ(graph::levelWidths(G), Expected);

  for (std::uint32_t N = 0; N != G.numNodes(); ++N)
    for (const graph::Adjacency &A : G.succs(graph::NodeId(N))) {
      const std::uint32_t CU = Sccs.SccOf[N], CV = Sccs.SccOf[A.Dst];
      if (CU != CV) {
        EXPECT_GT(CU, CV) << "cross edge " << N << " -> " << A.Dst
                          << " does not descend the component ids";
      }
    }
}

TEST(LevelSchedule, InvariantsHoldOnRandomPrograms) {
  const std::uint64_t Base = testseed::baseSeed(1);
  for (std::uint64_t Seed = Base; Seed != Base + 20; ++Seed) {
    synth::ProgramGenConfig Cfg;
    Cfg.Seed = Seed;
    Cfg.NumProcs = 25;
    Cfg.NumGlobals = 6;
    Cfg.MaxNestDepth = Seed % 2 ? 3 : 1;
    Program P = synth::generateProgram(Cfg);
    expectValidWidths(graph::CallGraph(P).graph());
    expectValidWidths(graph::BindingGraph(P).graph());
  }
}

TEST(LevelSchedule, KnownShapes) {
  // Deep chain: one component per level, so the level count is the chain
  // length (+1 for main).
  {
    Program P = synth::makeChainProgram(100, 2);
    graph::CallGraph CG(P);
    EXPECT_EQ(graph::levelWidths(CG.graph()),
              std::vector<std::uint32_t>(P.numProcs(), 1));
    expectValidWidths(CG.graph());
  }
  // Cycle: the whole chain collapses into one SCC; two levels (main above
  // the cycle component).
  {
    Program P = synth::makeCycleProgram(100, 2);
    graph::CallGraph CG(P);
    EXPECT_EQ(graph::computeSccs(CG.graph()).numSccs(), 2u);
    EXPECT_EQ(graph::levelWidths(CG.graph()),
              (std::vector<std::uint32_t>{1, 1}));
    expectValidWidths(CG.graph());
  }
  // A larger random program with recursion: nontrivial SCCs on several
  // levels.
  {
    synth::ProgramGenConfig Cfg;
    Cfg.Seed = 3;
    Cfg.NumProcs = 400;
    Cfg.NumGlobals = 16;
    Program P = synth::generateProgram(Cfg);
    expectValidWidths(graph::CallGraph(P).graph());
    expectValidWidths(graph::BindingGraph(P).graph());
  }
}

//===----------------------------------------------------------------------===//
// The differential suite proper.
//===----------------------------------------------------------------------===//

/// Compares the condensation GMOD kernel against the reference solvers
/// and the iterative oracle, for one kind, per procedure (bit-for-bit).
/// The analyzer, whichever kernel its shape picks, must agree too.
void expectParallelMatches(const Program &P, EffectKind Kind,
                           const std::string &Context) {
  AnalyzerOptions RefOpts;
  RefOpts.Kind = Kind;
  // Naming the algorithm pins the reference kernel whatever the shape.
  RefOpts.Algorithm = P.maxProcLevel() <= 1
                          ? AnalyzerOptions::GModAlgorithm::FindGMod
                          : AnalyzerOptions::GModAlgorithm::MultiLevelCombined;
  SideEffectAnalyzer Ref(P, RefOpts);
  ASSERT_EQ(Ref.kernel(), PassKernel::Reference);
  GModResult Oracle = testmatrix::allSolverEngines().front().Solve(P, Kind);
  GModResult GMod = testmatrix::detail::solveByLevels(P, Kind);

  AnalyzerOptions Opts;
  Opts.Kind = Kind;
  SideEffectAnalyzer An(P, Opts);
  for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
    EXPECT_EQ(GMod.GMod[I], Ref.gmod(ProcId(I)))
        << Context << " proc " << P.name(ProcId(I));
    EXPECT_EQ(GMod.GMod[I], Oracle.GMod[I])
        << Context << " vs oracle, proc " << P.name(ProcId(I));
    EXPECT_EQ(An.gmod(ProcId(I)), Ref.gmod(ProcId(I)))
        << Context << " analyzer, proc " << P.name(ProcId(I));
    if (::testing::Test::HasFailure())
      return; // One divergence produces enough output.
  }
}

struct DiffShape {
  const char *Name;
  synth::ProgramGenConfig Base;
};

const DiffShape DiffShapes[] = {
    {"TwoLevelSmall",
     [] {
       synth::ProgramGenConfig C;
       C.NumProcs = 8;
       C.NumGlobals = 3;
       C.MaxFormals = 3;
       return C;
     }()},
    {"TwoLevelDense",
     [] {
       synth::ProgramGenConfig C;
       C.NumProcs = 30;
       C.NumGlobals = 8;
       C.MaxCallsPerProc = 6;
       C.ModDensityPct = 50;
       return C;
     }()},
    {"Dag",
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

TEST(ParallelDifferential, RandomPrograms) {
  // 6 shapes × 17 seeds = 102 programs, each checked for MOD and USE
  // against the reference solvers and the oracle.
  const std::uint64_t Base = testseed::baseSeed(1);
  for (const DiffShape &Shape : DiffShapes)
    for (std::uint64_t Seed = Base; Seed != Base + 17; ++Seed) {
      synth::ProgramGenConfig Cfg = Shape.Base;
      Cfg.Seed = Seed;
      Program P = graph::eliminateUnreachable(synth::generateProgram(Cfg));
      std::string Context =
          std::string(Shape.Name) + " seed " + std::to_string(Seed);
      for (EffectKind Kind : {EffectKind::Mod, EffectKind::Use})
        expectParallelMatches(P, Kind, Context);
      ASSERT_FALSE(::testing::Test::HasFailure()) << Context;
    }
}

TEST(ParallelDifferential, GiantScc) {
  // All procedures in one strongly connected component: two components in
  // all, one of them giant; the representative fast path must produce
  // the exact fixpoint.
  Program Cycle = synth::makeCycleProgram(64, 2);
  for (EffectKind Kind : {EffectKind::Mod, EffectKind::Use})
    expectParallelMatches(Cycle, Kind, "cycle-64");

  // Complete call graph over 12 procedures (denser than a simple cycle).
  ProgramBuilder B;
  ProcId Main = B.createMain("m");
  std::vector<VarId> G;
  std::vector<ProcId> Procs;
  for (unsigned I = 0; I != 12; ++I)
    G.push_back(B.addGlobal("g" + std::to_string(I)));
  for (unsigned I = 0; I != 12; ++I)
    Procs.push_back(B.createProc("p" + std::to_string(I), Main));
  for (unsigned I = 0; I != 12; ++I) {
    StmtId S = B.addStmt(Procs[I]);
    B.addMod(S, G[I]);
    B.addUse(S, G[(I + 1) % 12]);
    for (unsigned J = 0; J != 12; ++J)
      if (I != J)
        B.addCallStmt(Procs[I], Procs[J], {});
  }
  B.addCallStmt(Main, Procs[0], {});
  Program Complete = B.finish();
  for (EffectKind Kind : {EffectKind::Mod, EffectKind::Use})
    expectParallelMatches(Complete, Kind, "complete-12");
}

TEST(ParallelDifferential, DeepChain) {
  // Worst-case level count: every component is its own level.
  Program P = synth::makeChainProgram(400, 2);
  for (EffectKind Kind : {EffectKind::Mod, EffectKind::Use})
    expectParallelMatches(P, Kind, "chain-400");
}

TEST(ParallelDifferential, WideStar) {
  // One wide level: main calls 300 leaves, and level 0 carries all of
  // them.
  ProgramBuilder B;
  ProcId Main = B.createMain("m");
  VarId G0 = B.addGlobal("a");
  VarId G1 = B.addGlobal("b");
  for (unsigned I = 0; I != 300; ++I) {
    ProcId Pp = B.createProc("p" + std::to_string(I), Main);
    StmtId S = B.addStmt(Pp);
    B.addMod(S, I % 2 ? G0 : G1);
    B.addUse(S, I % 3 ? G1 : G0);
    B.addCallStmt(Main, Pp, {});
  }
  Program P = B.finish();

  EXPECT_EQ(graph::levelWidths(graph::CallGraph(P).graph()),
            (std::vector<std::uint32_t>{300, 1}));

  for (EffectKind Kind : {EffectKind::Mod, EffectKind::Use})
    expectParallelMatches(P, Kind, "star-300");
}

//===----------------------------------------------------------------------===//
// The kernel choice: made from the program alone.
//===----------------------------------------------------------------------===//

/// A wide two-level program: four layers of 160 procedures over a
/// 21-word universe, so every layer's width × words (3360) clears the
/// kernel-choice bar.
Program makeWideProgram() {
  return synth::makeLayeredProgram(4, 160, 3, 2, 64, 7);
}

TEST(KernelChoice, WideLevelDecision) {
  EXPECT_FALSE(isWideLevel(1, 1 << 20)); // One task: nothing to spread.
  EXPECT_FALSE(isWideLevel(100, 1));     // 100 words: below the bar.
  EXPECT_TRUE(isWideLevel(100, 32));     // 3200 words: clears it.
  EXPECT_TRUE(isWideLevel(2048, 1));     // Many tiny tasks still add up.
}

TEST(KernelChoice, ShapePicksTheKernel) {
  struct Case {
    const char *Name;
    Program P;
    PassKernel Expected;
  };
  std::vector<Case> Cases;
  Cases.push_back({"wide", makeWideProgram(), PassKernel::Condensation});
  // No level has two components of any weight: a chain has one per
  // level, a cycle collapses into one SCC, and a small program cannot
  // fill the bar at all.
  Cases.push_back(
      {"chain", synth::makeChainProgram(3000, 3), PassKernel::Reference});
  Cases.push_back(
      {"cycle", synth::makeCycleProgram(3000, 2), PassKernel::Reference});
  Cases.push_back({"small", synth::makeFortranStyleProgram(40, 8, 3, 7),
                   PassKernel::Reference});
  for (const Case &C : Cases) {
    EXPECT_EQ(ProgramShape(C.P).Kernel, C.Expected) << C.Name;
    EXPECT_EQ(SideEffectAnalyzer(C.P).kernel(), C.Expected) << C.Name;
  }

  // Naming a GMOD algorithm pins the reference kernel.
  Program Wide = makeWideProgram();
  AnalyzerOptions Pinned;
  Pinned.Algorithm = AnalyzerOptions::GModAlgorithm::FindGMod;
  EXPECT_EQ(SideEffectAnalyzer(Wide, Pinned).kernel(), PassKernel::Reference);
}

//===----------------------------------------------------------------------===//
// Against the eagerly driven demand engine, after replayed edits.
//===----------------------------------------------------------------------===//

Program makeSessionShape(unsigned Shape, std::uint64_t Seed) {
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

TEST(ParallelDifferential, MatchesEagerDemandAfterReplayedEdits) {
  // 5 shapes × 6 seeds, 10 random edits each (all delta kinds enabled):
  // the stateful engine's delta-maintained results and a fresh solve of
  // the edited program by the condensation GMOD kernel must coincide
  // bit-for-bit.
  const std::uint64_t Base = testseed::baseSeed(1);
  for (unsigned Shape = 0; Shape != 5; ++Shape)
    for (std::uint64_t Seed = Base; Seed != Base + 6; ++Seed) {
      demand::DemandSession S(makeSessionShape(Shape, Seed));
      S.ensureSolvedAll();
      synth::EditGenConfig Cfg;
      Cfg.Seed = Seed * 977 + Shape;
      synth::EditGen Gen(Cfg);
      for (unsigned I = 0; I != 10; ++I) {
        std::optional<incremental::Edit> E = Gen.next(S.program());
        if (!E)
          break;
        demand::applyEdit(S, *E);
        S.ensureSolvedAll();
      }

      std::string Context = "session shape " + std::to_string(Shape) +
                            " seed " + std::to_string(Seed);
      for (EffectKind Kind : {EffectKind::Mod, EffectKind::Use}) {
        GModResult Levels =
            testmatrix::detail::solveByLevels(S.program(), Kind);
        for (std::uint32_t I = 0; I != S.program().numProcs(); ++I)
          EXPECT_EQ(Levels.GMod[I], S.gmod(ProcId(I), Kind))
              << Context << " proc " << I;
      }
      ASSERT_FALSE(::testing::Test::HasFailure()) << Context;
    }
}

/// The stateful engine's batch ceiling runs the batch analyzer's dispatch
/// (analysis::solvePasses); on a wide program that is the condensation
/// kernel, and its planes must equal the facade's batch analysis with
/// Threads = 4 — on a cold open and again after a universe edit resets
/// the memo.
TEST(ParallelDifferential, DemandBatchPathMatchesLaneAnalyzers) {
  demand::DemandSession S(makeWideProgram());
  auto expectMatchesK4 = [&](const char *When) {
    S.ensureSolvedAll();
    const Program &P = S.program();
    ipse::AnalysisOptions Opts;
    Opts.Threads = 4;
    ipse::Analysis K4 = ipse::Analyzer(Opts).analyze(P);
    for (EffectKind Kind : {EffectKind::Mod, EffectKind::Use})
      for (std::uint32_t I = 0; I != P.numProcs(); ++I)
        EXPECT_EQ(S.gmod(ProcId(I), Kind), K4.gmod(ProcId(I), Kind))
            << When << " " << I;
  };
  expectMatchesK4("initial");
  EXPECT_EQ(S.stats().BatchSolves, 2u);

  // A universe edit drops the memo; re-covering takes the batch path.
  VarId G = S.addGlobal("fresh_g");
  StmtId T = S.addStmt(S.program().main());
  S.addMod(T, G);
  expectMatchesK4("after universe edit");
  EXPECT_EQ(S.stats().BatchSolves, 4u);
}

//===----------------------------------------------------------------------===//
// Determinism: byte-identical reports at every Threads value and kernel.
//===----------------------------------------------------------------------===//

TEST(ParallelDeterminism, ReportsAreByteIdenticalAcrossThreadCounts) {
  std::vector<std::pair<std::string, Program>> Cases;
  Cases.emplace_back("fortran", synth::makeFortranStyleProgram(60, 24, 3, 11));
  Cases.emplace_back("nested", synth::makeNestedProgram(4, 3, 2));
  Cases.emplace_back("cycle", synth::makeCycleProgram(24, 2));
  Cases.emplace_back("chain", synth::makeChainProgram(50, 2));
  Cases.emplace_back("wide", makeWideProgram());
  {
    synth::ProgramGenConfig Cfg;
    Cfg.Seed = 5;
    Cfg.NumProcs = 20;
    Cfg.NumGlobals = 5;
    Cfg.MaxNestDepth = 3;
    Cases.emplace_back("random", synth::generateProgram(Cfg));
  }

  ReportOptions Options;
  Options.IncludeRMod = true;
  for (const auto &[Name, P] : Cases) {
    // The reference kernel's text, pinned by naming the GMOD algorithm.
    AnalyzerOptions ModOpts, UseOpts;
    ModOpts.Algorithm = UseOpts.Algorithm =
        P.maxProcLevel() <= 1
            ? AnalyzerOptions::GModAlgorithm::FindGMod
            : AnalyzerOptions::GModAlgorithm::MultiLevelCombined;
    UseOpts.Kind = EffectKind::Use;
    SideEffectAnalyzer RefMod(P, ModOpts), RefUse(P, UseOpts);
    const std::string Ref = renderReport(P, Options, RefMod, &RefUse);
    for (unsigned K : ThreadCounts) {
      // Two runs per Threads value: equal to the reference text AND to
      // each other.
      ipse::AnalysisOptions Opts;
      Opts.Threads = K;
      const ipse::Analyzer An(Opts);
      EXPECT_EQ(An.report(P, Options).Output, Ref) << Name << " K=" << K;
      EXPECT_EQ(An.report(P, Options).Output, Ref)
          << Name << " K=" << K << " (second run)";
    }
  }
}

//===----------------------------------------------------------------------===//
// Op accounting is exact and independent of Threads.
//===----------------------------------------------------------------------===//

/// Word operations of one MOD analysis with AnalysisOptions::Threads
/// set to \p Threads.
std::uint64_t analyzerWords(const Program &P, unsigned Threads) {
  ipse::AnalysisOptions Opts;
  Opts.Threads = Threads;
  Opts.TrackUse = false;
  OpCountScope Scope;
  ipse::Analysis An = ipse::Analyzer(Opts).analyze(P);
  const std::uint64_t Words = Scope.delta();
  EXPECT_TRUE(An.gmod(P.main()).any());
  return Words;
}

TEST(ParallelOpCounts, WordCountsAreExactAndThreadCountInvariant) {
  // The kernel is chosen from the program alone and every solver is
  // deterministic, so the measured word count must be the same at every
  // Threads value — a Threads-dependent path would show up as a diff
  // here.
  Program P = synth::makeFortranStyleProgram(300, 64, 3, 7);
  std::vector<std::uint64_t> Deltas;
  for (unsigned K : ThreadCounts)
    Deltas.push_back(analyzerWords(P, K));
  ASSERT_EQ(Deltas.size(), 4u);
  EXPECT_GT(Deltas[0], 0u);
  for (std::size_t I = 1; I != Deltas.size(); ++I)
    EXPECT_EQ(Deltas[I], Deltas[0])
        << "word count differs between K=1 and K=" << ThreadCounts[I];
}

TEST(ParallelOpCounts, WideProgramWordCountsAreThreadCountInvariant) {
  // A program that takes the condensation kernel: the analyzer's word
  // count is the same at every Threads value.
  Program P = makeWideProgram();
  ASSERT_EQ(SideEffectAnalyzer(P).kernel(), PassKernel::Condensation);
  std::vector<std::uint64_t> Deltas;
  for (unsigned K : ThreadCounts)
    Deltas.push_back(analyzerWords(P, K));
  EXPECT_GT(Deltas[0], 0u);
  for (std::size_t I = 1; I != Deltas.size(); ++I)
    EXPECT_EQ(Deltas[I], Deltas[0])
        << "word count differs between K=1 and K=" << ThreadCounts[I];
}

} // namespace

IPSE_SEEDED_TEST_MAIN()
