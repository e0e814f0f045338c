//===- tests/parallel_test.cpp - Condensation kernels and lanes ---------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
//
// The differential harness for the condensation kernels
// (analysis/LevelSolvers.h) and the batch analyzer's lane count: on
// randomized programs across shapes × {MOD, USE}, the kernels — inline and
// fanned out on pools of 2, 4 and 8 lanes with the fan-out bar at 0 — must
// be bit-for-bit equal to the reference solvers and the iterative oracle,
// and to the eagerly driven demand engine after replayed edits.  Plus the kernel
// choice (made from the program alone), determinism (byte-identical
// reports at every lane count), exact op accounting under threads, and
// the ThreadPool/LevelSchedule invariants everything above rests on.
//
// Adversarial shapes: a single giant SCC (level scheduling degenerates to
// one task — the representative fast path must still beat Gauss–Seidel),
// a deep chain (worst-case level count: one component per level), and a
// wide star (one level carrying all the fan-out).
//
//===----------------------------------------------------------------------===//

#include "analysis/LevelSolvers.h"
#include "analysis/Report.h"
#include "analysis/SideEffectAnalyzer.h"
#include "graph/LevelSchedule.h"
#include "graph/Reachability.h"
#include "demand/DemandSession.h"
#include "ir/ProgramBuilder.h"
#include "support/ThreadPool.h"
#include "synth/EditGen.h"
#include "synth/ProgramGen.h"

#include "SolverMatrix.h"
#include "TestSeed.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace ipse;
using namespace ipse::analysis;
using namespace ipse::ir;

namespace {

constexpr unsigned ThreadCounts[] = {1, 2, 4, 8};

//===----------------------------------------------------------------------===//
// ThreadPool: the scheduling substrate.
//===----------------------------------------------------------------------===//

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (unsigned K : ThreadCounts) {
    ThreadPool Pool(K);
    EXPECT_EQ(Pool.threads(), K == 0 ? 1 : K);
    for (std::size_t N : {std::size_t(0), std::size_t(1), std::size_t(7),
                          std::size_t(1000)}) {
      std::vector<std::atomic<unsigned>> Hits(N);
      Pool.parallelFor(N, [&](std::size_t I) {
        Hits[I].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t I = 0; I != N; ++I)
        EXPECT_EQ(Hits[I].load(), 1u) << "K=" << K << " N=" << N << " I=" << I;
    }
  }
}

TEST(ThreadPool, BatchLargerThanQueueCapacity) {
  // The internal queue holds 1024 entries; a larger batch forces the
  // producer onto its help-while-full path.
  ThreadPool Pool(4);
  constexpr std::size_t N = 5000;
  std::atomic<std::size_t> Sum{0};
  Pool.parallelFor(N, [&](std::size_t I) {
    Sum.fetch_add(I + 1, std::memory_order_relaxed);
  });
  EXPECT_EQ(Sum.load(), N * (N + 1) / 2);
}

TEST(ThreadPool, ReusableAcrossManyBatches) {
  ThreadPool Pool(3);
  std::atomic<std::size_t> Total{0};
  for (unsigned Round = 0; Round != 50; ++Round)
    Pool.parallelFor(Round, [&](std::size_t) {
      Total.fetch_add(1, std::memory_order_relaxed);
    });
  EXPECT_EQ(Total.load(), std::size_t(50 * 49 / 2));
}

//===----------------------------------------------------------------------===//
// LevelSchedule: the correctness invariant of the whole engine.
//===----------------------------------------------------------------------===//

/// Every cross-component edge must point from a strictly higher level to a
/// lower one, and the buckets must partition the components.  Checked on
/// both graphs the engine schedules: the call graph and β.
void expectValidSchedule(const graph::Digraph &G) {
  graph::SccDecomposition Sccs = graph::computeSccs(G);
  graph::LevelSchedule S = graph::computeLevelSchedule(G, Sccs);

  // levelWidths counts the same buckets without building them.
  std::vector<std::uint32_t> Widths = graph::levelWidths(G);
  ASSERT_EQ(Widths.size(), S.numLevels());
  for (std::size_t L = 0; L != S.numLevels(); ++L)
    EXPECT_EQ(Widths[L], S.level(L).size()) << "level " << L;

  ASSERT_EQ(S.LevelOf.size(), Sccs.numSccs());
  std::size_t Bucketed = 0;
  for (std::size_t L = 0; L != S.numLevels(); ++L)
    for (std::uint32_t C : S.level(L)) {
      EXPECT_EQ(S.LevelOf[C], L);
      ++Bucketed;
    }
  EXPECT_EQ(Bucketed, Sccs.numSccs());

  for (std::uint32_t N = 0; N != G.numNodes(); ++N)
    for (const graph::Adjacency &A : G.succs(graph::NodeId(N))) {
      std::uint32_t CU = Sccs.SccOf[N], CV = Sccs.SccOf[A.Dst];
      if (CU != CV) {
        EXPECT_GT(S.LevelOf[CU], S.LevelOf[CV])
            << "cross edge " << N << " -> " << A.Dst
            << " does not descend a level";
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
    expectValidSchedule(graph::CallGraph(P).graph());
    expectValidSchedule(graph::BindingGraph(P).graph());
  }
}

TEST(LevelSchedule, KnownShapes) {
  // Deep chain: one component per level, so the level count is the chain
  // length (+1 for main) — the worst case for barrier overhead.
  {
    Program P = synth::makeChainProgram(100, 2);
    graph::CallGraph CG(P);
    graph::SccDecomposition Sccs = graph::computeSccs(CG.graph());
    graph::LevelSchedule S = graph::computeLevelSchedule(CG.graph(), Sccs);
    EXPECT_EQ(S.numLevels(), P.numProcs());
    for (std::size_t L = 0; L != S.numLevels(); ++L)
      EXPECT_EQ(S.level(L).size(), 1u);
    expectValidSchedule(CG.graph());
  }
  // Cycle: the whole chain collapses into one SCC; two levels (main above
  // the cycle component).
  {
    Program P = synth::makeCycleProgram(100, 2);
    graph::CallGraph CG(P);
    graph::SccDecomposition Sccs = graph::computeSccs(CG.graph());
    graph::LevelSchedule S = graph::computeLevelSchedule(CG.graph(), Sccs);
    EXPECT_EQ(Sccs.numSccs(), 2u);
    EXPECT_EQ(S.numLevels(), 2u);
    expectValidSchedule(CG.graph());
  }
  // A larger random program with recursion: nontrivial SCCs on several
  // levels.
  {
    synth::ProgramGenConfig Cfg;
    Cfg.Seed = 3;
    Cfg.NumProcs = 400;
    Cfg.NumGlobals = 16;
    Program P = synth::generateProgram(Cfg);
    expectValidSchedule(graph::CallGraph(P).graph());
    expectValidSchedule(graph::BindingGraph(P).graph());
  }
}

//===----------------------------------------------------------------------===//
// The differential suite proper.
//===----------------------------------------------------------------------===//

/// Compares the condensation kernels — inline, then on pools of every
/// lane count with the fan-out bar at 0 so even these tiny programs fan
/// out every level of two or more components — against the reference
/// solvers and the iterative oracle, for one kind: the RMOD bit set and
/// the RMOD solver's boolean step count (Figure 1 by level performs
/// *exactly* the reference kernel's steps), IMOD+ and GMOD per procedure
/// (bit-for-bit).  The analyzer at each lane count must agree too.
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

  VarMasks Masks(P);
  graph::CallGraph CG(P);
  graph::BindingGraph BG(P);
  LocalEffects Local(P, Masks, Kind);
  const EffectSet Formals = formalBits(P, Local);

  for (unsigned K : ThreadCounts) {
    std::optional<ThreadPool> Pool;
    if (K > 1)
      Pool.emplace(K);
    ThreadPool *Lanes = Pool ? &*Pool : nullptr;
    RModResult RMod = solveRModLevels(P, BG, Formals, Lanes, 0);
    std::vector<EffectSet> Plus =
        computeIModPlusLevels(P, Local, RMod.ModifiedFormals, Lanes, 0);
    GModResult GMod = solveGModLevels(P, CG, Masks, Plus, Lanes, nullptr, 0);

    EXPECT_EQ(RMod.ModifiedFormals, Ref.rmodResult().ModifiedFormals)
        << Context << " K=" << K;
    EXPECT_EQ(RMod.BooleanSteps, Ref.rmodResult().BooleanSteps)
        << Context << " K=" << K;
    AnalyzerOptions Opts;
    Opts.Kind = Kind;
    SideEffectAnalyzer An(P, Opts, K);
    for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
      EXPECT_EQ(Plus[I], Ref.imodPlus(ProcId(I)))
          << Context << " K=" << K << " proc " << P.name(ProcId(I));
      EXPECT_EQ(GMod.GMod[I], Ref.gmod(ProcId(I)))
          << Context << " K=" << K << " proc " << P.name(ProcId(I));
      EXPECT_EQ(GMod.GMod[I], Oracle.GMod[I])
          << Context << " K=" << K << " vs oracle, proc "
          << P.name(ProcId(I));
      EXPECT_EQ(An.gmod(ProcId(I)), Ref.gmod(ProcId(I)))
          << Context << " analyzer K=" << K << " proc " << P.name(ProcId(I));
    }
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
  // 6 shapes × 17 seeds = 102 programs, each checked for MOD and USE at
  // lane counts 1/2/4/8 against the reference solvers and the oracle.
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
  // All procedures in one strongly connected component: the schedule has
  // two levels and a single wide task; the representative fast path must
  // produce the exact fixpoint.
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
  // Worst-case level count: every component is its own level, so the
  // schedule degenerates to a sequential sweep with one task per barrier.
  Program P = synth::makeChainProgram(400, 2);
  for (EffectKind Kind : {EffectKind::Mod, EffectKind::Use})
    expectParallelMatches(P, Kind, "chain-400");
}

TEST(ParallelDifferential, WideStar) {
  // One-level fan-out: main calls 300 leaves; level 0 carries all of them
  // concurrently.
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

  VarMasks Masks(P);
  graph::CallGraph CG(P);
  LocalEffects Local(P, Masks, EffectKind::Mod);
  std::vector<EffectSet> Plus =
      computeIModPlus(P, Local, solveRMod(P, graph::BindingGraph(P), Local));
  ThreadPool Pool(4);
  LevelStats Stats;
  solveGModLevels(P, CG, Masks, Plus, &Pool, &Stats, 0);
  EXPECT_EQ(Stats.Levels, 2u);
  EXPECT_EQ(Stats.WidestLevel, 300u);
  EXPECT_EQ(Stats.FanoutLevels, 1u); // The leaves; main's level is width 1.

  for (EffectKind Kind : {EffectKind::Mod, EffectKind::Use})
    expectParallelMatches(P, Kind, "star-300");
}

//===----------------------------------------------------------------------===//
// The kernel choice: made from the program alone, never from the lanes.
//===----------------------------------------------------------------------===//

/// A wide two-level program: four layers of 160 procedures over a
/// 21-word universe, so every layer's width × words (3360) clears the
/// fan-out bar.
Program makeWideProgram() {
  return synth::makeLayeredProgram(4, 160, 3, 2, 64, 7);
}

TEST(KernelChoice, WideLevelDecision) {
  EXPECT_FALSE(isWideLevel(1, 1 << 20)); // One task: nothing to spread.
  EXPECT_FALSE(isWideLevel(100, 1));     // 100 words: below the bar.
  EXPECT_TRUE(isWideLevel(100, 32));     // 3200 words: clears it.
  EXPECT_TRUE(isWideLevel(2048, 1));     // Many tiny tasks still add up.
  EXPECT_TRUE(isWideLevel(2, 1, 0));     // Bar at 0: any two tasks.
  EXPECT_FALSE(isWideLevel(1, 1, 0));
}

TEST(KernelChoice, ShapePicksTheKernelAndLanesNever) {
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
    EXPECT_EQ(chooseKernel(C.P, graph::CallGraph(C.P)), C.Expected) << C.Name;
    for (unsigned K : ThreadCounts) {
      SideEffectAnalyzer An(C.P, AnalyzerOptions(), K);
      EXPECT_EQ(An.kernel(), C.Expected) << C.Name << " K=" << K;
    }
  }

  // Naming a GMOD algorithm pins the reference kernel.
  Program Wide = makeWideProgram();
  AnalyzerOptions Pinned;
  Pinned.Algorithm = AnalyzerOptions::GModAlgorithm::FindGMod;
  EXPECT_EQ(SideEffectAnalyzer(Wide, Pinned, 4).kernel(),
            PassKernel::Reference);
}

TEST(KernelChoice, InlineAndFannedOutRunsAgreeBitForBit) {
  // A layered program with the bar at 0: on the pool every level of two
  // or more components fans out, inline none does; the planes must be
  // identical and the stats must account for every level.
  Program P = synth::makeLayeredProgram(6, 20, 3, 3, 5, 11);
  VarMasks Masks(P);
  graph::CallGraph CG(P);
  graph::BindingGraph BG(P);
  LocalEffects Local(P, Masks, EffectKind::Mod);
  std::vector<EffectSet> Plus =
      computeIModPlus(P, Local, solveRMod(P, BG, Local));

  ThreadPool Pool(4);
  LevelStats Fanned, Inline;
  GModResult A = solveGModLevels(P, CG, Masks, Plus, &Pool, &Fanned, 0);
  GModResult B = solveGModLevels(P, CG, Masks, Plus, nullptr, &Inline, 0);
  EXPECT_GT(Fanned.FanoutLevels, 0u);
  EXPECT_LE(Fanned.FanoutLevels, Fanned.Levels);
  EXPECT_EQ(Inline.FanoutLevels, 0u);
  EXPECT_EQ(Inline.Levels, Fanned.Levels);
  for (std::uint32_t I = 0; I != P.numProcs(); ++I)
    EXPECT_EQ(A.GMod[I], B.GMod[I])
        << "placement-dependent answer at proc " << P.name(ProcId(I));
}

TEST(ThreadPool, AvailableLanesFollowsTheAffinityMask) {
  // At least one lane, and never more than the machine has; under
  // `taskset -c 0` it is exactly 1, which is how CI covers the one-lane
  // path of every test here.
  const unsigned Lanes = availableLanes();
  EXPECT_GE(Lanes, 1u);
  EXPECT_LE(Lanes, std::max(1u, std::thread::hardware_concurrency()));
}

TEST(ThreadPool, ChunkedClaimingCoversAllIndices) {
  // Batch sizes around the chunk geometry (one chunk per lane and a
  // quarter, ragged last chunks, one index per chunk): every index must
  // run exactly once.
  ThreadPool Pool(4);
  for (std::size_t N : {std::size_t(2), std::size_t(15), std::size_t(16),
                        std::size_t(17), std::size_t(193)}) {
    std::vector<std::atomic<unsigned>> Hits(N);
    Pool.parallelFor(N, [&](std::size_t I) { Hits[I].fetch_add(1); });
    for (std::size_t I = 0; I != N; ++I)
      EXPECT_EQ(Hits[I].load(), 1u) << "batch " << N << " index " << I;
  }
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
  // the edited program by the condensation kernels — inline and on a
  // 4-lane pool with the bar at 0 — must coincide bit-for-bit.
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
      for (ThreadPool *Pool : {(ThreadPool *)nullptr,
                               &testmatrix::detail::sharedPool()}) {
        for (EffectKind Kind : {EffectKind::Mod, EffectKind::Use}) {
          GModResult Levels =
              testmatrix::detail::solveByLevels(S.program(), Kind, Pool);
          for (std::uint32_t I = 0; I != S.program().numProcs(); ++I)
            EXPECT_EQ(Levels.GMod[I], S.gmod(ProcId(I), Kind))
                << Context << (Pool ? " pool" : " inline") << " proc " << I;
        }
      }
      ASSERT_FALSE(::testing::Test::HasFailure()) << Context;
    }
}

/// The stateful engine's batch ceiling runs the batch analyzer's dispatch
/// (analysis::solvePasses) inline; on a wide program that is the
/// condensation kernel, and its planes must equal the 4-lane analyzer's —
/// on a cold open and again after a universe edit resets the memo.
TEST(ParallelDifferential, DemandBatchPathMatchesLaneAnalyzers) {
  demand::DemandSession S(makeWideProgram());
  auto expectMatchesK4 = [&](const char *When) {
    S.ensureSolvedAll();
    const Program &P = S.program();
    for (EffectKind Kind : {EffectKind::Mod, EffectKind::Use}) {
      analysis::AnalyzerOptions Opts;
      Opts.Kind = Kind;
      analysis::SideEffectAnalyzer K4(P, Opts, /*Lanes=*/4);
      for (std::uint32_t I = 0; I != P.numProcs(); ++I)
        EXPECT_EQ(S.gmod(ProcId(I), Kind), K4.gmod(ProcId(I)))
            << When << " " << I;
    }
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
// Determinism: byte-identical reports at every lane count and kernel.
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
      // Two runs per lane count: equal to the reference text AND to each
      // other (no dependence on scheduling whatsoever).
      EXPECT_EQ(makeReport(P, Options, K), Ref) << Name << " K=" << K;
      EXPECT_EQ(makeReport(P, Options, K), Ref)
          << Name << " K=" << K << " (second run)";
    }
  }
}

//===----------------------------------------------------------------------===//
// Op accounting stays exact under threads.
//===----------------------------------------------------------------------===//

/// Word operations of one MOD analysis at \p Lanes lanes.
std::uint64_t analyzerWords(const Program &P, unsigned Lanes) {
  OpCountScope Scope;
  SideEffectAnalyzer An(P, AnalyzerOptions(), Lanes);
  const std::uint64_t Words = Scope.delta();
  EXPECT_TRUE(An.gmod(P.main()).any());
  return Words;
}

TEST(ParallelOpCounts, WordCountsAreExactAndThreadCountInvariant) {
  // The kernel is chosen from the program alone and every per-component
  // kernel is deterministic; the barrier orders all counted operations
  // before the scope is read, so the measured word count must be the same
  // at every lane count — a sampling race or a lost per-thread counter
  // would show up as a diff here (TSan runs this too).
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

TEST(ParallelOpCounts, WideProgramFansOutWithExactWordCounts) {
  // A program that takes the condensation kernel: the analyzer's word
  // count is the same at every lane count, and the GMOD kernel run
  // directly on a K-lane pool at the default bar really fans out for
  // K >= 2 — with exactly the inline run's word count.
  Program P = makeWideProgram();
  ASSERT_EQ(SideEffectAnalyzer(P).kernel(), PassKernel::Condensation);
  std::vector<std::uint64_t> Deltas;
  for (unsigned K : ThreadCounts)
    Deltas.push_back(analyzerWords(P, K));
  EXPECT_GT(Deltas[0], 0u);
  for (std::size_t I = 1; I != Deltas.size(); ++I)
    EXPECT_EQ(Deltas[I], Deltas[0])
        << "word count differs between K=1 and K=" << ThreadCounts[I];

  VarMasks Masks(P);
  graph::CallGraph CG(P);
  LocalEffects Local(P, Masks, EffectKind::Mod);
  std::vector<EffectSet> Plus =
      computeIModPlus(P, Local, solveRMod(P, graph::BindingGraph(P), Local));
  std::uint64_t InlineWords = 0;
  for (unsigned K : ThreadCounts) {
    std::optional<ThreadPool> Pool;
    if (K > 1)
      Pool.emplace(K);
    LevelStats Stats;
    OpCountScope Scope;
    solveGModLevels(P, CG, Masks, Plus, Pool ? &*Pool : nullptr, &Stats);
    const std::uint64_t Words = Scope.delta();
    if (K == 1) {
      InlineWords = Words;
      EXPECT_EQ(Stats.FanoutLevels, 0u);
    } else {
      EXPECT_GT(Stats.FanoutLevels, 0u) << "K=" << K;
      EXPECT_EQ(Words, InlineWords) << "K=" << K;
    }
  }
}

} // namespace

IPSE_SEEDED_TEST_MAIN()
