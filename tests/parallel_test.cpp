//===- tests/parallel_test.cpp - Parallel engine differential harness ---------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
//
// The differential harness for the level-scheduled parallel batch engine:
// on randomized programs across shapes × {MOD, USE} × thread counts
// {1, 2, 4, 8}, the parallel engine must be bit-for-bit equal to the
// sequential SideEffectAnalyzer, the iterative oracle, and the incremental
// session after replayed edits — plus determinism (byte-identical reports
// at every thread count), exact op accounting under threads, and the
// ThreadPool/LevelSchedule invariants everything above rests on.
//
// Adversarial shapes: a single giant SCC (level scheduling degenerates to
// one task — the representative fast path must still beat Gauss–Seidel),
// a deep chain (worst-case level count: one component per level), and a
// wide star (one level carrying all the fan-out).
//
//===----------------------------------------------------------------------===//

#include "analysis/Report.h"
#include "analysis/SideEffectAnalyzer.h"
#include "graph/Reachability.h"
#include "incremental/AnalysisSession.h"
#include "ir/ProgramBuilder.h"
#include "parallel/LevelSchedule.h"
#include "parallel/ParallelAnalyzer.h"
#include "parallel/ParallelReport.h"
#include "parallel/ThreadPool.h"
#include "synth/EditGen.h"
#include "synth/ProgramGen.h"

#include "SolverMatrix.h"
#include "TestSeed.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
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
    parallel::ThreadPool Pool(K);
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
  parallel::ThreadPool Pool(4);
  constexpr std::size_t N = 5000;
  std::atomic<std::size_t> Sum{0};
  Pool.parallelFor(N, [&](std::size_t I) {
    Sum.fetch_add(I + 1, std::memory_order_relaxed);
  });
  EXPECT_EQ(Sum.load(), N * (N + 1) / 2);
}

TEST(ThreadPool, ReusableAcrossManyBatches) {
  parallel::ThreadPool Pool(3);
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
  parallel::LevelSchedule S = parallel::computeLevelSchedule(G, Sccs);

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
      if (CU != CV)
        EXPECT_GT(S.LevelOf[CU], S.LevelOf[CV])
            << "cross edge " << N << " -> " << A.Dst
            << " does not descend a level";
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
    parallel::LevelSchedule S = parallel::computeLevelSchedule(CG.graph(), Sccs);
    EXPECT_EQ(S.numLevels(), P.numProcs());
    for (std::size_t L = 0; L != S.numLevels(); ++L)
      EXPECT_EQ(S.level(L).size(), 1u);
  }
  // Cycle: the whole chain collapses into one SCC; two levels (main above
  // the cycle component).
  {
    Program P = synth::makeCycleProgram(100, 2);
    graph::CallGraph CG(P);
    graph::SccDecomposition Sccs = graph::computeSccs(CG.graph());
    parallel::LevelSchedule S = parallel::computeLevelSchedule(CG.graph(), Sccs);
    EXPECT_EQ(Sccs.numSccs(), 2u);
    EXPECT_EQ(S.numLevels(), 2u);
  }
}

//===----------------------------------------------------------------------===//
// The differential suite proper.
//===----------------------------------------------------------------------===//

/// Compares the parallel engine at every thread count against the
/// sequential SideEffectAnalyzer and the iterative oracle, for one kind:
/// GMOD per procedure (bit-for-bit), IMOD+ per procedure, the RMOD bit
/// set, and the RMOD solver's boolean step count (the parallel Figure 1
/// performs *exactly* the sequential kernel's steps).
void expectParallelMatches(const Program &P, EffectKind Kind,
                           const std::string &Context) {
  AnalyzerOptions SeqOpts;
  SeqOpts.Kind = Kind;
  SideEffectAnalyzer Seq(P, SeqOpts);
  GModResult Oracle = testmatrix::allSolverEngines().front().Solve(P, Kind);

  for (unsigned K : ThreadCounts) {
    parallel::ParallelAnalyzerOptions Opts;
    Opts.Kind = Kind;
    Opts.Threads = K;
    // These programs are tiny; keep the lanes real and fan out every
    // level so the differential actually exercises the parallel kernels
    // even on hosts where the adaptive policy would inline them.
    Opts.SmallProgramThreshold = 0;
    Opts.Schedule.AdaptiveFanout = false;
    parallel::ParallelAnalyzer Par(P, Opts);

    EXPECT_EQ(Par.rmodResult().ModifiedFormals,
              Seq.rmodResult().ModifiedFormals)
        << Context << " K=" << K;
    EXPECT_EQ(Par.rmodResult().BooleanSteps, Seq.rmodResult().BooleanSteps)
        << Context << " K=" << K;
    for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
      EXPECT_EQ(Par.imodPlus(ProcId(I)), Seq.imodPlus(ProcId(I)))
          << Context << " K=" << K << " proc " << P.name(ProcId(I));
      EXPECT_EQ(Par.gmod(ProcId(I)), Seq.gmod(ProcId(I)))
          << Context << " K=" << K << " proc " << P.name(ProcId(I));
      EXPECT_EQ(Par.gmod(ProcId(I)), Oracle.GMod[I])
          << Context << " K=" << K << " vs oracle, proc "
          << P.name(ProcId(I));
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
  // thread counts 1/2/4/8 against the sequential analyzer and the oracle.
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

  parallel::ParallelAnalyzerOptions Opts;
  Opts.Threads = 4;
  Opts.SmallProgramThreshold = 0;
  // Force the level schedule into existence: under the adaptive policy a
  // one-core host would take the direct sweep and report no levels.
  Opts.Schedule.AdaptiveFanout = false;
  parallel::ParallelAnalyzer An(P, Opts);
  EXPECT_EQ(An.scheduleStats().Levels, 2u);
  EXPECT_EQ(An.scheduleStats().WidestLevel, 300u);

  for (EffectKind Kind : {EffectKind::Mod, EffectKind::Use})
    expectParallelMatches(P, Kind, "star-300");
}

//===----------------------------------------------------------------------===//
// The small-program floor: K > 1 on tiny inputs is pure pool overhead
// (every benchmarked shape loses), so the owned-pool constructor clamps
// to one lane below the threshold.
//===----------------------------------------------------------------------===//

TEST(ParallelAnalyzer, SmallProgramFloorClampsOwnedPool) {
  Program P = synth::makeFortranStyleProgram(64, 16, 3, 7);
  ASSERT_LT(P.numProcs(), 4096u);

  parallel::ParallelAnalyzerOptions Opts;
  Opts.Threads = 8;
  parallel::ParallelAnalyzer Clamped(P, Opts);
  EXPECT_EQ(Clamped.threads(), 1u);

  Opts.SmallProgramThreshold = 0; // disabled: the request stands
  parallel::ParallelAnalyzer Raw(P, Opts);
  EXPECT_EQ(Raw.threads(), 8u);

  Opts.SmallProgramThreshold = 32; // program is above it: no clamp
  parallel::ParallelAnalyzer Above(P, Opts);
  EXPECT_EQ(Above.threads(), 8u);

  // Answer-invisible: clamped and raw runs agree bit for bit.
  for (std::uint32_t I = 0; I != P.numProcs(); ++I)
    EXPECT_EQ(Clamped.gmod(ProcId(I)), Raw.gmod(ProcId(I)));

  parallel::ParallelAnalyzerOptions O;
  O.Threads = 8;
  EXPECT_EQ(O.effectiveThreads(100), 1u);
  EXPECT_EQ(O.effectiveThreads(4096), 8u);
  O.SmallProgramThreshold = 0;
  EXPECT_EQ(O.effectiveThreads(1), 8u);
  O.Threads = 0;
  EXPECT_EQ(O.effectiveThreads(1), 1u);
}

//===----------------------------------------------------------------------===//
// The adaptive fan-out policy: per-level inline-vs-pool decisions are
// answer-invisible, and the decision logic itself is deterministic.
//===----------------------------------------------------------------------===//

TEST(AdaptiveSchedule, ShouldFanOutDecision) {
  parallel::ScheduleOptions S;
  S.AdaptiveFanout = true;
  S.MinFanoutTasks = 2;
  S.MinFanoutWords = 2048;

  S.HardwareLanes = 1; // one real lane: never worth a handoff
  EXPECT_FALSE(S.shouldFanOut(1000, 1000));

  S.HardwareLanes = 8;
  EXPECT_FALSE(S.shouldFanOut(1, 1 << 20)); // one task: nothing to spread
  EXPECT_FALSE(S.shouldFanOut(100, 1));     // 100 words: below the bar
  EXPECT_TRUE(S.shouldFanOut(100, 32));     // 3200 words: clears it
  EXPECT_TRUE(S.shouldFanOut(2048, 1));     // many tiny tasks still add up

  S.HardwareLanes = 0; // unknown host: fan out on faith
  EXPECT_TRUE(S.shouldFanOut(100, 32));

  S.AdaptiveFanout = false; // forced: every level fans out
  S.HardwareLanes = 1;
  EXPECT_TRUE(S.shouldFanOut(1, 1));
}

TEST(AdaptiveSchedule, ForcedAndAdaptiveRunsAgreeBitForBit) {
  // A wide two-level program large enough that per-level decisions can
  // differ between policies; both runs must produce the same planes, and
  // the stats must account every level as exactly one of fanned-out or
  // inlined.
  Program P = synth::makeLayeredProgram(6, 20, 3, 3, 5, 11);

  parallel::ParallelAnalyzerOptions Forced;
  Forced.Threads = 4;
  Forced.SmallProgramThreshold = 0;
  Forced.Schedule.AdaptiveFanout = false;
  parallel::ParallelAnalyzer ForcedAn(P, Forced);
  const auto &FS = ForcedAn.scheduleStats();
  EXPECT_EQ(FS.InlineLevels, 0u);
  EXPECT_EQ(FS.FanoutLevels, FS.Levels);

  parallel::ParallelAnalyzerOptions Lanes1;
  Lanes1.Threads = 4;
  Lanes1.SmallProgramThreshold = 0;
  Lanes1.Schedule.AdaptiveFanout = true;
  Lanes1.Schedule.HardwareLanes = 1; // adaptive floor: everything inlines
  parallel::ParallelAnalyzer InlineAn(P, Lanes1);
  const auto &IS = InlineAn.scheduleStats();
  EXPECT_EQ(IS.FanoutLevels, 0u);
  EXPECT_EQ(IS.InlineLevels, IS.Levels);

  for (std::uint32_t I = 0; I != P.numProcs(); ++I)
    EXPECT_EQ(ForcedAn.gmod(ProcId(I)), InlineAn.gmod(ProcId(I)))
        << "policy-dependent answer at proc " << P.name(ProcId(I));
}

TEST(ThreadPool, ChunkedClaimingCoversAllIndices) {
  // Explicit chunk sizes, including ones that do not divide the batch:
  // every index must run exactly once whatever the chunk geometry.
  parallel::ThreadPool Pool(4);
  for (std::size_t Chunk : {std::size_t(1), std::size_t(3), std::size_t(7),
                            std::size_t(64), std::size_t(1000)}) {
    const std::size_t N = 193;
    std::vector<std::atomic<unsigned>> Hits(N);
    Pool.parallelFor(
        N, [&](std::size_t I) { Hits[I].fetch_add(1); }, Chunk);
    for (std::size_t I = 0; I != N; ++I)
      EXPECT_EQ(Hits[I].load(), 1u) << "chunk " << Chunk << " index " << I;
  }
}

//===----------------------------------------------------------------------===//
// Against the incremental session, after replayed edits.
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

TEST(ParallelDifferential, MatchesIncrementalSessionAfterReplayedEdits) {
  // 5 shapes × 6 seeds, 10 random edits each (all tiers enabled): the
  // session's delta-maintained results and a fresh parallel solve of the
  // edited program must coincide bit-for-bit.
  const std::uint64_t Base = testseed::baseSeed(1);
  for (unsigned Shape = 0; Shape != 5; ++Shape)
    for (std::uint64_t Seed = Base; Seed != Base + 6; ++Seed) {
      incremental::AnalysisSession S(makeSessionShape(Shape, Seed));
      synth::EditGenConfig Cfg;
      Cfg.Seed = Seed * 977 + Shape;
      synth::EditGen Gen(Cfg);
      for (unsigned I = 0; I != 10; ++I) {
        std::optional<incremental::Edit> E = Gen.next(S.program());
        if (!E)
          break;
        incremental::applyEdit(S, *E);
      }
      S.flush();

      std::string Context = "session shape " + std::to_string(Shape) +
                            " seed " + std::to_string(Seed);
      for (unsigned K : {1u, 4u}) {
        for (EffectKind Kind : {EffectKind::Mod, EffectKind::Use}) {
          parallel::ParallelAnalyzerOptions Opts;
          Opts.Kind = Kind;
          Opts.Threads = K;
          Opts.SmallProgramThreshold = 0;
          parallel::ParallelAnalyzer Par(S.program(), Opts);
          for (std::uint32_t I = 0; I != S.program().numProcs(); ++I)
            EXPECT_EQ(Par.gmod(ProcId(I)), S.gmod(ProcId(I), Kind))
                << Context << " K=" << K << " proc " << I;
        }
      }
      ASSERT_FALSE(::testing::Test::HasFailure()) << Context;
    }
}

/// The session's own parallel mode (SessionOptions::Threads) must be
/// invisible in results — construction and tier-3 rebuilds run the
/// level-scheduled solvers, everything else is shared code.
TEST(ParallelDifferential, SessionThreadsOptionIsResultInvisible) {
  Program P = synth::makeNestedProgram(4, 3, 2);
  incremental::SessionOptions Par;
  Par.Threads = 4;
  incremental::AnalysisSession S4(P, Par);
  incremental::AnalysisSession S1(P);

  auto expectSessionsEqual = [&](const char *When) {
    ASSERT_EQ(S4.program().numProcs(), S1.program().numProcs());
    for (std::uint32_t I = 0; I != S1.program().numProcs(); ++I) {
      EXPECT_EQ(S4.gmod(ProcId(I)), S1.gmod(ProcId(I))) << When << " " << I;
      EXPECT_EQ(S4.guse(ProcId(I)), S1.guse(ProcId(I))) << When << " " << I;
    }
  };
  expectSessionsEqual("initial");

  // A universe edit forces the tier-3 rebuild — the parallel path.
  VarId G4 = S4.addGlobal("fresh_g");
  VarId G1 = S1.addGlobal("fresh_g");
  ASSERT_EQ(G4, G1);
  ProcId Main = S1.program().main();
  StmtId T4 = S4.addStmt(Main);
  StmtId T1 = S1.addStmt(Main);
  ASSERT_EQ(T4, T1);
  S4.addMod(T4, G4);
  S1.addMod(T1, G1);
  expectSessionsEqual("after universe edit");
  EXPECT_GE(S4.stats().FullRebuilds, 1u);
}

//===----------------------------------------------------------------------===//
// Determinism: byte-identical reports at every thread count.
//===----------------------------------------------------------------------===//

TEST(ParallelDeterminism, ReportsAreByteIdenticalAcrossThreadCounts) {
  std::vector<std::pair<std::string, Program>> Cases;
  Cases.emplace_back("fortran", synth::makeFortranStyleProgram(60, 24, 3, 11));
  Cases.emplace_back("nested", synth::makeNestedProgram(4, 3, 2));
  Cases.emplace_back("cycle", synth::makeCycleProgram(24, 2));
  Cases.emplace_back("chain", synth::makeChainProgram(50, 2));
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
    const std::string Seq = makeReport(P, Options);
    for (unsigned K : ThreadCounts) {
      // Two runs per thread count: equal to the sequential text AND to
      // each other (no dependence on scheduling whatsoever).
      EXPECT_EQ(parallel::makeReportParallel(P, Options, K), Seq)
          << Name << " K=" << K;
      EXPECT_EQ(parallel::makeReportParallel(P, Options, K), Seq)
          << Name << " K=" << K << " (second run)";
    }
  }
}

//===----------------------------------------------------------------------===//
// Op accounting stays exact under threads.
//===----------------------------------------------------------------------===//

TEST(ParallelOpCounts, WordCountsAreExactAndThreadCountInvariant) {
  // Every per-component kernel is deterministic and the barrier orders all
  // counted operations before the scope is read, so the measured word count
  // must be the same at every thread count — a sampling race or a lost
  // per-thread counter would show up as a diff here (TSan runs this too).
  Program P = synth::makeFortranStyleProgram(300, 64, 3, 7);
  std::vector<std::uint64_t> Deltas;
  for (unsigned K : ThreadCounts) {
    OpCountScope Scope;
    parallel::ParallelAnalyzerOptions Opts;
    Opts.Threads = K;
    Opts.SmallProgramThreshold = 0;
    parallel::ParallelAnalyzer An(P, Opts);
    Deltas.push_back(Scope.delta());
    EXPECT_TRUE(An.gmod(P.main()).any());
  }
  ASSERT_EQ(Deltas.size(), 4u);
  EXPECT_GT(Deltas[0], 0u);
  for (std::size_t I = 1; I != Deltas.size(); ++I)
    EXPECT_EQ(Deltas[I], Deltas[0])
        << "word count differs between K=1 and K=" << ThreadCounts[I];
}

} // namespace

IPSE_SEEDED_TEST_MAIN()
