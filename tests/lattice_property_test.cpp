//===- tests/lattice_property_test.cpp - Lattice invariants -------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
//
// The lattice-theoretic oracle battery: properties that must hold for
// *every* engine in tests/SolverMatrix.h on random programs, independent
// of any particular answer.
//
//   1. Containment chain — GMOD(p) ⊇ IMOD+(p) ⊇ IMOD_ext(p) ⊇ IMOD(p)
//      (equations 4 and 5 only ever add bits to the local effects).
//   2. Idempotent re-solve — an engine run twice on the same program
//      returns byte-identical planes (no hidden state, no order effects).
//   3. Monotone growth — additive edits (no removals) can only grow GMOD,
//      checked after every EditGen step on an eager and a lazy demand
//      engine in lockstep.
//   4. Demand ≡ batch on arbitrary query subsets — for random subsets of
//      procedures, a fresh DemandSession's answers are bit-for-bit the
//      batch oracle's, over 100+ random programs; the solved region stays
//      within the program and memoization never changes an answer.
//
// These are exactly the oracles the mutation harness (tools/ipse-mutate)
// counts on to kill seeded solver bugs: a flipped bit-vector op breaks 1
// or 4, a dropped propagation edge breaks 4, an off-by-one level filter
// breaks 1 on nested shapes.
//
//===----------------------------------------------------------------------===//

#include "analysis/IModPlus.h"
#include "analysis/LocalEffects.h"
#include "analysis/RMod.h"
#include "analysis/VarMasks.h"
#include "demand/DemandSession.h"
#include "graph/BindingGraph.h"
#include "graph/Reachability.h"
#include "incremental/Edit.h"
#include "synth/EditGen.h"
#include "synth/ProgramGen.h"

#include "SolverMatrix.h"
#include "TestSeed.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

using namespace ipse;
using analysis::EffectKind;
using analysis::GModResult;
using ir::ProcId;
using ir::Program;
using ir::VarId;

namespace {

struct Shape {
  const char *Name;
  synth::ProgramGenConfig Base;
};

/// Shapes chosen to cover the lattice edge cases: flat two-level, deep
/// nesting (the §4 Below filter), parameter-heavy (β dominates), sparse
/// (mostly-empty sets).
const Shape Shapes[] = {
    {"two-level",
     [] {
       synth::ProgramGenConfig C;
       C.NumProcs = 12;
       C.NumGlobals = 5;
       C.MaxCallsPerProc = 4;
       return C;
     }()},
    {"nested",
     [] {
       synth::ProgramGenConfig C;
       C.NumProcs = 14;
       C.NumGlobals = 4;
       C.MaxNestDepth = 4;
       return C;
     }()},
    {"param-heavy",
     [] {
       synth::ProgramGenConfig C;
       C.NumProcs = 12;
       C.NumGlobals = 2;
       C.MaxFormals = 5;
       C.FormalActualBiasPct = 85;
       return C;
     }()},
    {"sparse",
     [] {
       synth::ProgramGenConfig C;
       C.NumProcs = 10;
       C.NumGlobals = 6;
       C.ModDensityPct = 6;
       C.UseDensityPct = 6;
       return C;
     }()},
};

Program makeProgram(const Shape &S, std::uint64_t Seed) {
  synth::ProgramGenConfig Cfg = S.Base;
  Cfg.Seed = Seed;
  return graph::eliminateUnreachable(synth::generateProgram(Cfg));
}

/// Old ⊆ New where New's universe may have grown (additive universe edits
/// append variable ids, so old bit positions keep their meaning).
void expectGrewFrom(const EffectSet &Old, const EffectSet &New,
                    const std::string &Context) {
  for (std::size_t I = 0; I != Old.size(); ++I)
    if (Old.test(I)) {
      ASSERT_LT(I, New.size()) << Context;
      EXPECT_TRUE(New.test(I)) << Context << ": bit " << I << " was lost";
    }
}

//===----------------------------------------------------------------------===//
// 1. The containment chain.
//===----------------------------------------------------------------------===//

TEST(LatticeProperty, ContainmentChainHoldsForEveryEngine) {
  const std::uint64_t Base = testseed::baseSeed(1);
  const std::vector<testmatrix::SolverEngine> &Engines =
      testmatrix::allSolverEngines();
  for (const Shape &S : Shapes)
    for (std::uint64_t Seed = Base; Seed != Base + 7; ++Seed) {
      Program P = makeProgram(S, Seed);
      for (EffectKind Kind : {EffectKind::Mod, EffectKind::Use}) {
        testmatrix::detail::FrontHalf F(P, Kind);
        for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
          std::string Ctx = std::string(S.Name) + " seed " +
                            std::to_string(Seed) + " proc " +
                            P.name(ProcId(I));
          // IMOD(p) ⊆ IMOD_ext(p) ⊆ IMOD+(p): §3.3 extension and eq. 5
          // both only add bits.
          EXPECT_TRUE(F.Local.own(ProcId(I)).isSubsetOf(
              F.Local.extended(ProcId(I))))
              << Ctx;
          EXPECT_TRUE(F.Local.extended(ProcId(I)).isSubsetOf(F.Plus[I]))
              << Ctx;
        }
        for (const testmatrix::SolverEngine &E : Engines) {
          if (E.TwoLevelOnly && P.maxProcLevel() > 1)
            continue;
          GModResult R = E.Solve(P, Kind);
          for (std::uint32_t I = 0; I != P.numProcs(); ++I)
            EXPECT_TRUE(F.Plus[I].isSubsetOf(R.GMod[I]))
                << E.Name << " " << S.Name << " seed " << Seed << " proc "
                << P.name(ProcId(I)) << ": GMOD must absorb IMOD+";
        }
      }
      ASSERT_FALSE(::testing::Test::HasFailure())
          << S.Name << " seed " << Seed;
    }
}

//===----------------------------------------------------------------------===//
// 2. Idempotent re-solve.
//===----------------------------------------------------------------------===//

TEST(LatticeProperty, ResolveIsIdempotent) {
  const std::uint64_t Base = testseed::baseSeed(1);
  const std::vector<testmatrix::SolverEngine> &Engines =
      testmatrix::allSolverEngines();
  for (const Shape &S : Shapes)
    for (std::uint64_t Seed = Base; Seed != Base + 3; ++Seed) {
      Program P = makeProgram(S, Seed);
      for (EffectKind Kind : {EffectKind::Mod, EffectKind::Use})
        for (const testmatrix::SolverEngine &E : Engines) {
          if (E.TwoLevelOnly && P.maxProcLevel() > 1)
            continue;
          GModResult A = E.Solve(P, Kind);
          GModResult B = E.Solve(P, Kind);
          for (std::uint32_t I = 0; I != P.numProcs(); ++I)
            EXPECT_EQ(A.GMod[I], B.GMod[I])
                << E.Name << " " << S.Name << " seed " << Seed
                << ": second solve diverged on " << P.name(ProcId(I));
        }
    }
}

//===----------------------------------------------------------------------===//
// 3. Monotone growth under additive edit sequences.
//===----------------------------------------------------------------------===//

TEST(LatticeProperty, AdditiveEditsGrowGModMonotonically) {
  const std::uint64_t Base = testseed::baseSeed(1);
  for (const Shape &S : Shapes)
    for (std::uint64_t Seed = Base; Seed != Base + 4; ++Seed) {
      Program P0 = makeProgram(S, Seed);
      // Inc is driven eagerly (every procedure re-solved after each edit),
      // Dem lazily (only what the checks query).
      demand::DemandSession Inc(P0);
      demand::DemandSession Dem(P0);

      synth::EditGenConfig Cfg;
      Cfg.Seed = Seed * 7919 + 13;
      // Additive edits only: with no removals every step is monotone in
      // the (pointwise-⊆) lattice of GMOD planes.
      Cfg.WeightRemoveMod = 0;
      Cfg.WeightRemoveUse = 0;
      Cfg.WeightRemoveCall = 0;
      Cfg.WeightRemoveProc = 0;
      synth::EditGen Gen(Cfg);

      std::vector<EffectSet> Prev;
      for (std::uint32_t I = 0; I != Inc.program().numProcs(); ++I)
        Prev.push_back(Inc.gmod(ProcId(I)));

      for (unsigned Step = 0; Step != 12; ++Step) {
        std::optional<incremental::Edit> E = Gen.next(Inc.program());
        ASSERT_TRUE(E.has_value());
        demand::applyEdit(Inc, *E);
        Inc.ensureSolvedAll();
        demand::applyEdit(Dem, *E);
        std::string Ctx = std::string(S.Name) + " seed " +
                          std::to_string(Seed) + " step " +
                          std::to_string(Step) + " (" +
                          toString(Inc.program(), *E) + ")";
        // Procedures present before the edit only ever gain bits — and
        // the two engines agree on the new plane exactly.
        for (std::uint32_t I = 0; I != Prev.size(); ++I) {
          const EffectSet &Now = Inc.gmod(ProcId(I));
          expectGrewFrom(Prev[I], Now, Ctx);
          EXPECT_EQ(Dem.gmod(ProcId(I)), Now) << Ctx;
        }
        Prev.clear();
        for (std::uint32_t I = 0; I != Inc.program().numProcs(); ++I)
          Prev.push_back(Inc.gmod(ProcId(I)));
        if (::testing::Test::HasFailure())
          return;
      }
    }
}

//===----------------------------------------------------------------------===//
// 4. Demand ≡ batch on arbitrary query subsets.
//===----------------------------------------------------------------------===//

TEST(LatticeProperty, DemandMatchesBatchOnRandomQuerySubsets) {
  const std::uint64_t Base = testseed::baseSeed(1);
  const testmatrix::SolverEngine &Oracle = testmatrix::allSolverEngines()[0];
  unsigned Programs = 0;
  for (const Shape &S : Shapes)
    for (std::uint64_t Seed = Base; Seed != Base + 26; ++Seed) {
      Program P = makeProgram(S, Seed);
      ++Programs;
      GModResult WantMod = Oracle.Solve(P, EffectKind::Mod);
      GModResult WantUse = Oracle.Solve(P, EffectKind::Use);

      std::mt19937_64 Rng(Seed * 104729 + Programs);
      std::uniform_int_distribution<std::uint32_t> PickProc(
          0, P.numProcs() - 1);
      // Subset sizes 1, ~quarter, ~all: the cold single query, a typical
      // working set, and near-total coverage.
      const std::size_t Sizes[] = {1, 1 + P.numProcs() / 4, P.numProcs()};
      for (std::size_t Size : Sizes) {
        demand::DemandSession D(P);
        std::vector<ProcId> Queried;
        for (std::size_t K = 0; K != Size; ++K)
          Queried.push_back(ProcId(PickProc(Rng)));
        for (ProcId Q : Queried) {
          std::string Ctx = std::string(S.Name) + " seed " +
                            std::to_string(Seed) + " subset " +
                            std::to_string(Size) + " proc " + P.name(Q);
          EXPECT_EQ(D.gmod(Q, EffectKind::Mod), WantMod.GMod[Q.index()])
              << Ctx;
          EXPECT_EQ(D.gmod(Q, EffectKind::Use), WantUse.GMod[Q.index()])
              << Ctx;
          // RMOD(f) = GMOD(owner) restricted to formals — through the
          // demand path too.
          for (VarId F : P.proc(Q).Formals)
            EXPECT_EQ(D.rmodContains(F, EffectKind::Mod),
                      WantMod.GMod[Q.index()].test(F.index()))
                << Ctx;
        }
        // Memoization must be invisible: a repeat query answers from the
        // memo (no new region solve) with the identical bits.
        const std::uint64_t SolvesBefore = D.stats().RegionSolves;
        for (ProcId Q : Queried)
          EXPECT_EQ(D.gmod(Q, EffectKind::Mod), WantMod.GMod[Q.index()]);
        EXPECT_EQ(D.stats().RegionSolves, SolvesBefore)
            << S.Name << " seed " << Seed << ": repeat queries re-solved";
        EXPECT_LE(D.coveredCount(EffectKind::Mod), P.numProcs());
      }
      ASSERT_FALSE(::testing::Test::HasFailure())
          << S.Name << " seed " << Seed;
    }
  EXPECT_GE(Programs, 100u);
}

//===----------------------------------------------------------------------===//
// 4b. The subset property survives arbitrary (including destructive)
// edits: an eager and a lazy demand engine walk the same edit stream, then
// random subsets must agree bit-for-bit.
//===----------------------------------------------------------------------===//

TEST(LatticeProperty, DemandSubsetQueriesStayExactUnderEdits) {
  const std::uint64_t Base = testseed::baseSeed(1);
  for (const Shape &S : Shapes)
    for (std::uint64_t Seed = Base; Seed != Base + 3; ++Seed) {
      Program P0 = makeProgram(S, Seed);
      // Inc is driven eagerly (every procedure re-solved after each edit),
      // Dem lazily (only what the checks query).
      demand::DemandSession Inc(P0);
      demand::DemandSession Dem(P0);
      synth::EditGenConfig Cfg;
      Cfg.Seed = Seed * 613 + 7;
      synth::EditGen Gen(Cfg);
      std::mt19937_64 Rng(Seed * 31 + 5);

      for (unsigned Step = 0; Step != 10; ++Step) {
        std::optional<incremental::Edit> E = Gen.next(Inc.program());
        ASSERT_TRUE(E.has_value());
        demand::applyEdit(Inc, *E);
        Inc.ensureSolvedAll();
        demand::applyEdit(Dem, *E);
        std::uniform_int_distribution<std::uint32_t> PickProc(
            0, Inc.program().numProcs() - 1);
        for (unsigned Q = 0; Q != 3; ++Q) {
          ProcId Proc(PickProc(Rng));
          std::string Ctx = std::string(S.Name) + " seed " +
                            std::to_string(Seed) + " step " +
                            std::to_string(Step) + " proc " +
                            Inc.program().name(Proc);
          EXPECT_EQ(Dem.gmod(Proc, EffectKind::Mod),
                    Inc.gmod(Proc, EffectKind::Mod))
              << Ctx;
          EXPECT_EQ(Dem.gmod(Proc, EffectKind::Use),
                    Inc.gmod(Proc, EffectKind::Use))
              << Ctx;
        }
        if (::testing::Test::HasFailure())
          return;
      }
    }
}

} // namespace

IPSE_SEEDED_TEST_MAIN()
