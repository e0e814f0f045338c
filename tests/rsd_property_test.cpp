//===- tests/rsd_property_test.cpp - §6 solver vs chaotic-iteration oracle ----===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
//
// Random regular-section problems over random binding multi-graphs: the
// SCC-ordered solver must reach the same fixpoint as unordered chaotic
// iteration of the defining equations, and the solution must satisfy the
// framework's local laws at every node.
//
//===----------------------------------------------------------------------===//

#include "analysis/RegularSectionAnalysis.h"
#include "graph/BindingGraph.h"
#include "graph/Tarjan.h"
#include "support/Rng.h"
#include "synth/ProgramGen.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

using namespace ipse;
using namespace ipse::analysis;
using namespace ipse::ir;

namespace {

/// Builds a random but *rank-consistent* section problem over β: every
/// strongly connected component gets one rank; an edge may step a rank-2
/// source down to a rank-1 target via a row/column binding, never up.
struct RandomSectionProblem {
  Program P;
  std::unique_ptr<graph::BindingGraph> BG;
  std::unique_ptr<RsdProblem> Problem;
  std::vector<VarId> ArrayFormals;

  explicit RandomSectionProblem(std::uint64_t Seed) {
    synth::ProgramGenConfig Cfg;
    Cfg.Seed = Seed;
    Cfg.NumProcs = 18;
    Cfg.NumGlobals = 3;
    Cfg.MaxFormals = 3;
    Cfg.FormalActualBiasPct = 80;
    Cfg.MaxCallsPerProc = 4;
    P = synth::generateProgram(Cfg);
    BG = std::make_unique<graph::BindingGraph>(P);
    Problem = std::make_unique<RsdProblem>(P, *BG);

    Rng R(Seed * 7919 + 1);
    const graph::Digraph &G = BG->graph();
    graph::SccDecomposition Sccs = graph::computeSccs(G);

    // Rank per component, respecting reverse topological order: a
    // component must not be forced below any successor's rank.
    std::vector<unsigned> SccRank(Sccs.numSccs(), 1);
    for (std::uint32_t C = 0; C != Sccs.numSccs(); ++C) {
      unsigned MinRank = 1;
      for (graph::NodeId M : Sccs.members(C))
        for (const graph::Adjacency &A : G.succs(M))
          if (Sccs.SccOf[A.Dst] != C)
            MinRank = std::max(MinRank, SccRank[Sccs.SccOf[A.Dst]] == 2
                                            ? 2u
                                            : 1u);
      SccRank[C] = MinRank == 2 ? 2 : (R.nextChance(50, 100) ? 2 : 1);
    }

    for (graph::NodeId N = 0; N != BG->numNodes(); ++N) {
      VarId F = BG->formal(N);
      unsigned Rank = SccRank[Sccs.SccOf[N]];
      Problem->setFormalArray(F, Rank);
      ArrayFormals.push_back(F);
      Problem->setLocalSection(F, randomSection(R, Rank, F));
    }

    for (graph::EdgeId E = 0; E != G.numEdges(); ++E) {
      unsigned SrcRank = SccRank[Sccs.SccOf[G.edgeSource(E)]];
      unsigned DstRank = SccRank[Sccs.SccOf[G.edgeTarget(E)]];
      if (SrcRank == DstRank)
        continue; // Identity is the default.
      assert(SrcRank > DstRank && "rank assignment violated the topology");
      Subscript Fixed = randomSubscript(
          R, P.callSite(BG->origin(E).Site).Caller, /*AllowStar=*/false);
      Problem->setEdgeBinding(E, R.nextChance(50, 100)
                                     ? SectionBinding::rowOf(Fixed)
                                     : SectionBinding::colOf(Fixed));
    }
  }

  /// A subscript valid in \p Proc: a constant or a symbol naming a
  /// variable visible there.
  Subscript randomSubscript(Rng &R, ProcId Proc, bool AllowStar) {
    if (AllowStar && R.nextChance(25, 100))
      return Subscript::star();
    if (R.nextChance(50, 100))
      return Subscript::constant(static_cast<int>(R.nextBelow(5)));
    // A visible variable: one of the globals or one of Proc's formals.
    const Procedure &Pr = P.proc(Proc);
    if (!Pr.Formals.empty() && R.nextChance(60, 100))
      return Subscript::symbol(Pr.Formals[R.nextBelow(Pr.Formals.size())]);
    std::span<const VarId> Globals = P.proc(P.main()).Locals;
    return Subscript::symbol(Globals[R.nextBelow(Globals.size())]);
  }

  RegularSection randomSection(Rng &R, unsigned Rank, VarId F) {
    ProcId Owner = P.var(F).Owner;
    if (R.nextChance(30, 100))
      return RegularSection::none(Rank);
    if (Rank == 1)
      return RegularSection::section1(randomSubscript(R, Owner, true));
    return RegularSection::section2(randomSubscript(R, Owner, true),
                                    randomSubscript(R, Owner, true));
  }
};

/// A two-node subproblem: \p F starts at none, \p Succ pinned to
/// \p Pinned; all β edges between the pair keep their real bindings
/// (parallel edges would otherwise default to Identity, which need not be
/// rank-consistent).
RsdProblem makePinnedSubproblem(const RandomSectionProblem &RP, VarId F,
                                VarId Succ, const RegularSection &Pinned) {
  const graph::Digraph &G = RP.BG->graph();
  RsdProblem One(RP.P, *RP.BG);
  One.setFormalArray(F, RP.Problem->rankOf(F));
  if (Succ != F)
    One.setFormalArray(Succ, RP.Problem->rankOf(Succ));
  One.setLocalSection(Succ, Pinned);
  for (graph::EdgeId E = 0; E != G.numEdges(); ++E) {
    VarId Src = RP.BG->formal(G.edgeSource(E));
    VarId Dst = RP.BG->formal(G.edgeTarget(E));
    bool SrcIn = Src == F || Src == Succ;
    bool DstIn = Dst == F || Dst == Succ;
    if (SrcIn && DstIn)
      One.setEdgeBinding(E, RP.Problem->edgeBinding(E));
  }
  return One;
}

/// The oracle: unordered chaotic iteration of
///   rsd(n) = lrsd(n) ⊓ ⊓_e g_e(rsd(succ))
/// via repeated full sweeps (in the opposite node order to the solver's)
/// until nothing changes.  Each g_e application goes through a fresh
/// single-edge subproblem, so the production edge semantics are reused
/// while the iteration strategy is completely different.
std::map<VarId, RegularSection>
chaoticFixpoint(const RandomSectionProblem &RP) {
  const graph::BindingGraph &BG = *RP.BG;
  const graph::Digraph &G = BG.graph();

  std::map<VarId, RegularSection> Cur;
  for (VarId F : RP.ArrayFormals)
    Cur.insert({F, RP.Problem->localSection(F)});

  bool Changed = true;
  while (Changed) {
    Changed = false;
    // Deliberately iterate in *reverse* node order (a different strategy
    // than the solver's SCC order).
    for (graph::NodeId N = static_cast<graph::NodeId>(BG.numNodes());
         N-- > 0;) {
      VarId F = BG.formal(N);
      RegularSection NewVal = Cur.at(F);
      for (const graph::Adjacency &A : G.succs(N)) {
        VarId Succ = BG.formal(A.Dst);
        // Applying a pinned two-node subproblem merges several equation
        // terms at once (parallel and reverse edges between the pair),
        // which chaotic iteration permits: every application is one of
        // the system's own, and values stay above the unique fixpoint.
        RsdProblem One = makePinnedSubproblem(RP, F, Succ, Cur.at(Succ));
        RsdResult Single = solveRsd(One);
        NewVal = NewVal.meet(Single.of(F));
      }
      if (NewVal != Cur.at(F)) {
        Cur.insert_or_assign(F, NewVal);
        Changed = true;
      }
    }
  }
  return Cur;
}

class RsdRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RsdRandom, SolverMatchesChaoticIteration) {
  RandomSectionProblem RP(GetParam());
  if (RP.BG->numNodes() == 0)
    return;
  RsdResult Fast = solveRsd(*RP.Problem);
  std::map<VarId, RegularSection> Oracle = chaoticFixpoint(RP);
  for (VarId F : RP.ArrayFormals)
    EXPECT_EQ(Fast.of(F), Oracle.at(F))
        << "formal " << RP.P.name(F) << ": fast "
        << Fast.of(F).toString() << " vs oracle "
        << Oracle.at(F).toString();
}

TEST_P(RsdRandom, SolutionIsAFixpointAndContainsLrsd) {
  RandomSectionProblem RP(GetParam());
  RsdResult Fast = solveRsd(*RP.Problem);
  const graph::Digraph &G = RP.BG->graph();
  for (graph::NodeId N = 0; N != RP.BG->numNodes(); ++N) {
    VarId F = RP.BG->formal(N);
    const RegularSection &Val = Fast.of(F);
    // rsd(f) summarizes at least the local effect.
    EXPECT_TRUE(Val.contains(RP.Problem->localSection(F)));
    // ...and is stable under one more application of every edge.
    for (const graph::Adjacency &A : G.succs(N)) {
      VarId Succ = RP.BG->formal(A.Dst);
      RsdProblem One = makePinnedSubproblem(RP, F, Succ, Fast.of(Succ));
      EXPECT_TRUE(Val.contains(solveRsd(One).of(F)))
          << "edge " << A.Edge << " still widens " << RP.P.name(F);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RsdRandom,
                         ::testing::Range<std::uint64_t>(1, 41));

} // namespace
