//===- bench/bench_regular_section.cpp - E6: §6 RSD data flow ------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
//
// Experiment E6 (DESIGN.md): §6's claims for the regular-section
// generalization — the rsd system on β solves in time proportional to the
// number of meet operations (linear in Eβ on chains), and, thanks to the
// cycle restriction g_p(x) ⊓ x = x (recursive calls pass sections of the
// same array position), convergence does *not* degrade with lattice depth:
// the rank-1 (depth-2) and rank-2 (depth-3) cycle workloads need the same
// number of rounds.  Counters: meets, rounds.
//
//===----------------------------------------------------------------------===//

#include "analysis/RegularSectionAnalysis.h"
#include "analysis/SectionDomains.h"
#include "analysis/SectionFramework.h"
#include "graph/BindingGraph.h"
#include "synth/ProgramGen.h"

#include <benchmark/benchmark.h>

#include <memory>

using namespace ipse;
using namespace ipse::analysis;

namespace {

/// Chain (or cycle) of procedures passing one array formal along; every
/// formal is declared a rank-R array, the tail writes one element, and all
/// edges are identity bindings.
struct SectionWorkload {
  ir::Program P;
  std::unique_ptr<graph::BindingGraph> BG;
  std::unique_ptr<RsdProblem> Problem;

  SectionWorkload(unsigned N, unsigned Rank, bool Cycle)
      : P(Cycle ? synth::makeCycleProgram(N, 1)
                : synth::makeChainProgram(N, 1)) {
    BG = std::make_unique<graph::BindingGraph>(P);
    Problem = std::make_unique<RsdProblem>(P, *BG);
    for (std::uint32_t I = 1; I != P.numProcs(); ++I) {
      ir::VarId F = P.proc(ir::ProcId(I)).Formals[0];
      Problem->setFormalArray(F, Rank);
    }
    // The tail's local effect: one element.
    ir::VarId Tail =
        P.proc(ir::ProcId(static_cast<std::uint32_t>(P.numProcs() - 1)))
            .Formals[0];
    Problem->setLocalSection(
        Tail, Rank == 1
                  ? RegularSection::section1(Subscript::constant(1))
                  : RegularSection::section2(Subscript::constant(1),
                                             Subscript::constant(2)));
  }
};

void BM_RsdChain(benchmark::State &State) {
  SectionWorkload W(static_cast<unsigned>(State.range(0)), 2, false);
  std::uint64_t Meets = 0;
  unsigned Rounds = 0;
  for (auto _ : State) {
    RsdResult R = solveRsd(*W.Problem);
    benchmark::DoNotOptimize(R);
    Meets = R.MeetOps;
    Rounds = R.MaxComponentRounds;
  }
  State.counters["meets"] = static_cast<double>(Meets);
  State.counters["rounds"] = static_cast<double>(Rounds);
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_RsdChain)->RangeMultiplier(4)->Range(64, 16384)->Complexity();

void BM_RsdCycle_Rank1(benchmark::State &State) {
  SectionWorkload W(static_cast<unsigned>(State.range(0)), 1, true);
  unsigned Rounds = 0;
  for (auto _ : State) {
    RsdResult R = solveRsd(*W.Problem);
    benchmark::DoNotOptimize(R);
    Rounds = R.MaxComponentRounds;
  }
  State.counters["rounds"] = static_cast<double>(Rounds);
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_RsdCycle_Rank1)
    ->RangeMultiplier(4)
    ->Range(64, 16384)
    ->Complexity();

void BM_RsdCycle_Rank2(benchmark::State &State) {
  SectionWorkload W(static_cast<unsigned>(State.range(0)), 2, true);
  unsigned Rounds = 0;
  for (auto _ : State) {
    RsdResult R = solveRsd(*W.Problem);
    benchmark::DoNotOptimize(R);
    Rounds = R.MaxComponentRounds;
  }
  State.counters["rounds"] = static_cast<double>(Rounds);
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_RsdCycle_Rank2)
    ->RangeMultiplier(4)
    ->Range(64, 16384)
    ->Complexity();

/// The same cycle workload solved in the deeper bounded-range lattice
/// (beyond-paper instance of the framework): §6's trade-off "these
/// algorithms would differ only in ... the expense of the meet operation
/// and the depth of the lattice", measured.
void BM_BoundedCycle(benchmark::State &State) {
  ir::Program P =
      synth::makeCycleProgram(static_cast<unsigned>(State.range(0)), 1);
  graph::BindingGraph BG(P);
  SectionProblem<BoundedSectionDomain> Problem(P, BG);
  for (std::uint32_t I = 1; I != P.numProcs(); ++I)
    Problem.setFormalArray(P.proc(ir::ProcId(I)).Formals[0], 1);
  ir::VarId Tail =
      P.proc(ir::ProcId(static_cast<std::uint32_t>(P.numProcs() - 1)))
          .Formals[0];
  Problem.setLocalSection(Tail,
                          BoundedSection::make1(DimRange::interval(1, 8)));
  unsigned Rounds = 0;
  for (auto _ : State) {
    SectionSolveResult<BoundedSectionDomain> R =
        solveSectionProblem(Problem);
    benchmark::DoNotOptimize(R);
    Rounds = R.MaxComponentRounds;
  }
  State.counters["rounds"] = static_cast<double>(Rounds);
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_BoundedCycle)->RangeMultiplier(4)->Range(64, 16384)->Complexity();

/// Lattice operation microbenchmarks: the per-step costs §6 trades off
/// ("the meet operations may be more expensive" than bit ops).
void BM_Meet(benchmark::State &State) {
  RegularSection A = RegularSection::section2(
      Subscript::symbol(ir::VarId(1)), Subscript::constant(3));
  RegularSection B = RegularSection::section2(
      Subscript::symbol(ir::VarId(2)), Subscript::constant(3));
  for (auto _ : State) {
    RegularSection C = A.meet(B);
    benchmark::DoNotOptimize(C);
  }
}
BENCHMARK(BM_Meet);

void BM_IntersectTest(benchmark::State &State) {
  RegularSection A = RegularSection::section2(Subscript::constant(1),
                                              Subscript::star());
  RegularSection B = RegularSection::section2(Subscript::constant(2),
                                              Subscript::star());
  for (auto _ : State) {
    bool X = A.mayIntersect(B);
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_IntersectTest);

void BM_BoundedMeet(benchmark::State &State) {
  BoundedSection A = BoundedSection::make2(
      DimRange::interval(1, 8), DimRange::point(Subscript::constant(3)));
  BoundedSection B = BoundedSection::make2(
      DimRange::interval(5, 9), DimRange::point(Subscript::constant(4)));
  for (auto _ : State) {
    BoundedSection C = A.meet(B);
    benchmark::DoNotOptimize(C);
  }
}
BENCHMARK(BM_BoundedMeet);

/// The global-array side: sections over the call graph.
void BM_GlobalSections(benchmark::State &State) {
  ir::Program P = synth::makeFortranStyleProgram(
      static_cast<unsigned>(State.range(0)), 8, 2, 7);
  graph::CallGraph CG(P);
  GlobalSectionProblem Problem(P, CG);
  // Four global arrays; every tenth procedure writes a row.
  std::span<const ir::VarId> Globals = P.proc(P.main()).Locals;
  for (unsigned K = 0; K != 4; ++K)
    Problem.setGlobalArray(Globals[K], 2);
  for (std::uint32_t I = 1; I < P.numProcs(); I += 10)
    Problem.setLocalSection(
        ir::ProcId(I), Globals[I % 4],
        RegularSection::section2(Subscript::constant(static_cast<int>(I)),
                                 Subscript::star()));
  for (auto _ : State) {
    GlobalSectionResult R = solveGlobalSections(Problem);
    benchmark::DoNotOptimize(R);
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_GlobalSections)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Complexity();

} // namespace
