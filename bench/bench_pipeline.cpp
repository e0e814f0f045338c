//===- bench/bench_pipeline.cpp - E3: end-to-end MOD computation ---------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
//
// Experiment E3 (DESIGN.md): §5's claim that the whole MOD computation —
// β construction, RMOD, IMOD+, GMOD, and the DMOD projection at every call
// site — runs in O(N (E + N)) time without aliasing, and that the alias
// factoring step adds time linear in the number of alias pairs.
//
//===----------------------------------------------------------------------===//

#include "analysis/AliasEstimator.h"
#include "analysis/DMod.h"
#include "analysis/SideEffectAnalyzer.h"
#include "api/Ipse.h"
#include "ir/AliasInfo.h"
#include "synth/ProgramGen.h"

#include <benchmark/benchmark.h>

using namespace ipse;

namespace {

ir::Program sizedProgram(unsigned N, std::uint64_t Seed = 3) {
  synth::ProgramGenConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.NumProcs = N;
  Cfg.NumGlobals = std::max(4u, N / 8);
  Cfg.MaxFormals = 3;
  Cfg.MaxCallsPerProc = 4;
  return synth::generateProgram(Cfg);
}

/// Whole pipeline, GMOD included, DMOD for every statement.
void BM_FullPipeline(benchmark::State &State) {
  ir::Program P = sizedProgram(static_cast<unsigned>(State.range(0)));
  for (auto _ : State) {
    analysis::SideEffectAnalyzer An(P);
    // Produce DMOD for every statement, as a compiler would.
    std::size_t Bits = 0;
    for (std::uint32_t I = 0; I != P.numStmts(); ++I)
      Bits += An.dmod(ir::StmtId(I)).count();
    benchmark::DoNotOptimize(Bits);
  }
  State.counters["E"] = static_cast<double>(P.numCallSites());
  State.counters["V"] = static_cast<double>(P.numVars());
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_FullPipeline)->RangeMultiplier(2)->Range(32, 4096)->Complexity();

/// The MOD and USE problems together, through the facade a client calls:
/// one ProgramShape, then each kind's passes.
void BM_ModAndUse(benchmark::State &State) {
  ir::Program P = sizedProgram(static_cast<unsigned>(State.range(0)));
  const Analyzer An;
  for (auto _ : State) {
    Analysis A = An.analyze(P);
    benchmark::DoNotOptimize(A.gmod(P.main()));
    benchmark::DoNotOptimize(A.guse(P.main()));
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_ModAndUse)->RangeMultiplier(4)->Range(32, 2048)->Complexity();

/// §5 step 2: MOD(s) from DMOD(s) under growing ALIAS sets; the sweep
/// variable is alias pairs per procedure.  Expected: linear.
void BM_AliasFactoring(benchmark::State &State) {
  ir::Program P = sizedProgram(512);
  analysis::SideEffectAnalyzer An(P);

  // Artificial alias sets of the requested size (pairs over globals).
  ir::AliasInfo Aliases(P);
  std::span<const ir::VarId> Globals = P.proc(P.main()).Locals;
  unsigned PairsPerProc = static_cast<unsigned>(State.range(0));
  for (std::uint32_t I = 0; I != P.numProcs(); ++I)
    for (unsigned K = 0; K != PairsPerProc; ++K)
      Aliases.addPair(ir::ProcId(I), Globals[K % Globals.size()],
                      Globals[(K + 1) % Globals.size()]);

  for (auto _ : State) {
    std::size_t Bits = 0;
    for (std::uint32_t I = 0; I != P.numStmts(); ++I)
      Bits += An.mod(ir::StmtId(I), Aliases).count();
    benchmark::DoNotOptimize(Bits);
  }
  State.counters["pairs"] = static_cast<double>(Aliases.totalPairs());
}
BENCHMARK(BM_AliasFactoring)->RangeMultiplier(4)->Range(1, 256);

/// The beyond-paper alias estimator (Banning's companion problem): cost
/// of deriving the ALIAS sets themselves.
void BM_AliasEstimator(benchmark::State &State) {
  ir::Program P = sizedProgram(static_cast<unsigned>(State.range(0)));
  std::size_t Pairs = 0;
  for (auto _ : State) {
    ir::AliasInfo AI = analysis::estimateAliases(P);
    Pairs = AI.totalPairs();
    benchmark::DoNotOptimize(AI);
  }
  State.counters["pairs"] = static_cast<double>(Pairs);
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_AliasEstimator)->RangeMultiplier(4)->Range(32, 2048)->Complexity();

/// Phase breakdown at a fixed size: how the O(N(E+N)) budget is spent.
void BM_Phase_Graphs(benchmark::State &State) {
  ir::Program P = sizedProgram(1024);
  for (auto _ : State) {
    graph::CallGraph CG(P);
    graph::BindingGraph BG(P);
    benchmark::DoNotOptimize(CG.graph().numEdges());
    benchmark::DoNotOptimize(BG.numEdges());
  }
}
BENCHMARK(BM_Phase_Graphs);

void BM_Phase_LocalAndRMod(benchmark::State &State) {
  ir::Program P = sizedProgram(1024);
  analysis::VarMasks Masks(P);
  graph::BindingGraph BG(P);
  for (auto _ : State) {
    analysis::LocalEffects Local(P, Masks, analysis::EffectKind::Mod);
    analysis::RModResult R = analysis::solveRMod(P, BG, Local);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_Phase_LocalAndRMod);

void BM_Phase_GMod(benchmark::State &State) {
  ir::Program P = sizedProgram(1024);
  analysis::VarMasks Masks(P);
  graph::CallGraph CG(P);
  graph::BindingGraph BG(P);
  analysis::LocalEffects Local(P, Masks, analysis::EffectKind::Mod);
  analysis::RModResult R = analysis::solveRMod(P, BG, Local);
  std::vector<EffectSet> Plus = analysis::computeIModPlus(P, Local, R);
  for (auto _ : State) {
    analysis::GModResult G = analysis::solveGMod(P, CG, Masks, Plus);
    benchmark::DoNotOptimize(G);
  }
}
BENCHMARK(BM_Phase_GMod);

void BM_Phase_DModProjection(benchmark::State &State) {
  ir::Program P = sizedProgram(1024);
  analysis::SideEffectAnalyzer An(P);
  for (auto _ : State) {
    std::size_t Bits = 0;
    for (std::uint32_t I = 0; I != P.numCallSites(); ++I)
      Bits += An.dmod(ir::CallSiteId(I)).count();
    benchmark::DoNotOptimize(Bits);
  }
}
BENCHMARK(BM_Phase_DModProjection);

} // namespace
