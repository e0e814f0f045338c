//===- analysis/SideEffectAnalyzer.cpp - The §5 pipeline ----------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "analysis/SideEffectAnalyzer.h"

#include "analysis/LevelSolvers.h"
#include "analysis/MultiLevelGMod.h"
#include "graph/LevelWidths.h"
#include "support/Compiler.h"

using namespace ipse;
using namespace ipse::analysis;

PassKernel analysis::chooseKernel(const ir::Program &P,
                                  const graph::CallGraph &CG) {
  // A GMOD task streams one effect universe; no level can be wide unless
  // the whole program could fill one.
  const std::size_t Words = EffectSet(P.numVars()).wordCount();
  if (!isWideLevel(P.numProcs(), Words))
    return PassKernel::Reference;
  for (std::uint32_t Width : graph::levelWidths(CG.graph()))
    if (isWideLevel(Width, Words))
      return PassKernel::Condensation;
  return PassKernel::Reference;
}

PassResults analysis::solvePasses(const ir::Program &P,
                                  const graph::CallGraph &CG,
                                  const graph::BindingGraph &BG,
                                  const VarMasks &Masks,
                                  const LocalEffects &Local,
                                  const EffectSet &FormalBits,
                                  PassKernel Kernel,
                                  AnalyzerOptions::GModAlgorithm Algorithm) {
  PassResults R;
  {
    observe::TraceSpan Span("rmod");
    R.RMod = solveRModOnBits(P, BG, FormalBits);
    observe::addCounter("rmod.boolean_steps", R.RMod.BooleanSteps);
  }
  {
    observe::TraceSpan Span("imodplus");
    R.IModPlus = computeIModPlus(P, Local, R.RMod);
  }

  observe::TraceSpan Span("gmod");
  if (Kernel == PassKernel::Condensation) {
    R.GMod = solveGModLevels(P, CG, Masks, R.IModPlus);
    return R;
  }

  using Algo = AnalyzerOptions::GModAlgorithm;
  if (Algorithm == Algo::Auto)
    Algorithm =
        P.maxProcLevel() <= 1 ? Algo::FindGMod : Algo::MultiLevelCombined;
  switch (Algorithm) {
  case Algo::FindGMod:
    R.GMod = solveGMod(P, CG, Masks, R.IModPlus);
    break;
  case Algo::MultiLevelRepeated:
    R.GMod = solveMultiLevelRepeated(P, CG, Masks, R.IModPlus);
    break;
  case Algo::MultiLevelCombined:
    R.GMod = solveMultiLevelCombined(P, CG, Masks, R.IModPlus);
    break;
  case Algo::Auto:
    unreachable("Auto was resolved above");
  }
  return R;
}

SideEffectAnalyzer::SideEffectAnalyzer(const ir::Program &P,
                                       AnalyzerOptions Options)
    : P(P), Options(Options), Masks(P), CG(P), BG(P) {
  GraphsSpan.close();
  {
    observe::TraceSpan Span("local");
    Local = std::make_unique<LocalEffects>(P, Masks, Options.Kind);
  }
  Kernel = Options.Algorithm == AnalyzerOptions::GModAlgorithm::Auto
               ? chooseKernel(P, CG)
               : PassKernel::Reference;
  PassResults R = solvePasses(P, CG, BG, Masks, *Local, formalBits(P, *Local),
                              Kernel, Options.Algorithm);
  RMod = std::move(R.RMod);
  IModPlus = std::move(R.IModPlus);
  GMod = std::move(R.GMod);
}
