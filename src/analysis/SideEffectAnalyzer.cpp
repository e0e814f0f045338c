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

static PassKernel chooseKernel(const ir::Program &P,
                               const graph::CallGraph &CG,
                               const graph::SccDecomposition &CallSccs) {
  // A GMOD task streams one effect universe; no level can be wide unless
  // the whole program could fill one.
  const std::size_t Words = EffectSet(P.numVars()).wordCount();
  if (!isWideLevel(P.numProcs(), Words))
    return PassKernel::Reference;
  for (std::uint32_t Width : graph::levelWidths(CG.graph(), CallSccs))
    if (isWideLevel(Width, Words))
      return PassKernel::Condensation;
  return PassKernel::Reference;
}

ProgramShape::ProgramShape(const ir::Program &P)
    : P(P), Masks(P), CG(P), BG(P), CallSccs(graph::computeSccs(CG.graph())),
      BindingSccs(graph::computeSccs(BG.graph())),
      Kernel(chooseKernel(P, CG, CallSccs)) {
  GraphsSpan.close();
}

PassResults analysis::solvePasses(const ProgramShape &Shape,
                                  const LocalEffects &Local,
                                  const EffectSet &FormalBits,
                                  PassKernel Kernel,
                                  AnalyzerOptions::GModAlgorithm Algorithm) {
  const ir::Program &P = Shape.P;
  PassResults R;
  {
    observe::TraceSpan Span("rmod");
    R.RMod = solveRModOnBits(P, Shape.BG, Shape.BindingSccs, FormalBits);
    observe::addCounter("rmod.boolean_steps", R.RMod.BooleanSteps);
  }
  {
    observe::TraceSpan Span("imodplus");
    R.IModPlus = computeIModPlus(P, Local, R.RMod);
  }

  observe::TraceSpan Span("gmod");
  if (Kernel == PassKernel::Condensation) {
    R.GMod = solveGModLevels(P, Shape.CG, Shape.CallSccs, Shape.Masks,
                             R.IModPlus);
    return R;
  }

  using Algo = AnalyzerOptions::GModAlgorithm;
  if (Algorithm == Algo::Auto)
    Algorithm =
        P.maxProcLevel() <= 1 ? Algo::FindGMod : Algo::MultiLevelCombined;
  switch (Algorithm) {
  case Algo::FindGMod:
    R.GMod = solveGMod(P, Shape.CG, Shape.Masks, R.IModPlus);
    break;
  case Algo::MultiLevelRepeated:
    R.GMod = solveMultiLevelRepeated(P, Shape.CG, Shape.Masks, R.IModPlus);
    break;
  case Algo::MultiLevelCombined:
    R.GMod = solveMultiLevelCombined(P, Shape.CG, Shape.Masks, R.IModPlus);
    break;
  case Algo::Auto:
    unreachable("Auto was resolved above");
  }
  return R;
}

SideEffectAnalyzer::SideEffectAnalyzer(const ir::Program &P,
                                       AnalyzerOptions Options)
    : OwnShape(std::make_unique<ProgramShape>(P)), Shape(*OwnShape),
      Options(Options) {
  solve();
}

SideEffectAnalyzer::SideEffectAnalyzer(const ProgramShape &Shape,
                                       AnalyzerOptions Options)
    : Shape(Shape), Options(Options) {
  solve();
}

void SideEffectAnalyzer::solve() {
  {
    observe::TraceSpan Span("local");
    Local = std::make_unique<LocalEffects>(Shape.P, Shape.Masks, Options.Kind);
  }
  Kernel = Options.Algorithm == AnalyzerOptions::GModAlgorithm::Auto
               ? Shape.Kernel
               : PassKernel::Reference;
  Passes = solvePasses(Shape, *Local, formalBits(Shape.P, *Local), Kernel,
                       Options.Algorithm);
}

BatchAnalysis::BatchAnalysis(const ir::Program &P, bool WithUse,
                             AnalyzerOptions::GModAlgorithm Algorithm)
    : Shape(P), Mod(Shape, {EffectKind::Mod, Algorithm}) {
  if (WithUse)
    Use.emplace(Shape, AnalyzerOptions{EffectKind::Use, Algorithm});
}
