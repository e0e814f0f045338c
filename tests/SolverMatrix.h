//===- tests/SolverMatrix.h - Every GMOD engine, enumerable -----*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One fixture enumerating every GMOD/GUSE engine in the repository —
/// the three data-flow baselines, the paper's Figure 2 and §4 algorithms,
/// the public SideEffectAnalyzer, the incremental and demand sessions, and
/// the condensation GMOD kernel (under the default and the sparse set
/// representation).
/// Property and edge-case suites iterate this list instead of
/// instantiating solvers ad hoc, so a future engine added here is
/// automatically covered by every differential test.
///
/// Index 0 is the round-robin iterative baseline — the semantic oracle the
/// others are compared against.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_TESTS_SOLVERMATRIX_H
#define IPSE_TESTS_SOLVERMATRIX_H

#include "analysis/GMod.h"
#include "analysis/IModPlus.h"
#include "analysis/LevelSolvers.h"
#include "analysis/LocalEffects.h"
#include "analysis/MultiLevelGMod.h"
#include "analysis/RMod.h"
#include "analysis/VarMasks.h"
#include "api/Ipse.h"
#include "baselines/IterativeSolver.h"
#include "baselines/SwiftStyleSolver.h"
#include "baselines/WorklistSolver.h"
#include "graph/BindingGraph.h"
#include "graph/CallGraph.h"
#include "graph/Tarjan.h"
#include "ir/Program.h"

#include <functional>
#include <vector>

namespace ipse {
namespace testmatrix {

struct SolverEngine {
  const char *Name;
  /// Figure 2 relies on the two-level filter; skip it when nesting is
  /// deeper (the multi-level engines cover those programs).
  bool TwoLevelOnly = false;
  std::function<analysis::GModResult(const ir::Program &,
                                     analysis::EffectKind)>
      Solve;
};

namespace detail {

/// The shared front half of the paper's pipeline: masks, graphs, local
/// effects, Figure-1 RMOD, and equation-(5) IMOD+.
struct FrontHalf {
  analysis::VarMasks Masks;
  graph::CallGraph CG;
  graph::BindingGraph BG;
  analysis::LocalEffects Local;
  analysis::RModResult RMod;
  std::vector<EffectSet> Plus;

  FrontHalf(const ir::Program &P, analysis::EffectKind Kind)
      : Masks(P), CG(P), BG(P), Local(P, Masks, Kind),
        RMod(analysis::solveRMod(P, BG, Local)),
        Plus(analysis::computeIModPlus(P, Local, RMod)) {}
};

/// The condensation GMOD kernel over the reference RMOD and IMOD+,
/// whatever the program's shape.
inline analysis::GModResult solveByLevels(const ir::Program &P,
                                          analysis::EffectKind K) {
  FrontHalf F(P, K);
  return analysis::solveGModLevels(P, F.CG, graph::computeSccs(F.CG.graph()),
                                   F.Masks, F.Plus);
}

} // namespace detail

/// All engines.  Every entry is self-contained: it builds its own pipeline
/// state, so engines cannot contaminate each other.
inline const std::vector<SolverEngine> &allSolverEngines() {
  static const std::vector<SolverEngine> Engines = [] {
    using analysis::EffectKind;
    using analysis::GModResult;
    using ir::Program;
    std::vector<SolverEngine> E;

    E.push_back({"iterative", false, [](const Program &P, EffectKind K) {
                   detail::FrontHalf F(P, K);
                   return baselines::solveIterative(P, F.CG, F.Masks, F.Local)
                       .GMod;
                 }});
    E.push_back({"worklist", false, [](const Program &P, EffectKind K) {
                   detail::FrontHalf F(P, K);
                   return baselines::solveWorklist(P, F.CG, F.Masks, F.Local)
                       .GMod;
                 }});
    E.push_back({"swift", false, [](const Program &P, EffectKind K) {
                   detail::FrontHalf F(P, K);
                   return baselines::solveSwift(P, F.CG, F.Masks, F.Local)
                       .GMod;
                 }});
    E.push_back({"figure2", /*TwoLevelOnly=*/true,
                 [](const Program &P, EffectKind K) {
                   detail::FrontHalf F(P, K);
                   return analysis::solveGMod(P, F.CG, F.Masks, F.Plus);
                 }});
    E.push_back({"multilevel-repeated", false,
                 [](const Program &P, EffectKind K) {
                   detail::FrontHalf F(P, K);
                   return analysis::solveMultiLevelRepeated(P, F.CG, F.Masks,
                                                            F.Plus);
                 }});
    E.push_back({"multilevel-combined", false,
                 [](const Program &P, EffectKind K) {
                   detail::FrontHalf F(P, K);
                   return analysis::solveMultiLevelCombined(P, F.CG, F.Masks,
                                                            F.Plus);
                 }});
    // The remaining engines start from the ipse::Analyzer facade — the
    // public path every consumer takes.
    E.push_back({"analyzer", false, [](const Program &P, EffectKind K) {
                   return ipse::Analyzer().analyze(P).gmodResult(K);
                 }});
    // The stateful engine, eager: the whole program is one region, so
    // this row is its batch ceiling (the pass pipeline over everything).
    E.push_back({"eager-demand", false, [](const Program &P, EffectKind K) {
                   std::unique_ptr<demand::DemandSession> S =
                       ipse::Analyzer().open_demand(P);
                   S->ensureSolvedAll();
                   return S->gmodResult(K);
                 }});
    // The same engine driven by single-procedure queries, callees first
    // (ascending call-graph SCC id), so every region is small and the
    // frontier summaries of earlier queries do the folding; the final
    // export then finds everything covered.
    E.push_back({"demand", false, [](const Program &P, EffectKind K) {
                   demand::DemandSession S(P);
                   graph::CallGraph CG(P);
                   graph::SccDecomposition Sccs = graph::computeSccs(CG.graph());
                   for (std::uint32_t C = 0; C != Sccs.numSccs(); ++C)
                     for (graph::NodeId N : Sccs.members(C))
                       (void)S.gmod(ir::ProcId(N), K);
                   return S.gmodResult(K);
                 }});
    E.push_back({"levels-inline", false, [](const Program &P, EffectKind K) {
                   return detail::solveByLevels(P, K);
                 }});
    // The representation axis: the same engines with the effect-set
    // storage pinned dense or sparse.  The oracle diff then proves the
    // byte-identity promise of AnalysisOptions::Repr, not just Auto.
    for (EffectSet::Representation Repr :
         {EffectSet::Representation::Dense, EffectSet::Representation::Sparse})
      E.push_back({Repr == EffectSet::Representation::Dense
                       ? "analyzer-dense"
                       : "analyzer-sparse",
                   false, [Repr](const Program &P, EffectKind K) {
                     ipse::AnalysisOptions Opts;
                     Opts.Repr = Repr;
                     analysis::GModResult R =
                         ipse::Analyzer(Opts).analyze(P).gmodResult(K);
                     // Restore the process default for engines that do
                     // not pass through the facade.
                     EffectSet::setDefaultRepresentation(
                         EffectSet::Representation::Auto);
                     return R;
                   }});
    E.push_back({"levels-inline-sparse", false, [](const Program &P,
                                                   EffectKind K) {
                   EffectSet::setDefaultRepresentation(
                       EffectSet::Representation::Sparse);
                   analysis::GModResult R = detail::solveByLevels(P, K);
                   EffectSet::setDefaultRepresentation(
                       EffectSet::Representation::Auto);
                   return R;
                 }});
    return E;
  }();
  return Engines;
}

} // namespace testmatrix
} // namespace ipse

#endif // IPSE_TESTS_SOLVERMATRIX_H
