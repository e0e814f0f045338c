//===- analysis/LevelSolvers.h - Condensation GMOD kernel ------*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The condensation GMOD kernel, beside the reference solvers it mirrors:
/// equation (4) with the §4 multi-level edge filter, one call-graph
/// condensation component at a time (init from IMOD+, fold cross edges
/// through the Below-level mask, then close the component).
///
/// Components run in ascending id order, which is reverse-topological
/// (graph/Tarjan.h): every callee component is final before a caller
/// component reads it.  The order is also depth-first, so a callee's
/// result is usually still in cache when its callers read it.  The
/// kernel produces bit-for-bit the fixed point of its reference
/// counterparts.  RMOD and IMOD+ have no second kernel: every program
/// runs solveRModOnBits and computeIModPlus.
///
/// Which GMOD kernel a program gets — this or the reference solvers — is
/// decided from the program alone (analysis/SideEffectAnalyzer.h,
/// chooseKernel, against the isWideLevel bar below).
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_ANALYSIS_LEVELSOLVERS_H
#define IPSE_ANALYSIS_LEVELSOLVERS_H

#include "analysis/GMod.h"
#include "analysis/VarMasks.h"
#include "graph/CallGraph.h"
#include "graph/Tarjan.h"
#include "ir/Program.h"
#include "support/EffectSet.h"

#include <cstddef>
#include <vector>

namespace ipse {
namespace analysis {

/// The kernel-choice bar.  A condensation level is wide when it has at
/// least MinWideTasks components and its estimated word work (width ×
/// words per component) reaches MinWideWords.  The condensation kernel
/// beats the reference solvers on programs with such a level (EXPERIMENTS
/// E13); on deep width-1 chains the reference solvers win.
constexpr std::size_t MinWideTasks = 2;
constexpr std::size_t MinWideWords = 2048;

inline bool isWideLevel(std::size_t Width, std::size_t WordsPerTask) {
  return Width >= MinWideTasks && Width * WordsPerTask >= MinWideWords;
}

/// Equation (4) with the multi-level filter, by component of \p Sccs, the
/// SCCs of \p CG.  Handles any nesting depth (the Figure 2 filter when dP
/// <= 1); the same fixed point as solveGMod / solveMultiLevelCombined.
GModResult solveGModLevels(const ir::Program &P, const graph::CallGraph &CG,
                           const graph::SccDecomposition &Sccs,
                           const VarMasks &Masks,
                           const std::vector<EffectSet> &IModPlus);

} // namespace analysis
} // namespace ipse

#endif // IPSE_ANALYSIS_LEVELSOLVERS_H
