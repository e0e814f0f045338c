//===- analysis/LevelSolvers.h - Condensation-level kernels -----*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The condensation kernels: the paper's passes scheduled by condensation
/// level (graph/LevelSchedule.h), beside the reference solvers they
/// mirror:
///
///  - solveRModLevels: Figure 1 on the binding multi-graph β.  Each β
///    component's boolean value is computed by the per-component kernel
///    from analysis/RMod.cpp; components on one level are independent,
///    each writing only its own slot of the per-component value array and
///    reading only slots finalized at earlier levels.
///
///  - computeIModPlusLevels: equation (5) per procedure — IMOD+(p)
///    depends only on p's own sets and the (already solved) RMOD bits, so
///    every procedure is independent.
///
///  - solveGModLevels: equation (4) with the §4 multi-level edge filter.
///    Each condensation component runs one kernel (init from IMOD+, fold
///    cross edges through the Below-level mask, then close the component);
///    a component writes only its own members' GMOD vectors and reads only
///    callee components completed at lower levels, so no locks are needed
///    — the level barrier is the only synchronization.
///
/// All three produce bit-for-bit the results of their reference
/// counterparts.  Where a level runs is the caller's lane decision: with
/// a pool of two or more lanes, a level that clears the fan-out bar
/// (isWideLevel) fans out and every other level runs inline; without one,
/// the components run inline in ascending id order (reverse-topological
/// too).  Every path runs the same per-task code, so neither answers nor
/// word-op counts depend on the lane count.  solveRModLevels even
/// performs *exactly* the boolean step count of solveRModOnBits (same
/// kernel, same early exits).
///
/// Which kernel a program gets — these or the reference solvers — is
/// decided from the program alone (analysis/SideEffectAnalyzer.h,
/// chooseKernel); the \p MinWords parameters below exist so tests can set
/// the fan-out bar to 0 and drive the pool on programs of any size.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_ANALYSIS_LEVELSOLVERS_H
#define IPSE_ANALYSIS_LEVELSOLVERS_H

#include "analysis/GMod.h"
#include "analysis/LocalEffects.h"
#include "analysis/RMod.h"
#include "analysis/VarMasks.h"
#include "graph/BindingGraph.h"
#include "graph/CallGraph.h"
#include "ir/Program.h"
#include "support/EffectSet.h"
#include "support/ThreadPool.h"

#include <cstddef>
#include <vector>

namespace ipse {
namespace analysis {

/// The fan-out bar.  A level is wide when it has at least MinFanoutTasks
/// tasks and its estimated word work (width × words per task) reaches
/// MinFanoutWords — a few hundred microseconds of kernel work,
/// comfortably above one pool handoff.
constexpr std::size_t MinFanoutTasks = 2;
constexpr std::size_t MinFanoutWords = 2048;

inline bool isWideLevel(std::size_t Width, std::size_t WordsPerTask,
                        std::size_t MinWords = MinFanoutWords) {
  return Width >= MinFanoutTasks && Width * WordsPerTask >= MinWords;
}

/// Shape of a level-scheduled GMOD solve: the available parallelism is
/// bounded by WidestLevel, and FanoutLevels of the Levels went to the
/// pool (the rest ran inline).
struct LevelStats {
  std::size_t Levels = 0;
  std::size_t WidestLevel = 0;
  std::size_t FanoutLevels = 0;
};

/// Figure 1, level-scheduled.  Interface mirrors solveRModOnBits (and
/// returns identical ModifiedFormals *and* BooleanSteps).  \p Pool may
/// be null (every level inline).
RModResult solveRModLevels(const ir::Program &P, const graph::BindingGraph &BG,
                           const EffectSet &FormalBits,
                           ThreadPool *Pool = nullptr,
                           std::size_t MinWords = MinFanoutWords);

/// Equation (5) per procedure, one task each; the same sets as
/// computeIModPlus.
std::vector<EffectSet> computeIModPlusLevels(const ir::Program &P,
                                             const LocalEffects &Local,
                                             const EffectSet &RModBits,
                                             ThreadPool *Pool = nullptr,
                                             std::size_t MinWords =
                                                 MinFanoutWords);

/// Equation (4) with the multi-level filter, level-scheduled.  Handles any
/// nesting depth (degenerates to the Figure 2 filter when dP <= 1) and
/// produces the same fixed point as solveGMod / solveMultiLevelCombined.
GModResult solveGModLevels(const ir::Program &P, const graph::CallGraph &CG,
                           const VarMasks &Masks,
                           const std::vector<EffectSet> &IModPlus,
                           ThreadPool *Pool = nullptr,
                           LevelStats *Stats = nullptr,
                           std::size_t MinWords = MinFanoutWords);

} // namespace analysis
} // namespace ipse

#endif // IPSE_ANALYSIS_LEVELSOLVERS_H
