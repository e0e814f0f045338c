//===- analysis/VarMasks.h - Shared variable-set masks ----------*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Precomputed bit masks over the program's variables that the solvers
/// share: LOCAL(p) per procedure, GLOBAL, and the per-nesting-level
/// partitions used by the §4 multi-level algorithm.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_ANALYSIS_VARMASKS_H
#define IPSE_ANALYSIS_VARMASKS_H

#include "ir/Program.h"
#include "support/EffectSet.h"

#include <vector>

namespace ipse {
namespace analysis {

/// LOCAL(\p Proc) alone, from its formals and locals: what VarMasks::local
/// holds, for callers that keep no VarMasks.
EffectSet localMask(const ir::Program &P, ir::ProcId Proc);

/// Bit masks over VarId indices, built once per program.
class VarMasks {
public:
  explicit VarMasks(const ir::Program &P);

  /// LOCAL(p): the formals and locals declared by \p P (the globals, for
  /// main).
  const EffectSet &local(ir::ProcId P) const {
    return Locals[P.index()];
  }

  /// GLOBAL: all variables declared by main.
  const EffectSet &global() const { return Global; }

  /// Variables declared at procedure nesting level \p Level (globals are
  /// level 0; a level-k procedure's formals and locals are level k).
  const EffectSet &level(unsigned Level) const {
    assert(Level < Levels.size() && "bad nesting level");
    return Levels[Level];
  }

  std::size_t numVars() const { return Global.size(); }

private:
  std::vector<EffectSet> Locals;
  EffectSet Global;
  std::vector<EffectSet> Levels;
};

} // namespace analysis
} // namespace ipse

#endif // IPSE_ANALYSIS_VARMASKS_H
