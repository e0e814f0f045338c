//===- analysis/EffectKind.h - MOD vs USE parameterization ------*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper develops the MOD problem and notes that USE "has an analogous
/// solution".  Every analysis in this library is parameterized by the
/// effect kind; the only difference is which per-statement local set
/// (LMOD or LUSE) seeds the computation.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_ANALYSIS_EFFECTKIND_H
#define IPSE_ANALYSIS_EFFECTKIND_H

#include "ir/Program.h"

namespace ipse {
namespace analysis {

/// Which side-effect problem is being solved.
enum class EffectKind {
  Mod, ///< Variables possibly modified.
  Use  ///< Variables possibly used.
};

/// The local effect list of a statement for the chosen problem.
inline std::span<const ir::VarId> localList(const ir::Statement &S,
                                            EffectKind Kind) {
  return Kind == EffectKind::Mod ? S.LMod : S.LUse;
}

/// Human-readable prefix ("MOD" / "USE") for printing results.
inline const char *effectName(EffectKind Kind) {
  return Kind == EffectKind::Mod ? "MOD" : "USE";
}

} // namespace analysis
} // namespace ipse

#endif // IPSE_ANALYSIS_EFFECTKIND_H
