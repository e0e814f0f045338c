//===- synth/EditGen.h - Random program-delta generator ---------*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates random, always-valid program deltas against a live program —
/// the workload driver for the stateful engine's randomized equivalence
/// harness and benchmarks.  Each call to next() inspects the program as it
/// is *now* (ids shift under removals, so an edit is only valid against the
/// state it was generated from), picks an edit kind by weight, and
/// instantiates it so that every ProgramEditor precondition holds: touched
/// variables are visible in their statement's procedure, callees are
/// visible at the call site with matching arity, formals are only appended
/// to procedures no call site targets yet, and only leaf, uncalled
/// procedures are removed.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_SYNTH_EDITGEN_H
#define IPSE_SYNTH_EDITGEN_H

#include "incremental/Edit.h"
#include "ir/Program.h"
#include "support/Rng.h"

#include <optional>

namespace ipse {
namespace synth {

/// Weights and limits for EditGen.  A weight of zero disables that kind.
struct EditGenConfig {
  std::uint64_t Seed = 1;

  // Effect-set deltas (absorbed or GMOD-only re-solves).
  unsigned WeightAddMod = 30;
  unsigned WeightRemoveMod = 10;
  unsigned WeightAddUse = 15;
  unsigned WeightRemoveUse = 5;

  // Call-structure deltas.
  unsigned WeightAddCall = 12;
  unsigned WeightRemoveCall = 6;
  unsigned WeightAddStmt = 4;

  // Universe deltas.
  unsigned WeightAddProc = 3;
  unsigned WeightAddGlobal = 3;
  unsigned WeightAddLocal = 2;
  unsigned WeightAddFormal = 2;
  unsigned WeightRemoveProc = 2;

  /// Master switches; clearing one zeroes that tier's weights.
  bool AllowStructural = true;
  bool AllowUniverse = true;

  /// AddProc never nests a new procedure deeper than this level.
  unsigned MaxNestDepth = 3;

  /// Percent chance that a generated actual is a variable (vs. a
  /// non-variable expression).
  unsigned VarActualPct = 75;
};

/// Stateful random edit stream.  Deterministic for a given seed and
/// program-edit history.
class EditGen {
public:
  explicit EditGen(const EditGenConfig &Config) : Cfg(Config), R(Config.Seed) {}

  /// Generates one valid edit against \p P, or nullopt if no enabled kind
  /// is feasible (e.g. removals on an empty program).  Apply the edit
  /// before calling next() again.
  std::optional<incremental::Edit> next(const ir::Program &P);

private:
  EditGenConfig Cfg;
  Rng R;
  unsigned NameCounter = 0;
};

} // namespace synth
} // namespace ipse

#endif // IPSE_SYNTH_EDITGEN_H
