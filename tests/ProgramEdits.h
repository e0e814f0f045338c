//===- tests/ProgramEdits.h - Edits applied to a bare program ---*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Applies incremental::Edit values straight to an ir::Program through
/// ir::ProgramEditor, with no analysis session in between, and builds the
/// edited program whose encoding the snapshot-format golden pins.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_TESTS_PROGRAMEDITS_H
#define IPSE_TESTS_PROGRAMEDITS_H

#include "incremental/Edit.h"
#include "ir/ProgramEditor.h"
#include "synth/EditGen.h"
#include "synth/ProgramGen.h"

#include <cstddef>
#include <cstdint>

namespace ipse {
namespace programedits {

inline void applyToProgram(ir::Program &P, const incremental::Edit &E) {
  ir::ProgramEditor Ed(P);
  using K = incremental::EditKind;
  switch (E.Kind) {
  case K::AddMod:
    Ed.addMod(E.Stmt, E.Var);
    break;
  case K::RemoveMod:
    Ed.removeMod(E.Stmt, E.Var);
    break;
  case K::AddUse:
    Ed.addUse(E.Stmt, E.Var);
    break;
  case K::RemoveUse:
    Ed.removeUse(E.Stmt, E.Var);
    break;
  case K::AddCall:
    Ed.addCall(E.Stmt, E.Callee, E.Actuals);
    break;
  case K::RemoveCall:
    Ed.removeCall(E.Call);
    break;
  case K::AddStmt:
    Ed.addStmt(E.Proc);
    break;
  case K::AddProc:
    Ed.addProc(E.Name, E.Proc);
    break;
  case K::AddGlobal:
    Ed.addGlobal(E.Name);
    break;
  case K::AddLocal:
    Ed.addLocal(E.Proc, E.Name);
    break;
  case K::AddFormal:
    Ed.addFormal(E.Proc, E.Name);
    break;
  case K::RemoveProc:
    Ed.removeProc(E.Proc);
    break;
  }
}

/// Number of incremental::EditKind values.
inline constexpr std::size_t NumEditKinds =
    static_cast<std::size_t>(incremental::EditKind::RemoveProc) + 1;

/// A seeded generated program after \p Edits seeded edits of every kind
/// (removeCall and removeProc included).  \p KindCounts, if given, counts
/// the applied edits per kind.
inline ir::Program editedProgram(std::uint64_t Seed, unsigned Edits,
                                 std::size_t *KindCounts = nullptr) {
  synth::ProgramGenConfig Cfg;
  Cfg.NumProcs = 40;
  Cfg.NumGlobals = 6;
  Cfg.MaxNestDepth = 3;
  Cfg.Seed = Seed;
  ir::Program P = synth::generateProgram(Cfg);
  synth::EditGenConfig ECfg;
  ECfg.Seed = Seed + 1;
  synth::EditGen Gen(ECfg);
  for (unsigned I = 0; I != Edits; ++I) {
    std::optional<incremental::Edit> E = Gen.next(P);
    if (!E)
      break;
    applyToProgram(P, *E);
    if (KindCounts)
      ++KindCounts[static_cast<std::size_t>(E->Kind)];
  }
  return P;
}

} // namespace programedits
} // namespace ipse

#endif // IPSE_TESTS_PROGRAMEDITS_H
