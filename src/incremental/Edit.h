//===- incremental/Edit.h - First-class program deltas ----------*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A first-class description of one program delta — the currency passed
/// between the synthetic edit generator (synth/EditGen.h), the randomized
/// equivalence harness, the CLI `session` command, and the benchmarks.
/// Ids inside an Edit are valid against the program state at the moment it
/// is generated; apply it immediately (ids can shift under removals).
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_INCREMENTAL_EDIT_H
#define IPSE_INCREMENTAL_EDIT_H

#include "ir/Program.h"
#include "support/Binary.h"

#include <string>
#include <vector>

namespace ipse {
namespace incremental {

/// The delta vocabulary of demand::DemandSession (demand::applyEdit).
enum class EditKind : std::uint8_t {
  AddMod,     ///< Stmt, Var: add Var to LMOD(Stmt).
  RemoveMod,  ///< Stmt, Var: drop one occurrence of Var from LMOD(Stmt).
  AddUse,     ///< Stmt, Var: add Var to LUSE(Stmt).
  RemoveUse,  ///< Stmt, Var: drop one occurrence of Var from LUSE(Stmt).
  AddCall,    ///< Stmt, Callee, Actuals: new call site.
  RemoveCall, ///< Call: remove a call site.
  AddStmt,    ///< Proc: append an empty statement.
  AddProc,    ///< Name, Proc (parent): new procedure.
  AddGlobal,  ///< Name: new global variable.
  AddLocal,   ///< Name, Proc (owner): new local variable.
  AddFormal,  ///< Name, Proc (owner): new formal parameter.
  RemoveProc  ///< Proc: remove a leaf, uncalled procedure.
};

/// One delta.  Only the fields its kind documents are meaningful.
struct Edit {
  EditKind Kind = EditKind::AddMod;
  ir::StmtId Stmt;
  ir::VarId Var;
  ir::ProcId Proc;
  ir::ProcId Callee;
  ir::CallSiteId Call;
  std::vector<ir::Actual> Actuals;
  std::string Name;

  /// \name Wire codec (the WAL's record payload)
  /// The encoding is kind-independent: every field is written, including
  /// the ones the kind leaves defaulted, so decode ∘ encode is the
  /// identity on the *whole* struct for every kind — the round-trip the
  /// write-ahead log depends on.  Ids are stored as raw 32-bit values
  /// (the invalid sentinel included); they are only meaningful against
  /// the program state the edit was resolved under, which is exactly how
  /// replay presents them.
  /// @{
  void encode(ByteWriter &W) const;
  /// Returns false (leaving \p Out unspecified) on truncated input or an
  /// out-of-range kind byte.
  static bool decode(ByteReader &R, Edit &Out);
  /// @}

  friend bool operator==(const Edit &, const Edit &) = default;
};

/// Renders \p E against \p P for logs and failure messages.
std::string toString(const ir::Program &P, const Edit &E);

/// Renders \p E as one line of the session-script grammar (the language
/// `ipse-cli session` scripts and service protocol `cmd` fields share; see
/// service/ScriptDriver.h), so synthetic EditGen streams can drive the
/// analysis service by name.  The rendering addresses statements by their
/// position in the owning procedure's body and variables by bare name; if a
/// generated name is shadowed in the resolution scope the parsed edit may
/// bind a different (still visible) variable — harmless for workloads whose
/// generated names are unique, which EditGen guarantees.
std::string toScriptLine(const ir::Program &P, const Edit &E);

} // namespace incremental
} // namespace ipse

#endif // IPSE_INCREMENTAL_EDIT_H
