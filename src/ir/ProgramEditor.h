//===- ir/ProgramEditor.h - In-place program mutation -----------*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Mutation of an already-built ir::Program, the substrate of the
/// incremental analysis engine (src/incremental).  Unlike ProgramBuilder,
/// which constructs a program once and hands over an immutable value, the
/// editor applies deltas to a live program while keeping every structural
/// invariant of Program::verify() intact after each operation.
///
/// Lists live in the program's pools (see Program): an append moves a list
/// that does not already end its pool to the pool's end, and a pool is
/// compacted once its dead slots outnumber its live ones, so each edit
/// costs amortized O(length of the lists it touches), never an O(program)
/// shift.  Every list keeps its element order.  Spans from earlier views
/// are invalidated by any edit.
///
/// Id stability rules, which the incremental engine depends on:
///
///  - Additions are append-only: new procedures, variables, statements, and
///    call sites receive fresh ids at the end of their tables, so existing
///    ids (and dense side arrays indexed by them) stay valid.  In
///    particular the "children have larger ids than their lexical parents"
///    ordering that LocalEffects relies on is preserved.
///  - removeCall() fills the hole by moving the *last* call site into the
///    removed slot (returning the moved id so clients can patch their own
///    maps); all other ids are untouched.
///  - removeProc() compacts the procedure, variable, statement, and call
///    tables by shifting higher ids down, preserving relative order (and
///    hence the parent-before-child ordering).  Every outstanding id may
///    change; callers must treat it as a whole-program re-index.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_IR_PROGRAMEDITOR_H
#define IPSE_IR_PROGRAMEDITOR_H

#include "ir/Program.h"

#include <string_view>

namespace ipse {
namespace ir {

/// Applies deltas to a live Program.  The editor holds a reference; create
/// them freely, they carry no state of their own.
class ProgramEditor {
public:
  explicit ProgramEditor(Program &P) : P(P) {}

  /// \name Effect-set deltas (the incremental fast path)
  /// @{

  /// Adds \p V to LMOD(S).  \p V must be visible in S's procedure.
  void addMod(StmtId S, VarId V);

  /// Removes one occurrence of \p V from LMOD(S); returns false if absent.
  bool removeMod(StmtId S, VarId V);

  /// Adds \p V to LUSE(S).  \p V must be visible in S's procedure.
  void addUse(StmtId S, VarId V);

  /// Removes one occurrence of \p V from LUSE(S); returns false if absent.
  bool removeUse(StmtId S, VarId V);

  /// @}
  /// \name Call-graph deltas
  /// @{

  /// Appends an empty statement to \p Parent's body.
  StmtId addStmt(ProcId Parent);

  /// Adds a call to \p Callee inside \p S.  Scoping and arity are asserted
  /// exactly as Program::verify() demands.
  CallSiteId addCall(StmtId S, ProcId Callee, std::vector<Actual> Actuals);

  /// Removes call site \p C.  The last call site is moved into C's slot;
  /// returns the id that was moved (== C's slot afterwards), or an invalid
  /// id if C was the last one.
  CallSiteId removeCall(CallSiteId C);

  /// @}
  /// \name Universe deltas (procedures and variables)
  /// @{

  /// Creates a procedure lexically declared inside \p Parent.
  ProcId addProc(std::string_view Name, ProcId Parent);

  /// Declares a global variable (a "local" of main).
  VarId addGlobal(std::string_view Name);

  /// Declares a local variable of \p Owner.
  VarId addLocal(ProcId Owner, std::string_view Name);

  /// Appends a reference formal to \p Owner.  Asserts that no call site
  /// targets \p Owner yet (a later formal would break their arity).
  VarId addFormal(ProcId Owner, std::string_view Name);

  /// Removes procedure \p Target along with its variables, statements, and
  /// call sites.  Preconditions (asserted): not main, no nested
  /// procedures, and no call site invokes it.  Compacts all four id
  /// spaces; every outstanding id of a shifted entity changes.
  void removeProc(ProcId Target);

  /// @}

private:
  VarId addVar(ProcId Owner, std::string_view Name, VarKind Kind);

  Program &P;
};

} // namespace ir
} // namespace ipse

#endif // IPSE_IR_PROGRAMEDITOR_H
