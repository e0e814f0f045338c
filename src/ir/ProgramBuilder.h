//===- ir/ProgramBuilder.h - Incremental program construction ---*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Mutable builder for ir::Program.  Used by the MiniProc frontend, the
/// synthetic program generators, and directly by library clients (see
/// examples/quickstart.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_IR_PROGRAMBUILDER_H
#define IPSE_IR_PROGRAMBUILDER_H

#include "ir/Program.h"

#include <string_view>

namespace ipse {
namespace ir {

/// Builds an ir::Program entity by entity.
///
/// Usage: create main first, then procedures (each naming its lexical
/// parent), variables, statements, and calls in any order consistent with
/// ownership; call finish() once to obtain the immutable program.  finish()
/// asserts that Program::verify() succeeds.
class ProgramBuilder {
public:
  ProgramBuilder() = default;

  /// Sizes the row tables for up to the given counts, and the name table
  /// for Procs + Vars names, so building a program within them reallocates
  /// neither.  Optional.
  void reserve(std::size_t Procs, std::size_t Vars, std::size_t Stmts,
               std::size_t Calls);

  /// Creates the main program procedure (level 0).  Must be called first.
  ProcId createMain(std::string_view Name);

  /// Creates a procedure lexically declared inside \p Parent.
  ProcId createProc(std::string_view Name, ProcId Parent);

  /// Declares a global variable (a "local" of main).
  VarId addGlobal(std::string_view Name);

  /// Declares a local variable of \p Owner.
  VarId addLocal(ProcId Owner, std::string_view Name);

  /// Appends a reference formal parameter to \p Owner's formal list.
  VarId addFormal(ProcId Owner, std::string_view Name);

  /// Appends an empty statement to \p Parent's body.
  StmtId addStmt(ProcId Parent);

  /// Records that statement \p S may modify \p V directly (v ∈ LMOD(s)).
  void addMod(StmtId S, VarId V);

  /// Records that statement \p S may use \p V directly (v ∈ LUSE(s)).
  void addUse(StmtId S, VarId V);

  /// Adds a call to \p Callee inside statement \p S with the given actuals.
  CallSiteId addCall(StmtId S, ProcId Callee, std::vector<Actual> Actuals);

  /// Convenience overload: every actual is a variable.
  CallSiteId addCall(StmtId S, ProcId Callee, const std::vector<VarId> &Vars);

  /// Convenience: one fresh statement containing a single call.
  CallSiteId addCallStmt(ProcId Caller, ProcId Callee,
                         const std::vector<VarId> &Vars);

  /// Read access to the program under construction (ids remain stable;
  /// the spans of a view last only until the next builder call).
  const Program &peek() const { return P; }

  /// Finalizes: lays out the pools and verifies invariants.
  /// The builder must not be used afterwards.
  Program finish();

private:
  VarId addVar(ProcId Owner, std::string_view Name, VarKind Kind);

  /// Lists are staged in P's pools with doubling slack (Pool::stage);
  /// finish() lays each pool out once, tightly, in row order.
  Program P;
  bool MainCreated = false;
};

} // namespace ir
} // namespace ipse

#endif // IPSE_IR_PROGRAMBUILDER_H
