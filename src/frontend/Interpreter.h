//===- frontend/Interpreter.h - Concrete MiniProc execution ----*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small tree-walking interpreter for MiniProc with full reference
/// parameter and static-link (up-level addressing) semantics.  Its purpose
/// is *validation*: a flow-insensitive MOD/USE analysis must
/// over-approximate every concrete execution, so the interpreter records,
/// for every call statement it executes, which caller-visible variables
/// were actually written and read during the call's dynamic extent — and
/// the soundness test suite checks those observations against the
/// analyzer's MOD/USE answers.
///
/// Semantics: 64-bit integer variables initialized to zero; truthiness is
/// nonzero; division by zero yields zero (total semantics keep random
/// programs executable); `read` consumes from a caller-provided input
/// sequence (zero when exhausted).  Execution is bounded by a step budget
/// so non-terminating programs still produce validated prefixes.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_FRONTEND_INTERPRETER_H
#define IPSE_FRONTEND_INTERPRETER_H

#include "frontend/Ast.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ipse {
namespace frontend {

/// One executed call statement, with the concrete effects observed during
/// its dynamic extent.
struct CallEvent {
  /// The procedure whose body contains the call statement.
  std::string CallerProc;
  /// Zero-based index of this call statement among the calls that appear
  /// (textually) in the caller's body — matches the order of the caller's
  /// CallSites list in the lowered ir::Program.
  unsigned CallIndexInCaller = 0;
  /// The callee's name.
  std::string Callee;
  /// Caller-visible variables written / read during the call, as
  /// qualified names ("g" for globals, "proc.v" otherwise).
  std::vector<std::string> WrittenVisible;
  std::vector<std::string> ReadVisible;
  /// False when the step budget expired inside this call (the observed
  /// effects are still a valid execution prefix).
  bool Completed = true;
};

/// Outcome of one bounded execution.
struct ExecutionResult {
  /// All call events, outermost first in start order.
  std::vector<CallEvent> Calls;
  /// Values written by `write` statements, in order.
  std::vector<std::int64_t> Output;
  /// Final values of the globals by name.
  std::map<std::string, std::int64_t> Globals;
  /// True if the program ran to completion within the budget.
  bool Finished = false;
  /// Steps actually executed.
  std::uint64_t Steps = 0;
};

/// Execution knobs.
struct InterpreterOptions {
  std::uint64_t MaxSteps = 100000;
  /// Call-depth cap; exceeding it aborts like the step budget (keeps
  /// effect tracking linear in steps on unboundedly recursive programs).
  unsigned MaxDepth = 256;
  std::vector<std::int64_t> Input; ///< Values consumed by `read`.
};

/// Runs \p Ast.  The AST must be semantically valid (i.e. lowerToIr on it
/// succeeds); the interpreter asserts on violations rather than
/// diagnosing them again.  The source \p Ast was parsed from must be
/// alive: the AST's names view it.
ExecutionResult interpret(const ast::ProgramAst &Ast,
                          const InterpreterOptions &Options);

} // namespace frontend
} // namespace ipse

#endif // IPSE_FRONTEND_INTERPRETER_H
