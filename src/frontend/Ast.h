//===- frontend/Ast.h - MiniProc abstract syntax ----------------*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AST for MiniProc.  The language is deliberately small — scalar integer
/// variables, reference parameters, nested procedure declarations,
/// assignments, calls, structured control flow, read/write — because the
/// paper's analysis is flow-insensitive: only who declares what, who calls
/// whom with which actuals, and which variables each statement touches
/// matter.
///
/// Representation: index-addressed tables.  Expressions, statements and
/// procedures are rows of three arrays and refer to each other by index;
/// every list (a body, a call's arguments, a block's procedures) is a
/// Range of one uint32_t pool, and every declared-name list a Range of one
/// name pool.  Nothing is allocated per node and nothing is freed per node.
///
/// Lifetime: every name is a std::string_view into the parsed source, so
/// the source must outlive the AST.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_FRONTEND_AST_H
#define IPSE_FRONTEND_AST_H

#include "frontend/Diagnostics.h"

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace ipse {
namespace frontend {
namespace ast {

/// A list: the pool entries [Begin, End).
struct Range {
  std::uint32_t Begin = 0;
  std::uint32_t End = 0;

  std::uint32_t size() const { return End - Begin; }
};

/// An expression.
struct Expr {
  enum class Kind : std::uint8_t { Number, VarRef, Binary, Unary };

  Kind K = Kind::Number;
  /// Binary / Unary: one of + - * /; Unary uses Lhs only.
  char Op = 0;
  SourceLoc Loc;
  /// Binary / Unary operands, as expression indices.
  std::uint32_t Lhs = 0;
  std::uint32_t Rhs = 0;
  /// Number.
  long Value = 0;
  /// VarRef.
  std::string_view Name;

  /// True if this is a bare variable reference (eligible to be passed by
  /// reference as an actual parameter).
  bool isVarRef() const { return K == Kind::VarRef; }
};

/// A statement.
struct Stmt {
  enum class Kind : std::uint8_t { Assign, Call, If, While, Read, Write };

  Kind K = Kind::Assign;
  SourceLoc Loc;
  /// Assign / Read: the target; Call: the callee.
  std::string_view Name;
  /// Assign / Write: the value; If / While: the condition (an expression
  /// index).
  std::uint32_t Value = 0;
  /// Call: the actual arguments (expression indices).
  Range Args;
  /// If: the then-branch; While: the body (statement indices).
  Range Then;
  /// If: the else-branch (statement indices).
  Range Else;
};

/// A procedure declaration, or the main program (procedure 0: no
/// parameters, its variables are the globals).
struct Proc {
  std::string_view Name;
  SourceLoc Loc;
  /// Names.
  Range Params;
  Range Vars;
  /// Procedure indices of the nested declarations.
  Range Procs;
  /// Statement indices of the body.
  Range Body;
};

/// A whole parsed program.
struct ProgramAst {
  std::vector<Expr> Exprs;
  std::vector<Stmt> Stmts;
  /// Procs[0] is the main program; the rest follow in source order.
  std::vector<Proc> Procs;
  /// The pool every statement, argument and procedure list lives in.
  std::vector<std::uint32_t> Lists;
  /// The pool every parameter and variable list lives in.
  std::vector<std::string_view> Names;

  const Proc &main() const { return Procs[0]; }
  std::span<const std::uint32_t> list(Range R) const {
    return {Lists.data() + R.Begin, R.size()};
  }
  std::span<const std::string_view> names(Range R) const {
    return {Names.data() + R.Begin, R.size()};
  }
};

} // namespace ast
} // namespace frontend
} // namespace ipse

#endif // IPSE_FRONTEND_AST_H
