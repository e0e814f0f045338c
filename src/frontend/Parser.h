//===- frontend/Parser.h - MiniProc parser ----------------------*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for MiniProc:
///
///   program  := "program" IDENT ";" block "."
///   block    := ["var" names ";"] {procdecl} "begin" stmts "end"
///   procdecl := "proc" IDENT ["(" names? ")"] ";" block ";"
///   stmts    := {stmt [";"]}
///   stmt     := IDENT ":=" expr
///            |  ["call"] IDENT "(" [expr {"," expr}] ")"
///            |  "if" expr "then" stmts ["else" stmts] "end"
///            |  "while" expr "do" stmts "end"
///            |  "read" IDENT | "write" expr
///   expr     := term {("+"|"-") term};  term := factor {("*"|"/") factor}
///   factor   := NUMBER | IDENT | "(" expr ")" | "-" factor
///
/// One pass: the parser pulls tokens from a streaming Lexer, holding the
/// current token and one of lookahead (for the `IDENT (` call check), and
/// appends rows to the AST's tables as it goes.
///
/// Errors: the parser recovers by synchronizing to statement boundaries,
/// so several errors can be reported in one run.  Lexical errors win: the
/// parser reports into a side buffer, the lexer is drained to Eof after
/// the parse, and the parser's errors are kept only if the lexer reported
/// none.  The diagnostics are therefore every lexical error of the source
/// or, when there is none, every parse error.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_FRONTEND_PARSER_H
#define IPSE_FRONTEND_PARSER_H

#include "frontend/Ast.h"
#include "frontend/Diagnostics.h"

#include <optional>
#include <string_view>

namespace ipse {
namespace frontend {

/// Parses \p Source.  Returns nullopt when any error was reported.  The
/// AST's names view \p Source, which must outlive it.
std::optional<ast::ProgramAst> parse(std::string_view Source,
                                     DiagnosticEngine &Diags);

} // namespace frontend
} // namespace ipse

#endif // IPSE_FRONTEND_PARSER_H
