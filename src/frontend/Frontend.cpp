//===- frontend/Frontend.cpp - One-call MiniProc driver -----------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "frontend/Frontend.h"

#include "frontend/Parser.h"
#include "frontend/Sema.h"

using namespace ipse;
using namespace ipse::frontend;

CompileResult frontend::compileMiniProc(std::string_view Source) {
  CompileResult Result;
  std::optional<ast::ProgramAst> Ast = parse(Source, Result.Diags);
  if (Ast)
    Result.Program = lowerToIr(*Ast, Result.Diags);
  return Result;
}
