//===- tests/frontend_test.cpp - MiniProc lexer/parser/sema tests -------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "analysis/SideEffectAnalyzer.h"
#include "frontend/Frontend.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "ir/Printer.h"
#include "persist/Snapshot.h"
#include "support/Binary.h"
#include "synth/ProgramGen.h"
#include "synth/SourceGen.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

using namespace ipse;
using namespace ipse::frontend;
using namespace ipse::ir;

namespace {

std::vector<TokenKind> kindsOf(const std::string &Source) {
  DiagnosticEngine Diags;
  std::vector<Token> Tokens = lex(Source, Diags);
  std::vector<TokenKind> Kinds;
  for (const Token &T : Tokens)
    Kinds.push_back(T.Kind);
  return Kinds;
}

TEST(Lexer, BasicTokens) {
  auto Kinds = kindsOf("x := y + 42;");
  std::vector<TokenKind> Expected = {
      TokenKind::Identifier, TokenKind::Assign, TokenKind::Identifier,
      TokenKind::Plus,       TokenKind::Number, TokenKind::Semicolon,
      TokenKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, Keywords) {
  auto Kinds = kindsOf("program proc var begin end call if then else "
                       "while do read write");
  EXPECT_EQ(Kinds.size(), 14u); // 13 keywords + eof.
  EXPECT_EQ(Kinds[0], TokenKind::KwProgram);
  EXPECT_EQ(Kinds[12], TokenKind::KwWrite);
}

TEST(Lexer, KeywordsAreNotPrefixes) {
  auto Kinds = kindsOf("programx beginx end2");
  EXPECT_EQ(Kinds[0], TokenKind::Identifier);
  EXPECT_EQ(Kinds[1], TokenKind::Identifier);
  EXPECT_EQ(Kinds[2], TokenKind::Identifier);
}

TEST(Lexer, Comments) {
  auto Kinds = kindsOf("x // line comment\n:= { block\ncomment } 1");
  std::vector<TokenKind> Expected = {TokenKind::Identifier, TokenKind::Assign,
                                     TokenKind::Number, TokenKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, PositionsAreTracked) {
  DiagnosticEngine Diags;
  std::vector<Token> Tokens = lex("ab\n  cd", Diags);
  EXPECT_EQ(Tokens[0].Loc.Line, 1u);
  EXPECT_EQ(Tokens[0].Loc.Col, 1u);
  EXPECT_EQ(Tokens[1].Loc.Line, 2u);
  EXPECT_EQ(Tokens[1].Loc.Col, 3u);
}

TEST(Lexer, BadCharacterReported) {
  DiagnosticEngine Diags;
  lex("x ? y", Diags);
  ASSERT_TRUE(Diags.hasErrors());
  EXPECT_NE(Diags.all()[0].Message.find("unexpected character"),
            std::string::npos);
}

TEST(Lexer, LoneColonReported) {
  DiagnosticEngine Diags;
  lex("x : y", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(Lexer, UnterminatedBlockComment) {
  DiagnosticEngine Diags;
  lex("x { never closed", Diags);
  ASSERT_TRUE(Diags.hasErrors());
  EXPECT_NE(Diags.all()[0].Message.find("unterminated"), std::string::npos);
}

TEST(Lexer, TokenTextViewsTheSource) {
  DiagnosticEngine Diags;
  const std::string Source = "alpha_1 := 0042 ? b:c\n  x9";
  std::vector<Token> Tokens = lex(Source, Diags);
  const std::vector<std::pair<TokenKind, std::string>> Expected = {
      {TokenKind::Identifier, "alpha_1"}, {TokenKind::Assign, ":="},
      {TokenKind::Number, "0042"},        {TokenKind::Error, "?"},
      {TokenKind::Identifier, "b"},       {TokenKind::Error, ":"},
      {TokenKind::Identifier, "c"},       {TokenKind::Identifier, "x9"},
      {TokenKind::Eof, ""}};
  ASSERT_EQ(Tokens.size(), Expected.size());
  for (std::size_t I = 0; I != Tokens.size(); ++I) {
    EXPECT_EQ(Tokens[I].Kind, Expected[I].first) << "token " << I;
    EXPECT_EQ(Tokens[I].Text, Expected[I].second) << "token " << I;
    if (Tokens[I].Text.empty())
      continue;
    // Zero-copy: every text points into the source buffer.
    EXPECT_GE(Tokens[I].Text.data(), Source.data());
    EXPECT_LE(Tokens[I].Text.data() + Tokens[I].Text.size(),
              Source.data() + Source.size());
  }
  EXPECT_EQ(Tokens[7].Loc.Line, 2u);
  EXPECT_EQ(Tokens[7].Loc.Col, 3u);
  // The error tokens keep their diagnostics and locations.
  ASSERT_EQ(Diags.all().size(), 2u);
  EXPECT_EQ(Diags.all()[0].Loc.Col, 17u);
  EXPECT_NE(Diags.all()[0].Message.find("unexpected character '?'"),
            std::string::npos);
  EXPECT_EQ(Diags.all()[1].Loc.Col, 20u);
  EXPECT_NE(Diags.all()[1].Message.find("expected '=' after ':'"),
            std::string::npos);
}

TEST(Lexer, KeywordLengthsWithoutKeywords) {
  // Same lengths as keywords, one letter off: all identifiers.
  auto Kinds = kindsOf("id da vat ent proq cull than elsa reed begun whale "
                       "wrote progran");
  ASSERT_EQ(Kinds.size(), 14u);
  for (std::size_t I = 0; I + 1 != Kinds.size(); ++I)
    EXPECT_EQ(Kinds[I], TokenKind::Identifier) << "word " << I;
}

const char *GoodProgram = R"(
program main;
var g, h;
proc q(c);
begin
  c := g;
end;
proc p(a, b);
var x;
begin
  x := a + 1;
  call q(b);
  h := 2;
end;
begin
  p(g, h);      // call keyword is optional
  write g;
end.
)";

TEST(Parser, AcceptsGoodProgram) {
  DiagnosticEngine Diags;
  auto Ast = parse(GoodProgram, Diags);
  ASSERT_TRUE(Ast) << Diags.renderAll();
  const ast::Proc &Main = Ast->main();
  EXPECT_EQ(Main.Name, "main");
  EXPECT_EQ(Main.Vars.size(), 2u);
  ASSERT_EQ(Main.Procs.size(), 2u);
  EXPECT_EQ(Ast->Procs[Ast->list(Main.Procs)[0]].Name, "q");
  EXPECT_EQ(Ast->Procs[Ast->list(Main.Procs)[1]].Params.size(), 2u);
  EXPECT_EQ(Main.Body.size(), 2u);
}

TEST(Parser, NamesViewTheSource) {
  const std::string Source = GoodProgram;
  DiagnosticEngine Diags;
  auto Ast = parse(Source, Diags);
  ASSERT_TRUE(Ast) << Diags.renderAll();
  auto InSource = [&](std::string_view Name) {
    return Name.data() >= Source.data() &&
           Name.data() + Name.size() <= Source.data() + Source.size();
  };
  for (const ast::Proc &P : Ast->Procs)
    EXPECT_TRUE(InSource(P.Name)) << P.Name;
  for (std::string_view Name : Ast->Names)
    EXPECT_TRUE(InSource(Name)) << Name;
  for (const ast::Stmt &S : Ast->Stmts)
    EXPECT_TRUE(S.Name.empty() || InSource(S.Name)) << S.Name;
}

TEST(Parser, IfWhileNesting) {
  const char *Src = R"(
program t; var a, b;
begin
  if a then
    a := 1;
    while b do b := b - 1; end;
  else
    b := 2;
  end;
end.
)";
  DiagnosticEngine Diags;
  auto Ast = parse(Src, Diags);
  ASSERT_TRUE(Ast) << Diags.renderAll();
  ASSERT_EQ(Ast->main().Body.size(), 1u);
  const ast::Stmt &If = Ast->Stmts[Ast->list(Ast->main().Body)[0]];
  EXPECT_EQ(If.K, ast::Stmt::Kind::If);
  ASSERT_EQ(If.Then.size(), 2u);
  EXPECT_EQ(If.Else.size(), 1u);
  const ast::Stmt &While = Ast->Stmts[Ast->list(If.Then)[1]];
  EXPECT_EQ(While.K, ast::Stmt::Kind::While);
  EXPECT_EQ(While.Then.size(), 1u);
}

TEST(Parser, NumberValues) {
  DiagnosticEngine Diags;
  auto Ast = parse("program t; var a;\nbegin a := 0042; "
                   "a := 99999999999999999999999; end.",
                   Diags);
  ASSERT_TRUE(Ast) << Diags.renderAll();
  ASSERT_EQ(Ast->main().Body.size(), 2u);
  auto ValueOf = [&](unsigned I) {
    const ast::Stmt &S = Ast->Stmts[Ast->list(Ast->main().Body)[I]];
    return Ast->Exprs[S.Value].Value;
  };
  EXPECT_EQ(ValueOf(0), 42);
  // Out of range saturates, as strtol does.
  EXPECT_EQ(ValueOf(1), std::numeric_limits<long>::max());
}

TEST(Parser, ReportsMissingDot) {
  DiagnosticEngine Diags;
  auto Ast = parse("program t; begin end", Diags);
  EXPECT_FALSE(Ast);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(Parser, RecoversAndReportsMultipleErrors) {
  const char *Src = R"(
program t; var a;
begin
  a := ;
  a := ;
end.
)";
  DiagnosticEngine Diags;
  auto Ast = parse(Src, Diags);
  EXPECT_FALSE(Ast);
  EXPECT_GE(Diags.all().size(), 2u);
}

TEST(Parser, ExpressionPrecedence) {
  DiagnosticEngine Diags;
  auto Ast =
      parse("program t; var a, b, c;\nbegin a := a + b * c; end.", Diags);
  ASSERT_TRUE(Ast);
  const ast::Expr &E =
      Ast->Exprs[Ast->Stmts[Ast->list(Ast->main().Body)[0]].Value];
  ASSERT_EQ(E.K, ast::Expr::Kind::Binary);
  EXPECT_EQ(E.Op, '+'); // * binds tighter.
  EXPECT_EQ(Ast->Exprs[E.Rhs].Op, '*');
}

TEST(Sema, LowersGoodProgram) {
  CompileResult R = compileMiniProc(GoodProgram);
  ASSERT_TRUE(R.succeeded()) << R.Diags.renderAll();
  const Program &P = *R.Program;
  EXPECT_EQ(P.numProcs(), 3u);
  EXPECT_EQ(P.numVars(), 6u); // g h c a b x.
  EXPECT_EQ(P.numCallSites(), 2u);
  std::string Error;
  EXPECT_TRUE(P.verify(Error)) << Error;
  EXPECT_EQ(P.name(ProcId(1)), "q");
  EXPECT_EQ(P.name(ProcId(2)), "p");
}

TEST(Sema, AnalysisOfCompiledProgram) {
  CompileResult R = compileMiniProc(GoodProgram);
  ASSERT_TRUE(R.succeeded());
  const Program &P = *R.Program;
  analysis::SideEffectAnalyzer An(P);

  // Same expectations as the hand-built running example in
  // analysis_test.cpp: GMOD(p) = {x, h, b}; GMOD(main) = {h}.
  ProcId PProc(2);
  EXPECT_EQ(An.setToString(An.gmod(PProc)), "h, p.b, p.x");
  EXPECT_EQ(An.setToString(An.gmod(P.main())), "h");
}

TEST(Sema, UndeclaredNameReported) {
  CompileResult R = compileMiniProc("program t;\nbegin x := 1; end.");
  EXPECT_FALSE(R.succeeded());
  EXPECT_NE(R.Diags.renderAll().find("undeclared"), std::string::npos);
}

TEST(Sema, DuplicateDeclarationReported) {
  CompileResult R =
      compileMiniProc("program t; var a, a;\nbegin a := 1; end.");
  EXPECT_FALSE(R.succeeded());
  EXPECT_NE(R.Diags.renderAll().find("duplicate"), std::string::npos);
}

TEST(Sema, ArityMismatchReported) {
  CompileResult R = compileMiniProc(R"(
program t; var g;
proc p(a); begin a := 1; end;
begin call p(g, g); end.
)");
  EXPECT_FALSE(R.succeeded());
  EXPECT_NE(R.Diags.renderAll().find("expects 1 argument"),
            std::string::npos);
}

TEST(Sema, CallingAVariableReported) {
  CompileResult R = compileMiniProc(R"(
program t; var g;
begin call g(); end.
)");
  EXPECT_FALSE(R.succeeded());
  EXPECT_NE(R.Diags.renderAll().find("not a procedure"), std::string::npos);
}

TEST(Sema, AssigningAProcedureReported) {
  CompileResult R = compileMiniProc(R"(
program t;
proc p(); begin end;
begin p := 1; end.
)");
  EXPECT_FALSE(R.succeeded());
  EXPECT_NE(R.Diags.renderAll().find("not a variable"), std::string::npos);
}

TEST(Sema, ShadowingResolvesInnermost) {
  CompileResult R = compileMiniProc(R"(
program t; var x;
proc p(); var x;
begin x := 1; end;
begin call p(); end.
)");
  ASSERT_TRUE(R.succeeded()) << R.Diags.renderAll();
  const Program &P = *R.Program;
  // p's statement modifies p.x, not the global x.
  analysis::SideEffectAnalyzer An(P);
  EXPECT_EQ(An.setToString(An.gmod(ProcId(1))), "p.x");
  EXPECT_EQ(An.setToString(An.gmod(P.main())), "");
}

TEST(Sema, ShadowedNameRestoredAfterScopeExit) {
  // Two sibling procedures declare the same local.  Leaving each one's
  // scope must bring the global back, so main's body, lowered after both,
  // assigns the global x.
  CompileResult R = compileMiniProc(R"(
program t; var x, y;
proc p(); var x;
begin x := 1; end;
proc q(); var x;
begin x := 2; end;
begin x := 3; call p(); call q(); y := x; end.
)");
  ASSERT_TRUE(R.succeeded()) << R.Diags.renderAll();
  analysis::SideEffectAnalyzer An(*R.Program);
  EXPECT_EQ(An.setToString(An.gmod(ProcId(1))), "p.x");
  EXPECT_EQ(An.setToString(An.gmod(ProcId(2))), "q.x");
  EXPECT_EQ(An.setToString(An.gmod(R.Program->main())), "x, y");
}

TEST(Sema, MutualRecursionAmongSiblings) {
  CompileResult R = compileMiniProc(R"(
program t; var g;
proc even(n); begin call odd(n); end;
proc odd(n);  begin call even(n); g := 1; end;
begin call even(g); end.
)");
  ASSERT_TRUE(R.succeeded()) << R.Diags.renderAll();
  analysis::SideEffectAnalyzer An(*R.Program);
  EXPECT_TRUE(An.gmod(R.Program->main()).test(0)); // g modified.
}

TEST(Sema, NestedProceduresAndUplevelAccess) {
  CompileResult R = compileMiniProc(R"(
program t; var g;
proc outer(a); var ov;
  proc inner();
  begin
    ov := 1;          // uplevel store to outer's local
    a := 2;           // uplevel store to outer's formal
  end;
begin
  call inner();
end;
begin
  call outer(g);
end.
)");
  ASSERT_TRUE(R.succeeded()) << R.Diags.renderAll();
  const Program &P = *R.Program;
  EXPECT_EQ(P.maxProcLevel(), 2u);
  analysis::SideEffectAnalyzer An(P);
  // outer's formal a is modified (in inner), so g ∈ GMOD(main).
  EXPECT_EQ(An.setToString(An.gmod(P.main())), "g");
}

TEST(Sema, ExpressionActualsDoNotBind) {
  CompileResult R = compileMiniProc(R"(
program t; var g;
proc p(a); begin a := 1; end;
begin call p(g + 0); end.
)");
  ASSERT_TRUE(R.succeeded()) << R.Diags.renderAll();
  analysis::SideEffectAnalyzer An(*R.Program);
  // The mod to a does not reach g: the actual is an expression.
  EXPECT_EQ(An.setToString(An.gmod(R.Program->main())), "");
}

TEST(Sema, FlowInsensitiveControlFlow) {
  CompileResult R = compileMiniProc(R"(
program t; var g, h, c;
begin
  if c then g := 1; else h := 2; end;
end.
)");
  ASSERT_TRUE(R.succeeded()) << R.Diags.renderAll();
  analysis::SideEffectAnalyzer An(*R.Program);
  // Both branches count.
  EXPECT_EQ(An.setToString(An.gmod(R.Program->main())), "g, h");
}

TEST(Frontend, LexErrorShortCircuits) {
  CompileResult R = compileMiniProc("program t; begin ? end.");
  EXPECT_FALSE(R.succeeded());
  EXPECT_TRUE(R.Diags.hasErrors());
}

//===----------------------------------------------------------------------===//
// Goldens recorded with the pointer-AST frontend (token vector, one heap
// node per AST node, a hash map per scope).  The frontend must make the
// same ProgramBuilder calls in the same order and report the same
// diagnostics, so these hold unchanged for any rewrite of it.
//===----------------------------------------------------------------------===//

std::string readCorpus(const std::string &Name) {
  std::ifstream In(std::string(IPSE_SOURCE_DIR) + "/examples/corpus/" + Name);
  EXPECT_TRUE(In.good()) << Name;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// CRC-32 of the persist::ProgramCodec bytes of \p Source's program.
std::uint32_t compiledCrc(const std::string &Source) {
  CompileResult R = compileMiniProc(Source);
  EXPECT_TRUE(R.succeeded()) << R.Diags.renderAll();
  if (!R.succeeded())
    return 0;
  ByteWriter W;
  persist::ProgramCodec::encode(*R.Program, W);
  return crc32(W.data(), W.size());
}

std::string randomNestedSource() {
  synth::ProgramGenConfig Cfg;
  Cfg.Seed = 2024;
  Cfg.NumProcs = 120;
  Cfg.NumGlobals = 12;
  Cfg.MaxNestDepth = 4;
  return synth::emitMiniProc(synth::generateProgram(Cfg));
}

TEST(FrontendGolden, CompiledProgramBytes) {
  const std::pair<std::string, std::uint32_t> Corpus[] = {
      {"accumulator.mp", 0x85cb8e98u}, {"ackermann.mp", 0x2b79693cu},
      {"banking.mp", 0xac10afb2u},     {"evaluator.mp", 0xe49bc772u},
      {"shadowing.mp", 0x850b0d6au},   {"swap_chain.mp", 0x703fda35u},
      {"tower.mp", 0x3d5ed03fu}};
  for (const auto &[Name, Crc] : Corpus)
    EXPECT_EQ(compiledCrc(readCorpus(Name)), Crc) << Name;

  EXPECT_EQ(compiledCrc(randomNestedSource()), 0x8bfb429fu) << "random nested";
  EXPECT_EQ(compiledCrc(synth::emitMiniProc(synth::makeCycleProgram(500, 4))),
            0xc510d062u)
      << "cycle-500";
  EXPECT_EQ(compiledCrc(synth::emitMiniProc(
                synth::makeNestedProgram(4, 20, 7))),
            0x9f7d2c3au)
      << "nested-4x20";
}

TEST(FrontendGolden, RandomSourceNestsAtLeastThreeDeep) {
  CompileResult R = compileMiniProc(randomNestedSource());
  ASSERT_TRUE(R.succeeded()) << R.Diags.renderAll();
  EXPECT_GE(R.Program->maxProcLevel(), 3u);
}

/// Malformed sources and the exact renderAll() text of each.
struct DiagCase {
  const char *What;
  const char *Source;
  const char *Expected;
};

const DiagCase DiagCases[] = {
    {"lexical error after a parse error",
     "program t; var a;\nbegin\n  a := ;\n  a := 1 ? 2;\nend.\n",
     "4:10: error: unexpected character '?'\n"},
    {"lexical error after the final dot",
     "program t; var a;\nbegin a := 1; end.\n  a : b\n",
     "3:5: error: expected '=' after ':'\n"},
    {"unterminated block comment",
     "program t; var a;\nbegin a := 1; { never closed\nend.\n",
     "2:15: error: unterminated '{' comment\n"},
    {"lexical error in the first token", "? program t; begin end.\n",
     "1:1: error: unexpected character '?'\n"},
    {"lexical error in the second token", "program ? t; begin end.\n",
     "1:9: error: unexpected character '?'\n"},
    {"several lexical errors", "program t;\nbegin # $ end. %\n",
     "2:7: error: unexpected character '#'\n"
     "2:9: error: unexpected character '$'\n"
     "2:16: error: unexpected character '%'\n"},
    {"parse recoveries",
     "program t; var a, b;\nbegin\n  a := ;\n  b c;\n  if then a := 1; "
     "end;\n  a := 1 +;\n  call (a);\nend.\n",
     "3:8: error: expected an expression before ';'\n"
     "4:5: error: expected ':=' before identifier\n"
     "5:6: error: expected an expression before 'then'\n"
     "5:11: error: expected 'then' before identifier\n"
     "6:11: error: expected an expression before ';'\n"
     "7:8: error: expected identifier before '('\n"},
    {"truncated program", "program t; var a;\nbegin a := 1;",
     "2:14: error: expected 'end' before end of input\n"
     "2:14: error: expected '.' before end of input\n"},
    {"extra input after the final dot",
     "program t;\nbegin end.\nbegin end.\n",
     "3:1: error: extra input after final '.'\n"},
    {"bad procedure header",
     "program t;\nproc p(a b); begin end;\nproc ; begin end;\nbegin end.\n",
     "2:10: error: expected ')' before identifier\n"
     "2:10: error: expected ';' before identifier\n"
     "2:10: error: expected 'begin' before identifier\n"
     "2:11: error: expected ':=' before ')'\n"
     "2:11: error: expected an expression before ')'\n"
     "2:14: error: expected 'end' before 'begin'\n"
     "2:14: error: expected ';' before 'begin'\n"
     "2:23: error: expected '.' before ';'\n"
     "2:23: error: extra input after final '.'\n"},
    {"empty source", "",
     "1:1: error: expected 'program' before end of input\n"
     "1:1: error: expected identifier before end of input\n"
     "1:1: error: expected ';' before end of input\n"
     "1:1: error: expected 'begin' before end of input\n"
     "1:1: error: expected 'end' before end of input\n"
     "1:1: error: expected '.' before end of input\n"},
    {"undeclared names",
     "program t; var a;\nproc p(); begin b := c; call q(); end;\n"
     "begin a := d + 1; read e; write f; end.\n",
     "2:17: error: use of undeclared name 'b'\n"
     "2:22: error: use of undeclared name 'c'\n"
     "2:25: error: call to undeclared procedure 'q'\n"
     "3:12: error: use of undeclared name 'd'\n"
     "3:19: error: use of undeclared name 'e'\n"
     "3:33: error: use of undeclared name 'f'\n"},
    {"wrong kinds",
     "program t; var g;\nproc p(); begin end;\n"
     "begin p := 1; g := p; call g(); call p(p); end.\n",
     "3:7: error: 'p' is a procedure, not a variable\n"
     "3:20: error: 'p' is a procedure, not a variable\n"
     "3:23: error: 'g' is a variable, not a procedure\n"
     "3:33: error: 'p' expects 0 argument(s), got 1\n"},
    {"arity mismatches",
     "program t; var g;\nproc p(a, b); begin end;\n"
     "begin call p(g); p(g, g, g); call p(); end.\n",
     "3:7: error: 'p' expects 2 argument(s), got 1\n"
     "3:18: error: 'p' expects 2 argument(s), got 3\n"
     "3:30: error: 'p' expects 2 argument(s), got 0\n"},
    {"duplicate declarations",
     "\n  program t; var a, b, a;\nproc a(); begin end;\n"
     "proc p(x, y, x); var y, p; proc p(); begin end; begin end;\n"
     "proc p(); begin end;\nbegin end.\n",
     "1:1: error: duplicate declaration of 'a'\n"
     "3:1: error: duplicate declaration of 'a'\n"
     "5:1: error: duplicate declaration of 'p'\n"
     "4:1: error: duplicate parameter 'x' in 'p'\n"
     "4:1: error: duplicate declaration of 'y'\n"
     "4:28: error: duplicate declaration of 'p'\n"},
    {"sema errors in nested scopes",
     "program t; var g;\nproc outer(f);\n  var l;\n  proc inner();\n"
     "  begin l := f; call outer(l); call inner(g, g); m := 1; end;\n"
     "begin call inner(); end;\nbegin call outer(l); call inner(); end.\n",
     "5:32: error: 'inner' expects 0 argument(s), got 2\n"
     "5:50: error: use of undeclared name 'm'\n"
     "7:18: error: use of undeclared name 'l'\n"
     "7:22: error: call to undeclared procedure 'inner'\n"},
};

TEST(FrontendGolden, DiagnosticsText) {
  for (const DiagCase &C : DiagCases) {
    CompileResult R = compileMiniProc(C.Source);
    EXPECT_FALSE(R.succeeded()) << C.What;
    EXPECT_EQ(R.Diags.renderAll(), C.Expected) << C.What;
  }
}

} // namespace
