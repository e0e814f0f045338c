//===- tests/interpreter_test.cpp - Execution semantics + MOD soundness -------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
//
// Two layers: unit tests pinning the interpreter's semantics (reference
// parameters, static links, recursion), then the *soundness sweep* — the
// strongest validation in the repository: a flow-insensitive analysis must
// over-approximate every concrete execution, so for every call statement
// actually executed, the variables observed written (read) during its
// dynamic extent must be contained in the computed MOD (USE) set of that
// statement.
//
//===----------------------------------------------------------------------===//

#include "analysis/AliasEstimator.h"
#include "analysis/SideEffectAnalyzer.h"
#include "frontend/Interpreter.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "ir/Printer.h"
#include "synth/ProgramGen.h"
#include "synth/SourceGen.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

using namespace ipse;
using namespace ipse::frontend;
using namespace ipse::ir;

namespace {

/// Parses source into both representations: the AST (for execution) and
/// the ir::Program (for analysis).  Holds the source, which the AST's
/// names view.
struct Compiled {
  const std::string Source;
  std::optional<ast::ProgramAst> Ast;
  std::optional<Program> Prog;

  explicit Compiled(std::string Text) : Source(std::move(Text)) {
    DiagnosticEngine Diags;
    Ast = parse(Source, Diags);
    EXPECT_TRUE(Ast) << Diags.renderAll();
    if (Ast)
      Prog = lowerToIr(*Ast, Diags);
    EXPECT_TRUE(Prog.has_value()) << Diags.renderAll();
  }
  Compiled(const Compiled &) = delete;
  Compiled &operator=(const Compiled &) = delete;
};

ExecutionResult runSource(const std::string &Source,
                          std::vector<std::int64_t> Input = {},
                          std::uint64_t MaxSteps = 100000) {
  Compiled C(Source);
  InterpreterOptions Options;
  Options.Input = std::move(Input);
  Options.MaxSteps = MaxSteps;
  return interpret(*C.Ast, Options);
}

TEST(Interpreter, ArithmeticAndOutput) {
  ExecutionResult R = runSource(R"(
program t; var a;
begin
  a := 2 + 3 * 4;
  write a;
  write (2 + 3) * 4;
  write 7 / 2;
  write 1 / 0;
  write -a;
end.
)");
  ASSERT_TRUE(R.Finished);
  ASSERT_EQ(R.Output.size(), 5u);
  EXPECT_EQ(R.Output[0], 14);
  EXPECT_EQ(R.Output[1], 20);
  EXPECT_EQ(R.Output[2], 3);
  EXPECT_EQ(R.Output[3], 0); // Total semantics.
  EXPECT_EQ(R.Output[4], -14);
}

TEST(Interpreter, ControlFlowAndRead) {
  ExecutionResult R = runSource(R"(
program t; var n, sum;
begin
  read n;
  while n do
    sum := sum + n;
    n := n - 1;
  end;
  if sum then write sum; else write -1; end;
end.
)",
                                {4});
  ASSERT_TRUE(R.Finished);
  ASSERT_EQ(R.Output.size(), 1u);
  EXPECT_EQ(R.Output[0], 10);
  EXPECT_EQ(R.Globals.at("sum"), 10);
  EXPECT_EQ(R.Globals.at("n"), 0);
}

TEST(Interpreter, ReferenceParametersReallyAlias) {
  ExecutionResult R = runSource(R"(
program t; var a, b;
proc swap(x, y); var tmp;
begin
  tmp := x; x := y; y := tmp;
end;
begin
  a := 1; b := 2;
  call swap(a, b);
  write a; write b;
end.
)");
  ASSERT_TRUE(R.Finished);
  EXPECT_EQ(R.Output[0], 2);
  EXPECT_EQ(R.Output[1], 1);
}

TEST(Interpreter, ExpressionActualsCopy) {
  ExecutionResult R = runSource(R"(
program t; var a;
proc bump(x); begin x := x + 1; end;
begin
  a := 5;
  call bump(a + 0);   // by value: a must not change
  call bump(a);       // by reference: a changes
  write a;
end.
)");
  ASSERT_TRUE(R.Finished);
  EXPECT_EQ(R.Output[0], 6);
}

TEST(Interpreter, StaticLinksForUplevelAccess) {
  ExecutionResult R = runSource(R"(
program t; var g;
proc outer(a); var ov;
  proc inner();
  begin
    ov := ov + a;     // up-level store and read
    g := g + 1;
  end;
begin
  ov := 10;
  call inner();
  call inner();
  write ov;
end;
begin
  call outer(3);
  write g;
end.
)");
  ASSERT_TRUE(R.Finished);
  EXPECT_EQ(R.Output[0], 16); // 10 + 3 + 3.
  EXPECT_EQ(R.Output[1], 2);
}

TEST(Interpreter, RecursionGetsFreshLocals) {
  ExecutionResult R = runSource(R"(
program t; var acc;
proc fact(n); var saved;
begin
  saved := n;
  if n then
    call fact(n - 1);
    acc := acc + saved;   // saved must be per-activation
  end;
end;
begin
  call fact(4);
  write acc;
end.
)");
  ASSERT_TRUE(R.Finished);
  EXPECT_EQ(R.Output[0], 10); // 4 + 3 + 2 + 1.
}

TEST(Interpreter, StepBudgetStopsInfiniteLoops) {
  ExecutionResult R = runSource(R"(
program t; var x;
begin
  while 1 do x := x + 1; end;
end.
)",
                                {}, 500);
  EXPECT_FALSE(R.Finished);
  EXPECT_LE(R.Steps, 500u);
}

TEST(Interpreter, CallEventsRecordVisibleEffects) {
  ExecutionResult R = runSource(R"(
program t; var g, untouched;
proc inc(x); begin x := x + g; end;
begin
  g := 3;
  call inc(g);
end.
)");
  ASSERT_TRUE(R.Finished);
  ASSERT_EQ(R.Calls.size(), 1u);
  const CallEvent &E = R.Calls[0];
  EXPECT_EQ(E.Callee, "inc");
  EXPECT_EQ(E.CallerProc, "t");
  EXPECT_EQ(E.CallIndexInCaller, 0u);
  ASSERT_EQ(E.WrittenVisible.size(), 1u);
  EXPECT_EQ(E.WrittenVisible[0], "g");
  ASSERT_EQ(E.ReadVisible.size(), 1u); // x reads aliased g; g read directly.
  EXPECT_EQ(E.ReadVisible[0], "g");
}

TEST(Interpreter, ReadBeyondInputYieldsZero) {
  ExecutionResult R = runSource(R"(
program t; var a, b;
begin
  read a;
  read b;
  write a; write b;
end.
)",
                                {42});
  ASSERT_TRUE(R.Finished);
  EXPECT_EQ(R.Output[0], 42);
  EXPECT_EQ(R.Output[1], 0);
}

TEST(Interpreter, DepthCapMarksEventsIncomplete) {
  Compiled C(R"(
program t; var n;
proc spin(); begin call spin(); end;
begin
  call spin();
  n := 1;           // never reached
end.
)");
  InterpreterOptions Options;
  Options.MaxDepth = 16;
  ExecutionResult R = interpret(*C.Ast, Options);
  EXPECT_FALSE(R.Finished);
  ASSERT_FALSE(R.Calls.empty());
  EXPECT_LE(R.Calls.size(), 17u); // Bounded by the depth cap.
  for (const CallEvent &E : R.Calls)
    EXPECT_FALSE(E.Completed);
  EXPECT_EQ(R.Globals.at("n"), 0);
}

TEST(Interpreter, RuntimeShadowingPicksInnermost) {
  ExecutionResult R = runSource(R"(
program t; var x;
proc p(); var x;
begin
  x := 5;           // p's x, not the global
end;
begin
  x := 1;
  call p();
  write x;
end.
)");
  ASSERT_TRUE(R.Finished);
  EXPECT_EQ(R.Output[0], 1); // Global untouched.
  ASSERT_EQ(R.Calls.size(), 1u);
  EXPECT_TRUE(R.Calls[0].WrittenVisible.empty()); // Only p.x written.
}

TEST(Interpreter, SiblingCallUsesCorrectStaticLink) {
  // q reads p's local through its own static link to main, not through
  // the *dynamic* caller chain: s reads the global g, never p's shadow.
  ExecutionResult R = runSource(R"(
program t; var g;
proc s(); begin g := g + 100; end;
proc p(); var g;
begin
  g := 7;     // shadow
  call s();   // must bump the GLOBAL g
end;
begin
  g := 1;
  call p();
  write g;
end.
)");
  ASSERT_TRUE(R.Finished);
  EXPECT_EQ(R.Output[0], 101); // Static scoping, not dynamic.
}

TEST(Interpreter, WhileBodyNeverRunsOnFalse) {
  ExecutionResult R = runSource(R"(
program t; var a;
begin
  while 0 do a := 99; end;
  write a;
end.
)");
  ASSERT_TRUE(R.Finished);
  EXPECT_EQ(R.Output[0], 0);
}

//===----------------------------------------------------------------------===//
// The soundness sweep.
//===----------------------------------------------------------------------===//

/// Renders a EffectSet of variables as a set of qualified names.
std::set<std::string> namesOf(const Program &P, const EffectSet &BV) {
  std::set<std::string> Out;
  BV.forEachSetBit([&](std::size_t I) {
    Out.insert(qualifiedName(P, VarId(static_cast<std::uint32_t>(I))));
  });
  return Out;
}

/// Executes \p Source and checks every observed call event against the
/// analyzer's MOD and USE answers for the matching call statement.
void checkSoundness(const std::string &Source,
                    std::vector<std::int64_t> Input = {},
                    std::uint64_t MaxSteps = 20000) {
  Compiled C(Source);
  ASSERT_TRUE(C.Prog.has_value());
  const Program &P = *C.Prog;

  analysis::SideEffectAnalyzer Mod(P);
  analysis::AnalyzerOptions UseOpts;
  UseOpts.Kind = analysis::EffectKind::Use;
  analysis::SideEffectAnalyzer Use(P, UseOpts);
  AliasInfo Aliases = analysis::estimateAliases(P);

  InterpreterOptions Options;
  Options.Input = std::move(Input);
  Options.MaxSteps = MaxSteps;
  ExecutionResult R = interpret(*C.Ast, Options);

  // Procedure by name.
  std::map<std::string, ProcId> Procs;
  for (std::uint32_t I = 0; I != P.numProcs(); ++I)
    Procs[P.name(ProcId(I))] = ProcId(I);

  for (const CallEvent &E : R.Calls) {
    ASSERT_TRUE(Procs.count(E.CallerProc)) << E.CallerProc;
    const Procedure &Caller = P.proc(Procs.at(E.CallerProc));
    ASSERT_LT(E.CallIndexInCaller, Caller.CallSites.size());
    CallSiteId Site = Caller.CallSites[E.CallIndexInCaller];
    StmtId CallStmt = P.callSite(Site).Stmt;
    EXPECT_EQ(P.name(P.callSite(Site).Callee), E.Callee);

    std::set<std::string> ModSet =
        namesOf(P, Mod.mod(CallStmt, Aliases));
    std::set<std::string> UseSet =
        namesOf(P, Use.mod(CallStmt, Aliases));

    for (const std::string &W : E.WrittenVisible)
      EXPECT_TRUE(ModSet.count(W))
          << "unsound MOD: '" << W << "' written during call of "
          << E.Callee << " from " << E.CallerProc << " but MOD = {"
          << Mod.setToString(Mod.mod(CallStmt, Aliases)) << "}";
    for (const std::string &Rd : E.ReadVisible)
      EXPECT_TRUE(UseSet.count(Rd))
          << "unsound USE: '" << Rd << "' read during call of " << E.Callee
          << " from " << E.CallerProc << " but USE = {"
          << Use.setToString(Use.mod(CallStmt, Aliases)) << "}";
  }
}

TEST(Interpreter, AckermannComputesCorrectly) {
  std::ifstream In(std::string(IPSE_SOURCE_DIR) +
                   "/examples/corpus/ackermann.mp");
  ASSERT_TRUE(In.good());
  std::ostringstream SS;
  SS << In.rdbuf();
  ExecutionResult R = runSource(SS.str(), {}, 1000000);
  ASSERT_TRUE(R.Finished);
  ASSERT_GE(R.Output.size(), 1u);
  EXPECT_EQ(R.Output[0], 7); // Ackermann(2, 2).
}

TEST(Interpreter, ShadowingComputesCorrectly) {
  std::ifstream In(std::string(IPSE_SOURCE_DIR) +
                   "/examples/corpus/shadowing.mp");
  ASSERT_TRUE(In.good());
  std::ostringstream SS;
  SS << In.rdbuf();
  ExecutionResult R = runSource(SS.str());
  ASSERT_TRUE(R.Finished);
  ASSERT_EQ(R.Output.size(), 1u);
  EXPECT_EQ(R.Output[0], 21); // 10 (by ref) + 10 (by value) + 1 (global x).
}

TEST(Soundness, CorpusPrograms) {
  for (const char *Name : {"banking.mp", "swap_chain.mp", "accumulator.mp",
                           "evaluator.mp", "tower.mp", "shadowing.mp",
                           "ackermann.mp"}) {
    std::ifstream In(std::string(IPSE_SOURCE_DIR) + "/examples/corpus/" +
                     Name);
    ASSERT_TRUE(In.good()) << Name;
    std::ostringstream SS;
    SS << In.rdbuf();
    SCOPED_TRACE(Name);
    checkSoundness(SS.str(), {7, 3, 2});
  }
}

TEST(Soundness, AliasedFormalsProgram) {
  // The classical MOD-vs-DMOD gap: the write through c lands on g, which
  // only alias factoring can predict at the call site inside p.
  checkSoundness(R"(
program t; var g;
proc q(c); begin c := 1; end;
proc p(a); begin call q(a); end;
begin
  call p(g);
end.
)");
}

TEST(Soundness, TwoFormalsSameActual) {
  checkSoundness(R"(
program t; var g, out;
proc p(a, b);
begin
  a := 7;         // also writes b and g: all three alias
  out := b;
end;
begin
  call p(g, g);
end.
)");
}

TEST(Soundness, RandomGeneratedPrograms) {
  for (std::uint64_t Seed = 1; Seed <= 25; ++Seed) {
    synth::ProgramGenConfig Cfg;
    Cfg.Seed = Seed;
    Cfg.NumProcs = 10;
    Cfg.NumGlobals = 4;
    Cfg.MaxFormals = 3;
    Cfg.MaxNestDepth = 3;
    Cfg.MaxCallsPerProc = 3;
    Cfg.UseDensityPct = 40;
    Cfg.ModDensityPct = 40;
    Program P = synth::generateProgram(Cfg);
    SCOPED_TRACE("seed " + std::to_string(Seed));
    checkSoundness(synth::emitMiniProc(P), {1, 2, 3}, 5000);
  }
}

} // namespace
