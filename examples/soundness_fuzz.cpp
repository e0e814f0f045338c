//===- examples/soundness_fuzz.cpp - Execute-and-check fuzzing loop -----------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
//
// Differential fuzzing driver: generate a random program, render it to
// MiniProc, compile it back, *execute* it with the concrete interpreter,
// and verify that every variable observed written (read) during each call
// is contained in the analyzer's MOD (USE) answer for that call statement.
// A flow-insensitive analysis must over-approximate every run, so any
// violation is a bug — this harness is how the alias-estimator's
// nested-scoping bug was found (see DESIGN.md).
//
//   usage: soundness_fuzz [iterations] [start-seed]
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

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>

using namespace ipse;
using namespace ipse::ir;

namespace {

std::set<std::string> namesOf(const Program &P, const EffectSet &BV) {
  std::set<std::string> Out;
  BV.forEachSetBit([&](std::size_t I) {
    Out.insert(qualifiedName(P, VarId(static_cast<std::uint32_t>(I))));
  });
  return Out;
}

/// Returns the number of violations found (0 = sound on this program).
unsigned checkOneSeed(std::uint64_t Seed, std::uint64_t &CallsChecked) {
  synth::ProgramGenConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.NumProcs = 8 + Seed % 10;
  Cfg.NumGlobals = 3 + Seed % 4;
  Cfg.MaxFormals = 3;
  Cfg.MaxNestDepth = 1 + Seed % 4;
  Cfg.MaxCallsPerProc = 3;
  Cfg.UseDensityPct = 40;
  Cfg.ModDensityPct = 40;
  std::string Source = synth::emitMiniProc(synth::generateProgram(Cfg));

  frontend::DiagnosticEngine Diags;
  std::optional<frontend::ast::ProgramAst> Ast =
      frontend::parse(Source, Diags);
  if (!Ast) {
    std::fprintf(stderr, "seed %llu: generated source failed to parse\n%s",
                 static_cast<unsigned long long>(Seed),
                 Diags.renderAll().c_str());
    return 1;
  }
  std::optional<Program> Prog = frontend::lowerToIr(*Ast, Diags);
  if (!Prog) {
    std::fprintf(stderr, "seed %llu: generated source failed sema\n",
                 static_cast<unsigned long long>(Seed));
    return 1;
  }
  const Program &P = *Prog;

  analysis::SideEffectAnalyzer Mod(P);
  analysis::AnalyzerOptions UseOpts;
  UseOpts.Kind = analysis::EffectKind::Use;
  analysis::SideEffectAnalyzer Use(P, UseOpts);
  AliasInfo Aliases = analysis::estimateAliases(P);

  frontend::InterpreterOptions Options;
  Options.MaxSteps = 5000;
  Options.Input = {1, 2, 3, 5, 8};
  frontend::ExecutionResult R = frontend::interpret(*Ast, Options);

  std::map<std::string, ProcId> Procs;
  for (std::uint32_t I = 0; I != P.numProcs(); ++I)
    Procs[P.name(ProcId(I))] = ProcId(I);

  unsigned Violations = 0;
  for (const frontend::CallEvent &E : R.Calls) {
    const Procedure &Caller = P.proc(Procs.at(E.CallerProc));
    CallSiteId Site = Caller.CallSites[E.CallIndexInCaller];
    StmtId CallStmt = P.callSite(Site).Stmt;
    ++CallsChecked;

    std::set<std::string> ModSet = namesOf(P, Mod.mod(CallStmt, Aliases));
    std::set<std::string> UseSet = namesOf(P, Use.mod(CallStmt, Aliases));
    for (const std::string &W : E.WrittenVisible)
      if (!ModSet.count(W)) {
        std::fprintf(stderr,
                     "seed %llu: UNSOUND MOD: '%s' written in call of %s "
                     "from %s\n",
                     static_cast<unsigned long long>(Seed), W.c_str(),
                     E.Callee.c_str(), E.CallerProc.c_str());
        ++Violations;
      }
    for (const std::string &Rd : E.ReadVisible)
      if (!UseSet.count(Rd)) {
        std::fprintf(stderr,
                     "seed %llu: UNSOUND USE: '%s' read in call of %s "
                     "from %s\n",
                     static_cast<unsigned long long>(Seed), Rd.c_str(),
                     E.Callee.c_str(), E.CallerProc.c_str());
        ++Violations;
      }
  }
  return Violations;
}

} // namespace

int main(int argc, char **argv) {
  unsigned Iterations = argc > 1 ? std::atoi(argv[1]) : 200;
  std::uint64_t Seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1;

  unsigned Violations = 0;
  std::uint64_t CallsChecked = 0;
  for (unsigned I = 0; I != Iterations; ++I)
    Violations += checkOneSeed(Seed + I, CallsChecked);

  std::printf("%u programs executed, %llu call events checked, "
              "%u violations\n",
              Iterations, static_cast<unsigned long long>(CallsChecked),
              Violations);
  return Violations == 0 ? 0 : 1;
}
