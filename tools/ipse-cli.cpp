//===- tools/ipse-cli.cpp - The ipse command-line driver ----------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
//
// A multi-command driver over the whole library:
//
//   ipse-cli report [--rmod] [--no-use] <file.mp>   MOD/USE summary report
//   ipse-cli dot [--beta] <file.mp>                 call graph (or β) as dot
//   ipse-cli stats <file.mp>                        program and graph sizes
//   ipse-cli check <file.mp>                        run all solvers, verify
//   ipse-cli generate [--seed N] [--procs N] [--globals N] [--depth N]
//                                                   emit random MiniProc
//   ipse-cli roundtrip <file.mp>                    compile -> emit -> diff
//   ipse-cli session <script>                       drive a DemandSession
//                                                   from an edit/query
//                                                   script
//   ipse-cli serve ...                              concurrent analysis
//                                                   service over stdio or TCP
//                                                   (newline-delimited JSON)
//   ipse-cli client --port N [script]               line client for a serving
//                                                   instance
//   ipse-cli metrics-dump --port N [--format=F]     fetch a serving instance's
//                                                   metrics (Prometheus text
//                                                   or JSON)
//   ipse-cli debug-dump --port N                    fetch a serving instance's
//                                                   flight-recorder rings as
//                                                   Chrome Trace Event JSON
//   ipse-cli save ... <out.ipsesnap>                solve and write a binary
//                                                   snapshot (planes + program)
//   ipse-cli load <file.ipsesnap>                   warm-restore a snapshot
//                                                   and print a summary
//   ipse-cli inspect-snapshot <file.ipsesnap>       header / sections / CRCs
//
//===----------------------------------------------------------------------===//

#include "analysis/IModPlus.h"
#include "analysis/LevelSolvers.h"
#include "analysis/LocalEffects.h"
#include "analysis/MultiLevelGMod.h"
#include "analysis/RMod.h"
#include "api/Ipse.h"
#include "baselines/IterativeSolver.h"
#include "baselines/SwiftStyleSolver.h"
#include "baselines/WorklistSolver.h"
#include "frontend/Frontend.h"
#include "graph/Dot.h"
#include "graph/Reachability.h"
#include "observe/FlightRecorder.h"
#include "persist/Snapshot.h"
#include "persist/Store.h"
#include "service/ScriptDriver.h"
#include "service/Server.h"
#include "support/SimdKernels.h"
#include "synth/SourceGen.h"
#include "tenant/Protocol.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

using namespace ipse;
using namespace ipse::ir;

namespace {

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: ipse-cli <command> [options] [file.mp]\n"
      "  report [--rmod] [--no-use] [--engine=E] [--repr=R]\n"
      "         [--profile] [--trace-out=FILE] [--trace-format=F] <file>\n"
      "                                      MOD/USE summary report\n"
      "                                      (--engine: sequential or\n"
      "                                      demand; the report is\n"
      "                                      byte-identical on every\n"
      "                                      engine.\n"
      "                                      --repr: effect-set storage —\n"
      "                                      auto (sparse until dense pays,\n"
      "                                      the default), dense, or sparse;\n"
      "                                      results are byte-identical.\n"
      "                                      --profile appends per-phase\n"
      "                                      wall time and bit-vector op\n"
      "                                      counts; --trace-out streams\n"
      "                                      spans, --trace-format selects\n"
      "                                      jsonl (default) or chrome —\n"
      "                                      Trace Event JSON for Perfetto)\n"
      "  dot [--beta] <file>                 call graph (or beta) as dot\n"
      "  stats <file>                        program and graph sizes\n"
      "  check <file>                        run all solvers and verify\n"
      "  generate [--seed N] [--procs N] [--globals N] [--depth N]\n"
      "                                      emit a random MiniProc program\n"
      "  roundtrip <file>                    compile -> emit -> recompile\n"
      "  session [--engine=E] [--profile] [--trace-out=FILE]\n"
      "          [--trace-format=F] <script>\n"
      "                                      drive a demand-driven analysis\n"
      "                                      session ('-' reads stdin; see\n"
      "                                      'session' section of README).\n"
      "                                      Queries see the whole program\n"
      "                                      solved (a region solve, or the\n"
      "                                      batch pipeline once a region\n"
      "                                      reaches half the program);\n"
      "                                      --engine=demand solves only\n"
      "                                      the queried regions.  'stats'\n"
      "                                      prints the engine's counters:\n"
      "                                      edits, queries, region-solves,\n"
      "                                      region-procs, batch-solves,\n"
      "                                      memo-hits, invalidations,\n"
      "                                      absorbed, components (GMOD-only\n"
      "                                      re-solves), full-resets\n"
      "  query (--program <file> | --gen k=v[,k=v...]) [--engine=E]\n"
      "        [--stats] <proc|proc#k> ...\n"
      "                                      demand-driven one-shot query:\n"
      "                                      GMOD for each named procedure,\n"
      "                                      DMOD for each proc#k call site,\n"
      "                                      solving only the region the\n"
      "                                      queries reach (--engine=demand\n"
      "                                      is the default here; --stats\n"
      "                                      appends this run's region\n"
      "                                      attribution — region procs,\n"
      "                                      memo hits, frontier cuts —\n"
      "                                      plus the cumulative counters)\n"
      "  serve (--program <file> | --gen k=v[,k=v...] | --data-dir DIR)\n"
      "        [--port N] [--queue N] [--batch N] [--no-use]\n"
      "        [--compact-records N] [--compact-bytes N]\n"
      "        [--trace-out=FILE] [--trace-format=F] [--slow-ms N]\n"
      "        [--tenants[=SHARDS]] [--resident-cap N] [--engine=E]\n"
      "        [--tenant-max-procs N] [--tenant-max-edits N]\n"
      "                                      concurrent analysis service;\n"
      "                                      newline-delimited JSON over\n"
      "                                      stdio, or TCP with --port\n"
      "                                      (0 picks a free port); spans\n"
      "                                      are tagged with request trace\n"
      "                                      ids.  --data-dir makes the\n"
      "                                      service durable: edits are\n"
      "                                      write-ahead-logged and the\n"
      "                                      service warm-restarts from the\n"
      "                                      directory if it already holds\n"
      "                                      a store (then --program/--gen\n"
      "                                      may be omitted).  SIGTERM /\n"
      "                                      SIGINT drain, flush, and\n"
      "                                      compact before exiting.\n"
      "                                      One server hosts many programs\n"
      "                                      (protocol verbs open/close/\n"
      "                                      attach, sharded writers, per-\n"
      "                                      tenant stores under --data-\n"
      "                                      dir); the --program / --gen\n"
      "                                      program is the implicit tenant\n"
      "                                      that requests naming no tenant\n"
      "                                      reach.  --tenants makes the\n"
      "                                      program source optional and\n"
      "                                      =SHARDS sets the writer count.\n"
      "                                      --resident-cap bounds live\n"
      "                                      sessions (LRU evict-to-disk),\n"
      "                                      --tenant-max-procs /\n"
      "                                      --tenant-max-edits set per-\n"
      "                                      tenant quotas.  --engine is\n"
      "                                      ignored: every tenant solves\n"
      "                                      only what its queries reach.\n"
      "                                      --slow-ms logs queries and\n"
      "                                      flushes slower than N ms to\n"
      "                                      the --trace-out sink with\n"
      "                                      demand attribution.  With\n"
      "                                      --data-dir, SIGQUIT (or a\n"
      "                                      fatal signal) writes the\n"
      "                                      flight recorder to\n"
      "                                      flight-<pid>.json there\n"
      "                                      before dying\n"
      "  client --port N [script]            send a session script to a\n"
      "                                      serving instance (stdin when\n"
      "                                      no script is given)\n"
      "  metrics-dump --port N [--format=prom|json]\n"
      "                                      fetch a serving instance's\n"
      "                                      metrics (Prometheus text by\n"
      "                                      default)\n"
      "  debug-dump --port N                 fetch a serving instance's\n"
      "                                      flight-recorder rings as\n"
      "                                      Chrome Trace Event JSON\n"
      "                                      (load it in Perfetto)\n"
      "  save (--program <file> | --gen k=v[,k=v...]) [--no-use]\n"
      "       <out.ipsesnap>                 solve, then write a versioned\n"
      "                                      checksummed binary snapshot\n"
      "                                      (program + graphs + GMOD/RMOD\n"
      "                                      planes)\n"
      "  load [--report] <file.ipsesnap>     restore a snapshot without\n"
      "                                      re-solving; print a summary\n"
      "                                      (--report: the full MOD/USE\n"
      "                                      report from restored planes)\n"
      "  inspect-snapshot <file.ipsesnap>    print header, section sizes\n"
      "                                      and CRC status; exit 0 only\n"
      "                                      if every checksum verifies\n"
      "  version                             print build info and the\n"
      "                                      dispatched SIMD kernel ISA\n");
  std::exit(2);
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
    std::exit(1);
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

Program compileOrDie(const std::string &Path) {
  frontend::CompileResult R = frontend::compileMiniProc(readFile(Path));
  if (!R.succeeded()) {
    std::fprintf(stderr, "%s", R.Diags.renderAll().c_str());
    std::exit(1);
  }
  return std::move(*R.Program);
}

/// The engine / observability flags shared by `report`, `session`,
/// `query` and `serve`: one ipse::AnalysisOptions plus the owned `--trace-out` sink
/// feeding it.
struct CommonFlags {
  ipse::AnalysisOptions Opts;
  std::unique_ptr<observe::TraceSink> TraceOut;
  std::string TracePath;
  bool TraceChrome = false;

  /// Consumes --engine=E / --repr=R / --profile / --trace-out=FILE
  /// / --trace-format=jsonl|chrome.  Returns false when \p A is some
  /// other argument.  Exits on an unknown engine or trace format name.
  bool parse(const std::string &A) {
    using Engine = ipse::AnalysisOptions::Engine;
    const std::string EnginePrefix = "--engine=";
    if (A.compare(0, EnginePrefix.size(), EnginePrefix) == 0) {
      std::string Name = A.substr(EnginePrefix.size());
      if (Name == "sequential")
        Opts.Backend = Engine::Sequential;
      else if (Name == "demand")
        Opts.Backend = Engine::Demand;
      else {
        std::fprintf(stderr, "error: unknown engine '%s'\n", Name.c_str());
        std::exit(2);
      }
      return true;
    }
    if (A == "--profile") {
      Opts.Profile = true;
      return true;
    }
    const std::string ReprPrefix = "--repr=";
    if (A.compare(0, ReprPrefix.size(), ReprPrefix) == 0) {
      std::string Name = A.substr(ReprPrefix.size());
      if (Name == "auto")
        Opts.Repr = ipse::EffectSet::Representation::Auto;
      else if (Name == "dense")
        Opts.Repr = ipse::EffectSet::Representation::Dense;
      else if (Name == "sparse")
        Opts.Repr = ipse::EffectSet::Representation::Sparse;
      else {
        std::fprintf(stderr, "error: unknown representation '%s'\n",
                     Name.c_str());
        std::exit(2);
      }
      return true;
    }
    const std::string TracePrefix = "--trace-out=";
    if (A.compare(0, TracePrefix.size(), TracePrefix) == 0) {
      TracePath = A.substr(TracePrefix.size());
      return true;
    }
    const std::string FormatPrefix = "--trace-format=";
    if (A.compare(0, FormatPrefix.size(), FormatPrefix) == 0) {
      std::string Name = A.substr(FormatPrefix.size());
      if (Name == "jsonl")
        TraceChrome = false;
      else if (Name == "chrome")
        TraceChrome = true;
      else {
        std::fprintf(stderr, "error: unknown trace format '%s'\n",
                     Name.c_str());
        std::exit(2);
      }
      return true;
    }
    return false;
  }

  /// parse(), and a usage error (exit 2) for any other `--` argument,
  /// which a command would otherwise take as a path or an operand.
  /// Returns false when \p A is not an option.
  bool parseOrReject(const std::string &A) {
    if (parse(A))
      return true;
    if (A.compare(0, 2, "--") == 0) {
      std::fprintf(stderr, "error: unknown option '%s'\n", A.c_str());
      usage();
    }
    return false;
  }

  /// Opens the trace sink once every flag is seen (--trace-format may
  /// come after --trace-out).  Exits on an unwritable file.
  void finish() {
    if (TracePath.empty())
      return;
    std::string Error;
    if (TraceChrome)
      TraceOut = observe::ChromeTraceSink::open(TracePath, Error);
    else
      TraceOut = observe::JsonLinesSink::open(TracePath, Error);
    if (!TraceOut) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      std::exit(1);
    }
    Opts.Sink = TraceOut.get();
  }
};

int cmdReport(const std::vector<std::string> &Args) {
  analysis::ReportOptions Options;
  CommonFlags F;
  std::string Path;
  for (const std::string &A : Args) {
    if (A == "--rmod")
      Options.IncludeRMod = true;
    else if (A == "--no-use")
      Options.IncludeUse = false;
    else if (F.parseOrReject(A))
      ;
    else
      Path = A;
  }
  if (Path.empty())
    usage();
  F.finish();
  F.Opts.TrackUse = Options.IncludeUse;
  ipse::Analyzer An(F.Opts);
  ipse::ReportRun Run = An.reportSource(readFile(Path), Options);
  if (!Run.Ok) {
    std::fprintf(stderr, "%s", Run.Diagnostics.c_str());
    return 1;
  }
  std::fputs(Run.Output.c_str(), stdout);
  if (F.Opts.Profile) {
    std::fputs("profile:\n", stdout);
    std::fputs(Run.Costs.toText().c_str(), stdout);
  }
  return 0;
}

int cmdDot(const std::vector<std::string> &Args) {
  bool Beta = false;
  std::string Path;
  for (const std::string &A : Args) {
    if (A == "--beta")
      Beta = true;
    else
      Path = A;
  }
  if (Path.empty())
    usage();
  Program P = compileOrDie(Path);
  if (Beta) {
    graph::BindingGraph BG(P);
    std::fputs(graph::bindingGraphToDot(P, BG).c_str(), stdout);
  } else {
    graph::CallGraph CG(P);
    std::fputs(graph::callGraphToDot(P, CG).c_str(), stdout);
  }
  return 0;
}

int cmdStats(const std::vector<std::string> &Args) {
  if (Args.size() != 1)
    usage();
  Program P = compileOrDie(Args[0]);
  graph::CallGraph CG(P);
  graph::BindingGraph BG(P);
  EffectSet Reached = graph::reachableProcs(P);

  unsigned Formals = 0, Globals = 0, Locals = 0;
  for (std::uint32_t I = 0; I != P.numVars(); ++I) {
    switch (P.var(VarId(I)).Kind) {
    case VarKind::Formal:
      ++Formals;
      break;
    case VarKind::Global:
      ++Globals;
      break;
    case VarKind::Local:
      ++Locals;
      break;
    }
  }

  std::printf("procedures        %zu (reachable: %zu)\n", P.numProcs(),
              Reached.count());
  std::printf("nesting depth dP  %u\n", P.maxProcLevel());
  std::printf("variables         %zu (globals %u, locals %u, formals %u)\n",
              P.numVars(), Globals, Locals, Formals);
  std::printf("statements        %zu\n", P.numStmts());
  std::printf("call sites (Ec)   %zu\n", P.numCallSites());
  std::printf("beta nodes (Nb)   %zu\n", BG.numNodes());
  std::printf("beta edges (Eb)   %zu\n", BG.numEdges());
  return 0;
}

int cmdCheck(const std::vector<std::string> &Args) {
  if (Args.size() != 1)
    usage();
  Program P = compileOrDie(Args[0]);
  // Establish the paper's §3.3 precondition first.
  P = graph::eliminateUnreachable(P);

  // The batch pipeline against six solvers over graphs of their own.
  const analysis::BatchAnalysis Batch(P, /*WithUse=*/true);
  analysis::VarMasks Masks(P);
  graph::CallGraph CG(P);
  graph::BindingGraph BG(P);
  const graph::SccDecomposition Sccs = graph::computeSccs(CG.graph());
  bool Ok = true;
  for (analysis::EffectKind Kind :
       {analysis::EffectKind::Mod, analysis::EffectKind::Use}) {
    analysis::LocalEffects Local(P, Masks, Kind);
    analysis::RModResult RMod = analysis::solveRMod(P, BG, Local);
    std::vector<EffectSet> Plus = analysis::computeIModPlus(P, Local, RMod);

    analysis::GModResult Fast =
        P.maxProcLevel() <= 1
            ? analysis::solveGMod(P, CG, Masks, Plus)
            : analysis::solveMultiLevelCombined(P, CG, Masks, Plus);
    analysis::GModResult Rep =
        analysis::solveMultiLevelRepeated(P, CG, Masks, Plus);
    baselines::IterativeResult Oracle =
        baselines::solveIterative(P, CG, Masks, Local);
    baselines::IterativeResult Work =
        baselines::solveWorklist(P, CG, Masks, Local);
    baselines::SwiftResult Swift = baselines::solveSwift(P, CG, Masks, Local);
    // The condensation kernel.
    analysis::GModResult Levels =
        analysis::solveGModLevels(P, CG, Sccs, Masks, Plus);

    const analysis::SideEffectAnalyzer &Shared = Batch.of(Kind);
    Ok &= Shared.rmodResult().ModifiedFormals == RMod.ModifiedFormals;
    for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
      const EffectSet &Want = Oracle.GMod.GMod[I];
      Ok &= Shared.gmod(ProcId(I)) == Want && Fast.GMod[I] == Want &&
            Rep.GMod[I] == Want && Work.GMod.GMod[I] == Want &&
            Swift.GMod.GMod[I] == Want && Levels.GMod[I] == Want;
    }
  }
  std::printf("%zu procedures, 7 solvers, MOD and USE: %s\n", P.numProcs(),
              Ok ? "all agree" : "DISAGREEMENT");
  return Ok ? 0 : 1;
}

int cmdGenerate(const std::vector<std::string> &Args) {
  synth::ProgramGenConfig Cfg;
  Cfg.NumProcs = 10;
  for (std::size_t I = 0; I != Args.size(); ++I) {
    auto intArg = [&](unsigned &Out) {
      if (I + 1 >= Args.size())
        usage();
      Out = static_cast<unsigned>(std::atoi(Args[++I].c_str()));
    };
    if (Args[I] == "--seed") {
      unsigned S = 0;
      intArg(S);
      Cfg.Seed = S;
    } else if (Args[I] == "--procs") {
      intArg(Cfg.NumProcs);
    } else if (Args[I] == "--globals") {
      intArg(Cfg.NumGlobals);
    } else if (Args[I] == "--depth") {
      intArg(Cfg.MaxNestDepth);
    } else {
      usage();
    }
  }
  Program P = synth::generateProgram(Cfg);
  std::fputs(synth::emitMiniProc(P).c_str(), stdout);
  return 0;
}

int cmdRoundtrip(const std::vector<std::string> &Args) {
  if (Args.size() != 1)
    usage();
  Program P = compileOrDie(Args[0]);
  std::string Emitted = synth::emitMiniProc(P);
  frontend::CompileResult R = frontend::compileMiniProc(Emitted);
  if (!R.succeeded()) {
    std::fprintf(stderr, "re-compilation failed:\n%s",
                 R.Diags.renderAll().c_str());
    return 1;
  }
  const Program &Q = *R.Program;
  bool SameShape = P.numProcs() == Q.numProcs() &&
                   P.numVars() == Q.numVars() &&
                   P.numCallSites() == Q.numCallSites();
  std::printf("roundtrip: %zu procs, %zu vars, %zu call sites -> %s\n",
              P.numProcs(), P.numVars(), P.numCallSites(),
              SameShape ? "shape preserved" : "SHAPE CHANGED");
  return SameShape ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// session: a line-oriented driver over demand::DemandSession.
//
// The script grammar lives in service/ScriptDriver.h and the execution
// loop in ipse::Analyzer::runSessionScript (shared with library users);
// this command owns only argument parsing and the stdin special case.
//===----------------------------------------------------------------------===//

int cmdSession(const std::vector<std::string> &Args) {
  CommonFlags F;
  std::string Path;
  for (const std::string &A : Args) {
    if (F.parseOrReject(A))
      ;
    else if (Path.empty())
      Path = A;
    else
      usage();
  }
  if (Path.empty())
    usage();
  F.finish();
  std::string Script;
  if (Path == "-") {
    std::ostringstream SS;
    SS << std::cin.rdbuf();
    Script = SS.str();
  } else {
    Script = readFile(Path);
  }

  ipse::Analyzer An(F.Opts);
  observe::CostReport Costs;
  int Exit = An.runSessionScript(Script, stdout, &Costs);
  if (F.Opts.Profile) {
    std::fputs("profile:\n", stdout);
    std::fputs(Costs.toText().c_str(), stdout);
  }
  return Exit;
}

//===----------------------------------------------------------------------===//
// query: one-shot demand-driven queries over a program.
//===----------------------------------------------------------------------===//

Program buildInitialProgram(const std::string &ProgramPath,
                            const std::string &GenSpec);

int cmdQuery(const std::vector<std::string> &Args) {
  std::string ProgramPath, GenSpec;
  bool PrintStats = false;
  CommonFlags F;
  // Demand is the point of this command; --engine=sequential answers
  // from the whole program solved first, to cross-check.
  F.Opts.Backend = ipse::AnalysisOptions::Engine::Demand;
  std::vector<std::string> Operands;
  for (std::size_t I = 0; I != Args.size(); ++I) {
    auto strArg = [&]() -> std::string {
      if (I + 1 >= Args.size())
        usage();
      return Args[++I];
    };
    if (Args[I] == "--program")
      ProgramPath = strArg();
    else if (Args[I] == "--gen")
      GenSpec = strArg();
    else if (Args[I] == "--stats")
      PrintStats = true;
    else if (F.parseOrReject(Args[I]))
      ;
    else
      Operands.push_back(Args[I]);
  }
  if (Operands.empty() || ProgramPath.empty() == GenSpec.empty())
    usage();
  F.finish();

  Program P = buildInitialProgram(ProgramPath, GenSpec);
  service::ScriptCommand Cmd;
  Cmd.Kind = service::ScriptCommand::Op::Query;
  Cmd.Args = Operands;
  Cmd.LineNo = 1;

  ipse::Analyzer An(F.Opts);
  try {
    std::unique_ptr<demand::DemandSession> D = An.open_demand(std::move(P));
    if (F.Opts.Backend != ipse::AnalysisOptions::Engine::Demand)
      D->ensureSolvedAll();
    service::DemandSessionQueryTarget Target(*D);
    service::QueryResult R = service::evalQueryCommand(Target, Cmd);
    std::printf("%s\n", R.Text.c_str());
    if (PrintStats) {
      if (R.HasStats)
        // This run's attribution (the same three counters the serving
        // protocol returns in the query response's "stats" object).
        std::printf("query: region-procs %llu  memo-hits %llu  "
                    "frontier-cuts %llu\n",
                    (unsigned long long)R.RegionProcs,
                    (unsigned long long)R.MemoHits,
                    (unsigned long long)R.FrontierCuts);
      const demand::DemandStats &St = D->stats();
      std::printf("region-solves %llu  region-procs %llu  memo-hits %llu"
                  "  covered %zu/%zu\n",
                  (unsigned long long)St.RegionSolves,
                  (unsigned long long)St.RegionProcs,
                  (unsigned long long)St.MemoHits,
                  D->coveredCount(analysis::EffectKind::Mod),
                  D->program().numProcs());
    }
  } catch (const service::ScriptError &E) {
    std::fprintf(stderr, "error: %s\n", E.Message.c_str());
    return 1;
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// serve / client: the concurrent analysis service (see service/Server.h
// for the wire protocol).
//===----------------------------------------------------------------------===//

/// Shared by serve/save: builds the initial program from exactly one of
/// --program <file> / --gen k=v[,k=v...].  Exits on errors.
Program buildInitialProgram(const std::string &ProgramPath,
                            const std::string &GenSpec) {
  if (!ProgramPath.empty())
    return compileOrDie(ProgramPath);
  // Split the comma-separated spec into key=value tokens.
  std::vector<std::string> Tokens;
  std::istringstream SS(GenSpec);
  for (std::string Tok; std::getline(SS, Tok, ',');)
    if (!Tok.empty())
      Tokens.push_back(Tok);
  try {
    return synth::generateProgram(ipse::parseGenSpec(Tokens, 0));
  } catch (const service::ScriptError &E) {
    std::fprintf(stderr, "error: %s\n", E.Message.c_str());
    std::exit(2);
  }
}

/// Set by the SIGTERM/SIGINT handler; the serve loops poll it and the
/// handler is installed without SA_RESTART, so blocking read()s return
/// EINTR and the drain/flush/compact shutdown path runs.
volatile std::sig_atomic_t ShutdownRequested = 0;

void installShutdownHandler() {
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = [](int) { ShutdownRequested = 1; };
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0; // Deliberately no SA_RESTART.
  ::sigaction(SIGTERM, &SA, nullptr);
  ::sigaction(SIGINT, &SA, nullptr);
}

/// Where the SIGQUIT / fatal-signal handler writes the flight recorder
/// (serve --data-dir only).  A fixed buffer, filled before the handler
/// installs: the handler must not touch C++ globals with destructors.
char CrashDumpDir[4096];

extern "C" void crashDumpHandler(int Sig) {
  // Best effort by design: rendering the trace allocates, which is not
  // async-signal-safe, but this fires on an operator SIGQUIT or a fatal
  // signal, where the alternative is dying with nothing.  The atomic
  // write (temp file + rename) guarantees a partial dump never replaces
  // a complete one from an earlier run.
  std::string Path = std::string(CrashDumpDir) + "/flight-" +
                     std::to_string(::getpid()) + ".json";
  std::string Trace = observe::flight::renderChromeTrace();
  std::string Err;
  persist::writeFileAtomic(Path, Trace.data(), Trace.size(), Err);
  ::_exit(128 + Sig);
}

void installCrashDumpHandler(const std::string &DataDir) {
  std::snprintf(CrashDumpDir, sizeof(CrashDumpDir), "%s", DataDir.c_str());
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = crashDumpHandler;
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0;
  ::sigaction(SIGQUIT, &SA, nullptr);
  ::sigaction(SIGSEGV, &SA, nullptr);
  ::sigaction(SIGABRT, &SA, nullptr);
}

int cmdServe(const std::vector<std::string> &Args) {
  std::string ProgramPath, GenSpec;
  bool HavePort = false, SourceOptional = false;
  std::uint16_t Port = 0;
  CommonFlags F;
  ipse::AnalysisOptions &Opts = F.Opts;
  for (std::size_t I = 0; I != Args.size(); ++I) {
    auto strArg = [&]() -> std::string {
      if (I + 1 >= Args.size())
        usage();
      return Args[++I];
    };
    auto intArg = [&]() {
      return static_cast<unsigned>(std::atoi(strArg().c_str()));
    };
    if (Args[I] == "--program")
      ProgramPath = strArg();
    else if (Args[I] == "--gen")
      GenSpec = strArg();
    else if (Args[I] == "--data-dir")
      Opts.DataDir = strArg();
    else if (Args[I] == "--compact-records")
      Opts.CompactWalRecords = intArg();
    else if (Args[I] == "--compact-bytes")
      Opts.CompactWalBytes = intArg();
    else if (Args[I] == "--port") {
      HavePort = true;
      Port = static_cast<std::uint16_t>(intArg());
    } else if (Args[I] == "--queue")
      Opts.ServiceQueueCapacity = intArg();
    else if (Args[I] == "--batch")
      Opts.ServiceMaxBatch = intArg();
    else if (Args[I] == "--slow-ms")
      Opts.SlowMs = intArg();
    else if (Args[I] == "--no-use")
      Opts.TrackUse = false;
    else if (Args[I] == "--tenants")
      SourceOptional = true;
    else if (Args[I].rfind("--tenants=", 0) == 0) {
      SourceOptional = true;
      Opts.TenantShards =
          static_cast<unsigned>(std::atoi(Args[I].c_str() + 10));
    } else if (Args[I] == "--resident-cap")
      Opts.TenantMaxResident = intArg();
    else if (Args[I] == "--tenant-max-procs")
      Opts.TenantMaxProcs = intArg();
    else if (Args[I] == "--tenant-max-edits")
      Opts.TenantMaxQueuedEdits = intArg();
    else if (F.parseOrReject(Args[I]))
      ;
    else
      usage();
  }
  // A store at the root of the data dir is the implicit tenant; it wins
  // over --program / --gen.
  const bool HaveStore =
      !Opts.DataDir.empty() && persist::Store::exists(Opts.DataDir);
  if (HaveStore) {
    if (!ProgramPath.empty() || !GenSpec.empty())
      std::fprintf(stderr,
                   "note: '%s' holds a store; --program/--gen ignored, "
                   "recovering from it\n",
                   Opts.DataDir.c_str());
  } else if (!ProgramPath.empty() && !GenSpec.empty()) {
    std::fprintf(stderr, "error: 'serve' takes --program or --gen, "
                         "not both\n");
    return 2;
  } else if (!SourceOptional && ProgramPath.empty() && GenSpec.empty()) {
    std::fprintf(stderr,
                 "error: 'serve' needs exactly one of --program / --gen "
                 "(or --data-dir pointing at an existing store, or "
                 "--tenants)\n");
    return 2;
  }
  F.finish();

  std::optional<Program> Initial;
  if (!HaveStore && (!ProgramPath.empty() || !GenSpec.empty()))
    Initial = buildInitialProgram(ProgramPath, GenSpec);

  std::unique_ptr<tenant::TenantService> Svc;
  try {
    Svc = ipse::Analyzer(Opts).serve(std::move(Initial));
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return 1;
  }
  installShutdownHandler();
  if (!Opts.DataDir.empty())
    installCrashDumpHandler(Opts.DataDir);
  const bool HaveImplicit = Svc->hasTenant("");
  auto namedTenants = [&] {
    return Svc->tenantCount() - (HaveImplicit ? 1 : 0);
  };
  if (HaveStore)
    std::fprintf(stderr, "recovered '%s' at generation %llu\n",
                 Opts.DataDir.c_str(),
                 (unsigned long long)Svc->generation(""));
  if (SourceOptional && !Opts.DataDir.empty())
    std::fprintf(stderr, "tenants: %zu registered in '%s'\n",
                 namedTenants(), Opts.DataDir.c_str());

  if (!HavePort) {
    // The pump returns on EOF or on an EINTR'd read (our signal
    // handler); either way fall through to the drain + final-compact
    // shutdown.
    tenant::serveTenantFd(*Svc, /*InFd=*/0, /*OutFd=*/1);
  } else {
    service::TcpServer Server(tenant::tenantConnectionHandler(*Svc));
    std::string Error;
    if (!Server.start(Port, Error)) {
      std::fprintf(stderr, "error: cannot listen on port %u: %s\n",
                   unsigned(Port), Error.c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "serving on 127.0.0.1:%u (EOF on stdin or SIGTERM stops)\n",
                 unsigned(Server.port()));
    // Block until the operator closes stdin or a shutdown signal lands;
    // connections are served on their own threads meanwhile.
    char Buf[256];
    while (!ShutdownRequested) {
      ssize_t N = ::read(0, Buf, sizeof(Buf));
      if (N > 0)
        continue;
      if (N < 0 && errno == EINTR)
        continue; // Re-check ShutdownRequested.
      break;      // EOF or hard error.
    }
    Server.stop();
  }

  // Drain the queues and join the shard threads: with --data-dir this is
  // what folds every WAL into a final snapshot (the shard loops' exit
  // compaction).
  if (ShutdownRequested)
    std::fprintf(stderr, "shutdown signal: draining\n");
  Svc->stop();
  if (!Opts.DataDir.empty() && HaveImplicit)
    std::fprintf(stderr, "stopped at generation %llu; store '%s' compacted\n",
                 (unsigned long long)Svc->generation(""),
                 Opts.DataDir.c_str());
  if (SourceOptional && !Opts.DataDir.empty())
    std::fprintf(stderr, "tenants stopped; %zu in manifest '%s'\n",
                 namedTenants(), Opts.DataDir.c_str());
  return 0;
}

int cmdClient(const std::vector<std::string> &Args) {
  bool HavePort = false;
  std::uint16_t Port = 0;
  std::string ScriptPath;
  for (std::size_t I = 0; I != Args.size(); ++I) {
    if (Args[I] == "--port") {
      if (I + 1 >= Args.size())
        usage();
      HavePort = true;
      Port = static_cast<std::uint16_t>(std::atoi(Args[++I].c_str()));
    } else {
      ScriptPath = Args[I];
    }
  }
  if (!HavePort)
    usage();
  std::FILE *In = stdin;
  if (!ScriptPath.empty() && ScriptPath != "-") {
    In = std::fopen(ScriptPath.c_str(), "r");
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n", ScriptPath.c_str());
      return 1;
    }
  }
  int Exit = service::runClient(Port, In, stdout);
  if (In != stdin)
    std::fclose(In);
  return Exit;
}

int cmdMetricsDump(const std::vector<std::string> &Args) {
  bool HavePort = false;
  std::uint16_t Port = 0;
  bool Prom = true;
  for (std::size_t I = 0; I != Args.size(); ++I) {
    if (Args[I] == "--port") {
      if (I + 1 >= Args.size())
        usage();
      HavePort = true;
      Port = static_cast<std::uint16_t>(std::atoi(Args[++I].c_str()));
    } else if (Args[I] == "--format=prom") {
      Prom = true;
    } else if (Args[I] == "--format=json") {
      Prom = false;
    } else {
      usage();
    }
  }
  if (!HavePort)
    usage();
  return service::runMetricsDump(Port, Prom, stdout);
}

int cmdDebugDump(const std::vector<std::string> &Args) {
  bool HavePort = false;
  std::uint16_t Port = 0;
  for (std::size_t I = 0; I != Args.size(); ++I) {
    if (Args[I] == "--port") {
      if (I + 1 >= Args.size())
        usage();
      HavePort = true;
      Port = static_cast<std::uint16_t>(std::atoi(Args[++I].c_str()));
    } else {
      usage();
    }
  }
  if (!HavePort)
    usage();
  return service::runDebugDump(Port, stdout);
}

//===----------------------------------------------------------------------===//
// save / load / inspect-snapshot: the persistence subsystem's CLI surface.
//===----------------------------------------------------------------------===//

int cmdSave(const std::vector<std::string> &Args) {
  std::string ProgramPath, GenSpec, OutPath;
  bool TrackUse = true;
  for (std::size_t I = 0; I != Args.size(); ++I) {
    auto strArg = [&]() -> std::string {
      if (I + 1 >= Args.size())
        usage();
      return Args[++I];
    };
    if (Args[I] == "--program")
      ProgramPath = strArg();
    else if (Args[I] == "--gen")
      GenSpec = strArg();
    else if (Args[I] == "--no-use")
      TrackUse = false;
    else if (OutPath.empty())
      OutPath = Args[I];
    else
      usage();
  }
  if (OutPath.empty() || ProgramPath.empty() == GenSpec.empty())
    usage();

  Program P = buildInitialProgram(ProgramPath, GenSpec);
  demand::DemandOptions DO;
  DO.TrackUse = TrackUse;
  demand::DemandSession S(std::move(P), DO);
  std::string Err;
  if (!persist::SnapshotWriter::write(OutPath, persist::SnapshotSource::of(S),
                                      Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  const Program &Q = S.program();
  std::printf("wrote %s: generation %llu, %zu procs, %zu vars, "
              "use-tracking %s\n",
              OutPath.c_str(), (unsigned long long)S.generation(),
              Q.numProcs(), Q.numVars(), TrackUse ? "on" : "off");
  return 0;
}

int cmdLoad(const std::vector<std::string> &Args) {
  bool Report = false;
  std::string Path;
  for (const std::string &A : Args) {
    if (A == "--report")
      Report = true;
    else if (Path.empty())
      Path = A;
    else
      usage();
  }
  if (Path.empty())
    usage();

  persist::SnapshotData Data;
  std::string Err;
  if (!persist::SnapshotReader::read(Path, Data, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  demand::DemandOptions DO;
  DO.TrackUse = Data.TrackUse;
  demand::DemandSession S(std::move(Data.Program), DO,
                          std::move(Data.Planes));
  const Program &P = S.program();
  std::printf("%s: generation %llu\n", Path.c_str(),
              (unsigned long long)S.generation());
  std::printf("  procs %zu  vars %zu  stmts %zu  call sites %zu  "
              "use-tracking %s\n",
              P.numProcs(), P.numVars(), P.numStmts(), P.numCallSites(),
              Data.TrackUse ? "on" : "off");
  if (Report) {
    analysis::ReportOptions R;
    R.IncludeUse = Data.TrackUse;
    demand::KindView Mod(S, analysis::EffectKind::Mod);
    demand::KindView Use(S, analysis::EffectKind::Use);
    std::fputs(analysis::renderReport(P, R, Mod,
                                      Data.TrackUse ? &Use : nullptr)
                   .c_str(),
               stdout);
  }
  // 0 proves the warm path: every query above came from restored planes.
  std::printf("  region solves since load: %llu\n",
              (unsigned long long)S.stats().RegionSolves);
  return 0;
}

int cmdInspectSnapshot(const std::vector<std::string> &Args) {
  if (Args.size() != 1)
    usage();
  persist::SnapshotInfo Info;
  std::string Err;
  if (!persist::SnapshotReader::inspect(Args[0], Info, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  std::printf("%s:\n", Args[0].c_str());
  std::printf("  header      %s\n", Info.HeaderOk ? "ok" : "BAD");
  std::printf("  version     %u\n", Info.Version);
  std::printf("  flags       0x%x (use-tracking %s)\n", Info.Flags,
              (Info.Flags & persist::SnapshotFlagTrackUse) ? "on" : "off");
  std::printf("  generation  %llu\n", (unsigned long long)Info.Generation);
  std::printf("  sections    %zu\n", Info.Sections.size());
  bool AllOk = Info.HeaderOk;
  for (const persist::SnapshotInfo::Section &S : Info.Sections) {
    std::printf("    %-6s %10llu bytes  crc 0x%08x  %s\n",
                persist::sectionTagName(S.Tag).c_str(),
                (unsigned long long)S.PayloadBytes, S.StoredCrc,
                S.CrcOk ? "ok" : "BAD");
    AllOk = AllOk && S.CrcOk;
  }
  return AllOk ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    usage();
  std::string Cmd = argv[1];
  std::vector<std::string> Args(argv + 2, argv + argc);
  if (Cmd == "version" || Cmd == "--version") {
    // The dispatched ISA is part of the version story: two hosts running
    // the same binary can execute different dense kernels.
    std::printf("ipse-cli (Cooper-Kennedy PLDI'88 side-effect analysis)\n"
                "simd kernels: %s%s\n"
                "observability: %s\n",
                ipse::simd::dispatchedIsa(),
#ifdef IPSE_SIMD_OFF
                " (built with IPSE_SIMD=OFF)",
#else
                "",
#endif
#ifdef IPSE_OBSERVE_OFF
                "off (built with IPSE_OBSERVE=OFF)"
#else
                "on (tracing + flight recorder)"
#endif
    );
    return 0;
  }
  if (Cmd == "report")
    return cmdReport(Args);
  if (Cmd == "dot")
    return cmdDot(Args);
  if (Cmd == "stats")
    return cmdStats(Args);
  if (Cmd == "check")
    return cmdCheck(Args);
  if (Cmd == "generate")
    return cmdGenerate(Args);
  if (Cmd == "roundtrip")
    return cmdRoundtrip(Args);
  if (Cmd == "session")
    return cmdSession(Args);
  if (Cmd == "query")
    return cmdQuery(Args);
  if (Cmd == "serve")
    return cmdServe(Args);
  if (Cmd == "client")
    return cmdClient(Args);
  if (Cmd == "metrics-dump")
    return cmdMetricsDump(Args);
  if (Cmd == "debug-dump")
    return cmdDebugDump(Args);
  if (Cmd == "save")
    return cmdSave(Args);
  if (Cmd == "load")
    return cmdLoad(Args);
  if (Cmd == "inspect-snapshot")
    return cmdInspectSnapshot(Args);
  usage();
}
