//===- bench/bench_demand.cpp - Demand-driven query cost vs batch solve ------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
//
// Measures the demand-driven engine's promise: a cold single-procedure
// query should cost O(region), not O(program).  Each shape is timed four
// ways and emitted as one JSON line:
//
//   {"shape":"chain-100k","procs":100001,"vars":256,"query":"sub99950",
//    "batch_us":48211.0,"open_us":9123.0,"cold_query_us":35.2,
//    "warm_query_us":0.1,"region_procs":51,"resident_procs":51,
//    "batch_over_cold":1369.4}
//
//   batch_us        full SideEffectAnalyzer solve + GMOD(main)
//   open_us         DemandSession construction (no whole-program graph or
//                   plane: flags, slots and the level filters)
//   cold_query_us   first gmod(q) on a fresh session (region solve, or the
//                   batch pipeline once the region reaches half the
//                   program — never more than batch_us plus the walk)
//   warm_query_us   repeat gmod(q) (memoized plane read)
//   region_procs    procedures the cold query actually solved
//   resident_procs  procedures holding plane rows after the cold query
//                   (the region and its lexical descendants, or every
//                   procedure once the batch pipeline answered)
//
// Shapes:
//   fortran-4000   the random-call-graph shape shared with the other
//                  benches.  Calls are drawn from the whole program, so a
//                  single query's forward closure is most of it — the
//                  honest adversarial case where demand buys little.
//   chain-4000     forward DAG (proc I calls I+1, I+7, I+13): a query
//   chain-100k     near the tail reaches a few dozen procedures, so the
//                  cold query is orders of magnitude below batch.
//
// region_procs and resident_procs are deterministic (same program, same
// query, same closure) and gate tight in ipse-bench-diff; the wall-clock
// columns gate loose.
//
//===----------------------------------------------------------------------===//

#include "analysis/SideEffectAnalyzer.h"
#include "demand/DemandSession.h"
#include "ir/ProgramBuilder.h"
#include "synth/ProgramGen.h"

#include <chrono>
#include <cstdio>
#include <string>

using namespace ipse;
using namespace ipse::ir;

namespace {

using Clock = std::chrono::steady_clock;

double microsSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - Start)
      .count();
}

/// Forward DAG: proc I calls I+1, I+7, I+13 (when they exist), so the
/// forward closure of a proc K steps from the tail is O(K).
ir::Program makeChain(unsigned NumProcs, unsigned NumGlobals) {
  ProgramBuilder B;
  ProcId Main = B.createMain("main");
  std::vector<VarId> Globals;
  for (unsigned G = 0; G != NumGlobals; ++G)
    Globals.push_back(B.addGlobal("g" + std::to_string(G)));
  std::vector<ProcId> Procs;
  for (unsigned I = 0; I != NumProcs; ++I)
    Procs.push_back(B.createProc("sub" + std::to_string(I), Main));
  for (unsigned I = 0; I != NumProcs; ++I) {
    StmtId S = B.addStmt(Procs[I]);
    B.addMod(S, Globals[I % NumGlobals]);
    B.addUse(S, Globals[(I * 7 + 1) % NumGlobals]);
    for (unsigned Step : {1u, 7u, 13u})
      if (I + Step < NumProcs)
        B.addCallStmt(Procs[I], Procs[I + Step], {});
  }
  B.addCallStmt(Main, Procs[0], {});
  return B.finish();
}

struct Shape {
  const char *Name;
  ir::Program Prog;
  /// The cold-query target: near the tail on chains (small closure),
  /// the last procedure on fortran (whatever its closure happens to be).
  ProcId Query;
};

void runCell(const Shape &Sh) {
  const ir::Program &P = Sh.Prog;

  // --- Demand open (structure only).  It copies the program, so it runs
  // first: a copy made after the batch samples below churned the heap
  // lands scattered, and the cold query would then pay for reading a
  // program laid out worse than the one the batch side reads.
  demand::DemandOptions DOpts;
  DOpts.TrackUse = false;
  Clock::time_point Start = Clock::now();
  demand::DemandSession S(P, DOpts);
  double OpenUs = microsSince(Start);

  // --- Batch: the full pipeline, Mod-only to match the demand session.
  unsigned Samples = P.numProcs() > 10000 ? 3 : 10;
  analysis::AnalyzerOptions AOpts;
  Start = Clock::now();
  for (unsigned I = 0; I != Samples; ++I) {
    analysis::SideEffectAnalyzer Full(P, AOpts);
    (void)Full.gmod(P.main());
  }
  double BatchUs = microsSince(Start) / Samples;

  // --- Demand: cold query, warm repeat.
  Start = Clock::now();
  (void)S.gmod(Sh.Query);
  double ColdUs = microsSince(Start);
  std::uint64_t RegionProcs = S.stats().RegionProcs;
  std::uint64_t ResidentProcs = S.stats().ResidentProcs;

  unsigned WarmReps = 1000;
  Start = Clock::now();
  for (unsigned I = 0; I != WarmReps; ++I)
    (void)S.gmod(Sh.Query);
  double WarmUs = microsSince(Start) / WarmReps;

  std::printf("{\"shape\":\"%s\",\"procs\":%u,\"vars\":%u,"
              "\"query\":\"%s\",\"batch_us\":%.1f,\"open_us\":%.1f,"
              "\"cold_query_us\":%.2f,\"warm_query_us\":%.3f,"
              "\"region_procs\":%llu,\"resident_procs\":%llu,"
              "\"batch_over_cold\":%.1f}\n",
              Sh.Name, static_cast<unsigned>(P.numProcs()),
              static_cast<unsigned>(P.numVars()),
              P.name(Sh.Query).c_str(), BatchUs, OpenUs, ColdUs,
              WarmUs, (unsigned long long)RegionProcs,
              (unsigned long long)ResidentProcs,
              ColdUs > 0 ? BatchUs / ColdUs : 0.0);
  std::fflush(stdout);
}

} // namespace

int main() {
  {
    ir::Program P = synth::makeFortranStyleProgram(
        /*NumProcs=*/4000, /*NumGlobals=*/512, /*CallsPerProc=*/3,
        /*Seed=*/9);
    ProcId Query(P.numProcs() - 1);
    runCell({"fortran-4000", std::move(P), Query});
  }
  {
    ir::Program P = makeChain(/*NumProcs=*/4000, /*NumGlobals=*/256);
    ProcId Query(P.numProcs() - 50);
    runCell({"chain-4000", std::move(P), Query});
  }
  {
    ir::Program P = makeChain(/*NumProcs=*/100000, /*NumGlobals=*/256);
    ProcId Query(P.numProcs() - 50);
    runCell({"chain-100k", std::move(P), Query});
  }
  return 0;
}
