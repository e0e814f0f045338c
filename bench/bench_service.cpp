//===- bench/bench_service.cpp - Concurrent service throughput ---------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
//
// Measures the server's single-program query throughput under a mixed
// read/write load: one tenant::TenantService hosting the program as its
// implicit tenant, exactly what `ipse-cli serve --program/--gen` runs.
// Like bench_incremental, this is not google-benchmark based: each
// (shape, readers) cell runs one fixed workload and emits one JSON line:
//
//   {"shape":"fortran-4000","procs":4000,"readers":4,"reads":600,
//    "edits":40,"wall_ms":112.4,"qps":5338.1,"read_p50_us":128,
//    "read_p99_us":4096,"read_mean_us":187,"qps_vs_r1":1.9}
//
// Workload per cell: `readers` client threads each issue `reads/readers`
// blocking call()s drawn from a pool of gmod/guse/rmod/mod/use queries
// over the initial procedures, while the main thread streams `edits`
// effect-set deltas (tier-1, the steady-state editing profile) through
// the tenant's shard.  Reads of a resident tenant run on the calling
// thread, so the reader count is the read-side concurrency.  Latency is
// measured client-side (submit to response), aggregated in a
// LatencyHistogram; qps counts reads only.  qps_vs_r1 is this cell's qps
// over the same shape's readers=1 qps — the read-scaling figure
// (meaningful only on multi-core hosts).
//
//===----------------------------------------------------------------------===//

#include "demand/DemandSession.h"
#include "incremental/Edit.h"
#include "support/LatencyHistogram.h"
#include "support/Rng.h"
#include "synth/EditGen.h"
#include "synth/ProgramGen.h"
#include "tenant/TenantService.h"

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace ipse;

namespace {

using Clock = std::chrono::steady_clock;

struct Shape {
  const char *Name;
  unsigned Procs, Globals;
  std::uint64_t Seed;
  unsigned Reads; ///< Total across all reader threads.
  unsigned Edits;
};

// fortran-4000 matches bench_incremental's large shape; reads are scaled
// down so the full matrix stays under a minute per run.
const Shape Shapes[] = {
    {"fortran-500", 500, 128, 5, 2000, 100},
    {"fortran-4000", 4000, 512, 9, 600, 40},
};

double millisSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

double runCell(const Shape &Sh, unsigned Readers, double BaselineQps) {
  auto makeProgram = [&] {
    return synth::makeFortranStyleProgram(Sh.Procs, Sh.Globals,
                                          /*CallsPerProc=*/3, Sh.Seed);
  };
  tenant::TenantOptions Opts;
  Opts.QueueCapacity = 256;
  tenant::TenantService Svc(Opts, makeProgram());
  // The edit stream is generated against a mirror of the served program
  // (edits are serial, so the mirror tracks the tenant exactly).
  demand::DemandSession Mirror(makeProgram());

  std::vector<std::string> Pool;
  {
    const ir::Program &P = Mirror.program();
    for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
      std::string N = P.name(ir::ProcId(I));
      Pool.push_back("gmod " + N);
      Pool.push_back("guse " + N);
      Pool.push_back("rmod " + N);
      Pool.push_back("mod " + N + " 0");
      Pool.push_back("use " + N + " 1");
    }
  }

  // Client-side latency: submit to response.
  LatencyHistogram Lat;
  unsigned PerReader = Sh.Reads / Readers;
  Clock::time_point Start = Clock::now();
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != Readers; ++T)
    Threads.emplace_back([&, T] {
      Rng R(100 + T);
      for (unsigned I = 0; I != PerReader; ++I) {
        const std::string &Cmd = Pool[R.next() % Pool.size()];
        Clock::time_point Sent = Clock::now();
        (void)Svc.call("", Cmd);
        Lat.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - Sent)
                .count()));
      }
    });

  // Effect-set deltas only: the steady-state editing profile, and it keeps
  // the procedure universe fixed so every pooled query stays valid.
  synth::EditGenConfig ECfg;
  ECfg.Seed = 31;
  ECfg.AllowStructural = false;
  ECfg.AllowUniverse = false;
  synth::EditGen Gen(ECfg);
  unsigned EditsApplied = 0;
  for (unsigned I = 0; I != Sh.Edits; ++I) {
    std::optional<incremental::Edit> E = Gen.next(Mirror.program());
    if (!E)
      break;
    std::string Line = incremental::toScriptLine(Mirror.program(), *E);
    demand::applyEdit(Mirror, *E);
    if (Svc.call("", Line).Ok)
      ++EditsApplied;
  }
  for (std::thread &T : Threads)
    T.join();
  double WallMs = millisSince(Start);

  unsigned TotalReads = PerReader * Readers;
  double Qps = TotalReads / (WallMs / 1000.0);
  std::printf("{\"shape\":\"%s\",\"procs\":%u,\"readers\":%u,\"reads\":%u,"
              "\"edits\":%u,\"wall_ms\":%.1f,\"qps\":%.1f,"
              "\"read_p50_us\":%llu,\"read_p99_us\":%llu,"
              "\"read_mean_us\":%llu,\"qps_vs_r1\":%.2f}\n",
              Sh.Name, Sh.Procs, Readers, TotalReads, EditsApplied, WallMs, Qps,
              (unsigned long long)Lat.percentileMicros(50),
              (unsigned long long)Lat.percentileMicros(99),
              (unsigned long long)Lat.meanMicros(),
              BaselineQps > 0 ? Qps / BaselineQps : 1.0);
  std::fflush(stdout);
  return Qps;
}

} // namespace

int main() {
  for (const Shape &Sh : Shapes) {
    double BaselineQps = 0;
    for (unsigned Readers : {1u, 2u, 4u}) {
      double Qps = runCell(Sh, Readers, BaselineQps);
      if (Readers == 1)
        BaselineQps = Qps;
    }
  }
  return 0;
}
