//===- bench/bench_persist.cpp - Snapshot & WAL throughput --------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
//
// Measures the persistence subsystem: snapshot serialization bandwidth,
// WAL append latency (fsync included), and the headline figure — warm
// recovery (snapshot load + WAL replay) against a cold solve of the same
// program.  Like bench_incremental, not google-benchmark based: one JSON
// line per shape:
//
//   {"shape":"fortran-4000","procs":4000,"snapshot_mb":5.061,
//    "save_ms":21.7,"load_ms":16.9,"save_mbps":233.2,"snapshot_mbps":299.4,
//    "wal_records":64,"wal_append_us":118.4,
//    "recovery_ms":19.2,"cold_solve_ms":187.5,"warm_speedup":9.8}
//
// recovery_ms times the full boot path the service takes with --data-dir:
// Store::open (manifest, snapshot decode + CRC + graph cross-check, WAL
// tail recovery), the plane-restoring session constructor, replay of the
// WAL tail, and bringing every procedure up to date (ensureSolvedAll; the
// server leaves that to its queries).  cold_solve_ms builds the same
// session from source and pays the first full solve.  warm_speedup is their
// ratio; the acceptance bar is >1 at 4000 procs.  wal_append_us is the
// mean per-record append with one fsync per append — the worst-case
// (batch size 1) group-commit cost.
//
//===----------------------------------------------------------------------===//

#include "analysis/EffectKind.h"
#include "frontend/Frontend.h"
#include "demand/DemandSession.h"
#include "incremental/Edit.h"
#include "persist/Snapshot.h"
#include "persist/Store.h"
#include "persist/Wal.h"
#include "synth/EditGen.h"
#include "synth/ProgramGen.h"
#include "synth/SourceGen.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

using namespace ipse;

namespace {

using Clock = std::chrono::steady_clock;

struct Shape {
  const char *Name;
  unsigned Procs, Globals;
  std::uint64_t Seed;
  unsigned WalRecords;
};

// fortran-4000 matches bench_incremental's and bench_service's large
// shape; the WAL tail is sized like a busy session between compactions.
const Shape Shapes[] = {
    {"fortran-500", 500, 128, 5, 64},
    {"fortran-4000", 4000, 512, 9, 64},
};

double millisSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// Every procedure solved, then one query: a warm restore answers from
/// its planes (re-solving only what the replayed tail invalidated), a cold
/// build by solving; both sides of the comparison end on it.
std::size_t touch(demand::DemandSession &S) {
  S.ensureSolvedAll();
  return S.gmod(ir::ProcId(0), analysis::EffectKind::Mod).count();
}

void die(const std::string &Err) {
  std::fprintf(stderr, "bench_persist: %s\n", Err.c_str());
  std::exit(1);
}

void runShape(const Shape &Sh, const std::string &Dir) {
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  ir::Program P = synth::makeFortranStyleProgram(Sh.Procs, Sh.Globals,
                                                 /*CallsPerProc=*/3, Sh.Seed);

  // Cold: what `serve --program` pays on every restart — compile the
  // MiniProc source back to IR, then the first full solve.  (Source
  // bytes are handed over in memory; a real boot also reads the file.)
  std::string Source = synth::emitMiniProc(P);
  Clock::time_point T0 = Clock::now();
  frontend::CompileResult CR = frontend::compileMiniProc(Source);
  if (!CR.Program)
    die("generated source failed to recompile");
  demand::DemandSession Cold(std::move(*CR.Program));
  touch(Cold);
  double ColdMs = millisSince(T0);

  // Save bandwidth.
  std::string Snap = Dir + "/bench.ipsesnap", Err;
  T0 = Clock::now();
  if (!persist::SnapshotWriter::write(Snap, persist::SnapshotSource::of(Cold),
                                     Err))
    die(Err);
  double SaveMs = millisSince(T0);
  double Mb = double(std::filesystem::file_size(Snap)) / (1024.0 * 1024.0);

  // Load bandwidth (decode + CRC + graph cross-check, no session yet).
  persist::SnapshotData Data;
  T0 = Clock::now();
  if (!persist::SnapshotReader::read(Snap, Data, Err))
    die(Err);
  double LoadMs = millisSince(T0);

  // WAL appends, one record per append: every append pays its own fsync.
  persist::StoreOptions StoreOpts;
  persist::Store Store;
  if (!persist::Store::init(Dir, StoreOpts, persist::SnapshotSource::of(Cold),
                            Store, Err))
    die(Err);
  synth::EditGenConfig ECfg;
  ECfg.Seed = 31;
  synth::EditGen Gen(ECfg);
  unsigned Appended = 0;
  T0 = Clock::now();
  for (unsigned I = 0; I != Sh.WalRecords; ++I) {
    std::optional<incremental::Edit> E = Gen.next(Cold.program());
    if (!E)
      break;
    demand::applyEdit(Cold, *E);
    if (!Store.appendEdits({*E}, Err))
      die(Err);
    ++Appended;
  }
  double AppendUs = Appended ? millisSince(T0) * 1000.0 / Appended : 0.0;

  // Warm recovery: exactly the service's --data-dir boot, plus one query.
  T0 = Clock::now();
  persist::Store Reopened;
  persist::RecoveredState RS;
  if (!persist::Store::open(Dir, StoreOpts, Reopened, RS, Err))
    die(Err);
  demand::DemandOptions RSO;
  RSO.TrackUse = RS.Snapshot.TrackUse;
  demand::DemandSession Warm(std::move(RS.Snapshot.Program), RSO,
                             std::move(RS.Snapshot.Planes));
  for (const incremental::Edit &E : RS.Tail)
    demand::applyEdit(Warm, E);
  touch(Warm);
  double RecoveryMs = millisSince(T0);

  std::printf(
      "{\"shape\":\"%s\",\"procs\":%u,\"snapshot_mb\":%.3f,"
      "\"save_ms\":%.1f,\"load_ms\":%.1f,\"save_mbps\":%.1f,"
      "\"snapshot_mbps\":%.1f,\"wal_records\":%u,\"wal_append_us\":%.1f,"
      "\"recovery_ms\":%.1f,\"cold_solve_ms\":%.1f,\"warm_speedup\":%.2f}\n",
      Sh.Name, Sh.Procs, Mb, SaveMs, LoadMs,
      SaveMs > 0 ? Mb / (SaveMs / 1000.0) : 0.0,
      LoadMs > 0 ? Mb / (LoadMs / 1000.0) : 0.0, Appended, AppendUs,
      RecoveryMs, ColdMs, RecoveryMs > 0 ? ColdMs / RecoveryMs : 0.0);
  std::fflush(stdout);
  std::filesystem::remove_all(Dir);
}

} // namespace

int main() {
  std::string Dir =
      std::filesystem::temp_directory_path() / "ipse_bench_persist";
  for (const Shape &Sh : Shapes)
    runShape(Sh, Dir);
  return 0;
}
