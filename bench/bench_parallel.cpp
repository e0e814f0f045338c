//===- bench/bench_parallel.cpp - Batch analyzer lane scaling -----------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
//
// Measures the batch analyzer (E9) at K = 2, 4, 8 lanes against K = 1.
// Not google-benchmark based: each rep times the full MOD pipeline once
// per cell — every lane count back to back — so host noise and clock
// drift hit all cells of a shape alike instead of biasing whichever ran
// last.  Each cell keeps its minimum over `Reps` and emits one JSON line
// keyed by "mode":
//
//   {"shape":"fortran-2000","mode":"k4","kernel":"condensation",
//    "procs":2001,"threads":4,"lanes":4,"wall_ms":0.61,"seq_ms":0.66,
//    "speedup_vs_seq":1.08,"overhead_vs_seq_pct":-7.6,"levels":7,
//    "components":2001,"widest_level":1204,"reps":41}
//
// mode "seq" is K = 1 (the baseline row); "k2", "k4", "k8" are the same
// analyzer at that lane count.  "kernel" is the analyzer's choice for the
// shape (the same at every K: it is made from the program alone), and
// "lanes" is the host's affinity lane count, which caps K.  The speedup
// column is seq_ms / wall_ms; overhead_vs_seq_pct is the signed
// percentage by which the cell is *slower* than K = 1.  After the
// per-mode rows each shape emits one "summary" row carrying speedup_k4 —
// the median of per-rep paired seq/k4 ratios (robust against host drift
// in a way a ratio of independent minima is not) and the headline ratio
// ipse-bench-diff hard-gates: asking for K = 4 must never lose to K = 1.
//
// Shapes cover the schedule spectrum: wide FORTRAN-style programs (many
// components per level — the condensation kernel's regime), a deep chain
// (one component per level) and a giant cycle (one SCC), where no level
// is wide, so every K runs the reference solvers, and a nested tower
// (multi-level filters on β).  See EXPERIMENTS.md E9.
//
//===----------------------------------------------------------------------===//

#include "analysis/SideEffectAnalyzer.h"
#include "graph/CallGraph.h"
#include "graph/LevelSchedule.h"
#include "support/ThreadPool.h"
#include "synth/ProgramGen.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <vector>

using namespace ipse;

namespace {

using Clock = std::chrono::steady_clock;

constexpr unsigned Reps = 41;

struct Shape {
  const char *Name;
  ir::Program P;
};

double timeOnceMs(const std::function<void()> &Fn) {
  Clock::time_point Start = Clock::now();
  Fn();
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// One timed sample: \p Inner back-to-back solves, reported per solve.
/// Small shapes finish in tens of microseconds, where a single solve is
/// all scheduler jitter and cache luck; batching enough solves that every
/// sample covers ~1ms of real work is what makes the summary ratios (and
/// the hard gate sitting on them) stable run to run.
double timeBatchMs(unsigned Inner, const std::function<void()> &Fn) {
  Clock::time_point Start = Clock::now();
  for (unsigned I = 0; I != Inner; ++I)
    Fn();
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
             .count() /
         Inner;
}

void runShape(const Shape &Sh) {
  const ir::Program &P = Sh.P;
  constexpr unsigned Ks[] = {2u, 4u, 8u};
  constexpr std::size_t NumKs = sizeof(Ks) / sizeof(Ks[0]);
  constexpr std::size_t K4 = 1; // Ks[K4] == 4

  // Schedule shape, for context: fixed by the program, not by K.
  graph::CallGraph CG(P);
  graph::SccDecomposition Sccs = graph::computeSccs(CG.graph());
  graph::LevelSchedule Levels = graph::computeLevelSchedule(CG.graph(), Sccs);
  std::size_t Widest = 0;
  for (std::size_t L = 0; L != Levels.numLevels(); ++L)
    Widest = std::max(Widest, Levels.level(L).size());
  const char *Kernel =
      analysis::chooseKernel(P, CG) == analysis::PassKernel::Condensation
          ? "condensation"
          : "reference";

  double SeqMs = 0;
  double ParMs[NumKs] = {};

  auto Solve = [&](unsigned Lanes) {
    analysis::SideEffectAnalyzer An(P, analysis::AnalyzerOptions(), Lanes);
    (void)An.gmod(P.main());
  };

  // Calibrate the per-sample batch off one warm-up solve (which also pages
  // the program in before measurement starts).
  double CalMs = timeOnceMs([&] { Solve(1); });
  unsigned Inner = 1;
  if (CalMs < 4.0)
    Inner = (unsigned)(4.0 / (CalMs > 0.005 ? CalMs : 0.005)) + 1;

  // One measurement window per shape: every rep runs all four cells in a
  // row, each cell keeping its own minimum.  The summary ratio is instead
  // the median of *per-rep paired* seq/k4 ratios: the two cells of a pair
  // run back to back (in alternating order, seq-first on even reps and
  // k4-first on odd ones), so host-wide drift — frequency steps, noisy
  // neighbours, scheduler episodes — hits both sides of a ratio alike and
  // cancels, and whatever bias remains against the cell that runs second
  // flips sign every rep and drops out of the median.
  auto MeasureSeq = [&] { return timeBatchMs(Inner, [&] { Solve(1); }); };
  auto MeasureK = [&](std::size_t KI) {
    return timeBatchMs(Inner, [&] { Solve(Ks[KI]); });
  };
  std::vector<double> K4Ratios;
  K4Ratios.reserve(Reps);
  for (unsigned R = 0; R != Reps; ++R) {
    // Three slots per rep — the seq/k4 pair plus the other two lane
    // counts — visited in an order rotated by the rep index, so no cell
    // owns a fixed position (early slots run measurably colder, and a
    // fixed order would bias the per-cell minima apart).
    constexpr std::size_t Others[2] = {0, 2}; // k2, k8
    for (unsigned Slot = 0; Slot != 3; ++Slot) {
      const unsigned Which = (Slot + R) % 3;
      if (Which == 0) {
        double RepSeqMs, K4Ms;
        if (R % 2 == 0) {
          RepSeqMs = MeasureSeq();
          K4Ms = MeasureK(K4);
        } else {
          K4Ms = MeasureK(K4);
          RepSeqMs = MeasureSeq();
        }
        if (R == 0 || RepSeqMs < SeqMs)
          SeqMs = RepSeqMs;
        if (R == 0 || K4Ms < ParMs[K4])
          ParMs[K4] = K4Ms;
        K4Ratios.push_back(RepSeqMs / K4Ms);
      } else {
        const std::size_t KI = Others[(Which - 1 + R) % 2];
        double Ms = MeasureK(KI);
        if (R == 0 || Ms < ParMs[KI])
          ParMs[KI] = Ms;
      }
    }
  }
  std::sort(K4Ratios.begin(), K4Ratios.end());
  double SpeedupK4 = K4Ratios[K4Ratios.size() / 2];

  auto Row = [&](const char *Mode, unsigned Threads, double Ms) {
    std::printf(
        "{\"shape\":\"%s\",\"mode\":\"%s\",\"kernel\":\"%s\",\"procs\":%u,"
        "\"threads\":%u,\"lanes\":%u,\"wall_ms\":%.2f,\"seq_ms\":%.2f,"
        "\"speedup_vs_seq\":%.2f,\"overhead_vs_seq_pct\":%.1f,\"levels\":%u,"
        "\"components\":%u,\"widest_level\":%u,\"reps\":%u}\n",
        Sh.Name, Mode, Kernel, (unsigned)P.numProcs(), Threads,
        availableLanes(), Ms, SeqMs, SeqMs / Ms, (Ms - SeqMs) / SeqMs * 100.0,
        (unsigned)Levels.numLevels(), (unsigned)Sccs.numSccs(),
        (unsigned)Widest, Reps);
  };
  Row("seq", 1, SeqMs);
  for (std::size_t KI = 0; KI != NumKs; ++KI) {
    char Mode[8];
    std::snprintf(Mode, sizeof(Mode), "k%u", Ks[KI]);
    Row(Mode, Ks[KI], ParMs[KI]);
  }
  // The headline row: K=4 against K=1, the ratio the diff tool
  // hard-gates (>= 0.85, never warn-only).
  std::printf("{\"shape\":\"%s\",\"mode\":\"summary\",\"procs\":%u,"
              "\"speedup_k4\":%.3f,\"reps\":%u}\n",
              Sh.Name, (unsigned)P.numProcs(), SpeedupK4, Reps);
  std::fflush(stdout);
}

} // namespace

int main() {
  std::vector<Shape> Shapes;
  Shapes.push_back(
      {"fortran-2000", synth::makeFortranStyleProgram(2000, 256, 3, 9)});
  Shapes.push_back(
      {"fortran-500", synth::makeFortranStyleProgram(500, 128, 3, 5)});
  Shapes.push_back({"chain-1500", synth::makeChainProgram(1500, 3)});
  Shapes.push_back({"cycle-800", synth::makeCycleProgram(800, 2)});
  Shapes.push_back(
      {"layered-6x80", synth::makeLayeredProgram(6, 80, 3, 2, 64, 7)});
  // Deep enough for dP = 8 multi-level filters, wide enough (~320 procs)
  // that the solve is measured in hundreds of microseconds — a tower of 25
  // procedures finishes in ~20us, where the ratio measures the analyzers'
  // constant setup cost instead of the scheduler.
  Shapes.push_back({"nested-8x40", synth::makeNestedProgram(8, 40, 11)});
  for (const Shape &Sh : Shapes)
    runShape(Sh);
  return 0;
}
