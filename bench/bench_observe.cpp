//===- bench/bench_observe.cpp - Observability overhead (E10) -----------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
//
// Measures what observing an analysis costs (E10).  Two row kinds, one
// JSON line each:
//
//  Overhead rows — each rep runs the same engine back to back with no
//  TraceScope installed (spans take the early-out path) and with a
//  CostReport-collecting scope installed (spans record), keeping each
//  cell's minimum over `Reps`:
//
//   {"kind":"overhead","engine":"sequential","shape":"fortran-1000",
//    "procs":1001,"off_ms":0.61,"on_ms":0.62,"overhead_pct":1.2,"reps":25}
//
//  The acceptance gate is overhead_pct < 2 (spans sit at phase
//  granularity, so the span count per run is a small constant; the only
//  per-word cost is the EffectSet op counter, which is compiled in for
//  both cells here).  Comparing an IPSE_OBSERVE=OFF *build* against ON
//  is a separate two-build experiment; this benchmark measures the
//  scope-installed vs dormant gap inside one ON build, which is the cost a
//  user pays for `--profile`.
//
//  Phase rows — one profiled run per engine, one line per CostReport
//  phase, so the E10 table can show where the wall time and bit-vector
//  word operations actually go:
//
//   {"kind":"phase","engine":"sequential","shape":"fortran-1000",
//    "phase":"gmod","count":1,"wall_ns":180335,"bv_ops":52100}
//
//  Recorder rows — the flight recorder's own cost: the same engine back
//  to back with flight recording disabled and enabled (no TraceScope in
//  either cell, so the ring write is the *only* difference), keeping
//  each cell's minimum:
//
//   {"kind":"recorder","engine":"sequential","shape":"fortran-1000",
//    "procs":1001,"off_ms":0.61,"on_ms":0.62,
//    "recorder_overhead_pct":1.2,"reps":25}
//
//  ipse-bench-diff hard-gates recorder_overhead_pct <= 5 on the
//  sequential/fortran-1000 cell: the recorder ships enabled by default
//  in `serve`, so its overhead is a promise, not a tunable.
//
// Engine: the batch analyzer ("sequential"), driven through the
// ipse::Analyzer facade, like every consumer.  (The demand engine's
// analyze() solves nothing up front, so it has no pipeline to profile
// here.)
//
// Under IPSE_OBSERVE=OFF the overhead rows still print (both cells then
// time the same dormant code) and the phase rows vanish.
//
//===----------------------------------------------------------------------===//

#include "api/Ipse.h"
#include "observe/FlightRecorder.h"
#include "synth/ProgramGen.h"

#include <chrono>
#include <cstdio>
#include <functional>

using namespace ipse;

namespace {

using Clock = std::chrono::steady_clock;

constexpr unsigned Reps = 25;

double timeOnceMs(const std::function<void()> &Fn) {
  Clock::time_point Start = Clock::now();
  Fn();
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// The engine name every row carries (rows are keyed by it).
constexpr const char *Engine = "sequential";

void runShape(const char *Name, const ir::Program &P) {
  // The analyze() body is identical in both cells; only the installed
  // scope differs.  MOD only — the overhead ratio is what matters, not
  // the absolute pipeline width.
  ipse::AnalysisOptions Off;
  Off.TrackUse = false;
  ipse::AnalysisOptions On = Off;
  On.Profile = true;
  const ipse::Analyzer AnOff(Off), AnOn(On);

  double OffMs = 0, OnMs = 0;
  for (unsigned R = 0; R != Reps; ++R) {
    double Ms = timeOnceMs([&] { (void)AnOff.analyze(P); });
    if (R == 0 || Ms < OffMs)
      OffMs = Ms;
    Ms = timeOnceMs([&] { (void)AnOn.analyze(P); });
    if (R == 0 || Ms < OnMs)
      OnMs = Ms;
  }
  std::printf("{\"kind\":\"overhead\",\"engine\":\"%s\",\"shape\":\"%s\","
              "\"procs\":%u,\"off_ms\":%.3f,\"on_ms\":%.3f,"
              "\"overhead_pct\":%.1f,\"reps\":%u}\n",
              Engine, Name, (unsigned)P.numProcs(), OffMs, OnMs,
              (OnMs - OffMs) / OffMs * 100.0, Reps);

  // Recorder cells: same dormant-scope engine, flight recording off vs
  // on.  Spans sit at phase granularity, so the delta is a handful of
  // ring writes per run.
  double RecOffMs = 0, RecOnMs = 0;
  for (unsigned R = 0; R != Reps; ++R) {
    observe::flight::setEnabled(false);
    double Ms = timeOnceMs([&] { (void)AnOff.analyze(P); });
    if (R == 0 || Ms < RecOffMs)
      RecOffMs = Ms;
    observe::flight::setEnabled(true);
    Ms = timeOnceMs([&] { (void)AnOff.analyze(P); });
    if (R == 0 || Ms < RecOnMs)
      RecOnMs = Ms;
  }
  std::printf("{\"kind\":\"recorder\",\"engine\":\"%s\",\"shape\":\"%s\","
              "\"procs\":%u,\"off_ms\":%.3f,\"on_ms\":%.3f,"
              "\"recorder_overhead_pct\":%.1f,\"reps\":%u}\n",
              Engine, Name, (unsigned)P.numProcs(), RecOffMs, RecOnMs,
              (RecOnMs - RecOffMs) / RecOffMs * 100.0, Reps);

  // One profiled run for the phase breakdown.
  ipse::Analysis A = AnOn.analyze(P);
  for (const observe::PhaseCost &Ph : A.costs().phases())
    std::printf("{\"kind\":\"phase\",\"engine\":\"%s\",\"shape\":\"%s\","
                "\"phase\":\"%s\",\"count\":%llu,\"wall_ns\":%llu,"
                "\"bv_ops\":%llu}\n",
                Engine, Name, Ph.Name.c_str(),
                (unsigned long long)Ph.Count, (unsigned long long)Ph.WallNs,
                (unsigned long long)Ph.BitOps);
  std::fflush(stdout);
}

} // namespace

int main() {
  runShape("fortran-1000", synth::makeFortranStyleProgram(1000, 200, 3, 9));
  runShape("nested-6x4", synth::makeNestedProgram(6, 4, 11));
  return 0;
}
