//===- bench/e2e/E2e.h - Shared pieces of ipse-e2e -------------*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ipse-e2e, the end-to-end benchmark, measures two ways of using ipse:
///
///  - batch: a compiler calls the library in-process (ipse::Analyzer, the
///    MiniProc frontend, the paper's phase functions) on a seeded program
///    set, closed loop, one caller;
///  - serving: an open-loop load generator drives a real
///    `ipse-cli serve --tenants` child over loopback TCP.
///
/// Every workload runs both halves, because every end-to-end metric must
/// be measured on every workload; the workloads differ in which program
/// family and which traffic mix they pair (README.md, "Workloads").
///
/// ipse-e2e deliberately includes no header from observe/, parallel/,
/// incremental/AnalysisSession.h or service/AnalysisService.h: it sees the
/// system only through its stable entry points, so those modules can be
/// reshaped or deleted without touching the benchmark.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_BENCH_E2E_E2E_H
#define IPSE_BENCH_E2E_E2E_H

#include "ir/Program.h"
#include "support/EffectSet.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ipse {
namespace e2e {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Nearest-rank quantile of \p V (sorted in place); 0 for an empty vector.
double quantile(std::vector<double> &V, double Q);
double median(std::vector<double> V);
/// Geometric mean of positive values (0 if \p V is empty).
double geomean(const std::vector<double> &V);
/// The \p Q-quantile of each of \p Slices equal consecutive slices of
/// \p V (samples in time order); slices are merged until each holds at
/// least \p MinPerSlice samples.
std::vector<double> sliceQuantiles(const std::vector<double> &V,
                                   unsigned Slices, double Q,
                                   std::size_t MinPerSlice = 1);

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

/// One reported number.  Samples is the count it was computed from (0 for
/// counts and ratios that are not sampled).
struct Metric {
  double Value = 0;
  std::string Unit;
  std::uint64_t Samples = 0;
};

/// A tiny JSON document writer (objects, arrays, strings, numbers) for the
/// run files; numbers keep every digit (shortest round-trip form).
class Json {
public:
  Json &beginObject();
  Json &endObject();
  Json &beginArray();
  Json &endArray();
  Json &key(const std::string &K);
  Json &str(const std::string &S);
  Json &num(double D);
  Json &num(std::uint64_t N);
  Json &boolean(bool B);
  Json &raw(const std::string &Text);
  const std::string &text() const { return Out; }

private:
  void sep();
  std::string Out;
  bool NeedComma = false;
};

std::string formatNumber(double D);

/// Everything one run produces.  Batch and serve halves each fill their
/// metrics; main() prints the ones the run's mode selects.
struct RunResult {
  std::map<std::string, Metric> EndToEnd;
  std::map<std::string, Metric> Layers;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  /// Wrong answers: oracle mismatches, failed `check`s, differing reports.
  std::uint64_t Mismatches = 0;
  std::vector<std::string> Errors; ///< The first few failure descriptions.
  /// Free-form per-program / per-phase detail, as JSON object members.
  std::map<std::string, std::string> Detail;

  void fail(const std::string &What);
  void mismatch(const std::string &What);
};

//===----------------------------------------------------------------------===//
// Spans (the traced run)
//===----------------------------------------------------------------------===//

/// Spans ipse-e2e records around its own calls into each layer.  Kept in
/// memory and written once, as a Chrome Trace Event array, when the run
/// ends.  Disabled logs record nothing.
class SpanLog {
public:
  explicit SpanLog(bool Enabled) : Enabled(Enabled) {}
  bool enabled() const { return Enabled; }
  /// Records [StartNs, EndNs) under \p Name; \p Args is a JSON object body
  /// (may be empty).
  void add(const std::string &Name, const std::string &Cat,
           std::int64_t StartNs, std::int64_t EndNs, unsigned Tid = 1,
           const std::string &Args = "");
  std::string chromeTrace() const;

private:
  struct Span {
    std::string Name, Cat, Args;
    std::int64_t StartNs, EndNs;
    unsigned Tid;
  };
  bool Enabled;
  std::int64_t OriginNs = nowNs();
  std::vector<Span> Spans;
};

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// One program of a batch set.
struct BatchProgram {
  std::string Name;
  ir::Program P;
  /// MiniProc source for the report loop; empty when the program is too
  /// large to report on every round (see README.md).
  std::string Source;
  /// The procedure the cold demand query asks about.
  ir::ProcId Target;
};

/// Traffic and tenant shape of a serving half.
struct ServeSpec {
  unsigned Tenants = 0;
  unsigned Procs = 0;
  unsigned Globals = 0;
  /// `--resident-cap` (0 = every tenant stays resident).
  unsigned ResidentCap = 0;
  double NominalRps = 0;
  double ZipfS = 1.0;
  /// Percent of requests that are edits.
  unsigned EditPct = 0;
  /// Draw tier-2 (call-structure) edits besides tier-1 effect edits.
  bool Structural = false;
  double QuerySloUs = 0;
  double EditSloUs = 0;
};

struct Options {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 30;
  bool Trace = false;
  bool Smoke = false;
  std::string Cli;
  std::string OutDir;
  std::string GitSha = "unknown";
};

struct WorkloadSpec {
  std::string Name;
  std::vector<BatchProgram> Programs;
  ServeSpec Serve;
};

/// Builds the named workload's inputs from \p O.Seed (sizes shrink under
/// --smoke).  Returns false for an unknown name.
bool makeWorkload(const Options &O, WorkloadSpec &W);

/// The batch half, in stages so main() can interleave its timed
/// loop with the serving half's nominal phase: a host that drifts over
/// tens of seconds then moves every metric a little instead of one half
/// a lot.
class BatchHalf {
public:
  BatchHalf(const Options &O, std::vector<BatchProgram> Programs,
            RunResult &R, SpanLog &Log);
  ~BatchHalf();
  BatchHalf(const BatchHalf &) = delete;
  BatchHalf &operator=(const BatchHalf &) = delete;

  /// The first (cold) analysis of each program, then the untimed oracles.
  void setUp();
  /// Whole rounds over the program set for \p BudgetMs (at least two).
  void loop(double BudgetMs);
  /// Fills R's metrics; \p HwmKb is this process's VmHWM after the batch
  /// work that preceded any serving.
  void finish(long HwmKb);

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

/// The serving half: server set-up and warm-up, nominal-rate chunks,
/// then (traced runs) the capacity ladder, verification and shutdown.
class ServeHalf {
public:
  ServeHalf(const Options &O, const WorkloadSpec &W, RunResult &R,
            SpanLog &Log);
  ~ServeHalf();
  ServeHalf(const ServeHalf &) = delete;
  ServeHalf &operator=(const ServeHalf &) = delete;

  void setUp();
  void nominal(double Seconds);
  void finish();

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

/// \name Process introspection (Linux /proc)
/// @{
/// A "Vm*:" field of /proc/<pid>/status in KiB ("self" for this process).
long procStatusKb(const std::string &Pid, const char *Field);
/// @}

/// Renders a variable set the way the wire protocol does: sorted
/// qualified names joined by ", ".
std::string renderSet(const ir::Program &P, const EffectSet &Set);

} // namespace e2e
} // namespace ipse

#endif // IPSE_BENCH_E2E_E2E_H
