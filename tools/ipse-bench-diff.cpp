//===- tools/ipse-bench-diff.cpp - Perf-regression gate over bench JSONL ------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
//
// Folds the JSON-lines benchmark outputs (bench_incremental, bench_observe,
// bench_service, ...) into one canonical, sorted, diffable file —
// BENCH_ipse.json at the repo root — and gates changes against the previous
// fold:
//
//   ipse-bench-diff --in bench/results --in fresh/
//       --baseline BENCH_ipse.json --out BENCH_ipse.json
//
// Inputs are directories (every *.jsonl inside) or single .jsonl files; a
// row's metrics are keyed by its identity fields, e.g.
//
//   incremental/small/effect-add/delta_us_per_edit
//   observe/sequential/fortran-1000/gmod/bv_ops
//   service/fortran-500/r2/qps
//
// Later --in sources override earlier ones key-wise (pass the committed
// seed results first and the fresh run last), and within one file the last
// row wins (append semantics).
//
// The gate is noise-aware and direction-aware: a metric regresses only if
// it worsens by more than its relative threshold AND more than its
// absolute floor.  Deterministic metrics (bit-vector op counts) get tight
// thresholds; wall-clock metrics get loose ones, scalable with
// --threshold-scale for noisy CI runners.  Keys that appear or disappear
// are reported but never fail the gate (benchmarks grow).
//
// A second tier — HardGates — checks absolute promises against the fresh
// fold itself, with no baseline and no escape hatch: --warn-only and
// --threshold-scale do not apply.  Today that is the flight recorder's
// overhead bound on observe/sequential/fortran-1000.
//
// Exit codes: 0 = no regression (or fresh baseline written), 1 = at least
// one regression (suppressed by --warn-only), 2 = usage or I/O error.
//
// BENCH_ipse.json is one flat JSON object, keys sorted, so it parses with
// the repo's own flat-JSON reader and diffs line-by-line in review:
//
//   {
//   "incremental/layered/call-churn/delta_us_per_edit":11.67,
//   ...
//   "schema":"ipse-bench-v1"
//   }
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace ipse;
namespace fs = std::filesystem;

namespace {

struct MetricSpec {
  const char *Field;  ///< JSON field holding the value.
  bool HigherIsBetter;
  double RelThreshold; ///< Worsening fraction that trips the gate.
  double AbsFloor;     ///< ... but only past this absolute delta.
};

/// How one bench file's rows map to keyed metrics.
struct RowSpec {
  const char *Prefix; ///< Key prefix; also matches <Prefix>.jsonl.
  /// Builds the row's identity ("" = skip the row).  Returning the empty
  /// string drops rows that carry no gateable identity (e.g. the observe
  /// overhead summaries, which are ratios of two noisy timings).
  std::string (*Identity)(const JsonObject &Row);
  std::vector<MetricSpec> Metrics;
};

std::string field(const JsonObject &Row, const char *Key) {
  if (std::optional<std::string> S = Row.getString(Key))
    return *S;
  if (std::optional<std::uint64_t> N = Row.getUInt(Key))
    return std::to_string(*N);
  return "";
}

std::string identIncremental(const JsonObject &Row) {
  std::string Shape = field(Row, "shape"), Mix = field(Row, "mix");
  return Shape.empty() || Mix.empty() ? "" : Shape + "/" + Mix;
}

std::string identObserve(const JsonObject &Row) {
  std::string Kind = field(Row, "kind");
  std::string Engine = field(Row, "engine"), Shape = field(Row, "shape");
  if (Engine.empty() || Shape.empty())
    return "";
  // Recorder rows (flight recorder on vs off) carry no phase; they key
  // on a fixed "recorder" leaf so the hard gate can address them.
  if (Kind == "recorder")
    return Engine + "/" + Shape + "/recorder";
  if (Kind != "phase")
    return "";
  std::string Phase = field(Row, "phase");
  return Phase.empty() ? "" : Engine + "/" + Shape + "/" + Phase;
}

std::string identDemand(const JsonObject &Row) {
  return field(Row, "shape");
}

std::string identService(const JsonObject &Row) {
  std::string Shape = field(Row, "shape"), R = field(Row, "readers");
  return Shape.empty() || R.empty() ? "" : Shape + "/r" + R;
}

std::string identPersist(const JsonObject &Row) {
  return field(Row, "shape");
}

std::string identTenant(const JsonObject &Row) {
  return field(Row, "shape");
}

// Wall-clock metrics tolerate large relative noise on shared runners;
// their absolute floors keep micro-benchmarks (sub-ms cells) from
// tripping on scheduler jitter.  Bit-vector op counts are deterministic
// re-runs of the same workload, so they gate tight: any real growth is an
// algorithmic change, not noise.
const RowSpec Specs[] = {
    {"incremental", identIncremental,
     {{"delta_us_per_edit", false, 0.75, 5.0}}},
    // recorder_overhead_pct is percentage points near zero, so baseline-
    // relative drift is meaningless noise; the 3-point absolute floor
    // plus the hard gate below do the real gating.
    {"observe", identObserve,
     {{"wall_ns", false, 0.75, 250000.0},
      {"bv_ops", false, 0.02, 64.0},
      {"recorder_overhead_pct", false, 0.75, 3.0}}},
    {"service", identService, {{"qps", true, 0.50, 4000.0}}},
    // cold_query_us is the demand engine's promise (O(region) first
    // answers); region_procs is a deterministic closure size and
    // resident_procs the deterministic count of procedures holding plane
    // rows, so both gate tight like the bit-vector op counts — growth
    // means the region computation or the row allocation changed.
    {"demand", identDemand,
     {{"cold_query_us", false, 0.75, 25.0},
      {"warm_query_us", false, 0.75, 1.0},
      {"batch_us", false, 0.75, 500.0},
      {"region_procs", false, 0.02, 8.0},
      {"resident_procs", false, 0.02, 8.0}}},
    // recovery_ms is the warm-restart promise; snapshot_mbps the decode
    // bandwidth.  Both are I/O-bound on shared runners, so they gate as
    // loosely as the other wall-clock metrics.
    {"persist", identPersist,
     {{"recovery_ms", false, 0.75, 5.0}, {"snapshot_mbps", true, 0.50, 50.0}}},
    // resident_qps is the lock-free read path's promise; fault_in_ms the
    // evict-to-disk round trip.  Both wall-clock, both gated loosely.
    {"tenant", identTenant,
     {{"resident_qps", true, 0.50, 2000.0}, {"fault_in_ms", false, 0.75, 1.0}}},
};

/// An absolute requirement on a metric, checked against the fresh fold
/// itself (no baseline needed) and NOT silenced by --warn-only or scaled
/// by --threshold-scale: these encode promises the engine makes on every
/// host, not noise-relative drift.
struct HardGate {
  const char *KeySuffix; ///< Matches keys ending in "/<KeySuffix>".
  const char *KeyPrefix; ///< ... that start with this prefix.
  double Max;            ///< The fold fails if value > Max.
  const char *Why;
};

const HardGate HardGates[] = {
    // Only the sequential/fortran-1000 cell gates: it is the largest,
    // least jittery run, and the ring-write cost per span is the same
    // everywhere.  5% is generous — the recorder measures well under 1%
    // on that cell; a breach means a real regression (a hot record()
    // path, a lock, a cache-hostile ring layout), not noise.
    {"recorder_overhead_pct", "observe/sequential/fortran-1000/", 5.0,
     "the always-on flight recorder must stay within 5% of recording "
     "disabled"},
};

struct Options {
  std::vector<std::string> Inputs;
  std::string Baseline;
  std::string Out;
  double ThresholdScale = 1.0;
  bool WarnOnly = false;
};

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: ipse-bench-diff --in <dir|file.jsonl> [--in ...]\n"
      "                       [--baseline BENCH_ipse.json] [--out FILE]\n"
      "                       [--threshold-scale X] [--warn-only]\n"
      "  Folds bench JSONL rows into a canonical metric map, writes it to\n"
      "  --out, and exits 1 if any metric regressed past its noise\n"
      "  threshold relative to --baseline (0 when the baseline is absent\n"
      "  or --warn-only is given; 2 on usage/I/O errors).\n");
  std::exit(2);
}

const RowSpec *specForFile(const fs::path &Path) {
  std::string Stem = Path.stem().string();
  for (const RowSpec &S : Specs)
    if (Stem == S.Prefix)
      return &S;
  return nullptr;
}

/// Metric key -> value.  std::map keeps the canonical file sorted.
using MetricMap = std::map<std::string, double>;

bool foldFile(const fs::path &Path, MetricMap &Out) {
  const RowSpec *Spec = specForFile(Path);
  if (!Spec) {
    std::fprintf(stderr, "note: %s matches no known bench schema, skipped\n",
                 Path.string().c_str());
    return true;
  }
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot read %s\n", Path.string().c_str());
    return false;
  }
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    bool Blank = true;
    for (char C : Line)
      if (!std::isspace(static_cast<unsigned char>(C)))
        Blank = false;
    if (Blank)
      continue;
    std::string Err;
    std::optional<JsonObject> Row =
        parseJsonObject(Line, Err);
    if (!Row) {
      std::fprintf(stderr, "error: %s:%u: %s\n", Path.string().c_str(),
                   LineNo, Err.c_str());
      return false;
    }
    std::string Id = Spec->Identity(*Row);
    if (Id.empty())
      continue;
    for (const MetricSpec &M : Spec->Metrics)
      if (std::optional<double> V = Row->getDouble(M.Field))
        Out[std::string(Spec->Prefix) + "/" + Id + "/" + M.Field] = *V;
  }
  return true;
}

bool foldInput(const std::string &Input, MetricMap &Out) {
  fs::path P(Input);
  std::error_code Ec;
  if (fs::is_directory(P, Ec)) {
    std::vector<fs::path> Files;
    for (const fs::directory_entry &E : fs::directory_iterator(P, Ec))
      if (E.path().extension() == ".jsonl")
        Files.push_back(E.path());
    std::sort(Files.begin(), Files.end());
    for (const fs::path &F : Files)
      if (!foldFile(F, Out))
        return false;
    return true;
  }
  if (fs::is_regular_file(P, Ec))
    return foldFile(P, Out);
  std::fprintf(stderr, "error: no such input: %s\n", Input.c_str());
  return false;
}

/// The per-key spec, recovered from the key's "<prefix>/.../<field>" form.
const MetricSpec *specForKey(const std::string &Key) {
  std::size_t Slash = Key.find('/');
  if (Slash == std::string::npos)
    return nullptr;
  std::string Prefix = Key.substr(0, Slash);
  std::size_t LastSlash = Key.rfind('/');
  std::string Field = Key.substr(LastSlash + 1);
  for (const RowSpec &S : Specs)
    if (Prefix == S.Prefix)
      for (const MetricSpec &M : S.Metrics)
        if (Field == M.Field)
          return &M;
  return nullptr;
}

bool readBaseline(const std::string &Path, MetricMap &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string Err;
  std::optional<JsonObject> Obj =
      parseJsonObject(SS.str(), Err);
  if (!Obj) {
    std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Err.c_str());
    std::exit(2);
  }
  // A flat object; every numeric field except "schema" is a metric.  The
  // key set is unknowable from the object alone with this parser, so
  // round-trip through the canonical writer's invariant: one key per
  // line.  Simpler and robust: re-scan the text for quoted keys.
  std::istringstream Lines(SS.str());
  std::string Line;
  while (std::getline(Lines, Line)) {
    std::size_t Q1 = Line.find('"');
    if (Q1 == std::string::npos)
      continue;
    std::size_t Q2 = Line.find('"', Q1 + 1);
    if (Q2 == std::string::npos)
      continue;
    std::string Key = Line.substr(Q1 + 1, Q2 - Q1 - 1);
    if (Key == "schema")
      continue;
    if (std::optional<double> V = Obj->getDouble(Key))
      Out[Key] = *V;
  }
  return true;
}

bool writeCanonical(const std::string &Path, const MetricMap &Metrics) {
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
    return false;
  }
  Out << "{\n";
  for (const auto &[Key, Value] : Metrics) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.6g", Value);
    Out << "\"" << Key << "\":" << Buf << ",\n";
  }
  Out << "\"schema\":\"ipse-bench-v1\"\n}\n";
  return Out.good();
}

} // namespace

int main(int argc, char **argv) {
  Options Opt;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto next = [&]() -> std::string {
      if (I + 1 >= argc)
        usage();
      return argv[++I];
    };
    if (A == "--in")
      Opt.Inputs.push_back(next());
    else if (A == "--baseline")
      Opt.Baseline = next();
    else if (A == "--out")
      Opt.Out = next();
    else if (A == "--threshold-scale")
      Opt.ThresholdScale = std::atof(next().c_str());
    else if (A == "--warn-only")
      Opt.WarnOnly = true;
    else
      usage();
  }
  if (Opt.Inputs.empty() || Opt.ThresholdScale <= 0)
    usage();

  MetricMap Current;
  for (const std::string &Input : Opt.Inputs)
    if (!foldInput(Input, Current))
      return 2;
  if (Current.empty()) {
    std::fprintf(stderr, "error: inputs produced no metrics\n");
    return 2;
  }

  int Exit = 0;

  // Hard gates run on the fresh fold alone: no baseline to drift against,
  // no --warn-only escape hatch, no --threshold-scale dilution.
  for (const auto &[Key, Cur] : Current)
    for (const HardGate &G : HardGates) {
      const std::string Suffix = std::string("/") + G.KeySuffix;
      if (Key.rfind(G.KeyPrefix, 0) != 0 || Key.size() < Suffix.size() ||
          Key.compare(Key.size() - Suffix.size(), Suffix.size(), Suffix) != 0)
        continue;
      if (Cur > G.Max) {
        std::fprintf(stderr, "HARD GATE: %s = %.6g > %.6g (%s)\n",
                     Key.c_str(), Cur, G.Max, G.Why);
        Exit = 1;
      }
    }

  if (!Opt.Baseline.empty()) {
    MetricMap Base;
    if (!readBaseline(Opt.Baseline, Base)) {
      std::fprintf(stderr, "note: no baseline at %s; writing a fresh one\n",
                   Opt.Baseline.c_str());
    } else {
      unsigned Regressions = 0, Improved = 0, Stable = 0;
      for (const auto &[Key, Cur] : Current) {
        auto It = Base.find(Key);
        if (It == Base.end()) {
          std::fprintf(stderr, "new:  %s = %.6g\n", Key.c_str(), Cur);
          continue;
        }
        const MetricSpec *M = specForKey(Key);
        if (!M)
          continue;
        double Prev = It->second;
        double Worse = M->HigherIsBetter ? Prev - Cur : Cur - Prev;
        double Rel = Prev != 0 ? Worse / std::abs(Prev) : 0.0;
        bool Regressed = Rel > M->RelThreshold * Opt.ThresholdScale &&
                         Worse > M->AbsFloor * Opt.ThresholdScale;
        if (Regressed) {
          ++Regressions;
          std::fprintf(stderr, "REGRESSION: %s: %.6g -> %.6g (%+.1f%%)\n",
                       Key.c_str(), Prev, Cur, 100.0 * (Cur - Prev) /
                           (Prev != 0 ? std::abs(Prev) : 1.0));
        } else if (Worse < 0) {
          ++Improved;
        } else {
          ++Stable;
        }
      }
      for (const auto &[Key, Prev] : Base)
        if (!Current.count(Key))
          std::fprintf(stderr, "gone: %s (was %.6g)\n", Key.c_str(), Prev);
      std::fprintf(stderr,
                   "ipse-bench-diff: %u regression(s), %u improved, "
                   "%u stable of %zu metrics\n",
                   Regressions, Improved, Stable, Current.size());
      if (Regressions && !Opt.WarnOnly)
        Exit = 1; // Never downgrades a hard-gate failure above.
      if (Regressions && Opt.WarnOnly)
        std::fprintf(stderr, "(--warn-only: not failing)\n");
    }
  }

  if (!Opt.Out.empty() && !writeCanonical(Opt.Out, Current))
    return 2;
  return Exit;
}
