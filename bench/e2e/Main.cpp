//===- bench/e2e/Main.cpp - ipse-e2e entry point ------------------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
//
//   ipse-e2e --workload NAME --seed N --seconds S --trace 0|1
//            --cli PATH/ipse-cli --out-dir DIR [--git-sha SHA]
//   ipse-e2e --smoke --cli PATH/ipse-cli --out-dir DIR
//
// Builds the workload's inputs from the seed, runs the batch half and the
// serving half (their timed parts alternate), checks every answer, writes
// a run file (with a host and build stamp) under DIR/runs, and prints the
// result as the last line of stdout:
//
//   {"correct":true,"attempted":N,"failed":0,"metrics":{...}}
//
// --trace 0 prints the end-to-end metrics; --trace 1 the per-layer ones
// (and writes a Chrome trace of its own spans under DIR/traces).
// The exit code is non-zero when any answer was wrong.  --smoke runs both
// workloads at tiny sizes with every oracle on.
//
//===----------------------------------------------------------------------===//

#include "E2e.h"

#include "support/Rng.h"
#include "support/SimdKernels.h"
#include "synth/ProgramGen.h"
#include "synth/SourceGen.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include <sys/utsname.h>
#include <unistd.h>

using namespace ipse;
using namespace ipse::e2e;

namespace {

/// The metrics each mode prints, in BENCHMARK.json order.
const char *const EndToEndNames[] = {
    "analyze_p50_ms", "analyze_p90_ms", "analyze_k4_p50_ms",
    "report_p50_ms",  "query_cold_p50_ms", "query_p50_us",
    "edit_p50_us",    "setup_s",        "peak_rss_mb",
    "batch_rss_mb"};

const char *const LayerNames[] = {
    "frontend.compile_ms",        "report.render_ms",
    "report.frontend_render_share", "graph.build_ms",
    "analysis.masks_ms",          "analysis.local_ms",
    "analysis.rmod_ms",           "analysis.imodplus_ms",
    "analysis.gmod_ms",           "analysis.local_bv_ops",
    "analysis.gmod_bv_ops",       "analysis.rmod_boolean_steps",
    "analysis.span_coverage",     "analysis.graph_rmod_share",
    "parallel.k4_ratio",          "demand.open_ms",
    "demand.query_ms",            "demand.region_frac",
    "wire.query_self_mean_us",     "server.read_lat_p50_us",
    "server.read_lat_p99_us",     "server.fault_in_p50_us",
    "server.fault_in_p99_us",     "server.fault_ins",
    "server.evictions",           "server.resident_hit_frac",
    "server.write_lat_p99_us",    "server.flush_p99_us",
    "server.flush_batch_mean",    "server.wal_append_p99_us",
    "server.wal_records",         "server.snapshots_written",
    "server.rejected",            "server.max_rps_at_slo",
    "loadgen.query_p99_us",       "loadgen.edit_p99_us",
    "loadgen.late_p99_us",        "trace_overhead_pct"};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: ipse-e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 --cli PATH --out-dir DIR [--git-sha SHA]\n"
               "       ipse-e2e --smoke --cli PATH --out-dir DIR\n"
               "workloads: wide-resident, deep-churn\n");
  std::exit(2);
}

/// The procedure whose call-graph reach is largest among 16 seeded
/// candidates: a whole-program question for the cold demand query.
ir::ProcId widestTarget(const ir::Program &P, std::uint64_t Seed) {
  Rng G(Seed);
  ir::ProcId Best = P.main();
  std::size_t BestReach = 0;
  std::vector<char> Seen;
  for (int K = 0; K != 16; ++K) {
    const ir::ProcId Cand(static_cast<std::uint32_t>(G.nextBelow(P.numProcs())));
    Seen.assign(P.numProcs(), 0);
    std::vector<ir::ProcId> Work = {Cand};
    Seen[Cand.index()] = 1;
    std::size_t Reach = 0;
    while (!Work.empty()) {
      const ir::ProcId Cur = Work.back();
      Work.pop_back();
      ++Reach;
      for (ir::CallSiteId C : P.proc(Cur).CallSites) {
        const ir::ProcId Callee = P.callSite(C).Callee;
        if (!Seen[Callee.index()]) {
          Seen[Callee.index()] = 1;
          Work.push_back(Callee);
        }
      }
    }
    if (Reach > BestReach) {
      BestReach = Reach;
      Best = Cand;
    }
  }
  return Best;
}

/// A seeded procedure among the 50 highest ids: the tail of a chain, so
/// the demand region stays a few dozen procedures deep.
ir::ProcId tailTarget(const ir::Program &P, std::uint64_t Seed) {
  Rng G(Seed);
  const std::size_t N = P.numProcs();
  const std::size_t Span = std::min<std::size_t>(50, N - 1);
  return ir::ProcId(static_cast<std::uint32_t>(N - 1 - G.nextBelow(Span)));
}

BatchProgram program(std::string Name, ir::Program P, bool WithSource,
                     ir::ProcId Target) {
  BatchProgram BP;
  BP.Name = std::move(Name);
  BP.P = std::move(P);
  if (WithSource)
    BP.Source = synth::emitMiniProc(BP.P);
  BP.Target = Target;
  return BP;
}

std::string hostCpuModel() {
  std::ifstream In("/proc/cpuinfo");
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind("model name", 0) == 0) {
      std::size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        return Line.substr(Line.find_first_not_of(' ', Colon + 1));
    }
  return "unknown";
}

std::string hostStamp(const Options &O) {
  utsname U{};
  ::uname(&U);
  Json J;
  J.beginObject()
      .key("nproc").num(std::uint64_t(::sysconf(_SC_NPROCESSORS_ONLN)))
      .key("cpu_model").str(hostCpuModel())
      .key("isa").str(simd::dispatchedIsa())
      .key("kernel").str(U.release)
      .key("build_type").str(IPSE_E2E_BUILD_TYPE)
      .key("git_sha").str(O.GitSha)
      .endObject();
  return J.text();
}

/// Runs one workload; fills \p R.  The timed batch loop and the nominal
/// phase alternate, two turns each, so both spread over the whole run.
void runWorkload(const Options &O, RunResult &R, SpanLog &Log) {
  WorkloadSpec W;
  if (!makeWorkload(O, W)) {
    std::fprintf(stderr, "ipse-e2e: unknown workload '%s'\n",
                 O.Workload.c_str());
    usage();
  }
  std::fprintf(stderr, "ipse-e2e: %s seed %llu (%s)\n", W.Name.c_str(),
               (unsigned long long)O.Seed, O.Trace ? "traced" : "untraced");
  const double BatchMs = O.Seconds * 1000 * (O.Smoke ? 0.05 : 0.225);
  // The traced run leaves part of the nominal budget to the ladder.
  const double NominalS =
      O.Smoke ? 0.3 : O.Seconds * (O.Trace ? 0.1 : 0.225);
  BatchHalf Batch(O, std::move(W.Programs), R, Log);
  Batch.setUp();
  Batch.loop(BatchMs);
  const long BatchHwmKb = procStatusKb("self", "VmHWM");
  ServeHalf Serve(O, W, R, Log);
  Serve.setUp();
  Serve.nominal(NominalS);
  Batch.loop(BatchMs);
  Serve.nominal(NominalS);
  Serve.finish();
  Batch.finish(BatchHwmKb);
}

} // namespace

bool e2e::makeWorkload(const Options &O, WorkloadSpec &W) {
  const bool Small = O.Smoke;
  const std::uint64_t S = O.Seed;
  W.Name = O.Workload;
  if (O.Workload == "wide-resident") {
    // Wide condensation levels and long bit vectors: random programs with
    // recursion, plus a FORTRAN-style program with 1024 globals.
    for (int K = 0; K != 2; ++K) {
      synth::ProgramGenConfig Cfg;
      Cfg.Seed = S * 2 + K + 1;
      Cfg.NumProcs = Small ? 300 : 5000;
      Cfg.NumGlobals = Small ? 16 : 64;
      ir::Program P = synth::generateProgram(Cfg);
      ir::ProcId T = widestTarget(P, S + K);
      W.Programs.push_back(program(
          "random-" + std::to_string(Cfg.NumProcs) + (K ? "-b" : "-a"),
          std::move(P), true, T));
    }
    const unsigned FProcs = Small ? 600 : 20000, FGlobals = Small ? 64 : 1024;
    ir::Program F = synth::makeFortranStyleProgram(FProcs, FGlobals, 3, S);
    ir::ProcId T = widestTarget(F, S + 7);
    // Its report runs to a gigabyte of text, so it stays out of the
    // report loop.
    W.Programs.push_back(program("fortran-" + std::to_string(FProcs),
                                 std::move(F), false, T));
    W.Serve = ServeSpec{Small ? 8u : 64u, Small ? 40u : 500u,
                        Small ? 8u : 32u, 0,
                        Small ? 400.0 : 20000.0, 1.0,
                        1, false,
                        5000, 50000};
    return true;
  }
  if (O.Workload == "deep-churn") {
    // Deep binding chains, one big SCC, and eight nesting levels: graph
    // and RMOD work dominates and parallel fan-out has no room.
    const unsigned ChainN = Small ? 2000 : 100000;
    ir::Program Chain = synth::makeChainProgram(ChainN, 4);
    ir::ProcId T = tailTarget(Chain, S);
    // Its 13 MB source takes seconds to compile, so it stays out of the
    // report loop.
    W.Programs.push_back(program("chain-" + std::to_string(ChainN),
                                 std::move(Chain), false, T));
    const unsigned CycleN = Small ? 500 : 20000;
    ir::Program Cycle = synth::makeCycleProgram(CycleN, 4);
    T = tailTarget(Cycle, S + 1);
    W.Programs.push_back(program("cycle-" + std::to_string(CycleN),
                                 std::move(Cycle), true, T));
    const unsigned Per = Small ? 20 : 400, Depth = Small ? 3 : 8;
    ir::Program Nest = synth::makeNestedProgram(Depth, Per, S);
    T = tailTarget(Nest, S + 2);
    W.Programs.push_back(program("nested-" + std::to_string(Depth) + "x" +
                                     std::to_string(Per),
                                 std::move(Nest), true, T));
    W.Serve = ServeSpec{Small ? 24u : 1000u, Small ? 30u : 200u,
                        Small ? 6u : 16u, Small ? 4u : 64u,
                        Small ? 200.0 : 300.0, 0.9,
                        20, true,
                        25000, 100000};
    return true;
  }
  return false;
}

int main(int Argc, char **Argv) {
  Options O;
  std::vector<std::string> Args(Argv + 1, Argv + Argc);
  for (std::size_t I = 0; I != Args.size(); ++I) {
    auto Val = [&]() -> const std::string & {
      if (I + 1 >= Args.size())
        usage();
      return Args[++I];
    };
    if (Args[I] == "--workload")
      O.Workload = Val();
    else if (Args[I] == "--seed")
      O.Seed = std::strtoull(Val().c_str(), nullptr, 10);
    else if (Args[I] == "--seconds")
      O.Seconds = std::atof(Val().c_str());
    else if (Args[I] == "--trace")
      O.Trace = Val() == "1";
    else if (Args[I] == "--cli")
      O.Cli = Val();
    else if (Args[I] == "--out-dir")
      O.OutDir = Val();
    else if (Args[I] == "--git-sha")
      O.GitSha = Val();
    else if (Args[I] == "--smoke")
      O.Smoke = true;
    else
      usage();
  }
  if (O.Cli.empty() || O.OutDir.empty() ||
      (!O.Smoke && (O.Workload.empty() || O.Seconds <= 0)))
    usage();
  std::filesystem::create_directories(O.OutDir + "/runs");

  std::vector<Options> Runs;
  if (O.Smoke) {
    // Both workloads, the second one traced so both modes stay compiled
    // and checked.
    for (const char *Name : {"wide-resident", "deep-churn"}) {
      Options S = O;
      S.Workload = Name;
      S.Seconds = 1;
      S.Trace = Runs.size() == 1;
      Runs.push_back(S);
    }
  } else {
    Runs.push_back(O);
  }

  std::string LastLine;
  bool AllCorrect = true;
  for (const Options &RO : Runs) {
    RunResult R;
    SpanLog Log(RO.Trace);
    runWorkload(RO, R, Log);
    const bool Correct = R.Mismatches == 0;
    AllCorrect &= Correct;
    for (const std::string &E : R.Errors)
      std::fprintf(stderr, "ipse-e2e: %s\n", E.c_str());

    const std::map<std::string, Metric> &Source =
        RO.Trace ? R.Layers : R.EndToEnd;
    Json Metrics;
    Metrics.beginObject();
    bool Complete = true;
    auto Emit = [&](const char *Name) {
      auto It = Source.find(Name);
      if (It == Source.end()) {
        std::fprintf(stderr, "ipse-e2e: metric '%s' was not measured\n",
                     Name);
        Complete = false;
        return;
      }
      Metrics.key(Name).beginObject()
          .key("value").num(It->second.Value)
          .key("unit").str(It->second.Unit)
          .endObject();
    };
    if (RO.Trace)
      for (const char *Name : LayerNames)
        Emit(Name);
    else
      for (const char *Name : EndToEndNames)
        Emit(Name);
    Metrics.endObject();
    AllCorrect &= Complete;

    Json Line;
    Line.beginObject()
        .key("correct").boolean(Correct && Complete)
        .key("attempted").num(R.Attempted)
        .key("failed").num(R.Failed)
        .key("metrics").raw(Metrics.text())
        .endObject();
    LastLine = Line.text();

    // The run file: the printed line plus sample counts, host stamp and
    // per-program / per-phase detail.
    const std::string Stem =
        RO.Workload + "-s" + std::to_string(RO.Seed) + "-t" +
        (RO.Trace ? "1" : "0") + "-" +
        std::to_string(std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::system_clock::now().time_since_epoch())
                           .count());
    Json File;
    File.beginObject()
        .key("bench").str("ipse-e2e")
        .key("schema").num(std::uint64_t(1))
        .key("workload").str(RO.Workload)
        .key("seed").num(RO.Seed)
        .key("seconds").num(RO.Seconds)
        .key("trace").boolean(RO.Trace)
        .key("smoke").boolean(RO.Smoke)
        .key("host").raw(hostStamp(RO))
        .key("correct").boolean(Correct && Complete)
        .key("attempted").num(R.Attempted)
        .key("failed").num(R.Failed)
        .key("mismatches").num(R.Mismatches)
        .key("errors").beginArray();
    for (const std::string &E : R.Errors)
      File.str(E);
    File.endArray().key("metrics").beginObject();
    for (const auto *Set : {&R.EndToEnd, &R.Layers})
      for (const auto &[Name, M] : *Set)
        File.key(Name).beginObject()
            .key("value").num(M.Value)
            .key("unit").str(M.Unit)
            .key("samples").num(M.Samples)
            .endObject();
    File.endObject().key("detail").beginObject();
    for (const auto &[K, V] : R.Detail)
      File.key(K).raw(V);
    File.endObject().endObject();
    std::ofstream(O.OutDir + "/runs/" + Stem + ".json") << File.text() << "\n";
    if (RO.Trace) {
      std::filesystem::create_directories(O.OutDir + "/traces");
      std::ofstream(O.OutDir + "/traces/" + Stem + ".trace.json")
          << Log.chromeTrace();
    }
  }
  std::printf("%s\n", LastLine.c_str());
  return AllCorrect ? 0 : 1;
}
