//===- tests/cli_test.cpp - ipse-cli end-to-end tests -------------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
//
// Drives the built ipse-cli binary as a subprocess against the corpus:
// exit codes and key output lines per subcommand.
//
//===----------------------------------------------------------------------===//

#include "observe/Trace.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace {

/// Runs a command, captures stdout, returns the exit code.
int run(const std::string &CommandLine, std::string &Output) {
  Output.clear();
  FILE *Pipe = popen((CommandLine + " 2>/dev/null").c_str(), "r");
  if (!Pipe)
    return -1;
  std::array<char, 4096> Buf;
  std::size_t N;
  while ((N = fread(Buf.data(), 1, Buf.size(), Pipe)) > 0)
    Output.append(Buf.data(), N);
  int Status = pclose(Pipe);
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

std::string cli() { return std::string(IPSE_CLI_PATH); }
std::string corpus(const char *Name) {
  return std::string(IPSE_SOURCE_DIR) + "/examples/corpus/" + Name;
}

TEST(Cli, NoArgsShowsUsage) {
  std::string Out;
  EXPECT_EQ(run(cli(), Out), 2);
}

TEST(Cli, UnknownCommandShowsUsage) {
  std::string Out;
  EXPECT_EQ(run(cli() + " frobnicate", Out), 2);
}

TEST(Cli, ReportOnCorpus) {
  std::string Out;
  ASSERT_EQ(run(cli() + " report " + corpus("swap_chain.mp"), Out), 0);
  EXPECT_NE(Out.find("GMOD = { rotate.p, rotate.q, rotate.r, tmp }"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("GUSE"), std::string::npos);
}

TEST(Cli, ReportNoUseAndRMod) {
  std::string Out;
  ASSERT_EQ(run(cli() + " report --rmod --no-use " +
                    corpus("swap_chain.mp"),
                Out),
            0);
  EXPECT_EQ(Out.find("GUSE"), std::string::npos);
  EXPECT_NE(Out.find("dst: RMOD"), std::string::npos) << Out;
}

TEST(Cli, ReportOnMissingFileFails) {
  std::string Out;
  EXPECT_EQ(run(cli() + " report /nonexistent.mp", Out), 1);
}

TEST(Cli, ReportOnBadSourceFails) {
  // Feed it a file that exists but is not MiniProc.
  std::string Out;
  EXPECT_EQ(run(cli() + " report " + std::string(IPSE_SOURCE_DIR) +
                    "/README.md",
                Out),
            1);
}

TEST(Cli, DotOutputs) {
  std::string Out;
  ASSERT_EQ(run(cli() + " dot " + corpus("evaluator.mp"), Out), 0);
  EXPECT_NE(Out.find("digraph callgraph"), std::string::npos);
  ASSERT_EQ(run(cli() + " dot --beta " + corpus("swap_chain.mp"), Out), 0);
  EXPECT_NE(Out.find("digraph binding"), std::string::npos);
  EXPECT_NE(Out.find("swap.x"), std::string::npos);
}

TEST(Cli, Stats) {
  std::string Out;
  ASSERT_EQ(run(cli() + " stats " + corpus("tower.mp"), Out), 0);
  EXPECT_NE(Out.find("nesting depth dP  3"), std::string::npos) << Out;
  EXPECT_NE(Out.find("procedures        4"), std::string::npos) << Out;
}

TEST(Cli, CheckAgreesOnEveryCorpusFile) {
  for (const char *Name : {"banking.mp", "swap_chain.mp", "accumulator.mp",
                           "evaluator.mp", "tower.mp", "shadowing.mp",
                           "ackermann.mp"}) {
    std::string Out;
    EXPECT_EQ(run(cli() + " check " + corpus(Name), Out), 0) << Name;
    EXPECT_NE(Out.find("8 solvers, MOD and USE: all agree"), std::string::npos)
        << Name << Out;
  }
}

TEST(Cli, GenerateEmitsCompilableSource) {
  std::string Out;
  ASSERT_EQ(run(cli() + " generate --seed 5 --procs 12 --depth 3", Out), 0);
  EXPECT_NE(Out.find("program main;"), std::string::npos);
  // Deterministic: same seed, same bytes.
  std::string Out2;
  ASSERT_EQ(run(cli() + " generate --seed 5 --procs 12 --depth 3", Out2), 0);
  EXPECT_EQ(Out, Out2);
  // Different seed, different program.
  ASSERT_EQ(run(cli() + " generate --seed 6 --procs 12 --depth 3", Out2), 0);
  EXPECT_NE(Out, Out2);
}

TEST(Cli, RoundtripPreservesShape) {
  for (const char *Name : {"banking.mp", "accumulator.mp", "tower.mp"}) {
    std::string Out;
    EXPECT_EQ(run(cli() + " roundtrip " + corpus(Name), Out), 0) << Name;
    EXPECT_NE(Out.find("shape preserved"), std::string::npos) << Out;
  }
}

TEST(Cli, SessionScriptOnStdin) {
  std::string Script = "load " + corpus("accumulator.mp") +
                       "\n"
                       "gmod process\n"
                       "stats\n"
                       "add-mod add 0 count\n"
                       "check\n"
                       "rm-call process 2\n"
                       "check\n"
                       "stats\n";
  std::string Out;
  ASSERT_EQ(run("printf '%s' '" + Script + "' | " + cli() + " session -", Out),
            0)
      << Out;
  EXPECT_NE(Out.find("GMOD(process) = {"), std::string::npos) << Out;
  EXPECT_NE(Out.find("check: OK"), std::string::npos) << Out;
  EXPECT_EQ(Out.find("MISMATCH"), std::string::npos) << Out;
  // The stats lines print the session's counters.  The session is lazy:
  // the first query solved only MOD over process's region (process, add
  // and publish: three of four procedures, so the batch pipeline ran
  // once); USE stayed unsolved.
  EXPECT_NE(Out.find("edits 0  queries 1  region-solves 1  region-procs 3"
                     "  batch-solves 1  memo-hits 0"),
            std::string::npos)
      << Out;
  // The checks then solved USE over the whole program (one more batch
  // solve) and found everything else solved; neither edit (an
  // absorbed-or-GMOD-only add-mod, a formal-free rm-call) had to
  // un-solve anything.
  EXPECT_NE(Out.find("edits 2  queries 25  region-solves 2  region-procs 7"
                     "  batch-solves 2  memo-hits 23  invalidations 0"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("full-resets 0"), std::string::npos) << Out;
}

TEST(Cli, SessionOnGeneratedProgram) {
  std::string Script = "gen procs=10 globals=5 seed=3 depth=2\n"
                       "check\n"
                       "add-global zz_wide\n"
                       "check\n";
  std::string Out;
  ASSERT_EQ(run("printf '%s' '" + Script + "' | " + cli() + " session -", Out),
            0)
      << Out;
  EXPECT_EQ(Out.find("MISMATCH"), std::string::npos) << Out;
}

TEST(Cli, SessionRejectsBadScript) {
  std::string Out;
  EXPECT_EQ(run("printf 'gmod nope\\n' | " + cli() + " session -", Out), 1);
}

TEST(Cli, SessionRefusesIllegalRmProcWithACleanError) {
  // In accumulator.mp, add is called, process nests add and publish, and
  // accumulator is the main program: each removal must end the script
  // with a script error (exit 1), never an assertion abort.
  for (const char *Proc : {"add", "process", "accumulator"}) {
    std::string Out;
    EXPECT_EQ(run("printf 'load " + corpus("accumulator.mp") +
                      "\\nrm-proc " + Proc + "\\n' | " + cli() +
                      " session -",
                  Out),
              1)
        << Proc;
  }
  // A removal that meets every precondition still works.
  std::string Out;
  EXPECT_EQ(run("printf 'load " + corpus("accumulator.mp") +
                    "\\nadd-proc extra process\\nrm-proc extra\\ncheck\\n'"
                    " | " + cli() + " session -",
                Out),
            0)
      << Out;
}

TEST(Cli, SessionRefusesIllegalAddCallWithACleanError) {
  // q1 nests in process, so main's body cannot see it; and no one may call
  // the main program.  Each must end the script with a script error
  // (exit 1), never an assertion abort.
  const std::string Load = "load " + corpus("accumulator.mp") +
                           "\\nadd-proc q1 process\\nadd-stmt q1\\n";
  for (const char *Call :
       {"add-call accumulator 0 q1", "add-call add 0 accumulator"}) {
    std::string Out;
    EXPECT_EQ(run("printf '" + Load + Call + "\\n' | " + cli() +
                      " session -",
                  Out),
              1)
        << Call << "\n"
        << Out;
  }
  // A call that meets every precondition still works.
  std::string Out;
  EXPECT_EQ(run("printf '" + Load + "add-call add 0 q1\\ncheck\\n' | " +
                    cli() + " session -",
                Out),
            0)
      << Out;
}

TEST(Cli, CommandsRejectTheRemovedParallelFlag) {
  // The analyzer has no lanes to ask for and no engine to pick (each
  // command has one fixed mode): --parallel[=K] and --engine=E are
  // unknown options and a clean usage error in every command that takes
  // the analysis flags, not a path or a query operand.
  const std::string Tower = corpus("tower.mp");
  for (const char *Flag : {"--parallel=4", "--parallel", "--engine=demand",
                           "--engine=sequential"})
    for (const std::string &Cmd :
         {" report " + std::string(Flag) + " " + Tower,
          " session " + std::string(Flag) + " - < /dev/null",
          " query --program " + Tower + " " + Flag + " main",
          " serve " + std::string(Flag) + " --program " + Tower +
              " < /dev/null"}) {
      std::string Out;
      EXPECT_EQ(run("(" + cli() + Cmd + " 2>&1)", Out), 2) << Cmd;
      EXPECT_NE(Out.find(std::string("unknown option '") + Flag + "'"),
                std::string::npos)
          << Cmd << "\n" << Out;
    }
}

TEST(Cli, ReportProfileAppendsPhaseTable) {
  std::string Out;
  ASSERT_EQ(run(cli() + " report --profile " + corpus("tower.mp"), Out), 0);
  // The report itself is unchanged and the profile block follows it.
  EXPECT_NE(Out.find("call sites:"), std::string::npos) << Out;
  std::size_t At = Out.find("profile:");
  ASSERT_NE(At, std::string::npos) << Out;
  if (ipse::observe::enabled()) {
    EXPECT_NE(Out.find("parse", At), std::string::npos) << Out;
    EXPECT_NE(Out.find("report", At), std::string::npos) << Out;
    EXPECT_NE(Out.find("render", At), std::string::npos) << Out;
    EXPECT_NE(Out.find("bv_ops", At), std::string::npos) << Out;
  }
}

TEST(Cli, ReportTraceOutStreamsJsonLines) {
  std::string Path = testing::TempDir() + "/ipse_cli_trace.jsonl";
  std::string Out;
  ASSERT_EQ(run(cli() + " report --trace-out=" + Path + " " +
                    corpus("tower.mp"),
                Out),
            0);
  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::string First;
  std::getline(In, First);
  if (ipse::observe::enabled()) {
    EXPECT_EQ(First.find("{\"span\":\""), 0u) << First;
  } else {
    EXPECT_TRUE(First.empty());
  }
  std::remove(Path.c_str());
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::size_t countOf(const std::string &Hay, const std::string &Needle) {
  std::size_t N = 0;
  for (std::size_t At = Hay.find(Needle); At != std::string::npos;
       At = Hay.find(Needle, At + Needle.size()))
    ++N;
  return N;
}

TEST(Cli, ReportTraceFormatChromeIsOneWellFormedDocument) {
  std::string Path = testing::TempDir() + "/ipse_cli_trace.chrome.json";
  std::string Out;
  ASSERT_EQ(run(cli() + " report --trace-out=" + Path +
                    " --trace-format=chrome " + corpus("tower.mp"),
                Out),
            0);
  std::string Doc = slurp(Path);
  std::string Error;
  ASSERT_TRUE(ipse::validateJsonDocument(Doc, Error))
      << Error << "\n" << Doc;
  if (ipse::observe::enabled()) {
    std::size_t Events = countOf(Doc, "{\"name\":\"");
    ASSERT_GT(Events, 0u) << Doc;
    // Every event is a complete ("X") slice carrying a thread id, and no
    // event has a negative duration.
    EXPECT_EQ(countOf(Doc, "\"ph\":\"X\""), Events) << Doc;
    EXPECT_EQ(countOf(Doc, "\"tid\":"), Events) << Doc;
    EXPECT_EQ(countOf(Doc, "\"dur\":-"), 0u) << Doc;
    EXPECT_EQ(countOf(Doc, "\"ts\":-"), 0u) << Doc;
  } else {
    EXPECT_EQ(countOf(Doc, "{\"name\":\""), 0u) << Doc;
  }
  std::remove(Path.c_str());
}

TEST(Cli, ReportUnknownTraceFormatFails) {
  std::string Out;
  EXPECT_EQ(run(cli() + " report --trace-out=/dev/null"
                        " --trace-format=bogus " +
                    corpus("tower.mp"),
                Out),
            2);
}

TEST(Cli, ReportTraceOutUnwritableFails) {
  std::string Out;
  EXPECT_EQ(run(cli() + " report --trace-out=/nonexistent-dir/t.jsonl " +
                    corpus("tower.mp"),
                Out),
            1);
}

TEST(Cli, SessionMetricsVerb) {
  std::string Out;
  ASSERT_EQ(run("printf 'gen procs=6 globals=3 seed=2\\nmetrics\\n' | " +
                    cli() + " session -",
                Out),
            0)
      << Out;
  EXPECT_NE(Out.find("\"counters\""), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"histograms\""), std::string::npos) << Out;
}

TEST(Cli, SessionProfile) {
  std::string Out;
  ASSERT_EQ(run("printf 'gen procs=6 globals=3 seed=2\\ngmod p0\\n' | " +
                    cli() + " session --profile -",
                Out),
            0)
      << Out;
  EXPECT_NE(Out.find("profile:"), std::string::npos) << Out;
  if (ipse::observe::enabled()) {
    // The first query's region holds five of the seven procedures, past
    // half the program: the batch ceiling solves it.
    EXPECT_NE(Out.find("demand.batch"), std::string::npos) << Out;
  }
}

TEST(Cli, ServeOverStdio) {
  // The serve front end speaks newline-delimited JSON over stdio; one
  // response per request, correlated by id.
  std::string Requests = R"({"id":1,"cmd":"gmod main"}\n)"
                         R"({"id":2,"cmd":"add-global srv_g"}\n)"
                         R"({"id":3,"cmd":"check"}\n)";
  std::string Out;
  ASSERT_EQ(run("printf '" + Requests + "' | " + cli() +
                    " serve --gen procs=8,globals=4,seed=5",
                Out),
            0)
      << Out;
  EXPECT_NE(Out.find("\"result\":\"GMOD(main) = {"), std::string::npos) << Out;
  EXPECT_NE(Out.find("check: OK"), std::string::npos) << Out;
  EXPECT_EQ(Out.find("\"ok\":false"), std::string::npos) << Out;
}

TEST(Cli, ServeWithoutUseAnswersUseQueriesWithAnError) {
  // A server started with --no-use keeps no USE pipeline: guse / use are a
  // clean per-request error, and the server keeps answering.
  std::string Requests = R"({"id":1,"cmd":"guse p1"}\n)"
                         R"({"id":2,"cmd":"use p1 0"}\n)"
                         R"({"id":3,"cmd":"gmod p1"}\n)"
                         R"({"id":4,"cmd":"check"}\n)";
  std::string Out;
  ASSERT_EQ(run("printf '" + Requests + "' | " + cli() +
                    " serve --gen procs=10,seed=3 --no-use",
                Out),
            0)
      << Out;
  EXPECT_NE(Out.find("\"id\":1,\"ok\":false"), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"id\":2,\"ok\":false"), std::string::npos) << Out;
  EXPECT_NE(Out.find("no USE pipeline"), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"result\":\"GMOD(p1) = {"), std::string::npos) << Out;
  EXPECT_NE(Out.find("check: OK"), std::string::npos) << Out;
}

TEST(Cli, ServeReportsScriptErrorsPerRequest) {
  std::string Out;
  ASSERT_EQ(run("printf '{\"id\":1,\"cmd\":\"gmod nope\"}\n' | " + cli() +
                    " serve --gen procs=4,globals=2,seed=1",
                Out),
            0)
      << Out;
  EXPECT_NE(Out.find("unknown procedure"), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"ok\":false"), std::string::npos) << Out;
}

TEST(Cli, ServeNeedsAProgramSource) {
  std::string Out;
  EXPECT_EQ(run("printf '' | " + cli() + " serve", Out), 2);
}

TEST(Cli, ServeClientMetricsDumpOverTcpWithChromeTrace) {
  // The full observability walkthrough: serve over TCP with a Chrome
  // trace sink, drive it with the line client, scrape it with
  // metrics-dump, shut it down by closing its stdin — then check the
  // trace attributes every span to its request.
  std::string Dir = testing::TempDir();
  std::string ErrFile = Dir + "/ipse_serve_err.txt";
  std::string Trace = Dir + "/ipse_serve_trace.chrome.json";
  std::string Done = Dir + "/ipse_serve_done";
  std::string Script = Dir + "/ipse_serve_script.txt";
  {
    std::ofstream S(Script);
    S << "gmod main\n"
      << "add-global tcp_trace_g\n"
      << "check\n";
  }
  std::remove(Done.c_str());
  std::remove(ErrFile.c_str());

  // The serve process reads stdin until EOF; feed it from a loop that
  // ends when the done-file appears, so the server outlives both client
  // runs and stops cleanly afterwards.
  std::string Cmd =
      "( while [ ! -e " + Done + " ]; do sleep 0.1; done ) | " + cli() +
      " serve --gen procs=8,globals=4,seed=5 --port 0"
      " --trace-out=" + Trace + " --trace-format=chrome 2>" + ErrFile +
      " & SRV=$!; "
      "for I in $(seq 1 100); do"
      "  grep -q 'serving on' " + ErrFile + " 2>/dev/null && break;"
      "  sleep 0.1; "
      "done; "
      "PORT=$(sed -n 's/.*127\\.0\\.0\\.1:\\([0-9]*\\).*/\\1/p' " + ErrFile +
      "); " +
      cli() + " client --port $PORT " + Script + " && " +
      cli() + " metrics-dump --port $PORT; RC=$?; "
      "touch " + Done + "; wait $SRV; exit $RC";
  std::string Out;
  ASSERT_EQ(run(Cmd, Out), 0) << Out << "\nserver stderr:\n"
                              << slurp(ErrFile);

  // Client responses: answers, the committed edit, and per-request trace
  // ids assigned by the client ("c1", "c2", ...).
  EXPECT_NE(Out.find("\"result\":\"GMOD(main) = {"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("check: OK"), std::string::npos) << Out;
  EXPECT_EQ(Out.find("\"ok\":false"), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"trace\":\"c1\""), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"trace\":\"c2\""), std::string::npos) << Out;
  // metrics-dump appended Prometheus text after the response lines.
  EXPECT_NE(Out.find("# TYPE"), std::string::npos) << Out;
  EXPECT_NE(Out.find("ipse_tenant_read_lat_us"), std::string::npos) << Out;

  // The trace file: one well-formed Chrome Trace Event document whose
  // service spans carry the client's trace ids.
  std::string Doc = slurp(Trace);
  std::string Error;
  ASSERT_TRUE(ipse::validateJsonDocument(Doc, Error))
      << Error << "\n" << Doc;
  if (ipse::observe::enabled()) {
    EXPECT_NE(Doc.find("\"name\":\"tenant.query\""), std::string::npos)
        << Doc;
    EXPECT_NE(Doc.find("\"name\":\"tenant.flush\""), std::string::npos)
        << Doc;
    EXPECT_NE(Doc.find("\"trace\":\"c1\""), std::string::npos) << Doc;
    // The edit (request c2) committed generation 1; its flush span says so.
    EXPECT_NE(Doc.find("\"trace\":\"c2\",\"gen\":1"), std::string::npos)
        << Doc;
    EXPECT_EQ(countOf(Doc, "\"dur\":-"), 0u) << Doc;
  }
  std::remove(Trace.c_str());
  std::remove(Script.c_str());
  std::remove(ErrFile.c_str());
  std::remove(Done.c_str());
}

TEST(Cli, ClientSendsMidTokenHashesAndDropsComments) {
  // The line client strips comments by the script parser's rule: a '#'
  // after whitespace opens one, a '#' inside a token is data.  So
  // `main#0` reaches the server whole and the reply names the call site.
  std::string Dir = testing::TempDir();
  std::string ErrFile = Dir + "/ipse_clienthash_err.txt";
  std::string Done = Dir + "/ipse_clienthash_done";
  std::string Script = Dir + "/ipse_clienthash_script.txt";
  {
    std::ofstream S(Script);
    S << "# a comment line\n"
      << "query main main#0 # trailing comment\n";
  }
  std::remove(Done.c_str());
  std::remove(ErrFile.c_str());

  std::string Cmd =
      "( while [ ! -e " + Done + " ]; do sleep 0.1; done ) | " + cli() +
      " serve --gen procs=10,globals=5,seed=7 --port 0 2>" +
      ErrFile + " & SRV=$!; "
      "for I in $(seq 1 100); do"
      "  grep -q 'serving on' " + ErrFile + " 2>/dev/null && break;"
      "  sleep 0.1; "
      "done; "
      "PORT=$(sed -n 's/.*127\\.0\\.0\\.1:\\([0-9]*\\).*/\\1/p' " + ErrFile +
      "); " +
      cli() + " client --port $PORT " + Script + "; RC=$?; "
      "touch " + Done + "; wait $SRV; exit $RC";
  std::string Out;
  ASSERT_EQ(run(Cmd, Out), 0) << Out << "\nserver stderr:\n"
                              << slurp(ErrFile);
  EXPECT_EQ(countOf(Out, "\"id\":"), 1u) << Out;
  EXPECT_NE(Out.find("\"result\":\"GMOD(main) = {"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("; DMOD(main#0) = {"), std::string::npos) << Out;
  std::remove(Script.c_str());
  std::remove(ErrFile.c_str());
  std::remove(Done.c_str());
}

TEST(Cli, SaveInspectLoadRoundTrip) {
  std::string Snap = testing::TempDir() + "/cli_roundtrip.ipsesnap";
  std::string Out;
  ASSERT_EQ(run(cli() + " save --program " + corpus("tower.mp") + " " + Snap,
                Out),
            0)
      << Out;
  EXPECT_NE(Out.find("wrote " + Snap), std::string::npos) << Out;
  EXPECT_NE(Out.find("use-tracking on"), std::string::npos) << Out;

  ASSERT_EQ(run(cli() + " inspect-snapshot " + Snap, Out), 0) << Out;
  EXPECT_NE(Out.find("header      ok"), std::string::npos) << Out;
  for (const char *Tag : {"PROG", "GRPH", "PLNS"})
    EXPECT_NE(Out.find(Tag), std::string::npos) << Tag << "\n" << Out;
  EXPECT_EQ(Out.find("BAD"), std::string::npos) << Out;

  ASSERT_EQ(run(cli() + " load " + Snap, Out), 0) << Out;
  EXPECT_NE(Out.find("generation 0"), std::string::npos) << Out;
  EXPECT_NE(Out.find("region solves since load: 0"), std::string::npos)
      << Out;

  // The loaded planes must answer identically to a cold solve: the
  // report rendered from the snapshot matches `report` on the source.
  std::string Cold, Warm;
  ASSERT_EQ(run(cli() + " report " + corpus("tower.mp"), Cold), 0);
  ASSERT_EQ(run(cli() + " load --report " + Snap, Warm), 0);
  EXPECT_NE(Warm.find(Cold), std::string::npos)
      << "---- cold ----\n" << Cold << "---- warm ----\n" << Warm;
  std::remove(Snap.c_str());
}

TEST(Cli, InspectSnapshotFlagsCorruptionAndLoadRefusesIt) {
  std::string Snap = testing::TempDir() + "/cli_corrupt.ipsesnap";
  std::string Out;
  ASSERT_EQ(run(cli() + " save --gen procs=12,globals=4,seed=3 " + Snap, Out),
            0)
      << Out;

  // Flip one payload byte near the end of the file (the planes section).
  {
    std::string Bytes = slurp(Snap);
    ASSERT_GT(Bytes.size(), 64u);
    Bytes[Bytes.size() - 2] ^= 0x20;
    std::ofstream F(Snap, std::ios::binary | std::ios::trunc);
    F.write(Bytes.data(), std::streamsize(Bytes.size()));
  }
  EXPECT_EQ(run(cli() + " inspect-snapshot " + Snap, Out), 1) << Out;
  EXPECT_NE(Out.find("BAD"), std::string::npos) << Out;
  EXPECT_NE(Out.find("header      ok"), std::string::npos) << Out;
  EXPECT_EQ(run(cli() + " load " + Snap, Out), 1) << Out;
  std::remove(Snap.c_str());
}

TEST(Cli, ServeDataDirSurvivesKillNine) {
  // The crash-recovery walkthrough, end to end through the binary: serve
  // with --data-dir, commit edits (each response means the WAL record is
  // fsync'd), SIGKILL the server mid-traffic, restart from the same
  // directory, and require the answers and generation to come back warm.
  std::string Dir = testing::TempDir() + "/ipse_cli_store";
  std::string Out1 = testing::TempDir() + "/ipse_kill9_out1.txt";
  std::string Err2 = testing::TempDir() + "/ipse_kill9_err2.txt";
  std::string Done = testing::TempDir() + "/ipse_kill9_done";
  std::string Out;
  run("rm -rf " + Dir + " && rm -f " + Out1 + " " + Err2 + " " + Done, Out);

  std::string Requests = R"({"id":1,"cmd":"add-global kill9_g"}\n)"
                         R"({"id":2,"cmd":"add-stmt main"}\n)"
                         R"({"id":3,"cmd":"add-mod main 0 kill9_g"}\n)";
  // Hold stdin open after the requests so EOF cannot trigger the *clean*
  // shutdown path: the server must die by SIGKILL with its WAL tail
  // unfolded. An edit's response follows the WAL fsync, so once the
  // output shows generation 3 all three edits are durable.
  std::string Cmd =
      "( printf '" + Requests + "'; while [ ! -e " + Done +
      " ]; do sleep 0.1; done ) | " + cli() +
      " serve --gen procs=8,globals=4,seed=5 --data-dir " + Dir +
      " >" + Out1 + " 2>/dev/null & SRV=$!; "
      "for I in $(seq 1 100); do"
      "  grep -q '\"gen\":3' " + Out1 + " 2>/dev/null && break;"
      "  sleep 0.1; "
      "done; "
      "kill -9 $SRV; touch " + Done + "; wait $SRV 2>/dev/null; exit 0";
  ASSERT_EQ(run(Cmd, Out), 0) << Out;
  std::string FirstRun = slurp(Out1);
  ASSERT_NE(FirstRun.find("\"gen\":3"), std::string::npos) << FirstRun;

  // Restart from the store alone: no --gen, no --program. The recovery
  // banner goes to stderr; the re-queried GMOD must include the edit
  // committed before the kill.
  std::string Requests2 = R"({"id":1,"cmd":"gmod main"}\n)";
  // The subshell keeps run()'s own trailing stderr redirect from
  // overriding the capture into Err2.
  ASSERT_EQ(run("( printf '" + Requests2 + "' | " + cli() +
                    " serve --data-dir " + Dir + " 2>" + Err2 + " )",
                Out),
            0)
      << Out << slurp(Err2);
  EXPECT_NE(Out.find("kill9_g"), std::string::npos) << Out;
  std::string Banner = slurp(Err2);
  EXPECT_NE(Banner.find("recovered '" + Dir + "' at generation 3"),
            std::string::npos)
      << Banner;
  EXPECT_NE(Banner.find("stopped at generation 3"), std::string::npos)
      << Banner;
  run("rm -rf " + Dir + " && rm -f " + Out1 + " " + Err2 + " " + Done, Out);
}

TEST(Cli, ServeTenantsSurviveKillNine) {
  // The multi-tenant crash walkthrough: serve --tenants --data-dir, open
  // two tenants, storm both with edits, SIGKILL the server once the last
  // acks (each ack follows the tenant's WAL fsync) are visible, restart
  // from the directory, and require the manifest to re-register both and
  // every answer to come back from a warm fault-in — no re-solve.
  std::string Dir = testing::TempDir() + "/ipse_cli_tenants";
  std::string Out1 = testing::TempDir() + "/ipse_tkill9_out1.txt";
  std::string Err2 = testing::TempDir() + "/ipse_tkill9_err2.txt";
  std::string Done = testing::TempDir() + "/ipse_tkill9_done";
  std::string Out;
  run("rm -rf " + Dir + " && rm -f " + Out1 + " " + Err2 + " " + Done, Out);

  std::string Requests =
      R"({"id":100,"cmd":"open acme procs=8 globals=4 seed=5"}\n)"
      R"({"id":200,"cmd":"open beta procs=6 globals=3 seed=9"}\n)"
      R"({"id":101,"cmd":"add-global kill9_a","tenant":"acme"}\n)"
      R"({"id":201,"cmd":"add-global kill9_b","tenant":"beta"}\n)"
      R"({"id":102,"cmd":"add-stmt main","tenant":"acme"}\n)"
      R"({"id":202,"cmd":"add-stmt main","tenant":"beta"}\n)"
      R"({"id":103,"cmd":"add-mod main 0 kill9_a","tenant":"acme"}\n)"
      R"({"id":203,"cmd":"add-mod main 0 kill9_b","tenant":"beta"}\n)";
  std::string Cmd =
      "( printf '" + Requests + "'; while [ ! -e " + Done +
      " ]; do sleep 0.1; done ) | " + cli() +
      " serve --tenants=2 --data-dir " + Dir +
      " >" + Out1 + " 2>/dev/null & SRV=$!; "
      "for I in $(seq 1 100); do"
      "  grep -q '\"id\":103' " + Out1 + " 2>/dev/null &&"
      "  grep -q '\"id\":203' " + Out1 + " 2>/dev/null && break;"
      "  sleep 0.1; "
      "done; "
      "kill -9 $SRV; touch " + Done + "; wait $SRV 2>/dev/null; exit 0";
  ASSERT_EQ(run(Cmd, Out), 0) << Out;
  std::string FirstRun = slurp(Out1);
  ASSERT_NE(FirstRun.find("\"id\":103"), std::string::npos) << FirstRun;
  ASSERT_NE(FirstRun.find("\"id\":203"), std::string::npos) << FirstRun;
  EXPECT_EQ(FirstRun.find("\"ok\":false"), std::string::npos) << FirstRun;

  // Restart: the manifest re-registers both tenants (evicted); the first
  // query per tenant faults its session in from snapshot + WAL tail.
  std::string Requests2 =
      R"({"id":1,"cmd":"gmod main","tenant":"acme"}\n)"
      R"({"id":2,"cmd":"check","tenant":"acme"}\n)"
      R"({"id":3,"cmd":"gmod main","tenant":"beta"}\n)"
      R"({"id":4,"cmd":"check","tenant":"beta"}\n)";
  ASSERT_EQ(run("( printf '" + Requests2 + "' | " + cli() +
                    " serve --tenants=2 --data-dir " + Dir + " 2>" + Err2 +
                    " )",
                Out),
            0)
      << Out << slurp(Err2);
  EXPECT_NE(Out.find("kill9_a"), std::string::npos) << Out;
  EXPECT_NE(Out.find("kill9_b"), std::string::npos) << Out;
  EXPECT_EQ(Out.find("\"ok\":false"), std::string::npos) << Out;
  EXPECT_EQ(countOf(Out, "check: OK"), 2u) << Out;
  std::string Banner = slurp(Err2);
  EXPECT_NE(Banner.find("tenants: 2 registered in '" + Dir + "'"),
            std::string::npos)
      << Banner;
  EXPECT_NE(Banner.find("tenants stopped; 2 in manifest"), std::string::npos)
      << Banner;
  run("rm -rf " + Dir + " && rm -f " + Out1 + " " + Err2 + " " + Done, Out);
}

TEST(Cli, ServeAnswersEveryOpenOfAStormPastTheQueue) {
  // 800 opens overflow the shard queues (256 slots each): every refused
  // open must be answered with a retry and rolled back, and the server
  // must keep answering and exit cleanly.
  std::string Dir = testing::TempDir() + "/ipse_cli_open_storm";
  std::string Out;
  run("rm -rf " + Dir, Out);
  ASSERT_EQ(run("for I in $(seq 0 799); do printf "
                "'{\"id\":%d,\"cmd\":\"open t%d procs=200 globals=16\"}\\n'"
                " $I $I; done | " +
                    cli() + " serve --tenants --data-dir " + Dir +
                    " --resident-cap 64",
                Out),
            0);
  EXPECT_EQ(countOf(Out, "{\"id\":"), 800u) << Out.substr(0, 2000);
  for (unsigned I = 0; I < 800; I += 97)
    EXPECT_NE(Out.find("{\"id\":" + std::to_string(I) + ","),
              std::string::npos)
        << I;
  EXPECT_EQ(countOf(Out, "\"ok\":false"), countOf(Out, "\"retry\":true"))
      << Out.substr(0, 2000);
  run("rm -rf " + Dir, Out);
}

TEST(Cli, ServeSigquitWritesFlightDump) {
  // The flight-recorder crash-dump path, end to end through the binary:
  // serve with --data-dir, answer one query (so the rings hold real
  // events), SIGQUIT the server, and require a Perfetto-loadable
  // flight-<pid>.json in the data directory.
  std::string Dir = testing::TempDir() + "/ipse_cli_flight";
  std::string Out1 = testing::TempDir() + "/ipse_sigquit_out1.txt";
  std::string Done = testing::TempDir() + "/ipse_sigquit_done";
  std::string Out;
  run("rm -rf " + Dir + " && rm -f " + Out1 + " " + Done, Out);

  std::string Requests = R"({"id":1,"cmd":"gmod main"}\n)";
  std::string Cmd =
      "( printf '" + Requests + "'; while [ ! -e " + Done +
      " ]; do sleep 0.1; done ) | " + cli() +
      " serve --gen procs=8,globals=4,seed=5 --data-dir " + Dir +
      " >" + Out1 + " 2>/dev/null & SRV=$!; "
      "for I in $(seq 1 100); do"
      "  grep -q '\"id\":1' " + Out1 + " 2>/dev/null && break;"
      "  sleep 0.1; "
      "done; "
      "kill -QUIT $SRV; "
      "for I in $(seq 1 100); do"
      "  ls " + Dir + "/flight-*.json >/dev/null 2>&1 && break;"
      "  sleep 0.1; "
      "done; "
      "touch " + Done + "; wait $SRV 2>/dev/null; "
      "cat " + Dir + "/flight-*.json";
  ASSERT_EQ(run(Cmd, Out), 0) << Out << "\nserver out:\n" << slurp(Out1);
  ASSERT_FALSE(Out.empty());
  std::string Error;
  ASSERT_TRUE(ipse::validateJsonDocument(Out, Error)) << Error << "\n" << Out;
  if (ipse::observe::enabled()) {
    // The dump holds the pre-crash history: the query span the server
    // just answered, attributed to the flight category.
    EXPECT_NE(Out.find("\"cat\":\"flight\""), std::string::npos) << Out;
    EXPECT_NE(Out.find("tenant.query"), std::string::npos) << Out;
  }
  run("rm -rf " + Dir + " && rm -f " + Out1 + " " + Done, Out);
}

TEST(Cli, ServeTenantsExportLabeledPromSeries) {
  // Per-tenant labeled metrics end to end: a tenants server answers a
  // query for each of two tenants, then `metrics --format=prom` must
  // show distinct {tenant="..."} series for both.  The feeder polls the
  // output file so the metrics request only goes in after both query
  // responses are out (the scrape would otherwise race the queries).
  std::string Dir = testing::TempDir() + "/ipse_cli_promlabels";
  std::string Out1 = testing::TempDir() + "/ipse_promlabels_out1.txt";
  std::string Done = testing::TempDir() + "/ipse_promlabels_done";
  std::string Out;
  run("rm -rf " + Dir + " && rm -f " + Out1 + " " + Done, Out);

  std::string Requests =
      R"({"id":1,"cmd":"open acme procs=8 globals=4 seed=5"}\n)"
      R"({"id":2,"cmd":"open beta procs=6 globals=3 seed=9"}\n)"
      R"({"id":3,"cmd":"gmod main","tenant":"acme"}\n)"
      R"({"id":4,"cmd":"gmod main","tenant":"beta"}\n)";
  std::string MetricsReq = R"({"id":9,"cmd":"metrics --format=prom"}\n)";
  std::string Cmd =
      "( printf '" + Requests + "'; "
      "  for I in $(seq 1 100); do"
      "    grep -q '\"id\":3' " + Out1 + " 2>/dev/null &&"
      "    grep -q '\"id\":4' " + Out1 + " 2>/dev/null && break;"
      "    sleep 0.1; "
      "  done; "
      "  printf '" + MetricsReq + "'; "
      "  while [ ! -e " + Done + " ]; do sleep 0.1; done ) | " + cli() +
      " serve --tenants=2 --data-dir " + Dir +
      " >" + Out1 + " 2>/dev/null & SRV=$!; "
      "for I in $(seq 1 100); do"
      "  grep -q '\"id\":9' " + Out1 + " 2>/dev/null && break;"
      "  sleep 0.1; "
      "done; "
      "touch " + Done + "; wait $SRV 2>/dev/null; exit 0";
  ASSERT_EQ(run(Cmd, Out), 0) << Out;
  std::string Resp = slurp(Out1);
  ASSERT_NE(Resp.find("\"id\":9"), std::string::npos) << Resp;
  EXPECT_EQ(Resp.find("\"ok\":false"), std::string::npos) << Resp;
  // The prom text rides inside a JSON string field, so its quotes arrive
  // escaped: ipse_tenant_queries{tenant=\"acme\"} ...
  EXPECT_NE(Resp.find("ipse_tenant_queries{tenant=\\\"acme\\\"} "),
            std::string::npos)
      << Resp;
  EXPECT_NE(Resp.find("ipse_tenant_queries{tenant=\\\"beta\\\"} "),
            std::string::npos)
      << Resp;
  EXPECT_NE(Resp.find("ipse_tenant_resident{tenant=\\\"acme\\\"} 1"),
            std::string::npos)
      << Resp;
  EXPECT_NE(Resp.find("ipse_tenant_resident{tenant=\\\"beta\\\"} 1"),
            std::string::npos)
      << Resp;
  run("rm -rf " + Dir + " && rm -f " + Out1 + " " + Done, Out);
}

TEST(Cli, DebugDumpOverTcpIsAChromeTraceDocument) {
  // The live introspection path: serve over TCP, answer a query, then
  // `debug-dump --port` must print the recorder's Chrome Trace array.
  std::string Dir = testing::TempDir();
  std::string ErrFile = Dir + "/ipse_debugdump_err.txt";
  std::string Done = Dir + "/ipse_debugdump_done";
  std::string Script = Dir + "/ipse_debugdump_script.txt";
  {
    std::ofstream S(Script);
    S << "gmod main\n";
  }
  std::remove(Done.c_str());
  std::remove(ErrFile.c_str());

  std::string Cmd =
      "( while [ ! -e " + Done + " ]; do sleep 0.1; done ) | " + cli() +
      " serve --gen procs=8,globals=4,seed=5 --port 0 2>" +
      ErrFile + " & SRV=$!; "
      "for I in $(seq 1 100); do"
      "  grep -q 'serving on' " + ErrFile + " 2>/dev/null && break;"
      "  sleep 0.1; "
      "done; "
      "PORT=$(sed -n 's/.*127\\.0\\.0\\.1:\\([0-9]*\\).*/\\1/p' " + ErrFile +
      "); " +
      cli() + " client --port $PORT " + Script + " >/dev/null && " +
      cli() + " debug-dump --port $PORT; RC=$?; "
      "touch " + Done + "; wait $SRV; exit $RC";
  std::string Out;
  ASSERT_EQ(run(Cmd, Out), 0) << Out << "\nserver stderr:\n"
                              << slurp(ErrFile);
  std::string Error;
  ASSERT_TRUE(ipse::validateJsonDocument(Out, Error)) << Error << "\n" << Out;
  if (ipse::observe::enabled()) {
    EXPECT_NE(Out.find("\"cat\":\"flight\""), std::string::npos) << Out;
    EXPECT_NE(Out.find("tenant.query"), std::string::npos) << Out;
  }
  std::remove(Script.c_str());
  std::remove(ErrFile.c_str());
  std::remove(Done.c_str());
}

} // namespace
