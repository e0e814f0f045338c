//===- tests/bench_diff_test.cpp - Perf-regression gate tests -----------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
//
// Drives the built ipse-bench-diff binary as a subprocess over synthetic
// bench JSONL: seeding a fresh baseline, a clean re-run, a synthetic 2x
// regression (exit 1), --warn-only and --threshold-scale suppression, the
// later-input-overrides-earlier fold order, and the canonical BENCH file's
// shape (sorted, one key per line, flat-JSON parseable).
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;
using ipse::parseJsonObject;

namespace {

/// Runs a command, captures stdout+stderr, returns the exit code.
int run(const std::string &CommandLine, std::string &Output) {
  Output.clear();
  FILE *Pipe = popen((CommandLine + " 2>&1").c_str(), "r");
  if (!Pipe)
    return -1;
  std::array<char, 4096> Buf;
  std::size_t N;
  while ((N = fread(Buf.data(), 1, Buf.size(), Pipe)) > 0)
    Output.append(Buf.data(), N);
  int Status = pclose(Pipe);
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

std::string tool() { return std::string(IPSE_BENCH_DIFF_PATH); }

void writeFile(const fs::path &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::trunc);
  ASSERT_TRUE(Out.good()) << Path;
  Out << Text;
}

std::string slurp(const fs::path &Path) {
  std::ifstream In(Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// A scratch directory with one seed round of every bench schema.
struct BenchDir {
  fs::path Root;

  explicit BenchDir(const char *Name) {
    Root = fs::path(testing::TempDir()) / Name;
    fs::remove_all(Root);
    fs::create_directories(Root / "seed");
    writeFile(Root / "seed" / "incremental.jsonl",
              R"({"shape":"small","mix":"effect-add","delta_us_per_edit":10.0})"
              "\n"
              R"({"shape":"small","mix":"call-churn","delta_us_per_edit":20.0})"
              "\n");
    writeFile(Root / "seed" / "service.jsonl",
              R"({"shape":"tiny","readers":2,"qps":50000.0})"
              "\n");
    writeFile(Root / "seed" / "observe.jsonl",
              R"({"kind":"overhead","engine":"sequential","shape":"s","ratio":1.01})"
              "\n"
              R"({"kind":"phase","engine":"sequential","shape":"s","phase":"gmod","wall_ns":1000000,"bv_ops":5000})"
              "\n");
    // Files outside the known schemas are skipped, not fatal.
    writeFile(Root / "seed" / "mystery.jsonl", R"({"x":1})"
                                               "\n");
  }
  ~BenchDir() {
    std::error_code Ec;
    fs::remove_all(Root, Ec);
  }

  std::string seed() const { return (Root / "seed").string(); }
  std::string baseline() const { return (Root / "BENCH.json").string(); }
};

TEST(BenchDiff, NoArgsShowsUsage) {
  std::string Out;
  EXPECT_EQ(run(tool(), Out), 2);
  EXPECT_NE(Out.find("usage:"), std::string::npos) << Out;
}

TEST(BenchDiff, MissingInputFails) {
  std::string Out;
  EXPECT_EQ(run(tool() + " --in /nonexistent-bench-dir", Out), 2);
}

TEST(BenchDiff, SeedsABaselineAndRerunsClean) {
  BenchDir Dir("ipse_bench_diff_seed");
  std::string Out;

  // First run: no baseline yet; folds and writes one, exit 0.
  ASSERT_EQ(run(tool() + " --in " + Dir.seed() + " --baseline " +
                    Dir.baseline() + " --out " + Dir.baseline(),
                Out),
            0)
      << Out;
  EXPECT_NE(Out.find("writing a fresh one"), std::string::npos) << Out;

  // The canonical file: flat JSON, sorted, one key per line, schema tag.
  std::string Text = slurp(Dir.baseline());
  std::string Err;
  auto Obj = parseJsonObject(Text, Err);
  ASSERT_TRUE(Obj.has_value()) << Err << "\n" << Text;
  EXPECT_EQ(Obj->getString("schema"), "ipse-bench-v1");
  EXPECT_EQ(Obj->getDouble("incremental/small/effect-add/delta_us_per_edit"),
            10.0);
  EXPECT_EQ(Obj->getDouble("incremental/small/call-churn/delta_us_per_edit"),
            20.0);
  EXPECT_EQ(Obj->getDouble("service/tiny/r2/qps"), 50000.0);
  EXPECT_EQ(Obj->getDouble("observe/sequential/s/gmod/wall_ns"), 1000000.0);
  EXPECT_EQ(Obj->getDouble("observe/sequential/s/gmod/bv_ops"), 5000.0);
  // The overhead row carries no gateable identity and must not fold.
  EXPECT_EQ(Text.find("overhead"), std::string::npos) << Text;
  {
    std::istringstream Lines(Text);
    std::string Line, PrevKey;
    while (std::getline(Lines, Line)) {
      std::size_t Q1 = Line.find('"');
      if (Q1 == std::string::npos)
        continue;
      std::string Key = Line.substr(Q1 + 1, Line.find('"', Q1 + 1) - Q1 - 1);
      if (Key == "schema") // the schema tag is always the final line
        continue;
      EXPECT_LT(PrevKey, Key) << "keys must sort: " << Text;
      PrevKey = Key;
    }
  }

  // Second run against the fold it just wrote: everything stable, exit 0.
  ASSERT_EQ(run(tool() + " --in " + Dir.seed() + " --baseline " +
                    Dir.baseline() + " --out " + Dir.baseline(),
                Out),
            0)
      << Out;
  EXPECT_NE(Out.find("0 regression(s)"), std::string::npos) << Out;
}

TEST(BenchDiff, FailsOnSyntheticRegression) {
  BenchDir Dir("ipse_bench_diff_regress");
  std::string Out;
  ASSERT_EQ(run(tool() + " --in " + Dir.seed() + " --baseline " +
                    Dir.baseline() + " --out " + Dir.baseline(),
                Out),
            0)
      << Out;

  // A fresh run where delta cost jumps 2.5x, qps halves-and-more, and the
  // deterministic bv_ops count creeps 4% — each past its gate.
  fs::path Fresh = Dir.Root / "fresh";
  fs::create_directories(Fresh);
  writeFile(Fresh / "incremental.jsonl",
            R"({"shape":"small","mix":"effect-add","delta_us_per_edit":25.0})"
            "\n");
  writeFile(Fresh / "service.jsonl",
            R"({"shape":"tiny","readers":2,"qps":20000.0})"
            "\n");
  writeFile(Fresh / "observe.jsonl",
            R"({"kind":"phase","engine":"sequential","shape":"s","phase":"gmod","wall_ns":1000000,"bv_ops":5200})"
            "\n");

  // Seed first, fresh last: the fresh rows override key-wise, so the
  // regressions are visible even though the seed rows are also folded.
  std::string Cmd = tool() + " --in " + Dir.seed() + " --in " +
                    Fresh.string() + " --baseline " + Dir.baseline();
  EXPECT_EQ(run(Cmd, Out), 1) << Out;
  EXPECT_NE(Out.find("REGRESSION: incremental/small/effect-add"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("REGRESSION: service/tiny/r2/qps"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("REGRESSION: observe/sequential/s/gmod/bv_ops"),
            std::string::npos)
      << Out;
  // Untouched metrics stay quiet.
  EXPECT_EQ(Out.find("REGRESSION: observe/sequential/s/gmod/wall_ns"),
            std::string::npos)
      << Out;

  // --warn-only reports but exits 0.
  EXPECT_EQ(run(Cmd + " --warn-only", Out), 0) << Out;
  EXPECT_NE(Out.find("--warn-only"), std::string::npos) << Out;

  // A big enough --threshold-scale absorbs the wall-clock regressions;
  // even the tight bv_ops gate opens at 10x (4% < 2% * 10).
  EXPECT_EQ(run(Cmd + " --threshold-scale 10", Out), 0) << Out;
}

TEST(BenchDiff, HardGateFailsEvenWarnOnly) {
  // Recorder overhead above the absolute ceiling trips the hard gate —
  // with no baseline at all, and --warn-only / --threshold-scale must not
  // open it.
  BenchDir Dir("ipse_bench_diff_hard");
  std::string Out;
  fs::path Fresh = Dir.Root / "fresh";
  fs::create_directories(Fresh);
  writeFile(Fresh / "observe.jsonl",
            R"({"kind":"recorder","engine":"sequential","shape":"fortran-1000","recorder_overhead_pct":9.0})"
            "\n");
  std::string Cmd = tool() + " --in " + Fresh.string();
  EXPECT_EQ(run(Cmd, Out), 1) << Out;
  EXPECT_NE(Out.find("HARD GATE: observe/sequential/fortran-1000/recorder/"
                     "recorder_overhead_pct"),
            std::string::npos)
      << Out;
  EXPECT_EQ(run(Cmd + " --warn-only", Out), 1) << Out;
  EXPECT_EQ(run(Cmd + " --warn-only --threshold-scale 100", Out), 1) << Out;

  // At a healthy value the gate stays quiet.
  writeFile(Fresh / "observe.jsonl",
            R"({"kind":"recorder","engine":"sequential","shape":"fortran-1000","recorder_overhead_pct":1.4})"
            "\n");
  EXPECT_EQ(run(Cmd, Out), 0) << Out;
  EXPECT_EQ(Out.find("HARD GATE"), std::string::npos) << Out;
}

TEST(BenchDiff, LaterInputsOverrideAndNewKeysDontFail) {
  BenchDir Dir("ipse_bench_diff_fold");
  std::string Out;
  ASSERT_EQ(run(tool() + " --in " + Dir.seed() + " --baseline " +
                    Dir.baseline() + " --out " + Dir.baseline(),
                Out),
            0)
      << Out;

  // Fresh file with one improved row and one brand-new key; last row of a
  // file wins within it.
  fs::path Fresh = Dir.Root / "fresh";
  fs::create_directories(Fresh);
  writeFile(Fresh / "incremental.jsonl",
            R"({"shape":"small","mix":"effect-add","delta_us_per_edit":99.0})"
            "\n"
            R"({"shape":"small","mix":"effect-add","delta_us_per_edit":7.0})"
            "\n"
            R"({"shape":"huge","mix":"effect-add","delta_us_per_edit":3.0})"
            "\n");

  fs::path NewOut = Dir.Root / "BENCH.next.json";
  ASSERT_EQ(run(tool() + " --in " + Dir.seed() + " --in " + Fresh.string() +
                    " --baseline " + Dir.baseline() + " --out " +
                    NewOut.string(),
                Out),
            0)
      << Out;
  EXPECT_NE(Out.find("new:  incremental/huge/effect-add/delta_us_per_edit"),
            std::string::npos)
      << Out;

  std::string Err;
  auto Obj = parseJsonObject(slurp(NewOut), Err);
  ASSERT_TRUE(Obj.has_value()) << Err;
  // Fresh overrode seed (10 -> 7), and within the fresh file the last row
  // won (99 then 7).
  EXPECT_EQ(Obj->getDouble("incremental/small/effect-add/delta_us_per_edit"),
            7.0);
  EXPECT_EQ(Obj->getDouble("incremental/huge/effect-add/delta_us_per_edit"),
            3.0);
  // Seed-only keys survive the fold.
  EXPECT_EQ(Obj->getDouble("incremental/small/call-churn/delta_us_per_edit"),
            20.0);
}

TEST(BenchDiff, RejectsMalformedRows) {
  BenchDir Dir("ipse_bench_diff_bad");
  writeFile(Dir.Root / "seed" / "incremental.jsonl", "{not json\n");
  std::string Out;
  EXPECT_EQ(run(tool() + " --in " + Dir.seed(), Out), 2);
  EXPECT_NE(Out.find("incremental.jsonl:1"), std::string::npos) << Out;
}

} // namespace
