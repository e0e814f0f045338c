//===- bench/e2e/Common.cpp - Statistics, JSON, spans, /proc ------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "E2e.h"

#include "ir/Printer.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

using namespace ipse;
using namespace ipse::e2e;

double e2e::quantile(std::vector<double> &V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  std::size_t Rank = static_cast<std::size_t>(std::ceil(Q * V.size()));
  return V[Rank == 0 ? 0 : Rank - 1];
}

double e2e::median(std::vector<double> V) { return quantile(V, 0.5); }

double e2e::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / V.size());
}

std::vector<double> e2e::sliceQuantiles(const std::vector<double> &V,
                                        unsigned Slices, double Q,
                                        std::size_t MinPerSlice) {
  const std::size_t N = std::max<std::size_t>(
      1, std::min<std::size_t>(Slices, V.size() / std::max<std::size_t>(
                                                      1, MinPerSlice)));
  std::vector<double> Out;
  for (std::size_t I = 0; I != N && !V.empty(); ++I) {
    std::vector<double> Slice(V.begin() + V.size() * I / N,
                              V.begin() + V.size() * (I + 1) / N);
    Out.push_back(quantile(Slice, Q));
  }
  return Out;
}

std::string e2e::formatNumber(double D) {
  if (!std::isfinite(D))
    return "0";
  char Buf[64];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), D);
  (void)Ec;
  return std::string(Buf, End);
}

void Json::sep() {
  if (NeedComma)
    Out += ',';
  NeedComma = true;
}

Json &Json::beginObject() {
  sep();
  Out += '{';
  NeedComma = false;
  return *this;
}

Json &Json::endObject() {
  Out += '}';
  NeedComma = true;
  return *this;
}

Json &Json::beginArray() {
  sep();
  Out += '[';
  NeedComma = false;
  return *this;
}

Json &Json::endArray() {
  Out += ']';
  NeedComma = true;
  return *this;
}

Json &Json::key(const std::string &K) {
  str(K);
  Out += ':';
  NeedComma = false;
  return *this;
}

Json &Json::str(const std::string &S) {
  sep();
  Out += '"';
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Esc[8];
      std::snprintf(Esc, sizeof(Esc), "\\u%04x", C);
      Out += Esc;
    } else {
      Out += C;
    }
  }
  Out += '"';
  return *this;
}

Json &Json::num(double D) {
  sep();
  Out += formatNumber(D);
  return *this;
}

Json &Json::num(std::uint64_t N) {
  sep();
  Out += std::to_string(N);
  return *this;
}

Json &Json::boolean(bool B) {
  sep();
  Out += B ? "true" : "false";
  return *this;
}

Json &Json::raw(const std::string &Text) {
  sep();
  Out += Text;
  return *this;
}

void RunResult::fail(const std::string &What) {
  ++Failed;
  if (Errors.size() < 20)
    Errors.push_back(What);
}

void RunResult::mismatch(const std::string &What) {
  ++Mismatches;
  fail("mismatch: " + What);
}

void SpanLog::add(const std::string &Name, const std::string &Cat,
                  std::int64_t StartNs, std::int64_t EndNs, unsigned Tid,
                  const std::string &Args) {
  if (Enabled)
    Spans.push_back({Name, Cat, Args, StartNs, EndNs, Tid});
}

std::string SpanLog::chromeTrace() const {
  std::string Out = "[\n";
  for (std::size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    Json J;
    J.beginObject()
        .key("name").str(S.Name)
        .key("cat").str(S.Cat)
        .key("ph").str("X")
        .key("ts").num((S.StartNs - OriginNs) / 1e3)
        .key("dur").num((S.EndNs - S.StartNs) / 1e3)
        .key("pid").num(std::uint64_t(1))
        .key("tid").num(std::uint64_t(S.Tid));
    if (!S.Args.empty())
      J.key("args").raw("{" + S.Args + "}");
    J.endObject();
    Out += J.text();
    Out += I + 1 == Spans.size() ? "\n" : ",\n";
  }
  Out += "]\n";
  return Out;
}

long e2e::procStatusKb(const std::string &Pid, const char *Field) {
  std::ifstream In("/proc/" + Pid + "/status");
  std::string Line;
  const std::size_t Len = std::strlen(Field);
  while (std::getline(In, Line))
    if (Line.compare(0, Len, Field) == 0 && Line.size() > Len &&
        Line[Len] == ':')
      return std::atol(Line.c_str() + Len + 1);
  return 0;
}

std::string e2e::renderSet(const ir::Program &P, const EffectSet &Set) {
  std::vector<std::string> Names;
  Set.forEachSetBit([&](std::size_t Idx) {
    Names.push_back(
        ir::qualifiedName(P, ir::VarId(static_cast<std::uint32_t>(Idx))));
  });
  std::sort(Names.begin(), Names.end());
  std::string Out;
  for (std::size_t I = 0; I != Names.size(); ++I) {
    if (I != 0)
      Out += ", ";
    Out += Names[I];
  }
  return Out;
}
