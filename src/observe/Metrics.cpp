//===- observe/Metrics.cpp - Process-wide metrics registry -------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "observe/Metrics.h"

#include "observe/Trace.h"
#include "support/SimdKernels.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>

using namespace ipse;
using namespace ipse::observe;

namespace {
/// Release line baked into build_info.  There is no generated version
/// header; this string is the single source of truth for what a scraped
/// dump reports.
constexpr const char *VersionString = "0.10";
} // namespace

MetricsRegistry &MetricsRegistry::global() {
  // Leaked on purpose: references handed to long-lived engines must stay
  // valid through static destruction order.
  static MetricsRegistry *R = [] {
    auto *Reg = new MetricsRegistry();
    // Identify the binary behind any scraped dump: an info metric
    // (constant 1, the labels carry the values) naming the release line,
    // the host's vector ISA (support/SimdKernels.h) and whether the
    // observe layer is compiled in.
    Reg->gauge(std::string("build.info{version=") + VersionString +
               ",isa=" + simd::dispatchedIsa() +
               ",observe=" + (observe::enabled() ? "on" : "off") + "}")
        .set(1);
    return Reg;
  }();
  return *R;
}

Counter &MetricsRegistry::counter(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Counters.find(Name);
  if (It == Counters.end())
    It = Counters.emplace(std::string(Name), std::make_unique<Counter>())
             .first;
  return *It->second;
}

Gauge &MetricsRegistry::gauge(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Gauges.find(Name);
  if (It == Gauges.end())
    It = Gauges.emplace(std::string(Name), std::make_unique<Gauge>()).first;
  return *It->second;
}

LatencyHistogram &MetricsRegistry::histogram(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Histograms.find(Name);
  if (It == Histograms.end())
    It = Histograms
             .emplace(std::string(Name), std::make_unique<LatencyHistogram>())
             .first;
  return *It->second;
}

std::string MetricsRegistry::labeledName(std::string_view Base,
                                         std::string_view Key,
                                         std::string_view Value) {
  std::string Name;
  Name.reserve(Base.size() + Key.size() + Value.size() + 3);
  Name.append(Base);
  Name += '{';
  Name.append(Key);
  Name += '=';
  for (char C : Value) {
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '.' || C == '_' || C == '-';
    Name += Ok ? C : '_';
  }
  Name += '}';
  return Name;
}

Counter &MetricsRegistry::counter(std::string_view Base, std::string_view Key,
                                  std::string_view Value) {
  return counter(labeledName(Base, Key, Value));
}

Gauge &MetricsRegistry::gauge(std::string_view Base, std::string_view Key,
                              std::string_view Value) {
  return gauge(labeledName(Base, Key, Value));
}

LatencyHistogram &MetricsRegistry::histogram(std::string_view Base,
                                             std::string_view Key,
                                             std::string_view Value) {
  return histogram(labeledName(Base, Key, Value));
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> Lock(M);
  MetricsSnapshot S;
  S.Counters.reserve(Counters.size());
  for (const auto &[Name, C] : Counters)
    S.Counters.emplace_back(Name, C->value());
  S.Gauges.reserve(Gauges.size());
  for (const auto &[Name, G] : Gauges)
    S.Gauges.emplace_back(Name, G->value());
  S.Histograms.reserve(Histograms.size());
  for (const auto &[Name, H] : Histograms)
    S.Histograms.emplace_back(Name, H.get());
  // The maps iterate in key order already; sort anyway so the documented
  // cross-shard determinism cannot rot if the container ever changes.
  auto ByName = [](const auto &A, const auto &B) { return A.first < B.first; };
  std::sort(S.Counters.begin(), S.Counters.end(), ByName);
  std::sort(S.Gauges.begin(), S.Gauges.end(), ByName);
  std::sort(S.Histograms.begin(), S.Histograms.end(), ByName);
  return S;
}

std::string MetricsRegistry::toJson() const {
  std::lock_guard<std::mutex> Lock(M);
  std::string Out = "{\"counters\":{";
  char Buf[96];
  bool First = true;
  for (const auto &[Name, C] : Counters) {
    std::snprintf(Buf, sizeof(Buf), "%s\"", First ? "" : ",");
    Out += Buf;
    Out += Name;
    std::snprintf(Buf, sizeof(Buf), "\":%" PRIu64, C->value());
    Out += Buf;
    First = false;
  }
  Out += "},\"gauges\":{";
  First = true;
  for (const auto &[Name, G] : Gauges) {
    std::snprintf(Buf, sizeof(Buf), "%s\"", First ? "" : ",");
    Out += Buf;
    Out += Name;
    std::snprintf(Buf, sizeof(Buf), "\":%" PRId64, G->value());
    Out += Buf;
    First = false;
  }
  Out += "},\"histograms\":{";
  First = true;
  for (const auto &[Name, H] : Histograms) {
    Out += First ? "\"" : ",\"";
    Out += Name;
    Out += "\":";
    Out += H->toJson();
    First = false;
  }
  Out += "}}";
  return Out;
}
