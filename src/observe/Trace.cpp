//===- observe/Trace.cpp - Phase tracing: spans, sinks, scopes ----------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "observe/Trace.h"

#include "observe/CostReport.h"
#include "observe/FlightRecorder.h"
#include "support/OpCount.h"

#include <atomic>
#include <chrono>

#include <unistd.h>

using namespace ipse;
using namespace ipse::observe;

std::uint64_t observe::nowNanos() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point Epoch = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           Epoch)
          .count());
}

std::uint32_t observe::currentTid() {
  static std::atomic<std::uint32_t> Next{1};
  thread_local std::uint32_t Tid =
      Next.fetch_add(1, std::memory_order_relaxed);
  return Tid;
}

//===----------------------------------------------------------------------===//
// JsonLinesSink.
//===----------------------------------------------------------------------===//

JsonLinesSink::~JsonLinesSink() {
  if (CloseOnDestroy && Out)
    std::fclose(Out);
}

std::unique_ptr<JsonLinesSink> JsonLinesSink::open(const std::string &Path,
                                                   std::string &ErrorOut) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    ErrorOut = "cannot open '" + Path + "' for writing";
    return nullptr;
  }
  return std::make_unique<JsonLinesSink>(F, /*Close=*/true);
}

void JsonLinesSink::onSpan(const SpanRecord &R) {
  std::lock_guard<std::mutex> Lock(M);
  std::fprintf(Out,
               "{\"span\":\"%s\",\"depth\":%u,\"tid\":%u,\"start_ns\":%llu,"
               "\"wall_ns\":%llu,\"bv_ops\":%llu",
               R.Name, R.Depth, R.Tid, (unsigned long long)R.StartNs,
               (unsigned long long)R.WallNs, (unsigned long long)R.BitOps);
  if (R.Tags) {
    // Trace ids come from the wire; escape conservatively by dropping
    // characters a JSON string cannot carry raw.
    std::fputs(",\"trace\":\"", Out);
    for (char C : R.Tags->TraceId)
      if (C != '"' && C != '\\' && static_cast<unsigned char>(C) >= 0x20)
        std::fputc(C, Out);
    std::fprintf(Out, "\",\"gen\":%llu",
                 (unsigned long long)R.Tags->Generation);
    if (!R.Tags->Tenant.empty()) {
      std::fputs(",\"tenant\":\"", Out);
      for (char C : R.Tags->Tenant)
        if (C != '"' && C != '\\' && static_cast<unsigned char>(C) >= 0x20)
          std::fputc(C, Out);
      std::fputc('"', Out);
    }
  }
  std::fputs("}\n", Out);
  std::fflush(Out);
}

void JsonLinesSink::onSlowQuery(const SlowQueryRecord &R) {
  std::lock_guard<std::mutex> Lock(M);
  std::fprintf(Out, "{\"slow_query\":\"%s\",\"wall_us\":%llu,\"tid\":%u",
               R.Op, (unsigned long long)R.WallUs, R.Tid);
  auto putFiltered = [this](const std::string &S) {
    for (char C : S)
      if (C != '"' && C != '\\' && static_cast<unsigned char>(C) >= 0x20)
        std::fputc(C, Out);
  };
  if (!R.TraceId.empty()) {
    std::fputs(",\"trace\":\"", Out);
    putFiltered(R.TraceId);
    std::fputc('"', Out);
  }
  if (!R.Tenant.empty()) {
    std::fputs(",\"tenant\":\"", Out);
    putFiltered(R.Tenant);
    std::fputc('"', Out);
  }
  std::fprintf(Out, ",\"gen\":%llu", (unsigned long long)R.Generation);
  if (R.HasDemandStats)
    std::fprintf(Out,
                 ",\"region_procs\":%llu,\"memo_hits\":%llu,"
                 "\"frontier_cuts\":%llu",
                 (unsigned long long)R.RegionProcs,
                 (unsigned long long)R.MemoHits,
                 (unsigned long long)R.FrontierCuts);
  if (R.Repr && R.Repr[0])
    std::fprintf(Out, ",\"repr\":\"%s\"", R.Repr);
  std::fputs("}\n", Out);
  std::fflush(Out);
}

//===----------------------------------------------------------------------===//
// ChromeTraceSink.
//===----------------------------------------------------------------------===//

ChromeTraceSink::ChromeTraceSink(std::FILE *Out, bool Close)
    : Out(Out), CloseOnDestroy(Close) {
  std::fputs("[\n", Out);
  Tail = std::ftell(Out);
  std::fputs("]\n", Out);
  std::fflush(Out);
}

ChromeTraceSink::~ChromeTraceSink() {
  if (CloseOnDestroy && Out)
    std::fclose(Out);
}

std::unique_ptr<ChromeTraceSink>
ChromeTraceSink::open(const std::string &Path, std::string &ErrorOut) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    ErrorOut = "cannot open '" + Path + "' for writing";
    return nullptr;
  }
  return std::make_unique<ChromeTraceSink>(F, /*Close=*/true);
}

void ChromeTraceSink::onSpan(const SpanRecord &R) {
  std::lock_guard<std::mutex> Lock(M);
  std::fseek(Out, Tail, SEEK_SET);
  std::fprintf(Out,
               "%s{\"name\":\"%s\",\"cat\":\"ipse\",\"ph\":\"X\","
               "\"pid\":%ld,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
               "\"args\":{\"depth\":%u,\"bv_ops\":%llu",
               First ? "" : ",\n", R.Name, static_cast<long>(::getpid()),
               R.Tid, static_cast<double>(R.StartNs) / 1000.0,
               static_cast<double>(R.WallNs) / 1000.0, R.Depth,
               (unsigned long long)R.BitOps);
  if (R.Tags) {
    std::fputs(",\"trace\":\"", Out);
    for (char C : R.Tags->TraceId)
      if (C != '"' && C != '\\' && static_cast<unsigned char>(C) >= 0x20)
        std::fputc(C, Out);
    std::fprintf(Out, "\",\"gen\":%llu",
                 (unsigned long long)R.Tags->Generation);
    if (!R.Tags->Tenant.empty()) {
      std::fputs(",\"tenant\":\"", Out);
      for (char C : R.Tags->Tenant)
        if (C != '"' && C != '\\' && static_cast<unsigned char>(C) >= 0x20)
          std::fputc(C, Out);
      std::fputc('"', Out);
    }
  }
  std::fputs("}}", Out);
  First = false;
  Tail = std::ftell(Out);
  std::fputs("\n]\n", Out);
  std::fflush(Out);
}

#ifndef IPSE_OBSERVE_OFF

//===----------------------------------------------------------------------===//
// Thread-local context.
//===----------------------------------------------------------------------===//

namespace {
thread_local detail::TraceContext *ActiveCtx = nullptr;

/// Opens: returns false (and records nothing) without an active context.
bool openSpan(std::uint64_t &StartNs, std::uint64_t &StartOps,
              unsigned &Depth) {
  detail::TraceContext *Ctx = ActiveCtx;
  if (!Ctx)
    return false;
  Depth = Ctx->Depth++;
  StartNs = nowNanos();
  StartOps = ops::total();
  return true;
}

void closeSpan(const char *Name, std::uint64_t StartNs, std::uint64_t StartOps,
               unsigned Depth) {
  // Close against whatever context is active *now*: a span that outlives
  // its scope (never the RAII pattern) simply records nowhere.
  detail::TraceContext *Ctx = ActiveCtx;
  if (!Ctx)
    return;
  SpanRecord R;
  R.Name = Name;
  R.Depth = Depth;
  R.StartNs = StartNs;
  R.WallNs = nowNanos() - StartNs;
  R.BitOps = ops::total() - StartOps;
  R.Tid = currentTid();
  R.Tags = Ctx->Tags;
  if (Ctx->Depth > 0)
    --Ctx->Depth;
  if (Ctx->Report)
    Ctx->Report->addSpan(R);
  if (Ctx->Sink)
    Ctx->Sink->onSpan(R);
}
} // namespace

detail::TraceContext *detail::current() { return ActiveCtx; }
void detail::install(TraceContext *Ctx) { ActiveCtx = Ctx; }

//===----------------------------------------------------------------------===//
// Spans.
//===----------------------------------------------------------------------===//

TraceSpan::TraceSpan(const char *Name) : Name(Name) {
  Active = openSpan(StartNs, StartOps, Depth);
  if (flight::enabled()) {
    if (!Active)
      StartNs = nowNanos(); // openSpan() skipped the clock read.
    flight::record(flight::EventKind::SpanBegin, Name);
    Flight = true;
  }
}

void TraceSpan::closeNow() {
  if (Flight) {
    Flight = false;
    flight::record(flight::EventKind::SpanEnd, Name, nowNanos() - StartNs);
  }
  if (!Active)
    return;
  Active = false;
  closeSpan(Name, StartNs, StartOps, Depth);
}

void TraceSpan::discard() {
  if (Active) {
    Active = false;
    // Undo openSpan's nesting step, as closeSpan would.
    if (ActiveCtx && ActiveCtx->Depth > 0)
      --ActiveCtx->Depth;
  }
  closeNow();
}

ManualSpan::ManualSpan(const char *Name) : Name(Name) {
  Active = openSpan(StartNs, StartOps, Depth);
  if (flight::enabled()) {
    if (!Active)
      StartNs = nowNanos();
    flight::record(flight::EventKind::SpanBegin, Name);
    Flight = true;
  }
}

void ManualSpan::close() {
  if (Flight) {
    Flight = false;
    flight::record(flight::EventKind::SpanEnd, Name, nowNanos() - StartNs);
  }
  if (!Active)
    return;
  Active = false;
  closeSpan(Name, StartNs, StartOps, Depth);
}

void observe::addCounter(const char *Name, std::uint64_t Value) {
  if (flight::enabled())
    flight::record(flight::EventKind::Counter, Name, Value);
  detail::TraceContext *Ctx = ActiveCtx;
  if (Ctx && Ctx->Report)
    Ctx->Report->addCounter(Name, Value);
}

#endif // IPSE_OBSERVE_OFF
