//===- observe/Trace.h - Phase tracing: spans, sinks, scopes ----*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tracing half of the observability layer.  The paper's whole
/// evaluation is asymptotic ("O(N + E) bit-vector steps"), so attributing
/// *measured* cost to pipeline phases — parse → graphs → condensation →
/// RMOD → IMOD+ → GMOD → report — is what makes the reproduction's
/// scalability claims checkable.  Three pieces:
///
///  - TraceSpan: an RAII scoped timer.  Opening one captures a steady
///    clock and the global word-operation count (support/OpCount);
///    closing one emits a SpanRecord (name, nesting depth, wall time,
///    word-op delta) to the thread's active trace context.  Spans nest;
///    engines open them unconditionally at phase granularity.
///
///  - TraceScope: installs a per-thread context (a CostReport to
///    accumulate into and/or a TraceSink to stream to) for its lifetime.
///    Without an installed context a TraceSpan is a few loads and a
///    branch; results are bit-for-bit identical either way because spans
///    only observe.
///
///  - TraceSink: where closed spans stream.  JsonLinesSink writes one
///    flat JSON object per span (the `--trace-out` file format);
///    ChromeTraceSink writes Chrome Trace Event Format JSON that loads
///    directly in Perfetto / chrome://tracing.
///
/// Spans carry a compact thread id (currentTid()) so interleaved
/// multi-thread traces stay attributable, and a TraceScope can install
/// ScopeTags (request trace id + snapshot generation) that every span
/// closed under it inherits — the analysis service uses this to make one
/// query's phase tree reconstructable from a shared trace file.
///
/// Compile-out: configuring with -DIPSE_OBSERVE=OFF defines
/// IPSE_OBSERVE_OFF and every construct here becomes an empty inline —
/// zero code in the hot loops, results unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_OBSERVE_TRACE_H
#define IPSE_OBSERVE_TRACE_H

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>

namespace ipse {
namespace observe {

class CostReport;

/// True when the observability layer is compiled in (IPSE_OBSERVE=ON).
constexpr bool enabled() {
#ifdef IPSE_OBSERVE_OFF
  return false;
#else
  return true;
#endif
}

/// Request-scoped tags a TraceScope can attach to every span it closes.
/// The service tags each query/flush scope so spans from many requests
/// interleaved in one trace file stay attributable.
struct ScopeTags {
  std::string TraceId;          ///< Request trace id ("" = untagged).
  std::uint64_t Generation = 0; ///< Snapshot generation answering it.
  /// Owning tenant in multi-tenant serving ("" = single-program mode);
  /// emitted as a "tenant" field so one tenant's spans are filterable
  /// out of a shared trace file.
  std::string Tenant;
};

/// One closed span, as delivered to sinks and cost reports.
struct SpanRecord {
  const char *Name = "";      ///< Phase name (static string).
  unsigned Depth = 0;         ///< Nesting depth at open time (0 = root).
  std::uint64_t StartNs = 0;  ///< Steady-clock offset from process start.
  std::uint64_t WallNs = 0;   ///< Wall time between open and close.
  std::uint64_t BitOps = 0;   ///< Word operations in the span (OpCount).
  std::uint32_t Tid = 0;      ///< Compact id of the closing thread.
  /// The innermost scope's tags, or nullptr.  Valid only for the
  /// duration of the onSpan() call (it points into the live TraceScope).
  const ScopeTags *Tags = nullptr;
};

/// One query or flush that exceeded the configured `--slow-ms`
/// threshold, with the demand attribution the slow-query log carries.
/// Delivered to TraceSink::onSlowQuery by the tenant server.
struct SlowQueryRecord {
  const char *Op = "";            ///< "tenant.query", "tenant.flush", ...
  std::uint64_t WallUs = 0;       ///< Wall time of the slow operation.
  std::uint32_t Tid = 0;          ///< Thread that ran it.
  std::string TraceId;            ///< Request trace id ("" = none).
  std::string Tenant;             ///< Owning tenant ("" = the implicit one).
  std::uint64_t Generation = 0;   ///< Snapshot generation involved.
  bool HasDemandStats = false;    ///< The three fields below are live.
  std::uint64_t RegionProcs = 0;  ///< Demand region size solved.
  std::uint64_t MemoHits = 0;     ///< Frontier memo hits.
  std::uint64_t FrontierCuts = 0; ///< DFS edges cut at solved frontier.
  const char *Repr = "";          ///< Effect-set representation in use.
};

/// Receives closed spans.  Implementations must be safe to call from the
/// thread that owns the installed TraceScope (one sink may be installed
/// on several threads at once — JsonLinesSink locks internally).
class TraceSink {
public:
  virtual ~TraceSink() = default;
  virtual void onSpan(const SpanRecord &R) = 0;
  /// A query/flush crossed the slow threshold.  Default: ignored, so
  /// sinks that only understand spans keep working.
  virtual void onSlowQuery(const SlowQueryRecord &R) { (void)R; }
};

/// Streams spans as newline-delimited flat JSON objects:
///   {"span":"gmod","depth":1,"tid":1,"start_ns":..,"wall_ns":..,
///    "bv_ops":..}
/// plus "trace" / "gen" fields when the closing scope carries tags.
/// Thread-safe (one mutex around the write).
class JsonLinesSink : public TraceSink {
public:
  /// Writes to \p Out; the caller keeps ownership of the stream unless
  /// \p Close is set (the open() path).
  explicit JsonLinesSink(std::FILE *Out, bool Close = false)
      : Out(Out), CloseOnDestroy(Close) {}
  ~JsonLinesSink() override;

  /// Opens \p Path for writing.  Returns nullptr (and fills \p ErrorOut)
  /// when the file cannot be created.
  static std::unique_ptr<JsonLinesSink> open(const std::string &Path,
                                             std::string &ErrorOut);

  void onSpan(const SpanRecord &R) override;
  /// One flat JSON line per slow query, carrying the demand attribution:
  ///   {"slow_query":"tenant.query","wall_us":..,"tid":..,...}
  void onSlowQuery(const SlowQueryRecord &R) override;

private:
  std::mutex M;
  std::FILE *Out = nullptr;
  bool CloseOnDestroy = false;
};

/// Streams spans as Chrome Trace Event Format JSON — one complete ("X")
/// event per span, loadable directly in Perfetto / chrome://tracing:
///
///   [
///   {"name":"gmod","cat":"ipse","ph":"X","pid":1234,"tid":1,
///    "ts":12.345,"dur":6.789,"args":{"depth":1,"bv_ops":42,
///    "trace":"q7","gen":3}},
///   ...
///   ]
///
/// ts/dur are microseconds (Trace Event Format's unit).  The file is a
/// single well-formed JSON array at *every* moment: each event write
/// seeks back over the closing bracket and re-appends it, so a trace cut
/// short by a crash or a still-running server is loadable as-is.
/// Thread-safe (one mutex around the write).
class ChromeTraceSink : public TraceSink {
public:
  /// Writes to \p Out, which must be seekable; the caller keeps ownership
  /// unless \p Close is set (the open() path).
  explicit ChromeTraceSink(std::FILE *Out, bool Close = false);
  ~ChromeTraceSink() override;

  /// Opens \p Path for writing.  Returns nullptr (and fills \p ErrorOut)
  /// when the file cannot be created.
  static std::unique_ptr<ChromeTraceSink> open(const std::string &Path,
                                               std::string &ErrorOut);

  void onSpan(const SpanRecord &R) override;

private:
  std::mutex M;
  std::FILE *Out = nullptr;
  bool CloseOnDestroy = false;
  bool First = true;
  long Tail = 0; ///< Offset of the closing "\n]\n" (next insertion point).
};

/// Nanoseconds on the steady clock since an arbitrary process-local epoch.
std::uint64_t nowNanos();

/// A compact, stable id for the calling thread (1, 2, 3, ... in first-use
/// order) — readable in trace files where std::thread::id is not.
std::uint32_t currentTid();

#ifndef IPSE_OBSERVE_OFF

namespace detail {
/// The per-thread trace context a TraceScope installs.
struct TraceContext {
  CostReport *Report = nullptr;
  TraceSink *Sink = nullptr;
  unsigned Depth = 0;
  TraceContext *Saved = nullptr; ///< The context this one shadows.
  const ScopeTags *Tags = nullptr; ///< Owned by the installing TraceScope.
};

/// The calling thread's active context, or nullptr.
TraceContext *current();
/// Installs \p Ctx (returns what it shadowed); pass nullptr to uninstall.
void install(TraceContext *Ctx);
} // namespace detail

/// Installs a trace context on the constructing thread for the scope's
/// lifetime.  Scopes nest (the previous context is restored on
/// destruction); spans record into the innermost scope only.
class TraceScope {
public:
  explicit TraceScope(CostReport *Report, TraceSink *Sink = nullptr) {
    Ctx.Report = Report;
    Ctx.Sink = Sink;
    Ctx.Saved = detail::current();
    detail::install(&Ctx);
  }
  /// Tagged form: every span closed under this scope carries \p Tags
  /// (request trace id + snapshot generation) into its SpanRecord.
  TraceScope(CostReport *Report, TraceSink *Sink, ScopeTags TagValues)
      : Tags(std::move(TagValues)) {
    Ctx.Report = Report;
    Ctx.Sink = Sink;
    Ctx.Saved = detail::current();
    Ctx.Tags = &Tags;
    detail::install(&Ctx);
  }
  ~TraceScope() { detail::install(Ctx.Saved); }

  TraceScope(const TraceScope &) = delete;
  TraceScope &operator=(const TraceScope &) = delete;

private:
  ScopeTags Tags;
  detail::TraceContext Ctx;
};

/// RAII phase timer.  \p Name must be a static string (it is stored by
/// pointer).  Cheap when no TraceScope is active on this thread.  Every
/// span also records begin/end events into the flight recorder (when
/// that is enabled), with or without an installed TraceScope — that is
/// what makes the recorder's rings useful with zero configuration.
class TraceSpan {
public:
  explicit TraceSpan(const char *Name);
  ~TraceSpan() { closeNow(); }

  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

  /// Closes the span early (the destructor becomes a no-op).
  void closeNow();

  /// Closes the span without recording it into the scope's report or
  /// sink, for work that was abandoned and will be redone under a span of
  /// its own.  The flight recorder still pairs its begin with an end.
  void discard();

private:
  const char *Name;
  std::uint64_t StartNs = 0;
  std::uint64_t StartOps = 0;
  unsigned Depth = 0;
  bool Active = false;
  bool Flight = false; ///< A flight-recorder begin event was written.
};

/// A span with explicit open/close, for regions that cross a constructor's
/// member-initializer list (open it as an earlier member, close it in the
/// constructor body).  Closes on destruction if still open.
class ManualSpan {
public:
  explicit ManualSpan(const char *Name);
  ~ManualSpan() { close(); }

  ManualSpan(const ManualSpan &) = delete;
  ManualSpan &operator=(const ManualSpan &) = delete;

  void close();

private:
  const char *Name;
  std::uint64_t StartNs = 0;
  std::uint64_t StartOps = 0;
  unsigned Depth = 0;
  bool Active = false;
  bool Flight = false; ///< A flight-recorder begin event was written.
};

/// Adds \p Value to the named per-run counter of the innermost scope's
/// CostReport (e.g. boolean-step totals the solvers return by value).
/// No-op without an active scope.
void addCounter(const char *Name, std::uint64_t Value);

#else // IPSE_OBSERVE_OFF

class TraceScope {
public:
  explicit TraceScope(CostReport *, TraceSink * = nullptr) {}
  TraceScope(CostReport *, TraceSink *, ScopeTags) {}
};

class TraceSpan {
public:
  explicit TraceSpan(const char *) {}
  void closeNow() {}
  void discard() {}
};

class ManualSpan {
public:
  explicit ManualSpan(const char *) {}
  void close() {}
};

inline void addCounter(const char *, std::uint64_t) {}

#endif // IPSE_OBSERVE_OFF

} // namespace observe
} // namespace ipse

#endif // IPSE_OBSERVE_TRACE_H
