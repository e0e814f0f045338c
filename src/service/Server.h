//===- service/Server.h - Protocol front ends for the service ---*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The newline-delimited JSON wire protocol and its front ends.  One
/// request per line:
///
///   {"id":7,"cmd":"gmod main"}
///
/// where `cmd` is any session-script command (service/ScriptDriver.h) —
/// the protocol reuses the script grammar verbatim, so the CLI and the
/// wire speak one language.  One response per request (order may differ
/// from submission order under concurrency; correlate by id):
///
///   {"id":7,"ok":true,"gen":3,"result":"GMOD(main) = {x, y}"}
///   {"id":8,"ok":false,"gen":3,"error":"unknown procedure 'nope'"}
///   {"id":9,"ok":false,"retry":true,"error":"overloaded"}        (backpressure)
///
/// Extra response fields: `"check":false` on a failed `check`; the
/// `stats` / `metrics` / `debug` commands return their object (or the
/// flight-recorder's Chrome-trace array) under `"result"` unquoted
/// (`metrics --format=prom` returns Prometheus text as a plain string);
/// and `query` answered by a demand engine carries a nested
/// `"stats":{"region_procs":N,"memo_hits":N,"frontier_cuts":N}` object
/// attributing that query's region solve.
///
/// The request decoder (tenant routing, trace ids) lives in
/// tenant/Protocol.h.  This header holds what is protocol-generic:
/// serveLines() pumps one request stream over a pair of file descriptors
/// (stdio serving and each accepted TCP connection); TcpServer accepts
/// loopback connections and serves each on its own thread; runClient()
/// and the one-shot dumps are the clients the CLI wraps.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_SERVICE_SERVER_H
#define IPSE_SERVICE_SERVER_H

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace ipse {
namespace service {

/// One answer.  For edits, Result is empty and Generation is the
/// generation the edit produced; for queries, Result is exactly the text
/// `ipse-cli session` would print and Generation identifies the snapshot
/// that answered.
struct Response {
  std::uint64_t Id = 0;
  bool Ok = true;
  /// True when the request was refused for load (resubmit later).
  bool Retry = false;
  /// False only for a failed `check`.
  bool CheckOk = true;
  /// True when Result is pre-rendered JSON (the `stats` endpoint).
  bool ResultIsJson = false;
  std::uint64_t Generation = 0;
  /// The request's trace id, echoed back verbatim (empty if none given).
  std::string TraceId;
  std::string Result;
  std::string Error;
  /// Per-query demand attribution (demand-engine targets only): how much
  /// region solving this specific query triggered.  Rendered as a nested
  /// "stats" object on the wire when HasStats is true.
  bool HasStats = false;
  std::uint64_t RegionProcs = 0;
  std::uint64_t MemoHits = 0;
  std::uint64_t FrontierCuts = 0;
};

/// Renders one response as a protocol line (no trailing newline).
std::string renderResponse(const Response &R);

/// One request line dispatched by the generic pump below: decode, route,
/// and call \p Emit exactly once (possibly later, from a service thread).
using LineHandler = std::function<void(
    std::string_view Line, const std::function<void(const std::string &)> &Emit)>;

/// The protocol pump behind every front end: reads newline-delimited
/// requests from \p InFd until EOF, hands each non-blank line to
/// \p Handle, and writes emitted responses to \p OutFd (write-locked;
/// service threads interleave whole lines).  Drains outstanding requests
/// before returning.  \p Handle runs on the reading thread, so
/// per-connection state (the tenant front end's `attach` default) needs
/// no locking.
void serveLines(const LineHandler &Handle, int InFd, int OutFd);

/// A loopback TCP listener serving each accepted connection on its own
/// thread with Nagle off.  \p Handler runs the per-connection server (the
/// tenant front end passes a closure that builds fresh connection state
/// and calls serveLines).  A finished connection's fd is closed and its
/// thread joined on the next accept, so a long-lived server holds one
/// thread per *live* connection.
class TcpServer {
public:
  using ConnectionFn = std::function<void(int InFd, int OutFd)>;

  explicit TcpServer(ConnectionFn Handler) : Handler(std::move(Handler)) {}
  ~TcpServer() { stop(); }

  /// Binds 127.0.0.1:\p Port (0 picks an ephemeral port — see port()),
  /// listens, and starts the accept thread.  Returns false with
  /// \p ErrorOut set on failure.
  bool start(std::uint16_t Port, std::string &ErrorOut);

  /// The bound port (valid after a successful start()).
  std::uint16_t port() const { return BoundPort; }

  /// Stops accepting, shuts down live connections, joins all threads.
  /// Idempotent.
  void stop();

private:
  /// One accepted connection.  Fd is -1 once the connection thread has
  /// closed it (under ConnMutex, so stop() never shuts down a reused fd
  /// number); Done marks the thread joinable without blocking.
  struct Conn {
    int Fd = -1;
    bool Done = false;
    std::thread Thread;
  };

  void acceptLoop();
  /// Joins and drops finished connections (acceptor thread).
  void reapFinished();

  ConnectionFn Handler;
  /// Atomic: stop() retires it (exchange to -1) while acceptLoop is
  /// blocked in accept() on it.
  std::atomic<int> ListenFd{-1};
  std::uint16_t BoundPort = 0;
  std::thread Acceptor;
  std::mutex ConnMutex;
  /// unique_ptr: connection threads hold a stable pointer to their entry.
  std::vector<std::unique_ptr<Conn>> Conns;
  bool Running = false;
};

/// Connects to 127.0.0.1:\p Port, wraps each line of \p In (a session
/// script; comments, by stripComment's rule, and blanks skipped) into a
/// protocol request, and prints each response line to \p Out.  Returns 0
/// on success, 1 on connection failure or any ok=false response.
int runClient(std::uint16_t Port, std::FILE *In, std::FILE *Out);

/// Connects to 127.0.0.1:\p Port, issues one `metrics` request, and
/// prints the decoded payload — Prometheus text when \p Prom, the raw
/// JSON object otherwise — to \p Out.  Returns 0 on success, 1 on
/// connection or protocol failure.
int runMetricsDump(std::uint16_t Port, bool Prom, std::FILE *Out);

/// Connects to 127.0.0.1:\p Port, issues one `debug` request, and prints
/// the flight-recorder dump (a complete Chrome Trace Event JSON array) to
/// \p Out.  Returns 0 on success, 1 on connection or protocol failure.
int runDebugDump(std::uint16_t Port, std::FILE *Out);

} // namespace service
} // namespace ipse

#endif // IPSE_SERVICE_SERVER_H
