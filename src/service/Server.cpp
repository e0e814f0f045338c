//===- service/Server.cpp - Protocol front ends for the service ---------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include "service/ScriptDriver.h"
#include "support/Json.h"

#include <algorithm>
#include <cctype>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <optional>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace ipse;
using namespace ipse::service;

std::string service::renderResponse(const Response &R) {
  JsonWriter W;
  W.field("id", R.Id);
  W.field("ok", R.Ok);
  if (R.Retry)
    W.field("retry", true);
  W.field("gen", R.Generation);
  if (!R.TraceId.empty())
    W.field("trace", R.TraceId);
  if (!R.CheckOk)
    W.field("check", false);
  if (!R.Result.empty()) {
    if (R.ResultIsJson)
      W.fieldRaw("result", R.Result);
    else
      W.field("result", R.Result);
  }
  if (R.HasStats) {
    // Per-query demand attribution (demand-engine targets only).
    JsonWriter SW;
    SW.field("region_procs", R.RegionProcs);
    SW.field("memo_hits", R.MemoHits);
    SW.field("frontier_cuts", R.FrontierCuts);
    W.fieldRaw("stats", SW.finish());
  }
  if (!R.Error.empty())
    W.field("error", R.Error);
  return W.finish();
}

namespace {

/// Replies are small and written whole; Nagle would hold a reply back
/// until the peer acknowledges the previous one.
void setNoDelay(int Fd) {
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
}

/// Writes one whole line (text + '\n') to \p Fd, retrying short writes.
void writeLine(int Fd, std::mutex &WriteMutex, const std::string &Text) {
  std::lock_guard<std::mutex> Lock(WriteMutex);
  std::string Buf = Text;
  Buf += '\n';
  const char *P = Buf.data();
  std::size_t Left = Buf.size();
  while (Left) {
    ssize_t N = ::write(Fd, P, Left);
    if (N <= 0)
      return; // Peer gone; nothing useful to do with the rest.
    P += N;
    Left -= static_cast<std::size_t>(N);
  }
}

} // namespace

void service::serveLines(const LineHandler &Handle, int InFd, int OutFd) {
  std::mutex WriteMutex;
  // Outstanding = requests handed to the service whose response has not
  // been written yet; EOF waits for the count to drain so no response is
  // lost when the client half-closes.
  std::mutex PendingMutex;
  std::condition_variable PendingCv;
  std::size_t Outstanding = 0;

  auto Emit = [&](const std::string &LineOut) {
    writeLine(OutFd, WriteMutex, LineOut);
    // Notify while holding the mutex: the drain wait below destroys this
    // frame's cv/mutex the moment Outstanding hits zero, and holding the
    // lock through notify_all keeps the waiter from getting there while
    // this thread is still inside the cv.
    std::lock_guard<std::mutex> Lock(PendingMutex);
    if (Outstanding)
      --Outstanding;
    PendingCv.notify_all();
  };

  auto isBlank = [](std::string_view Line) {
    for (char C : Line)
      if (!std::isspace(static_cast<unsigned char>(C)))
        return false;
    return true;
  };

  std::string Carry;
  char Buf[4096];
  while (true) {
    ssize_t N = ::read(InFd, Buf, sizeof(Buf));
    if (N <= 0)
      break;
    Carry.append(Buf, static_cast<std::size_t>(N));
    std::size_t Start = 0;
    for (std::size_t Nl; (Nl = Carry.find('\n', Start)) != std::string::npos;
         Start = Nl + 1) {
      std::string_view Line(Carry.data() + Start, Nl - Start);
      // Blank keep-alive lines get no response, so no slot; every other
      // line is answered exactly once (the LineHandler contract).
      if (isBlank(Line))
        continue;
      {
        std::lock_guard<std::mutex> Lock(PendingMutex);
        ++Outstanding;
      }
      Handle(Line, Emit);
    }
    Carry.erase(0, Start);
  }

  std::unique_lock<std::mutex> Lock(PendingMutex);
  PendingCv.wait(Lock, [&] { return Outstanding == 0; });
}

//===----------------------------------------------------------------------===//
// TCP listener.
//===----------------------------------------------------------------------===//

bool TcpServer::start(std::uint16_t Port, std::string &ErrorOut) {
  ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    ErrorOut = std::strerror(errno);
    return false;
  }
  int One = 1;
  ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
          0 ||
      ::listen(ListenFd, 16) < 0) {
    ErrorOut = std::strerror(errno);
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  socklen_t Len = sizeof(Addr);
  ::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr), &Len);
  BoundPort = ntohs(Addr.sin_port);
  Running = true;
  Acceptor = std::thread([this] { acceptLoop(); });
  return true;
}

void TcpServer::acceptLoop() {
  while (true) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      return; // Listener closed by stop().
    setNoDelay(Fd);
    reapFinished();
    std::lock_guard<std::mutex> Lock(ConnMutex);
    if (!Running) {
      ::close(Fd);
      return;
    }
    Conn *C = Conns.emplace_back(std::make_unique<Conn>()).get();
    C->Fd = Fd;
    // The thread's epilogue waits for ConnMutex, which this iteration
    // holds until C->Thread is assigned.
    C->Thread = std::thread([this, C, Fd] {
      Handler(Fd, Fd);
      std::lock_guard<std::mutex> Lock(ConnMutex);
      ::close(Fd);
      C->Fd = -1;
      C->Done = true;
    });
  }
}

void TcpServer::reapFinished() {
  std::vector<std::unique_ptr<Conn>> Finished;
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    auto Live = std::partition(Conns.begin(), Conns.end(),
                               [](const std::unique_ptr<Conn> &C) {
                                 return !C->Done;
                               });
    std::move(Live, Conns.end(), std::back_inserter(Finished));
    Conns.erase(Live, Conns.end());
  }
  for (std::unique_ptr<Conn> &C : Finished)
    C->Thread.join();
}

void TcpServer::stop() {
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    if (!Running && ListenFd < 0)
      return;
    Running = false;
    for (const std::unique_ptr<Conn> &C : Conns)
      if (C->Fd >= 0)
        ::shutdown(C->Fd, SHUT_RDWR); // Unblocks the connection's reads.
  }
  if (int Fd = ListenFd.exchange(-1); Fd >= 0) {
    ::shutdown(Fd, SHUT_RDWR);
    ::close(Fd); // Unblocks accept().
  }
  if (Acceptor.joinable())
    Acceptor.join();
  std::vector<std::unique_ptr<Conn>> All;
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    All.swap(Conns);
  }
  for (std::unique_ptr<Conn> &C : All)
    C->Thread.join();
}

//===----------------------------------------------------------------------===//
// Line-oriented client.
//===----------------------------------------------------------------------===//

namespace {

/// Connects to 127.0.0.1:\p Port; returns -1 with a stderr diagnostic on
/// failure.
int connectLoopback(std::uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    std::fprintf(stderr, "error: socket: %s\n", std::strerror(errno));
    return -1;
  }
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    std::fprintf(stderr, "error: connect 127.0.0.1:%u: %s\n", unsigned(Port),
                 std::strerror(errno));
    ::close(Fd);
    return -1;
  }
  setNoDelay(Fd);
  return Fd;
}

/// Sends one request whose `cmd` is \p Cmd and reads its one response
/// line.  Returns the parsed response when it says ok; otherwise prints a
/// diagnostic naming \p What and returns nullopt.
std::optional<JsonObject> oneShot(std::uint16_t Port, const char *Cmd,
                                  const char *What) {
  int Fd = connectLoopback(Port);
  if (Fd < 0)
    return std::nullopt;

  JsonWriter W;
  W.field("id", std::uint64_t(1));
  W.field("cmd", Cmd);
  std::string Req = W.finish() + "\n";
  if (::write(Fd, Req.data(), Req.size()) != static_cast<ssize_t>(Req.size())) {
    std::fprintf(stderr, "error: connection lost\n");
    ::close(Fd);
    return std::nullopt;
  }

  std::string Carry;
  char Buf[4096];
  std::size_t Nl;
  while ((Nl = Carry.find('\n')) == std::string::npos) {
    ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N <= 0) {
      std::fprintf(stderr, "error: connection closed\n");
      ::close(Fd);
      return std::nullopt;
    }
    Carry.append(Buf, static_cast<std::size_t>(N));
  }
  // Wait for the server's close, so its next accept reaps this connection.
  ::shutdown(Fd, SHUT_WR);
  while (::read(Fd, Buf, sizeof(Buf)) > 0)
    ;
  ::close(Fd);

  std::string RespLine = Carry.substr(0, Nl);
  std::string Err;
  std::optional<JsonObject> Resp = parseJsonObject(RespLine, Err);
  if (!Resp || Resp->getBool("ok") != true) {
    std::fprintf(stderr, "error: bad %s response: %s\n", What,
                 RespLine.c_str());
    return std::nullopt;
  }
  return Resp;
}

} // namespace

int service::runClient(std::uint16_t Port, std::FILE *In, std::FILE *Out) {
  int Fd = connectLoopback(Port);
  if (Fd < 0)
    return 1;

  // Synchronous one-at-a-time: send a request, read its response line.
  // Simple, and exactly what scripted use needs.
  int Exit = 0;
  std::uint64_t NextId = 1;
  char *LinePtr = nullptr;
  std::size_t LineCap = 0;
  std::string Carry;
  char Buf[4096];
  auto readResponseLine = [&](std::string &OutLine) -> bool {
    while (true) {
      if (std::size_t Nl = Carry.find('\n'); Nl != std::string::npos) {
        OutLine = Carry.substr(0, Nl);
        Carry.erase(0, Nl + 1);
        return true;
      }
      ssize_t N = ::read(Fd, Buf, sizeof(Buf));
      if (N <= 0)
        return false;
      Carry.append(Buf, static_cast<std::size_t>(N));
    }
  };

  while (true) {
    ssize_t Len = ::getline(&LinePtr, &LineCap, In);
    if (Len < 0)
      break;
    std::string Script(
        stripComment({LinePtr, static_cast<std::size_t>(Len)}));
    while (!Script.empty() &&
           (Script.back() == '\n' || Script.back() == '\r'))
      Script.pop_back();
    bool AllSpace = true;
    for (char C : Script)
      if (!std::isspace(static_cast<unsigned char>(C)))
        AllSpace = false;
    if (AllSpace)
      continue;

    JsonWriter W;
    W.field("id", NextId);
    // Client-chosen trace ids ("c1", "c2", ...) mirror the request ids,
    // so a span's "trace" tag reads straight back to a script line.
    W.field("trace", "c" + std::to_string(NextId));
    ++NextId;
    W.field("cmd", Script);
    std::string Req = W.finish() + "\n";
    if (::write(Fd, Req.data(), Req.size()) !=
        static_cast<ssize_t>(Req.size())) {
      std::fprintf(stderr, "error: connection lost\n");
      Exit = 1;
      break;
    }
    std::string RespLine;
    if (!readResponseLine(RespLine)) {
      std::fprintf(stderr, "error: connection closed\n");
      Exit = 1;
      break;
    }
    std::fprintf(Out, "%s\n", RespLine.c_str());
    std::string Err;
    if (std::optional<JsonObject> Resp = parseJsonObject(RespLine, Err))
      if (Resp->getBool("ok") == false)
        Exit = 1;
  }
  std::free(LinePtr);
  ::close(Fd);
  return Exit;
}

int service::runMetricsDump(std::uint16_t Port, bool Prom, std::FILE *Out) {
  std::optional<JsonObject> Resp =
      oneShot(Port, Prom ? "metrics --format=prom" : "metrics", "metrics");
  if (!Resp)
    return 1;
  // Prometheus text arrives as a JSON string; the JSON form arrives as a
  // nested object the flat parser keeps as a raw lexeme.
  std::optional<std::string> Payload =
      Prom ? Resp->getString("result") : Resp->getRaw("result");
  if (!Payload) {
    std::fprintf(stderr, "error: metrics response without result\n");
    return 1;
  }
  std::fprintf(Out, "%s%s", Payload->c_str(),
               (!Payload->empty() && Payload->back() == '\n') ? "" : "\n");
  return 0;
}

int service::runDebugDump(std::uint16_t Port, std::FILE *Out) {
  std::optional<JsonObject> Resp = oneShot(Port, "debug", "debug");
  if (!Resp)
    return 1;
  // The flight dump arrives as a raw JSON array lexeme; print it as-is
  // (already a complete, Perfetto-loadable Chrome Trace document).
  std::optional<std::string> Payload = Resp->getRaw("result");
  if (!Payload) {
    std::fprintf(stderr, "error: debug response without result\n");
    return 1;
  }
  std::fprintf(Out, "%s\n", Payload->c_str());
  return 0;
}
