//===- bench/e2e/Serve.cpp - The open-loop serving half -----------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
//
// Drives a real `ipse-cli serve --tenants` child over loopback TCP.  The
// load generator is this one process with two connections and two
// threads: the calling thread sends on a precomputed Poisson schedule, a
// receiver thread reads both connections.  Latency is timed from each
// request's scheduled send time, so a stall is charged to every request
// it delays.
//
// Each tenant's program is mirrored here (the same generator spec `open`
// sends) and its edit stream is drawn by synth::EditGen against the
// mirror before a phase starts, so every edit is valid and the sequence
// is a function of the seed alone.  A tenant has at most one edit in
// flight: a later edit waits for the earlier ack (its latency still runs
// from its own scheduled time), and a refused edit is re-sent, so server
// and mirror apply the same edits in the same order.  Replies carry the
// tenant generation they were answered at, which is the number of edits
// applied; after the run, each recorded answer is compared with a batch
// analysis of the mirror replayed to that generation.
//
//===----------------------------------------------------------------------===//

#include "E2e.h"

#include "analysis/DMod.h"
#include "analysis/LocalEffects.h"
#include "analysis/VarMasks.h"
#include "api/Ipse.h"
#include "baselines/IterativeSolver.h"
#include "graph/CallGraph.h"
#include "incremental/Edit.h"
#include "ir/AliasInfo.h"
#include "ir/ProgramEditor.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "synth/EditGen.h"
#include "synth/ProgramGen.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace ipse;
using namespace ipse::e2e;

namespace {

constexpr std::int64_t MissingReplyNs = 5'000'000'000; // 5 s
constexpr unsigned NumConns = 2;

//===----------------------------------------------------------------------===//
// The server child
//===----------------------------------------------------------------------===//

/// With at least four CPUs available, the load generator's sender and
/// receiver threads each get one of the first two and the server gets the
/// rest.  Sharing CPUs, a descheduled sender shows up as latency the
/// server did not cause, and a spinning sender delays the receiver.
struct CpuSplit {
  bool Active = false;
  cpu_set_t Sender, Receiver, Server;
  std::string Text;
};

CpuSplit splitCpus() {
  CpuSplit S;
  cpu_set_t All;
  CPU_ZERO(&All);
  if (::sched_getaffinity(0, sizeof(All), &All) != 0 || CPU_COUNT(&All) < 4)
    return S;
  CPU_ZERO(&S.Sender);
  CPU_ZERO(&S.Receiver);
  CPU_ZERO(&S.Server);
  int Seen = 0;
  std::string Server;
  for (int Cpu = 0; Cpu < CPU_SETSIZE; ++Cpu) {
    if (!CPU_ISSET(Cpu, &All))
      continue;
    switch (Seen++) {
    case 0:
      CPU_SET(Cpu, &S.Sender);
      S.Text = "sender " + std::to_string(Cpu);
      break;
    case 1:
      CPU_SET(Cpu, &S.Receiver);
      S.Text += ", receiver " + std::to_string(Cpu);
      break;
    default:
      CPU_SET(Cpu, &S.Server);
      Server += (Server.empty() ? "" : " ") + std::to_string(Cpu);
    }
  }
  S.Text += ", server " + Server;
  S.Active = true;
  return S;
}

void pinThread(const CpuSplit &Split, const cpu_set_t &Set) {
  if (Split.Active)
    ::sched_setaffinity(0, sizeof(Set), &Set);
}

/// One `ipse-cli serve --tenants` child.  It exits when its stdin closes,
/// so it cannot outlive this process even if we die.
class ServerProc {
public:
  ServerProc() = default;
  ServerProc(const ServerProc &) = delete;
  ServerProc &operator=(const ServerProc &) = delete;
  ~ServerProc() { stop(0); }

  bool start(const std::string &Cli, const std::string &Dir, unsigned Cap,
             const CpuSplit &Cpus, std::string &Err) {
    DataDir = Dir;
    LogPath = Dir + ".log";
    std::filesystem::remove_all(Dir);
    int Pipe[2];
    if (::pipe2(Pipe, O_CLOEXEC) != 0) {
      Err = std::strerror(errno);
      return false;
    }
    std::vector<std::string> Args = {Cli,        "serve",  "--tenants",
                                     "--data-dir", Dir,    "--port",
                                     "0"};
    if (Cap) {
      Args.push_back("--resident-cap");
      Args.push_back(std::to_string(Cap));
    }
    // Everything the child needs is prepared here: between fork and exec
    // it only makes system calls.
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    Pid = ::fork();
    if (Pid == 0) {
      if (Cpus.Active)
        ::sched_setaffinity(0, sizeof(Cpus.Server), &Cpus.Server);
      int Log = ::open(LogPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      ::dup2(Pipe[0], 0);
      if (Log >= 0) {
        ::dup2(Log, 1);
        ::dup2(Log, 2);
      }
      ::execv(Argv[0], Argv.data());
      ::_exit(127);
    }
    ::close(Pipe[0]);
    StdinFd = Pipe[1];
    if (Pid < 0) {
      Err = std::strerror(errno);
      return false;
    }
    // The server prints "serving on 127.0.0.1:<port>" once it listens.
    const std::string Marker = "serving on 127.0.0.1:";
    for (int Waited = 0; Waited < 30000; Waited += 5) {
      std::ifstream In(LogPath);
      std::string Text((std::istreambuf_iterator<char>(In)),
                       std::istreambuf_iterator<char>());
      std::size_t At = Text.find(Marker);
      if (At != std::string::npos) {
        Port = static_cast<std::uint16_t>(
            std::atoi(Text.c_str() + At + Marker.size()));
        return Port != 0;
      }
      int Status = 0;
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        Err = "server exited during start-up: " + Text;
        return false;
      }
      ::usleep(5000);
    }
    Err = "server did not report its port";
    return false;
  }

  /// Closes stdin (the server drains and exits), waits up to \p GraceMs,
  /// then kills.  Always reaps the child.
  void stop(int GraceMs) {
    if (StdinFd >= 0) {
      ::close(StdinFd);
      StdinFd = -1;
    }
    if (Pid <= 0)
      return;
    int Status = 0;
    for (int Waited = 0; Waited < GraceMs; Waited += 10) {
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        return;
      }
      ::usleep(10000);
    }
    ::kill(Pid, SIGKILL);
    ::waitpid(Pid, &Status, 0);
    Pid = -1;
  }

  /// Stops the server and deletes its files.
  void discard() {
    stop(0);
    std::filesystem::remove_all(DataDir);
    std::filesystem::remove(LogPath);
  }

  pid_t pid() const { return Pid; }
  std::uint16_t port() const { return Port; }

private:
  pid_t Pid = -1;
  int StdinFd = -1;
  std::uint16_t Port = 0;
  std::string DataDir, LogPath;
};

//===----------------------------------------------------------------------===//
// Connections and replies
//===----------------------------------------------------------------------===//

/// One client connection.  Only one thread writes to it at a time (the
/// sender during open-loop phases, the caller of roundTrip otherwise); the
/// receiver thread only reads.
struct Conn {
  int Fd = -1;
  std::string In;

  Conn() = default;
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;
  ~Conn() { close(); }

  bool connect(std::uint16_t Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (Fd < 0)
      return false;
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(Port);
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0)
      return false;
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    return true;
  }

  void close() {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
    In.clear();
  }

  bool send(const std::string &Data) {
    std::size_t Off = 0;
    while (Off < Data.size()) {
      ssize_t N = ::write(Fd, Data.data() + Off, Data.size() - Off);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Off += static_cast<std::size_t>(N);
    }
    return true;
  }

  /// Reads what is available and appends complete lines to \p Lines.
  /// Returns false when the connection closed.
  bool readLines(std::vector<std::string> &Lines) {
    char Buf[65536];
    ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N < 0 && (errno == EINTR || errno == EAGAIN))
      return true;
    if (N <= 0)
      return false;
    // The server leaves Nagle on, so a reply written while an earlier one
    // is unacknowledged waits for our ACK.  Linux drops quick-ACK mode on
    // its own; re-arming it after every read bounds that wait to one
    // round trip instead of the 40 ms delayed-ACK timer (README.md).
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_QUICKACK, &One, sizeof(One));
    In.append(Buf, static_cast<std::size_t>(N));
    std::size_t Begin = 0;
    for (std::size_t Nl; (Nl = In.find('\n', Begin)) != std::string::npos;
         Begin = Nl + 1)
      Lines.emplace_back(In, Begin, Nl - Begin);
    In.erase(0, Begin);
    return true;
  }
};

struct Reply {
  bool Valid = false; ///< Parsed, with an id.
  std::uint64_t Id = 0;
  bool Ok = false;
  bool Retry = false;
  std::uint64_t Gen = 0;
  std::string Result; ///< String result, or the raw JSON of an object one.
};

Reply parseReply(const std::string &Line) {
  Reply R;
  std::string Err;
  std::optional<JsonObject> Obj = parseJsonObject(Line, Err);
  if (!Obj)
    return R;
  std::optional<std::uint64_t> Id = Obj->getUInt("id");
  if (!Id)
    return R;
  R.Valid = true;
  R.Id = *Id;
  R.Ok = Obj->getBool("ok").value_or(false);
  R.Retry = Obj->getBool("retry").value_or(false);
  R.Gen = Obj->getUInt("gen").value_or(0);
  if (std::optional<std::string> S = Obj->getString("result"))
    R.Result = std::move(*S);
  else if (std::optional<std::string> Raw = Obj->getRaw("result"))
    R.Result = std::move(*Raw);
  return R;
}

std::string requestLine(std::uint64_t Id, const std::string &Tenant,
                        const std::string &Cmd) {
  std::string L = "{\"id\":" + std::to_string(Id);
  if (!Tenant.empty())
    L += ",\"tenant\":\"" + Tenant + "\"";
  L += ",\"cmd\":\"" + Cmd + "\"}\n";
  return L;
}

//===----------------------------------------------------------------------===//
// Tenants and their mirrors
//===----------------------------------------------------------------------===//

enum class QueryKind : std::uint8_t { GMod, GUse, RMod, Mod, Use };

struct Tenant {
  std::string Name;
  unsigned ConnIdx = 0;
  std::vector<std::string> GenArgs; ///< `open`'s generator operands.
  ir::Program Plan; ///< The program after every edit drawn so far.
  std::unique_ptr<synth::EditGen> Edits;
  std::vector<incremental::Edit> Log; ///< Drawn edits, in order.
  std::vector<unsigned> InitialStmts; ///< Per procedure.

  std::mutex M; ///< Guards the lockstep state below.
  bool InFlight = false;
  std::deque<std::size_t> Waiting; ///< Indices of edits behind InFlight.
  bool Lost = false; ///< An edit failed: server and mirror may differ.
};

void applyToProgram(ir::Program &P, const incremental::Edit &E) {
  ir::ProgramEditor Ed(P);
  using K = incremental::EditKind;
  switch (E.Kind) {
  case K::AddMod:
    Ed.addMod(E.Stmt, E.Var);
    break;
  case K::RemoveMod:
    Ed.removeMod(E.Stmt, E.Var);
    break;
  case K::AddUse:
    Ed.addUse(E.Stmt, E.Var);
    break;
  case K::RemoveUse:
    Ed.removeUse(E.Stmt, E.Var);
    break;
  case K::AddCall:
    Ed.addCall(E.Stmt, E.Callee, E.Actuals);
    break;
  case K::RemoveCall:
    Ed.removeCall(E.Call);
    break;
  case K::AddStmt:
    Ed.addStmt(E.Proc);
    break;
  default:
    // Universe edits are never drawn (EditGenConfig::AllowUniverse).
    std::abort();
  }
}

//===----------------------------------------------------------------------===//
// Requests and phases
//===----------------------------------------------------------------------===//

struct Req {
  std::int64_t SchedNs = 0; ///< Offset from the phase start.
  std::uint32_t TenantIdx = 0;
  bool Edit = false;
  QueryKind Query = QueryKind::GMod;
  std::uint32_t Proc = 0, Stmt = 0;
  std::string Line; ///< The request, ready to write.
  // Sender only.
  std::int64_t SentNs = 0;
  // Receiver, read by the calling thread after the phase.
  std::atomic<std::int64_t> DoneNs{0};
  std::atomic<bool> Refused{false};
  bool Ok = false;
  std::uint64_t Gen = 0;
  std::string Result;
  // Filled when the phase ends; LatencyUs < 0 for a missing reply.
  double LatencyUs = -1;
  double LateUs = 0;
};

/// State shared by the serving phases.
struct ServeCtx {
  const Options &O;
  const ServeSpec &S;
  RunResult &R;
  SpanLog &Log;
  std::vector<std::unique_ptr<Tenant>> Tenants;
  std::vector<std::size_t> ZipfRankToTenant;
  std::vector<double> ZipfCdf;
  std::unique_ptr<Conn> Conns[NumConns];
  const CpuSplit Cpus = splitCpus();
  std::uint64_t NextId = 1;
  unsigned PhaseCounter = 0;

  ServeCtx(const Options &O, const ServeSpec &S, RunResult &R, SpanLog &Log)
      : O(O), S(S), R(R), Log(Log) {}
};

double uniform01(Rng &G) { return (G.next() >> 11) * 0x1.0p-53; }

std::string queryCmd(const Tenant &T, const Req &Q) {
  const std::string &Name = T.Plan.name(ir::ProcId(Q.Proc));
  switch (Q.Query) {
  case QueryKind::GMod:
    return "gmod " + Name;
  case QueryKind::GUse:
    return "guse " + Name;
  case QueryKind::RMod:
    return "rmod " + Name;
  case QueryKind::Mod:
    return "mod " + Name + " " + std::to_string(Q.Stmt);
  case QueryKind::Use:
    return "use " + Name + " " + std::to_string(Q.Stmt);
  }
  return "";
}

/// Draws a phase's schedule: Poisson arrivals at \p Rate for \p Seconds,
/// Zipf tenant choice, the workload's query/edit mix.  Edits are drawn
/// here, against each tenant's mirror, in schedule order.
std::vector<Req> makeSchedule(ServeCtx &C, double Rate, double Seconds,
                              std::uint64_t &IdBase) {
  Rng G(C.O.Seed * 1000003 + 7919 * ++C.PhaseCounter);
  std::vector<std::int64_t> Times;
  for (double T = 0;;) {
    T += -std::log(1 - uniform01(G)) / Rate;
    if (T >= Seconds)
      break;
    Times.push_back(static_cast<std::int64_t>(T * 1e9));
  }
  std::vector<Req> Reqs(Times.size());
  IdBase = C.NextId;
  C.NextId += Reqs.size();
  for (std::size_t I = 0; I != Reqs.size(); ++I) {
    Req &Q = Reqs[I];
    Q.SchedNs = Times[I];
    const double U = uniform01(G);
    const std::size_t Rank =
        std::upper_bound(C.ZipfCdf.begin(), C.ZipfCdf.end(), U) -
        C.ZipfCdf.begin();
    Q.TenantIdx = static_cast<std::uint32_t>(
        C.ZipfRankToTenant[std::min(Rank, C.ZipfCdf.size() - 1)]);
    Tenant &T = *C.Tenants[Q.TenantIdx];
    const std::uint64_t Id = IdBase + I;
    if (G.nextBelow(100) < C.S.EditPct && !T.Lost) {
      if (std::optional<incremental::Edit> E = T.Edits->next(T.Plan)) {
        Q.Edit = true;
        Q.Line = requestLine(Id, T.Name, incremental::toScriptLine(T.Plan, *E));
        applyToProgram(T.Plan, *E);
        T.Log.push_back(std::move(*E));
        continue;
      }
    }
    // gmod 40%, guse 20%, rmod 15%, mod 15%, use 10%.
    const std::uint64_t K = G.nextBelow(100);
    Q.Query = K < 40   ? QueryKind::GMod
              : K < 60 ? QueryKind::GUse
              : K < 75 ? QueryKind::RMod
              : K < 90 ? QueryKind::Mod
                       : QueryKind::Use;
    Q.Proc = static_cast<std::uint32_t>(G.nextBelow(T.InitialStmts.size()));
    if (Q.Query == QueryKind::Mod || Q.Query == QueryKind::Use) {
      // Statements are never removed, so an index below the initial
      // count is valid at every generation.
      if (T.InitialStmts[Q.Proc] == 0)
        Q.Query = QueryKind::GMod;
      else
        Q.Stmt = static_cast<std::uint32_t>(
            G.nextBelow(T.InitialStmts[Q.Proc]));
    }
    Q.Line = requestLine(Id, T.Name, queryCmd(T, Q));
  }
  return Reqs;
}

/// Runs one open-loop phase: sends \p Reqs on schedule from this thread
/// while a receiver thread reads, then waits for every reply (or 5 s past
/// the last send).  \p KeepResults stores query answers for the replay
/// check.
void runPhase(ServeCtx &C, std::vector<Req> &Reqs, std::uint64_t IdBase,
              bool KeepResults) {
  std::atomic<std::size_t> Completed{0};
  std::atomic<bool> Stop{false};
  // Requests the receiver hands back for sending: parked edits whose
  // predecessor was acknowledged, and refused edits (after 1 ms).  Only
  // the sender writes, so a write blocked on a full socket never stops
  // the receiver from reading.
  std::mutex ReadyMutex;
  std::vector<std::pair<std::int64_t, std::size_t>> Ready;
  const std::int64_t Start = nowNs() + 2'000'000;

  auto Finish = [&](std::size_t I) {
    Reqs[I].DoneNs.store(nowNs(), std::memory_order_release);
    Completed.fetch_add(1, std::memory_order_release);
  };
  auto Send = [&](std::size_t I) {
    C.Conns[C.Tenants[Reqs[I].TenantIdx]->ConnIdx]->send(Reqs[I].Line);
  };
  auto SendReady = [&] {
    std::vector<std::size_t> Due;
    {
      std::lock_guard<std::mutex> Lock(ReadyMutex);
      const std::int64_t Now = nowNs();
      auto Split = std::stable_partition(
          Ready.begin(), Ready.end(),
          [Now](const auto &E) { return E.first > Now; });
      for (auto It = Split; It != Ready.end(); ++It)
        Due.push_back(It->second);
      Ready.erase(Split, Ready.end());
    }
    for (std::size_t I : Due)
      Send(I);
  };
  auto MakeReady = [&](std::int64_t At, std::size_t I) {
    std::lock_guard<std::mutex> Lock(ReadyMutex);
    Ready.emplace_back(At, I);
  };

  // Sends the edit \p I, or parks it behind the tenant's edit in flight.
  auto SendEdit = [&](std::size_t I) {
    Tenant &T = *C.Tenants[Reqs[I].TenantIdx];
    {
      std::lock_guard<std::mutex> Lock(T.M);
      if (T.Lost) {
        Finish(I); // Never sent: counts as failed.
        return;
      }
      if (T.InFlight) {
        T.Waiting.push_back(I);
        return;
      }
      T.InFlight = true;
    }
    Send(I);
  };

  auto OnReply = [&](const Reply &Rep) {
    if (!Rep.Valid || Rep.Id < IdBase || Rep.Id - IdBase >= Reqs.size())
      return; // A straggler from an earlier phase: already counted.
    const std::size_t I = Rep.Id - IdBase;
    Req &Q = Reqs[I];
    if (!Q.Edit) {
      Q.Ok = Rep.Ok;
      Q.Gen = Rep.Gen;
      if (Rep.Retry)
        Q.Refused.store(true, std::memory_order_relaxed);
      if (KeepResults)
        Q.Result = Rep.Result;
      Finish(I);
      return;
    }
    if (Rep.Retry) {
      Q.Refused.store(true, std::memory_order_relaxed);
      MakeReady(nowNs() + 1'000'000, I);
      return;
    }
    Q.Ok = Rep.Ok;
    Q.Gen = Rep.Gen;
    Finish(I);
    Tenant &T = *C.Tenants[Q.TenantIdx];
    std::lock_guard<std::mutex> Lock(T.M);
    if (!Rep.Ok) {
      // The server did not apply an edit the mirror has: stop editing
      // this tenant and fail whatever was parked behind it.
      T.Lost = true;
      for (std::size_t W : T.Waiting)
        Finish(W);
      T.Waiting.clear();
    }
    if (T.Waiting.empty()) {
      T.InFlight = false;
      return;
    }
    MakeReady(0, T.Waiting.front());
    T.Waiting.pop_front();
  };

  std::thread Receiver([&] {
    pinThread(C.Cpus, C.Cpus.Receiver);
    std::vector<std::string> Lines;
    pollfd Fds[NumConns];
    for (unsigned K = 0; K != NumConns; ++K)
      Fds[K] = pollfd{C.Conns[K]->Fd, POLLIN, 0};
    while (!Stop.load(std::memory_order_acquire)) {
      if (::poll(Fds, NumConns, 5) <= 0)
        continue;
      for (unsigned K = 0; K != NumConns; ++K) {
        if (!(Fds[K].revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        Lines.clear();
        if (!C.Conns[K]->readLines(Lines))
          Fds[K].fd = -1; // Closed: its requests will go missing.
        for (const std::string &L : Lines)
          OnReply(parseReply(L));
      }
    }
  });

  for (std::size_t I = 0; I != Reqs.size(); ++I) {
    const std::int64_t Due = Start + Reqs[I].SchedNs;
    // Sleep through long gaps in short naps, spin through short ones:
    // yielding would hand the CPU to whatever else is runnable for a
    // whole time slice.
    for (std::int64_t Now = nowNs(); Now < Due; Now = nowNs()) {
      SendReady();
      if (Due - Now > 200'000)
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            std::min<std::int64_t>(Due - Now - 120'000, 200'000)));
    }
    Reqs[I].SentNs = nowNs();
    if (Reqs[I].Edit)
      SendEdit(I);
    else
      Send(I);
  }
  const std::int64_t Deadline =
      Start + (Reqs.empty() ? 0 : Reqs.back().SchedNs) + MissingReplyNs;
  while (Completed.load(std::memory_order_acquire) < Reqs.size() &&
         nowNs() < Deadline) {
    SendReady();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  Stop.store(true, std::memory_order_release);
  Receiver.join();
  // Whatever is still parked or in flight went missing; the tenants it
  // belongs to can no longer be verified.
  for (std::unique_ptr<Tenant> &T : C.Tenants) {
    if (T->InFlight || !T->Waiting.empty())
      T->Lost = true;
    T->InFlight = false;
    T->Waiting.clear();
  }
  for (Req &Q : Reqs) {
    const std::int64_t Done = Q.DoneNs.load(std::memory_order_acquire);
    if (Done != 0)
      Q.LatencyUs = (Done - Start - Q.SchedNs) / 1e3;
    Q.LateUs = std::max<std::int64_t>(0, Q.SentNs - Start - Q.SchedNs) / 1e3;
  }
}

/// One phase's outcome.  Percentiles are medians over equal consecutive
/// slices of the phase ("windows"): a host hiccup that lands in one slice
/// moves that slice's p99, not the reported one.
struct StepStats {
  double Rate = 0;
  double Seconds = 0;
  std::uint64_t Attempted = 0, Failed = 0, Refused = 0;
  std::uint64_t Queries = 0, Edits = 0;
  /// Per-window percentiles, and their medians.
  std::vector<double> QueryP50s, QueryP99s, EditP50s, EditP99s;
  double QueryP50 = 0, QueryP99 = 0, EditP50 = 0, EditP99 = 0;
  double QueryMeanUs = 0;
  double LateP99 = 0;
  /// Median latency of the queries in the phase's last tenth: a queue
  /// that grows through the phase shows here even when its p99 does not.
  double TailQueryP50 = 0;
  /// The binding SLO ratio (<= 1 meets every latency limit).
  double SloLoad = 0;
  bool Pass = false;
};

StepStats summarize(const std::vector<Req> &Reqs, double Rate, double Seconds,
                    unsigned Windows, const ServeSpec &S) {
  StepStats St;
  St.Rate = Rate;
  St.Seconds = Seconds;
  St.Attempted = Reqs.size();
  std::vector<double> QueryUs, EditUs, Tail, Late;
  const std::int64_t TailFrom = static_cast<std::int64_t>(Seconds * 0.9e9);
  for (const Req &Q : Reqs) {
    Late.push_back(Q.LateUs);
    const bool Refused = Q.Refused.load(std::memory_order_relaxed);
    St.Refused += Refused;
    if (Q.LatencyUs < 0 || !Q.Ok || (Refused && !Q.Edit)) {
      ++St.Failed;
      continue;
    }
    (Q.Edit ? EditUs : QueryUs).push_back(Q.LatencyUs);
    if (!Q.Edit && Q.SchedNs >= TailFrom)
      Tail.push_back(Q.LatencyUs);
  }
  St.Queries = QueryUs.size();
  St.Edits = EditUs.size();
  for (double Us : QueryUs)
    St.QueryMeanUs += Us / QueryUs.size();
  // A window's p99 needs a few samples beyond it to mean anything.
  St.QueryP50s = sliceQuantiles(QueryUs, Windows, 0.5);
  St.QueryP99s = sliceQuantiles(QueryUs, Windows, 0.99, 500);
  St.EditP50s = sliceQuantiles(EditUs, Windows, 0.5);
  St.EditP99s = sliceQuantiles(EditUs, Windows, 0.99, 500);
  St.QueryP50 = median(St.QueryP50s);
  St.QueryP99 = median(St.QueryP99s);
  St.EditP50 = median(St.EditP50s);
  St.EditP99 = median(St.EditP99s);
  St.LateP99 = quantile(Late, 0.99);
  St.TailQueryP50 = median(Tail);
  St.SloLoad = std::max({St.QueryP99 / S.QuerySloUs, St.EditP99 / S.EditSloUs,
                         St.TailQueryP50 / S.QuerySloUs});
  St.Pass = St.SloLoad <= 1 && St.Failed * 100 <= St.Attempted;
  return St;
}

/// One open-loop phase at \p Rate for \p Seconds, under a span.
StepStats runStep(ServeCtx &C, const char *Name, double Rate, double Seconds,
                  unsigned Windows, bool KeepResults,
                  std::vector<Req> *Keep = nullptr) {
  std::uint64_t IdBase = 0;
  std::vector<Req> Reqs = makeSchedule(C, Rate, Seconds, IdBase);
  const std::int64_t S = nowNs();
  runPhase(C, Reqs, IdBase, KeepResults);
  StepStats St = summarize(Reqs, Rate, Seconds, Windows, C.S);
  C.Log.add(Name, "loadgen", S, nowNs(), 2,
            "\"rate\":" + formatNumber(Rate) + ",\"requests\":" +
                std::to_string(Reqs.size()) + ",\"pass\":" +
                (St.Pass ? "true" : "false"));
  std::fprintf(stderr,
               "ipse-e2e: %-8s %8.0f rps  q p99 %8.0f us  e p99 %8.0f us  "
               "late p99 %6.0f us  fail %llu/%llu  %s\n",
               Name, Rate, St.QueryP99, St.EditP99, St.LateP99,
               (unsigned long long)St.Failed,
               (unsigned long long)St.Attempted, St.Pass ? "pass" : "FAIL");
  if (Keep)
    Keep->swap(Reqs);
  return St;
}

/// The capacity ladder: x1.25 steps from the nominal rate until a step
/// misses an SLO, then two bisection steps between the last pass and the
/// first miss.  Returns the rate where the binding SLO ratio crosses 1,
/// interpolated (log-log) between the two steps that bracket it; without
/// a bracket, the last passing rate, or the lowest rate tried.
double capacityLadder(ServeCtx &C, const StepStats &Nom,
                      std::vector<StepStats> &Steps) {
  const bool Small = C.O.Smoke;
  const double StepS = Small ? 0.2 : C.O.Seconds * 0.035;
  const unsigned MaxSteps = Small ? 1 : 8, Bisections = Small ? 1 : 2;
  double Lo = 0, Hi = 0, LoLoad = 0, HiLoad = 0;
  auto Note = [&](const StepStats &St) {
    (St.Pass ? Lo : Hi) = St.Rate;
    (St.Pass ? LoLoad : HiLoad) = St.SloLoad;
  };
  Note(Nom);
  double Rate = Nom.Pass ? Nom.Rate * 1.25 : Nom.Rate / 1.25;
  for (unsigned K = 0; K != MaxSteps; ++K) {
    Steps.push_back(runStep(C, "ladder", Rate, StepS, 3, false));
    Note(Steps.back());
    if (Lo > 0 && Hi > 0)
      break;
    Rate = Steps.back().Pass ? Rate * 1.25 : Rate / 1.25;
  }
  for (unsigned K = 0; K != Bisections && Lo > 0 && Hi > 0; ++K) {
    Steps.push_back(runStep(C, "bisect", std::sqrt(Lo * Hi), StepS, 3, false));
    Note(Steps.back());
  }
  if (Lo > 0 && Hi > 0 && LoLoad > 0 && HiLoad > 1) {
    const double F =
        -std::log(LoLoad) / (std::log(HiLoad) - std::log(LoLoad));
    return Lo * std::pow(Hi / Lo, std::clamp(F, 0.0, 1.0));
  }
  return Lo > 0 ? Lo : Rate;
}

//===----------------------------------------------------------------------===//
// Closed-loop calls (set-up, scrapes, verification)
//===----------------------------------------------------------------------===//

struct Call {
  unsigned ConnIdx = 0;
  std::string Tenant; ///< Empty: a connection-level verb (open).
  std::string Cmd;
};

/// Sends \p Calls with at most \p Window outstanding per connection,
/// re-sending refusals, and returns one reply per call in order (Valid is
/// false for a call that got no reply within 5 s of the last one).
std::vector<Reply> roundTrip(ServeCtx &C, const std::vector<Call> &Calls,
                             unsigned Window = 32) {
  std::vector<Reply> Out(Calls.size());
  const std::uint64_t Base = C.NextId;
  C.NextId += Calls.size();
  std::deque<std::size_t> Todo[NumConns];
  for (std::size_t I = 0; I != Calls.size(); ++I)
    Todo[Calls[I].ConnIdx].push_back(I);
  unsigned Outstanding[NumConns] = {};
  std::size_t Done = 0;
  std::int64_t LastProgress = nowNs();
  std::vector<std::string> Lines;
  while (Done < Calls.size() && nowNs() - LastProgress < MissingReplyNs) {
    for (unsigned K = 0; K != NumConns; ++K)
      while (Outstanding[K] < Window && !Todo[K].empty()) {
        const std::size_t I = Todo[K].front();
        Todo[K].pop_front();
        C.Conns[K]->send(requestLine(Base + I, Calls[I].Tenant, Calls[I].Cmd));
        ++Outstanding[K];
      }
    pollfd Fds[NumConns];
    for (unsigned K = 0; K != NumConns; ++K)
      Fds[K] = pollfd{C.Conns[K]->Fd, POLLIN, 0};
    if (::poll(Fds, NumConns, 100) <= 0)
      continue;
    for (unsigned K = 0; K != NumConns; ++K) {
      if (!(Fds[K].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      Lines.clear();
      if (!C.Conns[K]->readLines(Lines))
        return Out;
      for (const std::string &L : Lines) {
        Reply Rep = parseReply(L);
        if (!Rep.Valid || Rep.Id < Base || Rep.Id - Base >= Calls.size())
          continue;
        const std::size_t I = Rep.Id - Base;
        --Outstanding[Calls[I].ConnIdx];
        LastProgress = nowNs();
        if (Rep.Retry) {
          Todo[Calls[I].ConnIdx].push_back(I);
          continue;
        }
        Out[I] = std::move(Rep);
        ++Done;
      }
    }
  }
  return Out;
}

/// The server's process-wide metrics, flattened: counters and gauges by
/// name (labeled series summed into their base name), histograms as
/// name.count / name.mean_us / name.p50_us / name.p99_us.
using Scrape = std::map<std::string, double>;

Scrape scrape(ServeCtx &C) {
  Scrape Out;
  std::vector<Reply> R = roundTrip(C, {{0, C.Tenants[0]->Name, "metrics"}});
  std::string Err;
  std::optional<JsonObject> Doc;
  if (R[0].Valid && R[0].Ok)
    Doc = parseJsonObject(R[0].Result, Err);
  if (!Doc)
    return Out;
  auto Flat = [&](const char *Section, bool Histograms) {
    std::optional<std::string> Raw = Doc->getRaw(Section);
    if (!Raw)
      return;
    // JsonObject keeps no key list, so walk the section's keys by hand:
    // every key is a quoted string followed by ':'.
    std::optional<JsonObject> Obj = parseJsonObject(*Raw, Err);
    if (!Obj)
      return;
    for (std::size_t At = Raw->find('"'); At != std::string::npos;) {
      std::size_t End = Raw->find('"', At + 1);
      if (End == std::string::npos)
        break;
      const std::string Key = Raw->substr(At + 1, End - At - 1);
      std::size_t Next = End + 1;
      if (Next < Raw->size() && (*Raw)[Next] == ':') {
        const std::string Base = Key.substr(0, Key.find('{'));
        if (!Histograms) {
          if (std::optional<double> V = Obj->getDouble(Key))
            Out[Base] += *V;
        } else if (std::optional<std::string> H = Obj->getRaw(Key)) {
          if (std::optional<JsonObject> HO = parseJsonObject(*H, Err)) {
            for (const char *F : {"count", "mean_us", "p50_us", "p99_us"})
              Out[Base + "." + F] = HO->getDouble(F).value_or(0);
          }
          Next = Raw->find('}', Next);
        }
      }
      At = Next == std::string::npos ? Next : Raw->find('"', Next + 1);
    }
  };
  Flat("counters", false);
  Flat("gauges", false);
  Flat("histograms", true);
  return Out;
}

//===----------------------------------------------------------------------===//
// Oracles
//===----------------------------------------------------------------------===//

/// The exact text the protocol answers \p Q with, from a batch analysis
/// of the program the reply's generation saw.
std::string expectedAnswer(const ir::Program &P, const Analysis &A,
                           const analysis::VarMasks &VM, const Req &Q) {
  const ir::ProcId Proc(Q.Proc);
  const std::string Name = P.name(Proc);
  switch (Q.Query) {
  case QueryKind::GMod:
    return "GMOD(" + Name + ") = {" + renderSet(P, A.gmod(Proc)) + "}";
  case QueryKind::GUse:
    return "GUSE(" + Name + ") = {" + renderSet(P, A.guse(Proc)) + "}";
  case QueryKind::RMod: {
    std::string Names;
    for (ir::VarId F : P.proc(Proc).Formals)
      if (A.rmodContains(F, analysis::EffectKind::Mod))
        Names += (Names.empty() ? "" : ", ") + P.name(F);
    return "RMOD(" + Name + ") = {" + Names + "}";
  }
  case QueryKind::Mod:
  case QueryKind::Use: {
    const bool IsMod = Q.Query == QueryKind::Mod;
    const ir::StmtId St = P.proc(Proc).Stmts[Q.Stmt];
    const analysis::EffectKind Kind =
        IsMod ? analysis::EffectKind::Mod : analysis::EffectKind::Use;
    EffectSet Set = analysis::modOfStmt(P, VM, A.gmodResult(Kind),
                                        ir::AliasInfo(P), St);
    return std::string(IsMod ? "MOD(" : "USE(") + Name + "#" +
           std::to_string(Q.Stmt) + ") = {" + renderSet(P, Set) + "}";
  }
  }
  return "";
}

/// Replays each tenant's edit log from its generated program and checks
/// the kept answers against a batch analysis at the generation they were
/// answered at.  One analysis per generation is the cost, so at most about
/// MaxReplayedGenerations generations are checked: those divisible by a
/// stride.  Returns the number of answers checked.
std::uint64_t replayCheck(ServeCtx &C,
                          const std::vector<std::vector<Req>> &Phases) {
  constexpr std::size_t MaxReplayedGenerations = 1000;
  std::vector<std::vector<const Req *>> ByTenant(C.Tenants.size());
  std::size_t Generations = 0;
  for (const std::vector<Req> &Reqs : Phases)
    for (const Req &Q : Reqs)
      if (!Q.Edit && Q.Ok && Q.LatencyUs >= 0)
        ByTenant[Q.TenantIdx].push_back(&Q);
  for (std::size_t T = 0; T != C.Tenants.size(); ++T)
    Generations += C.Tenants[T]->Log.size() + 1;
  const std::uint64_t Stride =
      (Generations + MaxReplayedGenerations - 1) / MaxReplayedGenerations;
  std::uint64_t Checked = 0;
  for (std::size_t T = 0; T != C.Tenants.size(); ++T) {
    std::vector<const Req *> &Qs = ByTenant[T];
    if (Qs.empty())
      continue;
    const Tenant &Ten = *C.Tenants[T];
    std::stable_sort(Qs.begin(), Qs.end(), [](const Req *A, const Req *B) {
      return A->Gen < B->Gen;
    });
    ir::Program P = synth::generateProgram(parseGenSpec(Ten.GenArgs, 0));
    std::size_t Version = 0;
    for (std::size_t I = 0; I != Qs.size();) {
      const std::uint64_t Gen = Qs[I]->Gen;
      if (Gen > Ten.Log.size()) {
        C.R.mismatch(Ten.Name + ": answer at generation " +
                     std::to_string(Gen) + " beyond the edits sent");
        break;
      }
      while (Version < Gen)
        applyToProgram(P, Ten.Log[Version++]);
      if (Gen % Stride != 0) {
        while (I != Qs.size() && Qs[I]->Gen == Gen)
          ++I;
        continue;
      }
      const Analysis A = Analyzer().analyze(P);
      const analysis::VarMasks VM(P);
      for (; I != Qs.size() && Qs[I]->Gen == Gen; ++I) {
        ++Checked;
        const std::string Want = expectedAnswer(P, A, VM, *Qs[I]);
        if (Qs[I]->Result != Want)
          C.R.mismatch(Ten.Name + " gen " + std::to_string(Gen) + ": got '" +
                       Qs[I]->Result + "', want '" + Want + "'");
      }
    }
  }
  return Checked;
}

/// The end state: every tenant passes the server's own `check`, and two
/// seeded procedures per tenant answer GMOD equal to round-robin equation
/// (1) on the mirror.  Returns the number of calls made.
std::uint64_t verifyFinal(ServeCtx &C) {
  std::vector<Call> Calls;
  std::vector<std::pair<std::size_t, std::string>> Expect;
  Rng G(C.O.Seed * 31 + 5);
  for (std::size_t T = 0; T != C.Tenants.size(); ++T) {
    const Tenant &Ten = *C.Tenants[T];
    Calls.push_back({Ten.ConnIdx, Ten.Name, "check"});
    Expect.emplace_back(T, "");
    if (Ten.Lost)
      continue;
    const ir::Program &P = Ten.Plan;
    analysis::VarMasks VM(P);
    graph::CallGraph CG(P);
    analysis::LocalEffects LE(P, VM, analysis::EffectKind::Mod);
    baselines::IterativeResult It = baselines::solveIterative(P, CG, VM, LE);
    for (int K = 0; K != 2; ++K) {
      const ir::ProcId Proc(static_cast<std::uint32_t>(G.nextBelow(P.numProcs())));
      Calls.push_back({Ten.ConnIdx, Ten.Name, "gmod " + P.name(Proc)});
      Expect.emplace_back(T, "GMOD(" + P.name(Proc) + ") = {" +
                                 renderSet(P, It.GMod.of(Proc)) + "}");
    }
  }
  std::vector<Reply> Got = roundTrip(C, Calls);
  for (std::size_t I = 0; I != Calls.size(); ++I) {
    const std::string &Name = C.Tenants[Expect[I].first]->Name;
    if (!Got[I].Valid || !Got[I].Ok) {
      C.R.fail(Name + ": no answer to '" + Calls[I].Cmd + "'");
      continue;
    }
    const std::string &Want = Expect[I].second;
    if (Want.empty() ? Got[I].Result.rfind("check: OK", 0) != 0
                     : Got[I].Result != Want)
      C.R.mismatch(Name + ": '" + Calls[I].Cmd + "' answered '" +
                   Got[I].Result + "'" +
                   (Want.empty() ? "" : ", equation (1) gives '" + Want + "'"));
  }
  return Calls.size();
}

//===----------------------------------------------------------------------===//
// Set-up
//===----------------------------------------------------------------------===//

void makeTenants(ServeCtx &C) {
  const ServeSpec &S = C.S;
  for (unsigned I = 0; I != S.Tenants; ++I) {
    auto T = std::make_unique<Tenant>();
    T->Name = "t" + std::to_string(I);
    T->ConnIdx = I % NumConns;
    // `open` parses its seed with atoi, so keep it below 2^31.
    const std::uint64_t Seed = (C.O.Seed * 1000 + I) % 2147483647 + 1;
    T->GenArgs = {"procs=" + std::to_string(S.Procs),
                  "globals=" + std::to_string(S.Globals),
                  "seed=" + std::to_string(Seed)};
    T->Plan = synth::generateProgram(parseGenSpec(T->GenArgs, 0));
    synth::EditGenConfig EC;
    EC.Seed = Seed * 2654435761u + 1;
    EC.AllowStructural = S.Structural;
    EC.AllowUniverse = false;
    T->Edits = std::make_unique<synth::EditGen>(EC);
    for (std::uint32_t P = 0; P != T->Plan.numProcs(); ++P)
      T->InitialStmts.push_back(
          static_cast<unsigned>(T->Plan.proc(ir::ProcId(P)).Stmts.size()));
    C.Tenants.push_back(std::move(T));
  }
  // Zipf(s) over ranks; which tenant holds each rank is seeded too.
  double Sum = 0;
  for (unsigned K = 1; K <= S.Tenants; ++K) {
    Sum += 1.0 / std::pow(K, S.ZipfS);
    C.ZipfCdf.push_back(Sum);
  }
  for (double &X : C.ZipfCdf)
    X /= Sum;
  C.ZipfRankToTenant.resize(S.Tenants);
  for (unsigned I = 0; I != S.Tenants; ++I)
    C.ZipfRankToTenant[I] = I;
  Rng G(C.O.Seed * 77 + 3);
  for (std::size_t I = S.Tenants; I > 1; --I)
    std::swap(C.ZipfRankToTenant[I - 1], C.ZipfRankToTenant[G.nextBelow(I)]);
}

/// Spawns a server, connects, and opens every tenant.  Returns false (and
/// records why) on failure.
bool setUpServer(ServeCtx &C, ServerProc &Srv, const std::string &Dir) {
  std::string Err;
  if (!Srv.start(C.O.Cli, Dir, C.S.ResidentCap, C.Cpus, Err)) {
    C.R.fail("server start: " + Err);
    return false;
  }
  for (unsigned K = 0; K != NumConns; ++K) {
    C.Conns[K] = std::make_unique<Conn>();
    if (!C.Conns[K]->connect(Srv.port())) {
      C.R.fail("connect: " + std::string(std::strerror(errno)));
      return false;
    }
  }
  std::vector<Call> Opens;
  for (const std::unique_ptr<Tenant> &T : C.Tenants) {
    std::string Cmd = "open " + T->Name;
    for (const std::string &A : T->GenArgs)
      Cmd += " " + A;
    Opens.push_back({T->ConnIdx, "", Cmd});
  }
  std::vector<Reply> Got = roundTrip(C, Opens);
  for (std::size_t I = 0; I != Got.size(); ++I) {
    const Tenant &T = *C.Tenants[I];
    const std::string Want = "opened '" + T.Name + "' (" +
                             std::to_string(T.Plan.numProcs()) + " procs)";
    if (!Got[I].Valid || !Got[I].Ok || Got[I].Result != Want) {
      C.R.mismatch("open " + T.Name + ": got '" + Got[I].Result +
                   "', want '" + Want + "'");
      return false;
    }
  }
  return true;
}

void stepJson(Json &J, const StepStats &St) {
  J.beginObject()
      .key("rate").num(St.Rate)
      .key("seconds").num(St.Seconds)
      .key("attempted").num(St.Attempted)
      .key("failed").num(St.Failed)
      .key("refused").num(St.Refused)
      .key("queries").num(St.Queries)
      .key("query_p50_us").num(St.QueryP50)
      .key("query_p99_us").num(St.QueryP99)
      .key("tail_query_p50_us").num(St.TailQueryP50)
      .key("edits").num(St.Edits)
      .key("edit_p50_us").num(St.EditP50)
      .key("edit_p99_us").num(St.EditP99)
      .key("late_p99_us").num(St.LateP99)
      .key("slo_load").num(St.SloLoad)
      .key("pass").boolean(St.Pass);
  for (auto [Key, V] : {std::pair{"query_p50s", &St.QueryP50s},
                        {"query_p99s", &St.QueryP99s},
                        {"edit_p50s", &St.EditP50s},
                        {"edit_p99s", &St.EditP99s}}) {
    J.key(Key).beginArray();
    for (double X : *V)
      J.num(X);
    J.endArray();
  }
  J.endObject();
}

/// Keeps the calling thread on the sender's CPU for one serving stage; the
/// batch stages between them get every CPU back.
class ClientCpus {
public:
  explicit ClientCpus(const CpuSplit &Split) : Active(Split.Active) {
    if (!Active)
      return;
    ::sched_getaffinity(0, sizeof(Saved), &Saved);
    pinThread(Split, Split.Sender);
  }
  ~ClientCpus() {
    if (Active)
      ::sched_setaffinity(0, sizeof(Saved), &Saved);
  }
  ClientCpus(const ClientCpus &) = delete;
  ClientCpus &operator=(const ClientCpus &) = delete;

private:
  bool Active;
  cpu_set_t Saved;
};

/// The nominal phase runs in chunks between batch stages; its statistics
/// are those of all the chunks' windows together.
StepStats combine(const std::vector<StepStats> &Chunks) {
  StepStats All;
  All.Pass = true;
  for (const StepStats &St : Chunks) {
    All.Rate = St.Rate;
    All.Seconds += St.Seconds;
    All.Attempted += St.Attempted;
    All.Failed += St.Failed;
    All.Refused += St.Refused;
    All.QueryMeanUs += St.QueryMeanUs * St.Queries;
    All.Queries += St.Queries;
    All.Edits += St.Edits;
    for (auto [Dst, Src] : {std::pair{&All.QueryP50s, &St.QueryP50s},
                            {&All.QueryP99s, &St.QueryP99s},
                            {&All.EditP50s, &St.EditP50s},
                            {&All.EditP99s, &St.EditP99s}})
      Dst->insert(Dst->end(), Src->begin(), Src->end());
    All.LateP99 = std::max(All.LateP99, St.LateP99);
    All.TailQueryP50 = std::max(All.TailQueryP50, St.TailQueryP50);
    All.SloLoad = std::max(All.SloLoad, St.SloLoad);
    All.Pass &= St.Pass;
  }
  if (All.Queries)
    All.QueryMeanUs /= All.Queries;
  All.QueryP50 = median(All.QueryP50s);
  All.QueryP99 = median(All.QueryP99s);
  All.EditP50 = median(All.EditP50s);
  All.EditP99 = median(All.EditP99s);
  return All;
}

} // namespace

struct ServeHalf::Impl {
  ServeCtx C;
  ServerProc Srv;
  std::string DirBase;
  bool Up = false;
  std::vector<double> SetupS;
  std::vector<Scrape> Scrapes;
  StepStats Warm;
  std::vector<StepStats> NominalChunks;
  std::vector<std::vector<Req>> NominalReqs;
  long HwmKb = 0;

  Impl(const Options &O, const WorkloadSpec &W, RunResult &R, SpanLog &Log)
      : C(O, W.Serve, R, Log),
        DirBase(O.OutDir + "/data-" + W.Name + "-" +
                std::to_string(::getpid())) {}
  void finish();
};

ServeHalf::ServeHalf(const Options &O, const WorkloadSpec &W, RunResult &R,
                     SpanLog &Log)
    : I(std::make_unique<Impl>(O, W, R, Log)) {
  std::signal(SIGPIPE, SIG_IGN);
}

ServeHalf::~ServeHalf() = default;

void ServeHalf::setUp() {
  Impl &H = *I;
  ServeCtx &C = H.C;
  ClientCpus Pin(H.C.Cpus);
  makeTenants(C);
  // Set-up, several times: spawn + every `open` acknowledged.  The last
  // server is kept for the measured phases.
  const unsigned Reps = C.O.Smoke ? 1 : 3;
  for (unsigned Rep = 0; Rep != Reps; ++Rep) {
    const std::int64_t S = nowNs();
    H.Up = setUpServer(C, H.Srv, H.DirBase + "-" + std::to_string(Rep));
    const std::int64_t E = nowNs();
    C.Log.add("setup", "server", S, E, 2,
              "\"rep\":" + std::to_string(Rep) + ",\"ok\":" +
                  (H.Up ? "true" : "false"));
    if (!H.Up) {
      H.Srv.discard();
      return;
    }
    H.SetupS.push_back((E - S) / 1e9);
    std::fprintf(stderr, "ipse-e2e: server set-up %.3f s (%u tenants)\n",
                 H.SetupS.back(), C.S.Tenants);
    if (Rep + 1 != Reps) {
      for (std::unique_ptr<Conn> &K : C.Conns)
        K->close();
      H.Srv.discard();
    }
  }
  if (C.O.Trace)
    H.Scrapes.push_back(scrape(C));
  // Warm-up: caches fill and lazy set-up finishes before anything counts.
  H.Warm = runStep(C, "warmup", C.S.NominalRps,
                   C.O.Smoke ? 0.2 : std::max(1.0, C.O.Seconds * 0.03), 1,
                   false);
  if (C.O.Trace)
    H.Scrapes.push_back(scrape(C));
}

void ServeHalf::nominal(double Seconds) {
  Impl &H = *I;
  if (!H.Up)
    return;
  ClientCpus Pin(H.C.Cpus);
  H.NominalReqs.emplace_back();
  H.NominalChunks.push_back(runStep(H.C, "nominal", H.C.S.NominalRps, Seconds,
                                    5, true, &H.NominalReqs.back()));
  H.HwmKb = procStatusKb(std::to_string(H.Srv.pid()), "VmHWM");
}

void ServeHalf::finish() {
  if (I->Up) {
    ClientCpus Pin(I->C.Cpus);
    I->finish();
  }
}

void ServeHalf::Impl::finish() {
  const Options &O = C.O;
  RunResult &R = C.R;
  const StepStats Nom = combine(NominalChunks);
  if (O.Trace)
    Scrapes.push_back(scrape(C));
  std::vector<StepStats> Steps;
  double MaxRps = 0;
  if (O.Trace) {
    MaxRps = capacityLadder(C, Nom, Steps);
    Scrapes.push_back(scrape(C));
  }

  // Verification and shutdown.
  std::int64_t VS = nowNs();
  const std::uint64_t VerifyCalls = verifyFinal(C);
  for (std::unique_ptr<Conn> &K : C.Conns)
    K->close();
  Srv.stop(10000);
  Srv.discard();
  std::uint64_t Checked = replayCheck(C, NominalReqs);
  C.Log.add("verify", "oracle", VS, nowNs(), 2);
  std::fprintf(stderr,
               "ipse-e2e: verified %llu tenants, %llu answers replayed\n",
               (unsigned long long)C.S.Tenants, (unsigned long long)Checked);

  R.Attempted += Warm.Attempted + Nom.Attempted + VerifyCalls;
  for (std::uint64_t K = 0; K != Warm.Failed + Nom.Failed; ++K)
    R.fail("request failed or refused at the nominal rate");

  R.EndToEnd["setup_s"].Value += median(SetupS);
  R.EndToEnd["setup_s"].Unit = "s";
  R.EndToEnd["setup_s"].Samples = SetupS.size();
  R.EndToEnd["query_p50_us"] = Metric{Nom.QueryP50, "us", Nom.Queries};
  R.EndToEnd["edit_p50_us"] = Metric{Nom.EditP50, "us", Nom.Edits};
  R.EndToEnd["peak_rss_mb"] = Metric{HwmKb / 1024.0, "MiB", 0};
  // Tails and capacity swing by more than any usable bound from one run
  // to the next on a shared host, so they are per-layer numbers (README).
  R.Layers["loadgen.query_p99_us"] = Metric{Nom.QueryP99, "us", Nom.Queries};
  R.Layers["loadgen.edit_p99_us"] = Metric{Nom.EditP99, "us", Nom.Edits};
  if (O.Trace) {
    std::uint64_t LadderReqs = 0;
    for (const StepStats &St : Steps)
      LadderReqs += St.Attempted;
    R.Layers["server.max_rps_at_slo"] = Metric{MaxRps, "1/s", LadderReqs};
  }

  Json Detail;
  Detail.beginObject().key("setup_s").beginArray();
  for (double S : SetupS)
    Detail.num(S);
  Detail.endArray().key("nominal");
  stepJson(Detail, Nom);
  Detail.key("ladder").beginArray();
  for (const StepStats &St : Steps)
    stepJson(Detail, St);
  Detail.endArray()
      .key("max_rps_at_slo").num(MaxRps)
      .key("cpu_split").str(C.Cpus.Active ? C.Cpus.Text : "none")
      .key("answers_replayed").num(Checked)
      .key("lost_tenants").num(std::uint64_t(std::count_if(
          C.Tenants.begin(), C.Tenants.end(),
          [](const std::unique_ptr<Tenant> &T) { return T->Lost; })))
      .endObject();
  R.Detail["serve"] = Detail.text();

  if (!O.Trace)
    return;

  // Per-layer numbers from the server's own metrics, over the nominal
  // phase (scrapes: 0 set-up, 1 warm-up, 2 nominal, 3 ladder).
  std::vector<std::string> Absent;
  auto At = [&](std::size_t I, const std::string &Key) {
    auto It = Scrapes[I].find(Key);
    if (It == Scrapes[I].end()) {
      if (std::find(Absent.begin(), Absent.end(), Key) == Absent.end())
        Absent.push_back(Key);
      return 0.0;
    }
    return It->second;
  };
  auto Delta = [&](const std::string &Key) { return At(2, Key) - At(1, Key); };
  auto Layer = [&](const char *Name, double V, const char *Unit) {
    R.Layers[Name] = Metric{V, Unit, 0};
  };
  const double ReadP50 = At(2, "tenant.read_lat_us.p50_us");
  Layer("server.read_lat_p50_us", ReadP50, "us");
  Layer("server.read_lat_p99_us", At(2, "tenant.read_lat_us.p99_us"), "us");
  Layer("server.fault_in_p50_us", At(2, "tenant.fault_in_us.p50_us"), "us");
  Layer("server.fault_in_p99_us", At(2, "tenant.fault_in_us.p99_us"), "us");
  const double FaultIns = Delta("tenant.fault_ins");
  Layer("server.fault_ins", FaultIns, "count");
  Layer("server.evictions", Delta("tenant.evictions"), "count");
  const double Served = Delta("tenant.queries") + Delta("tenant.edits");
  Layer("server.resident_hit_frac", Served > 0 ? 1 - FaultIns / Served : 0,
        "ratio");
  Layer("server.write_lat_p99_us", At(2, "tenant.write_lat_us.p99_us"), "us");
  Layer("server.flush_p99_us", At(2, "tenant.flush_us.p99_us"), "us");
  const double FlushN = Delta("tenant.flush_batch.count");
  const double FlushSum =
      At(2, "tenant.flush_batch.count") * At(2, "tenant.flush_batch.mean_us") -
      At(1, "tenant.flush_batch.count") * At(1, "tenant.flush_batch.mean_us");
  Layer("server.flush_batch_mean", FlushN > 0 ? FlushSum / FlushN : 0,
        "count");
  Layer("server.wal_append_p99_us", At(2, "persist.wal_append_us.p99_us"),
        "us");
  Layer("server.wal_records", Delta("persist.wal_records"), "count");
  Layer("server.snapshots_written", Delta("persist.snapshots_written"),
        "count");
  std::uint64_t Refused = Nom.Refused;
  for (const StepStats &St : Steps)
    Refused += St.Refused;
  Layer("server.rejected", double(Refused), "count");
  // The server's histograms report log2 bucket bounds as percentiles, so
  // the wire's share is taken from exact means: client minus server.
  const double ReadN = Delta("tenant.read_lat_us.count");
  const double ReadSum =
      At(2, "tenant.read_lat_us.count") * At(2, "tenant.read_lat_us.mean_us") -
      At(1, "tenant.read_lat_us.count") * At(1, "tenant.read_lat_us.mean_us");
  Layer("wire.query_self_mean_us",
        Nom.QueryMeanUs - (ReadN > 0 ? ReadSum / ReadN : 0), "us");
  Layer("loadgen.late_p99_us", Nom.LateP99, "us");

  Json S;
  S.beginObject().key("absent").beginArray();
  for (const std::string &A : Absent)
    S.str(A);
  S.endArray().key("phases").beginArray();
  const char *PhaseNames[] = {"setup", "warmup", "nominal", "ladder"};
  for (std::size_t I = 0; I != Scrapes.size(); ++I) {
    S.beginObject().key("after").str(PhaseNames[I]).key("metrics").beginObject();
    for (const auto &[K, V] : Scrapes[I])
      S.key(K).num(V);
    S.endObject().endObject();
  }
  S.endArray().endObject();
  R.Detail["server_scrapes"] = S.text();
}
