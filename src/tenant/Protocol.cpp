//===- tenant/Protocol.cpp - Multi-tenant NDJSON front end --------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "tenant/Protocol.h"

#include "support/Json.h"

#include <atomic>
#include <optional>

using namespace ipse;
using namespace ipse::tenant;

using service::Response;
using service::ScriptCommand;
using service::ScriptError;
using service::renderResponse;

void tenant::handleTenantRequestLine(
    TenantService &Tenants, TenantConnection &Conn, std::string_view Line,
    const std::function<void(const std::string &)> &Emit) {
  std::string_view Trimmed = Line;
  while (!Trimmed.empty() && (Trimmed.back() == '\r' || Trimmed.back() == '\n'))
    Trimmed.remove_suffix(1);
  if (Trimmed.empty())
    return;

  Response R;
  std::string ParseError;
  std::optional<JsonObject> Obj = parseJsonObject(Trimmed, ParseError);
  if (!Obj) {
    R.Ok = false;
    R.Error = "bad request: " + ParseError;
    Emit(renderResponse(R));
    return;
  }
  R.Id = Obj->getUInt("id").value_or(0);
  std::string TraceId;
  if (std::optional<std::string> T = Obj->getString("trace");
      T && !T->empty()) {
    TraceId = std::move(*T);
  } else {
    static std::atomic<std::uint64_t> NextServerTrace{1};
    TraceId = "t" + std::to_string(
                        NextServerTrace.fetch_add(1, std::memory_order_relaxed));
  }
  R.TraceId = TraceId;
  // Routing precedence: explicit request field > connection attach >
  // the implicit tenant "".
  std::string Target = Obj->getString("tenant").value_or(std::string());
  if (Target.empty())
    Target = Conn.Attached;
  std::optional<std::string> CmdText = Obj->getString("cmd");
  if (!CmdText) {
    R.Ok = false;
    R.Error = "bad request: missing 'cmd'";
    Emit(renderResponse(R));
    return;
  }

  std::optional<ScriptCommand> Cmd;
  try {
    Cmd = service::parseScriptLine(*CmdText, 0);
  } catch (const ScriptError &E) {
    R.Ok = false;
    R.Generation = Tenants.generation(Target);
    R.Error = E.Message;
    Emit(renderResponse(R));
    return;
  }
  if (!Cmd) { // Comment-only cmd: acknowledge trivially.
    R.Generation = Tenants.generation(Target);
    Emit(renderResponse(R));
    return;
  }

  // `attach` never leaves the connection: it just validates the name and
  // flips this pump's default.  (Conn is owned by the reading thread.)
  if (Cmd->Kind == ScriptCommand::Op::Attach) {
    const std::string &Name = Cmd->Args[0];
    if (!Tenants.hasTenant(Name)) {
      R.Ok = false;
      R.Error = "unknown tenant '" + Name + "'";
    } else {
      Conn.Attached = Name;
      R.Result = "attached '" + Name + "'";
    }
    Emit(renderResponse(R));
    return;
  }

  std::uint64_t Id = R.Id;
  // Captured by value: the response may fire on a shard thread after this
  // frame is gone (the pump drains before returning; see serveLines).
  std::function<void(const std::string &)> EmitCopy = Emit;
  bool Accepted = Tenants.trySubmit(
      Target, Id, std::move(*Cmd),
      [EmitCopy](Response Done) { EmitCopy(renderResponse(Done)); },
      std::move(TraceId));
  if (!Accepted) {
    R.Ok = false;
    R.Retry = true;
    R.Generation = Tenants.generation(Target);
    R.Error = "overloaded";
    Emit(renderResponse(R));
  }
}

void tenant::serveTenantFd(TenantService &Tenants, int InFd, int OutFd) {
  TenantConnection Conn;
  service::serveLines(
      [&](std::string_view Line,
          const std::function<void(const std::string &)> &Emit) {
        handleTenantRequestLine(Tenants, Conn, Line, Emit);
      },
      InFd, OutFd);
}

service::TcpServer::ConnectionFn
tenant::tenantConnectionHandler(TenantService &Tenants) {
  return [&Tenants](int InFd, int OutFd) {
    serveTenantFd(Tenants, InFd, OutFd);
  };
}
