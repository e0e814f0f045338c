//===- tenant/Protocol.h - Multi-tenant NDJSON front end --------*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The request decoder of the NDJSON protocol (service/Server.h): every
/// `ipse-cli serve` connection speaks it.  The envelope grows two things
/// beyond `id` / `cmd` / `trace`:
///
///  - lifecycle verbs in `cmd`: `open <tenant> [k=v ...]` creates a
///    tenant, `close <tenant>` ends its lifetime, and `attach <tenant>`
///    sets the connection's default tenant for subsequent commands;
///  - an optional `"tenant":"<name>"` request field, which routes a
///    single command to a tenant and overrides the connection default.
///
/// Routing precedence: the `tenant` field, then the connection's
/// `attach`, then the implicit tenant "" — the program `serve
/// --program/--gen` hosts (or recovered from its data dir).  A server
/// without one answers such requests "no tenant specified".  `stats`
/// answers the service's aggregate stats object and `metrics` / `debug`
/// are process-wide, so control-plane verbs need no tenant at all.
///
/// Tracing: a request may carry `"trace":"<id>"`; the server assigns
/// "t<N>" when absent.  The id is echoed back as `"trace"` and tags every
/// span the request produces, so one request's phase tree is recoverable
/// from a shared trace file.
///
///   {"id":1,"cmd":"open acme procs=100 seed=7"}
///   {"id":2,"cmd":"attach acme"}
///   {"id":3,"cmd":"gmod p1"}                      → answered by acme
///   {"id":4,"tenant":"beta","cmd":"gmod p1"}      → answered by beta
///   {"id":5,"cmd":"close acme"}
///
/// Attach state is per connection, owned by the reading thread (see
/// serveLines), so it needs no locking.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_TENANT_PROTOCOL_H
#define IPSE_TENANT_PROTOCOL_H

#include "service/Server.h"
#include "tenant/TenantService.h"

#include <functional>
#include <string>
#include <string_view>

namespace ipse {
namespace tenant {

/// Per-connection front-end state: the tenant `attach` selected.
struct TenantConnection {
  std::string Attached;
};

/// Decodes one request line and routes it into \p Tenants or \p Conn
/// (attach).  \p Emit receives exactly one response line per non-blank
/// request — possibly on a shard thread, so it must be thread-safe.
/// Malformed envelopes, script parse errors, and backpressure refusals
/// are answered inline; the last two carry the routed tenant's
/// generation.
void handleTenantRequestLine(
    TenantService &Tenants, TenantConnection &Conn, std::string_view Line,
    const std::function<void(const std::string &)> &Emit);

/// Serves tenant-aware requests from \p InFd until EOF (serveLines over
/// handleTenantRequestLine with fresh per-connection state).
void serveTenantFd(TenantService &Tenants, int InFd, int OutFd);

/// A per-connection handler for service::TcpServer: each accepted
/// connection gets its own TenantConnection (its own attach default).
service::TcpServer::ConnectionFn
tenantConnectionHandler(TenantService &Tenants);

} // namespace tenant
} // namespace ipse

#endif // IPSE_TENANT_PROTOCOL_H
