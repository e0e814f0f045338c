//===- service/ScriptDriver.h - Shared session-script parsing ---*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The session-script language, factored out of `ipse-cli session` so the
/// CLI script driver and the analysis service's request decoder share one
/// parser instead of diverging copies.  A script line is one command:
///
///   load <file.mp>                        initial program from MiniProc
///   gen procs=N globals=N seed=N depth=N  initial program from the generator
///   add-mod  <proc> <stmtIdx> <var>       LMOD/LUSE deltas (stmtIdx is the
///   rm-mod   <proc> <stmtIdx> <var>       position within the procedure's
///   add-use  <proc> <stmtIdx> <var>       body; vars resolve through the
///   rm-use   <proc> <stmtIdx> <var>       lexical scope chain)
///   add-stmt <proc>                       append an empty statement
///   add-call <proc> <stmtIdx> <callee> [actual|_ ...]
///   rm-call  <proc> <k>                   remove proc's k-th call site
///   add-proc <name> <parent>              universe deltas
///   add-global <name>
///   add-local  <proc> <name>
///   add-formal <proc> <name>
///   rm-proc  <name>
///   gmod <proc> | guse <proc> | rmod <proc>
///   mod <proc> <stmtIdx> | use <proc> <stmtIdx>
///   query <proc|proc#k> ...               demand-style batch query: GMOD
///                                         for each named procedure, DMOD
///                                         for each proc#k call site (the
///                                         k-th call site of proc), all on
///                                         one line joined by "; ".  Only
///                                         the named sites' regions are
///                                         solved.
///   check                                 compare against fresh batch runs
///   stats                                 driver-dependent counters
///   metrics [--format=json|prom]          process-wide metrics registry
///                                         (JSON object, or Prometheus
///                                         text exposition format)
///   debug                                 flight-recorder dump: every
///                                         thread's in-memory event ring
///                                         as one Chrome Trace Event
///                                         JSON array ("[\n]\n" under
///                                         IPSE_OBSERVE=OFF)
///   open <tenant> [k=v ...]               multi-tenant verbs (serve
///   close <tenant>                        --tenants only): create a
///   attach <tenant>                       tenant (gen-spec keys as for
///                                         `gen`), end its lifetime, or
///                                         set the connection's default
///                                         tenant for later commands
///
/// Parsing yields a ScriptCommand with *raw* operands; name resolution is
/// deferred to execution time because ids shift under edits — the service
/// resolves edits on its writer thread against the session's live program
/// and queries against the pinned snapshot's program copy.
///
/// Query evaluation is generic over a QueryTarget so the same code answers
/// from a live demand::DemandSession (CLI, tenant writer) or an immutable
/// AnalysisSnapshot (service read path), and renders byte-identical text
/// either way.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_SERVICE_SCRIPTDRIVER_H
#define IPSE_SERVICE_SCRIPTDRIVER_H

#include "analysis/EffectKind.h"
#include "incremental/Edit.h"
#include "ir/Printer.h"
#include "ir/Program.h"
#include "support/EffectSet.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ipse {
namespace demand {
class DemandSession;
}
namespace synth {
struct ProgramGenConfig;
}

namespace service {

/// A script failure: unknown command, bad arity, unresolvable name.
/// Thrown by the parse/resolve/execute functions below; callers render it
/// (the CLI exits, the service answers an error response).
struct ScriptError {
  unsigned LineNo = 0;
  std::string Message;
};

/// One parsed script line with raw (unresolved) operands.
struct ScriptCommand {
  enum class Op {
    Load,
    Gen,
    AddMod,
    RmMod,
    AddUse,
    RmUse,
    AddStmt,
    AddCall,
    RmCall,
    AddProc,
    AddGlobal,
    AddLocal,
    AddFormal,
    RmProc,
    GMod,
    GUse,
    RMod,
    Mod,
    Use,
    Query,
    Check,
    Stats,
    Metrics,
    Debug,
    Open,
    Close,
    Attach
  };
  Op Kind = Op::Check;
  std::vector<std::string> Args;
  unsigned LineNo = 0;
};

/// True for commands that mutate the program (routed to the service's
/// writer thread).
bool isEditCommand(ScriptCommand::Op Op);

/// True for commands answerable from an immutable snapshot (routed to the
/// service's reader pool).
bool isQueryCommand(ScriptCommand::Op Op);

/// True for the multi-tenant lifecycle verbs (open / close / attach),
/// which only the tenant-serving front end accepts.
bool isTenantCommand(ScriptCommand::Op Op);

/// True if \p Name is a legal tenant id: 1-64 characters drawn from
/// [A-Za-z0-9_.-].  The restriction keeps names safe as directory names,
/// Prometheus label values, and whitespace-delimited script operands.
bool isValidTenantName(std::string_view Name);

/// Parses generator `key=value` operands (the script `gen` command, the
/// tenant `open` verb's shape arguments, and `ipse-cli serve --gen`).
/// Throws ScriptError on unknown keys.
synth::ProgramGenConfig parseGenSpec(const std::vector<std::string> &Args,
                                     unsigned LineNo);

/// The one rule for every number a script line or an `ipse-cli` flag
/// carries: decimal digits only, below 2^32.  Signs, hex prefixes, an
/// empty string and overflow answer nullopt.
std::optional<std::uint32_t> parseDecimal(std::string_view S);

/// \p Line without its comment: a '#' at line start or after whitespace
/// opens one; mid-token ("main#0") it is data.
std::string_view stripComment(std::string_view Line);

/// Parses one script line (stripComment first).  Returns nullopt for
/// blank/comment-only lines; throws ScriptError on unknown commands or
/// wrong arity.
std::optional<ScriptCommand> parseScriptLine(std::string_view Line,
                                             unsigned LineNo);

/// \name Name resolution (shared by edits and queries; throw ScriptError)
/// @{
ir::ProcId findProc(const ir::Program &P, const std::string &Name,
                    unsigned LineNo);
/// Resolves \p Name through \p Scope's lexical chain (innermost first).
ir::VarId findVisibleVar(const ir::Program &P, ir::ProcId Scope,
                         const std::string &Name, unsigned LineNo);
ir::StmtId stmtAt(const ir::Program &P, ir::ProcId Proc, unsigned Idx,
                  unsigned LineNo);
/// @}

/// Resolves one edit command's names against \p P into a first-class
/// incremental::Edit (ids valid for the current program state; apply
/// before further edits).  \p Cmd must satisfy isEditCommand; throws
/// ScriptError on unresolvable names or arity mismatches.  This is the
/// step that gives service edits a canonical wire form: the resolved Edit
/// is what the write-ahead log records and replays.
incremental::Edit resolveEditCommand(const ir::Program &P,
                                     const ScriptCommand &Cmd);

/// Resolves and applies one edit command against \p Session's current
/// program (resolveEditCommand + demand::applyEdit).  \p Cmd must satisfy
/// isEditCommand.  Returns the resolved edit so callers that persist
/// deltas can log exactly what was applied.
incremental::Edit applyEditCommand(demand::DemandSession &Session,
                                   const ScriptCommand &Cmd);

/// What a query evaluates against: a live session (CLI) or an immutable
/// snapshot (service).  Methods are const so a pinned
/// shared_ptr<const AnalysisSnapshot> can answer directly; the session
/// adapter's constness is shallow (the referenced session still solves
/// lazily on query).  A snapshot refuses a read off its coverage by
/// throwing service::UncoveredRead, which evalQueryCommand lets through.
class QueryTarget {
public:
  virtual ~QueryTarget() = default;
  virtual const ir::Program &program() const = 0;
  /// False when the target keeps no USE pipeline (`--no-use`): guse /
  /// useNoAlias / USE RMOD bits must not be called, and the evaluator
  /// answers USE commands with an error instead.
  virtual bool tracksUse() const = 0;
  virtual const EffectSet &gmod(ir::ProcId Proc) const = 0;
  virtual const EffectSet &guse(ir::ProcId Proc) const = 0;
  virtual bool rmodContains(ir::VarId Formal,
                            analysis::EffectKind Kind) const = 0;
  /// MOD(s) / USE(s) under the empty alias relation (the protocol's view).
  virtual EffectSet modNoAlias(ir::StmtId S) const = 0;
  virtual EffectSet useNoAlias(ir::StmtId S) const = 0;
  /// DMOD projected at one call site (the `query proc#k` operand form).
  virtual EffectSet dmodSite(ir::CallSiteId C) const = 0;
  /// Cumulative demand counters, if this target is demand-driven.  The
  /// query evaluator snapshots them around a `query` command and reports
  /// the delta (per-query attribution on the wire and in --stats).
  /// Returns false (and leaves the outputs alone) for non-demand targets.
  virtual bool demandCounters(std::uint64_t &RegionProcs,
                              std::uint64_t &MemoHits,
                              std::uint64_t &FrontierCuts) const {
    (void)RegionProcs;
    (void)MemoHits;
    (void)FrontierCuts;
    return false;
  }
};

/// Adapts a live demand::DemandSession to QueryTarget.  Queries solve only
/// the region they depend on, so a script that touches one procedure never
/// pays for the whole program.
class DemandSessionQueryTarget : public QueryTarget {
public:
  explicit DemandSessionQueryTarget(demand::DemandSession &S) : S(S) {}
  const ir::Program &program() const override;
  bool tracksUse() const override;
  const EffectSet &gmod(ir::ProcId Proc) const override;
  const EffectSet &guse(ir::ProcId Proc) const override;
  bool rmodContains(ir::VarId Formal,
                    analysis::EffectKind Kind) const override;
  EffectSet modNoAlias(ir::StmtId S) const override;
  EffectSet useNoAlias(ir::StmtId S) const override;
  EffectSet dmodSite(ir::CallSiteId C) const override;
  bool demandCounters(std::uint64_t &RegionProcs, std::uint64_t &MemoHits,
                      std::uint64_t &FrontierCuts) const override;

private:
  demand::DemandSession &S;
};

/// Result of one query command.
struct QueryResult {
  std::string Text;    ///< Exactly the line `ipse-cli session` prints.
  bool CheckOk = true; ///< False only for a failed `check`.
  /// Per-query demand attribution (deltas of the target's demand
  /// counters across this one evaluation).  HasStats is true only for
  /// `query` commands answered by a demand-driven target.
  bool HasStats = false;
  std::uint64_t RegionProcs = 0;  ///< Procedures solved for this query.
  std::uint64_t MemoHits = 0;     ///< Queried procs already memoized.
  std::uint64_t FrontierCuts = 0; ///< Region edges cut at the memo frontier.
};

/// Evaluates a query command (isQueryCommand) against \p Target.  `check`
/// re-runs the batch analyzers over Target's program and compares (MOD
/// only when the target tracks no USE); `guse` / `use` against such a
/// target throw ScriptError.
QueryResult evalQueryCommand(const QueryTarget &Target,
                             const ScriptCommand &Cmd);

/// Renders a variable set as sorted "a, p.b, ..." text (the rendering every
/// driver shares).
using ir::setToString;

} // namespace service
} // namespace ipse

#endif // IPSE_SERVICE_SCRIPTDRIVER_H
