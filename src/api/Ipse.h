//===- api/Ipse.h - The unified public analysis facade ----------*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library's single public entry point.  The repository has the
/// batch analyzer (analysis::BatchAnalysis), the stateful demand-driven
/// session (demand::DemandSession), which answers queries and absorbs
/// edits by solving only what they touch, never at more than batch
/// cost, and the sharded MVCC server (tenant::TenantService), each with
/// its own options struct and entry header.  This facade folds them
/// behind two types:
///
///  - ipse::AnalysisOptions: one options struct (effect tracking,
///    representation, server knobs, trace sink / profiling) with
///    per-subsystem view methods.  The per-subsystem structs remain as
///    the facade's internal wire format; new code should not reach for
///    them.
///
///  - ipse::Analyzer: the entry point.  Each method has one fixed mode:
///    analyze(), report() and reportSource() are batch; open_demand(),
///    runSessionScript() and every serve() tenant are demand-driven.
///    GMOD and RMOD are least fixed points, so a region solve and a
///    batch solve give the same answer; no caller picks an engine.
///
/// The batch analyzer picks its GMOD kernel from the program's shape
/// (analysis/SideEffectAnalyzer.h) and runs on the calling thread;
/// Threads is kept for source compatibility and affects nothing.
///
/// Observability is threaded through: set AnalysisOptions::Profile to
/// collect a per-run observe::CostReport (phase wall time + bit-vector
/// word ops), and/or AnalysisOptions::Sink to stream spans (an
/// observe::JsonLinesSink or observe::ChromeTraceSink for `--trace-out`;
/// serve() forwards the sink to the server, which tags spans with
/// request trace ids).
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_API_IPSE_H
#define IPSE_API_IPSE_H

#include "analysis/EffectKind.h"
#include "analysis/GMod.h"
#include "analysis/Report.h"
#include "analysis/SideEffectAnalyzer.h"
#include "demand/DemandSession.h"
#include "ir/Program.h"
#include "observe/CostReport.h"
#include "observe/Trace.h"
#include "support/EffectSet.h"
#include "synth/ProgramGen.h"
#include "tenant/TenantService.h"

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ipse {

/// One options struct for every entry point.  Knobs an entry point does
/// not consume are ignored there.
struct AnalysisOptions {
  /// Has no effect on anything: every solver runs on the calling thread.
  /// Kept so existing callers that set it still compile.
  unsigned Threads = 1;

  /// Maintain the USE pipeline alongside MOD (guse / DUSE queries and
  /// report lines need this).
  bool TrackUse = true;

  /// Effect-set representation for everything this facade starts
  /// (`ipse-cli --repr=`).  Auto is the hybrid crossover heuristic (sets
  /// start sparse, densify at ~2 set bits per universe word); Dense
  /// pins the word-array form the solvers always used; Sparse pins the
  /// sorted index list.  Results are byte-identical across all three —
  /// this is a memory/speed knob and a differential-testing axis, never
  /// a semantics knob.  Applied process-wide at entry (the underlying
  /// default is per-process, captured by each set at construction), so
  /// mixing facades with different Repr in one process is unsupported.
  EffectSet::Representation Repr = EffectSet::Representation::Auto;

  /// \name Server knobs (serve() only)
  /// @{
  /// Capacity of each shard's job queue, and the group-commit window.
  std::size_t ServiceQueueCapacity = 256;
  std::size_t ServiceMaxBatch = 32;
  /// Durable mode: recover from / persist to this data directory (see
  /// tenant::TenantOptions::DataDir).  Empty = in-memory only.
  std::string DataDir;
  /// WAL compaction thresholds for durable mode.
  std::uint64_t CompactWalRecords = 1024;
  std::uint64_t CompactWalBytes = 8u << 20;
  /// Writer shards (`ipse-cli serve --tenants=N`).
  unsigned TenantShards = 2;
  /// LRU resident-session cap (0 = unlimited; needs DataDir to evict).
  std::size_t TenantMaxResident = 0;
  /// Per-tenant procedure-count quota (0 = unlimited).
  std::size_t TenantMaxProcs = 0;
  /// Per-tenant queued-edit quota (0 = unlimited).
  std::size_t TenantMaxQueuedEdits = 0;
  /// @}

  /// \name Observability
  /// @{
  /// Stream spans here during analyze()/report()/runSessionScript(), and
  /// from serve()'s request paths (request-tagged).  Not owned; may be
  /// null.
  observe::TraceSink *Sink = nullptr;
  /// Collect a per-run observe::CostReport (Analysis::costs() /
  /// ReportRun::Costs).
  bool Profile = false;
  /// Slow-query threshold in milliseconds (`ipse-cli --slow-ms`; 0 =
  /// off).  Queries and flushes exceeding it emit a structured record to
  /// Sink, a flight-recorder event, and the "slow_queries_total" counter
  /// (forwarded to serve() as SlowQueryUs).
  unsigned SlowMs = 0;
  /// @}

  /// \name Per-subsystem views (the facade's wire format)
  /// @{
  demand::DemandOptions demandView() const {
    demand::DemandOptions O;
    O.TrackUse = TrackUse;
    return O;
  }
  tenant::TenantOptions tenantView() const {
    tenant::TenantOptions O;
    O.Shards = TenantShards;
    O.QueueCapacity = ServiceQueueCapacity;
    O.MaxBatch = ServiceMaxBatch;
    O.TrackUse = TrackUse;
    O.MaxResident = TenantMaxResident;
    O.MaxProcs = TenantMaxProcs;
    O.MaxQueuedEdits = TenantMaxQueuedEdits;
    // The implicit tenant's store files and the named tenants' t-<name>
    // subtrees are disjoint namespaces within one data directory.
    O.DataDir = DataDir;
    O.CompactWalRecords = CompactWalRecords;
    O.CompactWalBytes = CompactWalBytes;
    O.Sink = Sink;
    O.SlowQueryUs = std::uint64_t(SlowMs) * 1000;
    return O;
  }
  /// @}
};

/// A finished batch analysis of MOD (and USE, with TrackUse) behind the
/// SideEffectAnalyzer query surface.  Movable; the analyzed Program must
/// outlive it.
class Analysis {
public:
  Analysis(Analysis &&) noexcept;
  Analysis &operator=(Analysis &&) noexcept;
  ~Analysis();

  /// \name Queries (the SideEffectAnalyzer surface)
  /// @{
  const EffectSet &gmod(ir::ProcId Proc) const;
  const EffectSet &guse(ir::ProcId Proc) const; ///< Requires TrackUse.
  const EffectSet &gmod(ir::ProcId Proc, analysis::EffectKind Kind) const;
  bool rmodContains(ir::VarId Formal, analysis::EffectKind Kind) const;
  EffectSet dmod(ir::StmtId S) const;
  EffectSet dmod(ir::CallSiteId C) const;
  EffectSet dmod(ir::CallSiteId C, analysis::EffectKind Kind) const;
  EffectSet mod(ir::StmtId S, const ir::AliasInfo &Aliases) const;
  const analysis::GModResult &gmodResult(analysis::EffectKind Kind) const;
  std::string setToString(const EffectSet &Set) const;
  /// @}

  /// Phase costs collected during analyze() (empty unless
  /// AnalysisOptions::Profile was set).
  const observe::CostReport &costs() const;

private:
  friend class Analyzer;
  struct Impl;
  explicit Analysis(std::unique_ptr<Impl> Impl);
  std::unique_ptr<Impl> I;
};

/// One report run: output text plus everything observed along the way.
struct ReportRun {
  bool Ok = true;           ///< False when compilation failed.
  std::string Output;       ///< The report text ("" when !Ok).
  std::string Diagnostics;  ///< Compiler diagnostics (reportSource only).
  observe::CostReport Costs; ///< Filled when AnalysisOptions::Profile.
};

/// The facade.  Cheap to construct (holds only options); every method is
/// const and reentrant.
class Analyzer {
public:
  explicit Analyzer(AnalysisOptions Options = {}) : Opts(Options) {}

  const AnalysisOptions &options() const { return Opts; }

  /// Runs a batch analysis of \p P (MOD, and USE with TrackUse).
  Analysis analyze(const ir::Program &P) const;

  /// Renders the standard MOD/USE report for \p P from a batch analysis
  /// (the "report" span).  A fully queried DemandSession renders the same
  /// bytes (analysis::renderReport over demand::KindView).
  ReportRun report(const ir::Program &P,
                   analysis::ReportOptions R = analysis::ReportOptions()) const;

  /// Compiles MiniProc \p Source (the "parse" span) and reports.  On
  /// compile errors Ok is false and Diagnostics carries the rendering.
  ReportRun
  reportSource(std::string_view Source,
               analysis::ReportOptions R = analysis::ReportOptions()) const;

  /// Opens a long-lived demand-driven session over \p Initial, configured
  /// from these options (TrackUse).  Queries solve only their
  /// backward-reachable region and memoize it, at batch cost at most;
  /// edits invalidate only what they can change.  ensureSolvedAll() keeps
  /// every procedure final.
  std::unique_ptr<demand::DemandSession> open_demand(ir::Program Initial) const;

  /// Starts the sharded MVCC server (server knobs, TrackUse, DataDir;
  /// every tenant is demand-driven), recovering the
  /// tenant manifest in durable mode.  \p Initial, when given, becomes
  /// the implicit tenant "" that requests naming no tenant reach; a store
  /// at the root of DataDir takes its place.  Throws std::runtime_error
  /// when the data directory is unusable.  Serve it with
  /// tenant::serveTenantFd / tenantConnectionHandler (`ipse-cli serve`).
  std::unique_ptr<tenant::TenantService>
  serve(std::optional<ir::Program> Initial = std::nullopt) const;

  /// Runs a session script (the service/ScriptDriver.h grammar) against a
  /// fresh DemandSession, printing query results to \p Out.  Each query
  /// solves only the region it reaches, as in the server.  Returns the
  /// process exit code: 0 on success, 1 on a script error (reported to
  /// stderr) or any failed `check`.  Spans stream to Sink; with Profile
  /// set and \p CostsOut non-null, phase costs accumulate there.
  int runSessionScript(const std::string &Script, std::FILE *Out,
                       observe::CostReport *CostsOut = nullptr) const;

private:
  AnalysisOptions Opts;
};

/// Parses generator `key=value` operands (the script `gen` command and
/// `ipse-cli serve --gen`).  Throws service::ScriptError on unknown keys.
synth::ProgramGenConfig parseGenSpec(const std::vector<std::string> &Args,
                                     unsigned LineNo);

} // namespace ipse

#endif // IPSE_API_IPSE_H
