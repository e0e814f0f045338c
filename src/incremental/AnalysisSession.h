//===- incremental/AnalysisSession.h - Delta-driven analysis ----*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental analysis engine: load a Program once, apply deltas, and
/// query up-to-date GMOD / RMOD / MOD(s) / USE(s) without re-running the
/// whole Cooper–Kennedy pipeline.  Every answer is bit-for-bit identical
/// to a fresh SideEffectAnalyzer over the current program — GMOD and RMOD
/// are least fixed points, so an evaluation that re-solves exactly the
/// affected region converges to the same unique solution.
///
/// The engine keeps resident between edits:
///
///  - the condensed call multi-graph (graph::Condensation over C), whose
///    component ids are reverse-topological;
///  - the binding multi-graph β and per-formal RMOD bits;
///  - per-procedure IMOD (own and nesting-extended), IMOD+, and GMOD sets
///    for each tracked effect kind (MOD, and optionally USE).
///
/// Deltas are classified into three tiers (DESIGN.md "Incremental
/// analysis"):
///
///  1. *Effect-set deltas* (LMOD/LUSE entries): the fast path.  IMOD is
///     recomputed for the touched procedure and its lexical ancestors,
///     RMOD re-propagates over the resident β only if a formal's IMOD bit
///     flipped, and GMOD is re-solved only on the dirty cone — the
///     condensation ancestors of procedures whose IMOD+ changed,
///     processed callees-first with early termination where values are
///     unchanged.
///  2. *Call-site deltas*: β and the caller lists are rebuilt (linear
///     integer work) and the same dirty-cone GMOD re-propagation runs.
///     If the edge delta stays inside one SCC the condensation survives;
///     otherwise (possible merge on a cross-component add, possible split
///     on an intra-component removal) the engine falls back to targeted
///     re-condensation — one O(N + E) Tarjan pass.
///  3. *Universe deltas* (procedure / variable additions and removals):
///     the bit-vector universe itself changes, so the engine rebuilds all
///     resident state (still served through the same session API).
///
/// Edits are lazy: they record dirt and bump a generation counter; the
/// solve work runs at the next query (or explicit flush()).  A batch of
/// edits therefore pays for one re-propagation, not one per edit.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_INCREMENTAL_ANALYSISSESSION_H
#define IPSE_INCREMENTAL_ANALYSISSESSION_H

#include "analysis/DMod.h"
#include "analysis/EffectKind.h"
#include "analysis/GMod.h"
#include "analysis/VarMasks.h"
#include "graph/BindingGraph.h"
#include "graph/Condensation.h"
#include "ir/AliasInfo.h"
#include "ir/Printer.h"
#include "ir/Program.h"
#include "support/EffectSet.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ipse {
namespace incremental {

/// Session configuration.
struct SessionOptions {
  /// Maintain the USE pipeline alongside MOD.  Disable when only MOD
  /// queries are needed (e.g. benchmarking against a single-kind batch
  /// analyzer).
  bool TrackUse = true;

  /// Lanes for full rebuilds (tier-3 flushes and session construction),
  /// which run the batch analyzer's dispatch (analysis::solvePasses): a
  /// wide condensation level may fan out to this many lanes; <= 1 runs
  /// every level inline.  Incremental flushes are dirty-cone-sized and
  /// stay sequential either way.  Results are bit-for-bit identical.
  unsigned Threads = 1;
};

/// Counters describing how the engine serviced its edits; the delta
/// taxonomy made observable (tests assert the fast path actually ran).
struct SessionStats {
  std::uint64_t EditsApplied = 0;
  std::uint64_t Flushes = 0;
  /// Flushes that never touched graph structure (tier 1).
  std::uint64_t EffectOnlyFlushes = 0;
  /// Flushes that rebuilt β / caller lists but kept the condensation.
  std::uint64_t IntraSccFlushes = 0;
  /// Tarjan re-runs (tier-2 fallback).
  std::uint64_t Recondensations = 0;
  /// Whole-state rebuilds (tier 3).
  std::uint64_t FullRebuilds = 0;
  /// Condensation components whose GMOD/GUSE values were re-evaluated.
  std::uint64_t ComponentsRecomputed = 0;
  /// Figure-1 RMOD re-propagations over the resident β.
  std::uint64_t RModResolves = 0;
};

/// The solver planes of a flushed session, detached from it — what a
/// snapshot file stores and a warm restart installs.  Everything else the
/// session keeps resident (VarMasks, the binding graph, the condensation,
/// caller lists) is derivable from the program in linear integer time, far
/// below the fixed-point solves these planes make skippable.
struct SessionPlanes {
  /// The generation the planes were exported at; a session restored from
  /// them resumes counting there, so generation numbers survive restarts.
  std::uint64_t Generation = 0;

  struct KindPlanes {
    analysis::EffectKind Kind = analysis::EffectKind::Mod;
    /// Per-proc IMOD from the procedure's own body / nesting-extended.
    std::vector<EffectSet> Own, Ext;
    /// Per-var bit planes: β inputs and Figure-1 RMOD outputs.
    EffectSet FormalBits, RModBits;
    /// Per-proc IMOD+ (equation 5) and GMOD/GUSE (equation 4).
    std::vector<EffectSet> IModPlus, GMod;
  };
  /// MOD first; USE present iff the exporting session tracked it.
  std::vector<KindPlanes> Kinds;
};

/// A long-lived analysis over one evolving program.
///
/// All query methods flush pending edits first, so results always reflect
/// every edit applied so far.  Returned references stay valid until the
/// next edit or flush.
class AnalysisSession {
public:
  explicit AnalysisSession(ir::Program Initial,
                           SessionOptions Options = SessionOptions());

  /// Warm-restart constructor: installs previously exported planes
  /// instead of solving.  Only the linear derived structure is rebuilt,
  /// so construction costs no fixed-point iteration at all.  \p Planes
  /// must have been exported (exportPlanes()) from a session over an
  /// identical program with the same TrackUse setting; dimensions are
  /// asserted, semantic validity is the caller's contract (the persist
  /// layer checksums files and cross-checks the derived graphs).
  AnalysisSession(ir::Program Initial, SessionOptions Options,
                  SessionPlanes Planes);

  /// The current program.  Ids obtained from it are valid until the next
  /// removal edit (see ir::ProgramEditor's id-stability rules).
  const ir::Program &program() const { return P; }

  /// Monotone edit counter; generation() == cleanGeneration() iff no edit
  /// is pending.
  std::uint64_t generation() const { return Generation; }
  std::uint64_t cleanGeneration() const { return CleanGeneration; }

  const SessionStats &stats() const { return Stats; }
  const SessionOptions &options() const { return Opts; }

  /// \name Deltas
  /// Each records dirt and returns immediately; analysis work is deferred
  /// to the next query.
  /// @{
  void addMod(ir::StmtId S, ir::VarId V);
  bool removeMod(ir::StmtId S, ir::VarId V);
  void addUse(ir::StmtId S, ir::VarId V);
  bool removeUse(ir::StmtId S, ir::VarId V);

  ir::StmtId addStmt(ir::ProcId Parent);
  ir::CallSiteId addCall(ir::StmtId S, ir::ProcId Callee,
                         std::vector<ir::Actual> Actuals);
  /// Removes \p C; the last call site's id moves into C's slot (returned,
  /// invalid if C was last).
  ir::CallSiteId removeCall(ir::CallSiteId C);

  ir::ProcId addProc(std::string_view Name, ir::ProcId Parent);
  ir::VarId addGlobal(std::string_view Name);
  ir::VarId addLocal(ir::ProcId Owner, std::string_view Name);
  ir::VarId addFormal(ir::ProcId Owner, std::string_view Name);
  /// Removes a leaf, uncalled procedure; compacts every id space.
  void removeProc(ir::ProcId Target);
  /// @}

  /// Brings all resident results up to date (queries do this implicitly).
  void flush();

  /// \name Queries (mirror SideEffectAnalyzer)
  /// @{
  const EffectSet &gmod(ir::ProcId Proc);
  const EffectSet &guse(ir::ProcId Proc);
  const EffectSet &gmod(ir::ProcId Proc, analysis::EffectKind Kind);
  const EffectSet &imodPlus(ir::ProcId Proc, analysis::EffectKind Kind);
  const EffectSet &imod(ir::ProcId Proc, analysis::EffectKind Kind);
  bool rmodContains(ir::VarId Formal);
  bool rmodContains(ir::VarId Formal, analysis::EffectKind Kind);

  EffectSet dmod(ir::StmtId S);
  EffectSet duse(ir::StmtId S);
  EffectSet dmod(ir::CallSiteId C);
  EffectSet dmod(ir::CallSiteId C, analysis::EffectKind Kind);
  EffectSet mod(ir::StmtId S, const ir::AliasInfo &Aliases);
  EffectSet use(ir::StmtId S, const ir::AliasInfo &Aliases);
  /// @}

  /// Renders a variable set as sorted "a, p.b, ..." text.
  std::string setToString(const EffectSet &Set) const {
    return ir::setToString(P, Set);
  }

  /// \name Snapshot export hooks
  /// Flush pending edits, then expose the resident result bundle so a
  /// snapshotting layer (service::AnalysisSnapshot) can copy an immutable
  /// view of the full solution.  Like the query methods, the returned
  /// references stay valid until the next edit or flush.
  /// @{
  const analysis::VarMasks &masks();
  const analysis::GModResult &gmodResult(analysis::EffectKind Kind);
  const EffectSet &rmodBits(analysis::EffectKind Kind);
  /// @}

  /// Flushes, then copies out every solver plane (the warm-restart
  /// payload; see SessionPlanes).
  SessionPlanes exportPlanes();

private:
  /// Resident per-effect-kind pipeline state.
  struct KindState {
    analysis::EffectKind Kind = analysis::EffectKind::Mod;
    /// IMOD(p) from p's own body / nesting-extended (§3.3).
    std::vector<EffectSet> Own, Ext;
    /// Per-var: the IMOD(fp_i^p) node value of each formal (β inputs).
    EffectSet FormalBits;
    /// Per-var: formals in RMOD of their owner (Figure 1 outputs).
    EffectSet RModBits;
    /// IMOD+(p), equation (5).
    std::vector<EffectSet> IModPlus;
    /// GMOD(p) / GUSE(p); wrapped in GModResult so the DMod projection
    /// helpers consume it directly.
    analysis::GModResult GMod;
  };

  KindState &state(analysis::EffectKind Kind);

  // Edit bookkeeping.
  void bump();
  void markEffectDirty(analysis::EffectKind Kind, ir::ProcId Proc);
  void markCallDelta(ir::ProcId Caller, ir::ProcId Callee);
  void markUniverseDirty();

  // Flush machinery.
  void initKindStates();
  /// Rebuilds the linearly derivable resident structure (masks, β, level
  /// masks, condensation, caller lists) — the part of rebuildAll() a
  /// warm restart shares.
  void rebuildSharedStructure();
  void rebuildAll();
  void flushIncremental();
  void rebuildDerivedGraphs();
  void recondense();
  /// Recomputes Own/Ext for \p K's dirty procedures; returns the
  /// procedures whose extended IMOD changed.
  std::vector<std::uint32_t> updateLocalEffects(KindState &K,
                                                const std::vector<std::uint32_t> &Dirty);
  /// Re-propagates RMOD if needed; returns owners of formals whose RMOD
  /// bit changed.
  std::vector<std::uint32_t>
  updateRMod(KindState &K, const std::vector<std::uint32_t> &ExtChanged,
             bool BetaRebuilt);
  /// Re-evaluates the dirty cone of the condensation; \p Seeds are
  /// procedures whose IMOD+ or outgoing edges changed.
  void recomputeGMod(KindState &K, const std::vector<std::uint32_t> &Seeds);
  /// Recomputes one component's values from its inputs; appends members
  /// whose value changed to \p ChangedOut.
  void recomputeComponent(KindState &K, std::uint32_t Comp,
                          std::vector<std::uint32_t> &ChangedOut);

  ir::Program P;
  SessionOptions Opts;
  SessionStats Stats;
  std::uint64_t Generation = 0;
  std::uint64_t CleanGeneration = 0;

  // Resident shared structure.
  std::unique_ptr<analysis::VarMasks> Masks;
  std::unique_ptr<graph::BindingGraph> BG;
  /// Below[L]: variables declared at levels < L — the equation-(4) filter
  /// across an edge whose callee sits at level L.
  std::vector<EffectSet> Below;
  EffectSet EmptyVars;
  graph::Condensation Cond;
  /// Callers[p]: callers of p, one entry per call site (parallel edges
  /// kept) — the reverse adjacency the dirty-cone walk climbs.
  std::vector<std::vector<std::uint32_t>> Callers;
  std::vector<KindState> States;

  // Dirty state, reset by flush().
  bool UniverseDirty = false;
  bool CallStructureDirty = false;
  bool CondDirty = false;
  std::vector<std::uint32_t> DirtyEffectProcs[2]; ///< Indexed by EffectKind.
  std::vector<char> DirtyEffectFlag[2];
  std::vector<std::uint32_t> CallDirtyProcs;
  std::vector<char> CallDirtyFlag;

  // Scratch reused by recomputeComponent (member-index stamps).
  std::vector<std::uint32_t> MemberSlot;
  std::vector<EffectSet> MemberVals;
};

} // namespace incremental
} // namespace ipse

#endif // IPSE_INCREMENTAL_ANALYSISSESSION_H
