//===- demand/DemandSession.h - The stateful analysis engine ----*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one engine that holds analysis state between calls: load a Program,
/// apply deltas, and answer GMOD / RMOD / MOD(s) queries for individual
/// procedures or call sites by solving only the region of the call/binding
/// graphs the query depends on.  Every answer is bit-for-bit identical to a
/// fresh batch SideEffectAnalyzer over the current program — GMOD and RMOD
/// are least fixed points, so any evaluation that re-solves exactly the
/// affected region reaches the same unique solution.  Callers that want
/// every procedure final after each edit (the tenant server's default,
/// `ipse-cli session`, save/load) call ensureSolvedAll(); callers that
/// want only what they ask for just ask.
///
/// The dependency structure of the Cooper–Kennedy pipeline is what makes
/// the region well-defined.  GMOD(p) (equation 4) reads the GMOD of p's
/// callees; IMOD+(p) (equation 5) reads p's nesting-extended IMOD and the
/// RMOD bits of its callees' formals; and RMOD(fp_i^p) (Figure 1) reads the
/// RMOD bits of fp_i^p's β successors — formals of procedures invoked from
/// p's *nested extended body* (a call site lexically inside p may pass p's
/// formal onward, §3.3).  A query's region is therefore the closure of the
/// queried procedures under two successor relations:
///
///   - call edges:  p → q for every call site in p invoking q, and
///   - β-owner edges:  p → owner(g) for every β edge fp_i^p → g.
///
/// Neither relation is stored: forEachDependency (demand/Dependencies.h)
/// reads a procedure's successors off its call sites and those of its
/// lexical subtree, so opening a session builds no call graph, binding
/// graph or dependency adjacency — a region costs the program parts it
/// touches.  Only invalidation walks the reverse relation; that index is
/// built by the first invalidation that needs it and dropped by the next
/// call-structure delta.
///
/// The walk cuts at procedures whose results are already memoized
/// ("Solved"): their final GMOD sets and RMOD bits are *frontier
/// summaries* — exact constants folded into the region's equations, the
/// same way the batch sweep folds finished components into later ones
/// (DESIGN.md "Demand-driven queries").
///
/// The batch ceiling: when a region reaches BatchRegionNum/BatchRegionDen
/// of the program's procedures, the region solve is replaced by the batch
/// pass pipeline (analysis::solvePasses, the dispatch SideEffectAnalyzer
/// uses) over the whole program, whose planes install as Solved.  No
/// solve therefore costs more than one batch solve: cold opens, universe
/// resets and huge invalidations all pay batch price at most.
///
/// Memoization is a per-procedure, per-kind Solved bit with the invariant
/// that a Solved procedure's dependency successors are all Solved.  Edits
/// are lazy (they record dirt; the next query or export applies it, in
/// time proportional to the dirt) and invalidate through three paths:
///
///   1. Effect-set deltas recompute IMOD along the lexical chain.  If a
///      formal's bit flips, RMOD can move, and the reverse-dependency
///      closure above the procedure is un-solved.  Otherwise only IMOD+(p)
///      moved: if it only grew inside the memoized GMOD(p) (the
///      monotone-growth prune) nothing changes; else GMOD is re-solved in
///      place over the call graph's condensation, callees first, climbing
///      callers only while a recomputed GMOD differs from the memoized one.
///   2. Call-site deltas drop the reverse index and the condensation.  A
///      delta whose actuals include no formal leaves β — hence RMOD —
///      unchanged and takes the same GMOD-only re-solve from the caller;
///      one that touches β un-solves the reverse closure of the caller's
///      lexical chain (whose formals the binding edges originate from).
///   3. Universe deltas reset all memoized state; the next solve covers
///      its own region, or the whole program at batch cost.
///
/// Resident plane memory is proportional to the touched region.  The
/// per-procedure planes (IMOD, extended IMOD, IMOD+, GMOD and the LOCAL
/// mask) live in *rows*, allocated when a procedure is first made Ready
/// and reached through one 4-byte slot per procedure; everything else
/// per-procedure is a 1- or 4-byte flag, stamp or slot.  So a freshly
/// opened 100k-procedure program costs those flags and a few shared V-bit
/// vectors (the β input and RMOD planes, the level filters) until someone
/// asks about it (DemandStats::ResidentProcs counts the rows).  Once every
/// procedure holds a row — as soon as any kind is fully covered — the
/// rows are in procedure order, so the whole-program exports hand out the
/// planes as they are.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_DEMAND_DEMANDSESSION_H
#define IPSE_DEMAND_DEMANDSESSION_H

#include "analysis/EffectKind.h"
#include "analysis/GMod.h"
#include "graph/Condensation.h"
#include "graph/Digraph.h"
#include "incremental/Edit.h"
#include "ir/AliasInfo.h"
#include "ir/Printer.h"
#include "ir/Program.h"
#include "support/EffectSet.h"

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ipse {
namespace demand {

/// A region covering at least BatchRegionNum/BatchRegionDen of the
/// program's procedures is solved by the batch pipeline instead (see the
/// file comment; DESIGN.md "Demand-driven queries" has the measurement
/// behind the constant).
inline constexpr std::size_t BatchRegionNum = 1;
inline constexpr std::size_t BatchRegionDen = 2;

/// Session configuration.
struct DemandOptions {
  /// Maintain the USE pipeline alongside MOD.
  bool TrackUse = true;
};

/// Counters describing how queries and edits were serviced (tests assert
/// regions stay small, memo hits hit and the prunes fire).
struct DemandStats {
  std::uint64_t EditsApplied = 0;
  /// ensureSolved() entries, one per kind (every query funnels through
  /// one).  Whole-program sweeps (ensureSolvedAll) are not queries.
  std::uint64_t Queries = 0;
  /// Queries that had to solve a non-empty region.
  std::uint64_t RegionSolves = 0;
  /// Total procedures in those regions — the dependency region, also when
  /// the batch pipeline solved the whole program instead.
  std::uint64_t RegionProcs = 0;
  /// Region solves the batch pipeline served (the region crossed the
  /// BatchRegionNum/BatchRegionDen ceiling).
  std::uint64_t BatchSolves = 0;
  /// Queried procedures already covered by memoized planes (counted by
  /// queries only).
  std::uint64_t MemoHits = 0;
  /// Region-DFS edges not descended because the callee was already
  /// Solved — the memo frontier actually cutting the region short.
  std::uint64_t FrontierCuts = 0;
  /// Memoized procedures un-solved by edit invalidation.
  std::uint64_t Invalidations = 0;
  /// Effect deltas absorbed by the monotone-growth prune (proc kept
  /// Solved, nothing re-solved).
  std::uint64_t AbsorbedEdits = 0;
  /// Condensation components whose GMOD was re-evaluated in place by a
  /// GMOD-only re-solve.
  std::uint64_t ComponentsRecomputed = 0;
  /// Universe resets (all memo and every plane row dropped).
  std::uint64_t FullResets = 0;
  /// Procedures currently holding plane rows (a gauge, not a counter):
  /// 0 after open, the touched region and its lexical descendants after
  /// region solves, every procedure once any kind is fully covered.
  std::uint64_t ResidentProcs = 0;
};

/// The solver planes of a fully solved session, detached from it — what a
/// snapshot file stores and a warm restart installs.  Everything else the
/// session may build (the reverse dependency index, the condensation, the
/// LOCAL masks) is derivable from the program in linear integer time, far
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
/// Query methods first apply pending invalidation, then solve exactly the
/// uncovered region the query depends on.  A returned reference stays
/// valid until the next non-const call on the session: any query may
/// allocate plane rows or install a batch solve, either of which moves
/// the planes.  Copy a result that must outlive the next call.
class DemandSession {
public:
  explicit DemandSession(ir::Program Initial,
                         DemandOptions Options = DemandOptions());

  /// Warm-restart constructor: installs previously exported planes (from
  /// exportPlanes() over an identical program with the same TrackUse
  /// setting) as fully-memoized state; every procedure starts Solved and
  /// the first query after any replayed edits re-solves only the
  /// invalidated region.  Dimensions are asserted; semantic validity is
  /// the caller's contract (the persist layer checksums files and
  /// cross-checks the derived graphs).
  DemandSession(ir::Program Initial, DemandOptions Options,
                SessionPlanes Planes);

  /// The current program.  Ids obtained from it are valid until the next
  /// removal edit (see ir::ProgramEditor's id-stability rules).
  const ir::Program &program() const { return P; }
  /// Monotone edit counter.
  std::uint64_t generation() const { return Generation; }
  const DemandStats &stats() const { return Stats; }
  const DemandOptions &options() const { return Opts; }

  /// \name Deltas
  /// Each applies the program edit, records invalidation dirt, and returns
  /// immediately; invalidation and re-solving run at the next query.
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

  /// Solves (at most) the region the listed procedures depend on; after it
  /// returns every listed procedure is covered for \p Kind.
  void ensureSolved(std::span<const ir::ProcId> Procs,
                    analysis::EffectKind Kind);

  /// Covers every procedure for every tracked kind — one batch solve the
  /// first time, the invalidated region after edits, O(1) when already
  /// covered.  A sweep, not a query: it counts no Queries or MemoHits.
  void ensureSolvedAll();

  /// True iff \p Proc's results are memoized (pending edits considered).
  bool covered(ir::ProcId Proc, analysis::EffectKind Kind);

  /// Number of covered procedures for \p Kind (pending edits considered).
  std::size_t coveredCount(analysis::EffectKind Kind);

  /// \name Queries (solve their region on demand)
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

  /// \name Whole-program export hooks
  /// These cover everything first (ensureSolvedAll) — the persistence and
  /// report paths.
  /// @{
  const analysis::GModResult &gmodResult(analysis::EffectKind Kind);
  SessionPlanes exportPlanes();
  /// @}

  /// \name Plane peeks
  /// Flush pending invalidation but solve nothing: the planes as they are,
  /// with un-Solved entries holding stale/empty bits, and the Solved flags
  /// that say which entries are final.  service::AnalysisSnapshot::capture
  /// copies all three and checks a procedure's flag at every read of its
  /// entries.  peekGModResult copies the planes into procedure order;
  /// un-Solved entries may be empty.
  /// @{
  analysis::GModResult peekGModResult(analysis::EffectKind Kind);
  const EffectSet &peekRModBits(analysis::EffectKind Kind);
  std::vector<char> coveredFlags(analysis::EffectKind Kind);
  /// @}

private:
  /// Resident per-effect-kind pipeline state.  The plane vectors are
  /// indexed by row (see RowOf), not by procedure.
  struct KindState {
    analysis::EffectKind Kind = analysis::EffectKind::Mod;
    /// Own/Ext IMOD rows; valid iff Ready[p].
    std::vector<EffectSet> Own, Ext;
    /// Per-var β-input bits; bit of formal f valid iff Ready[owner(f)].
    EffectSet FormalBits;
    /// Per-var Figure-1 RMOD outputs; bit of f valid iff Solved[owner(f)].
    EffectSet RModBits;
    /// IMOD+ / GMOD rows; valid iff Solved[p].
    std::vector<EffectSet> IModPlus;
    analysis::GModResult GMod;
    /// Local effects computed and FormalBits synced for p (and, by
    /// construction, for p's lexical descendants).  Indexed by procedure.
    std::vector<char> Ready;
    /// All planes of p final; implies every dependency successor Solved.
    /// Indexed by procedure.
    std::vector<char> Solved;
    /// Number of set Solved flags.
    std::size_t NumSolved = 0;
  };

  KindState &state(analysis::EffectKind Kind);

  // Edit bookkeeping.
  void bump();
  void markEffectDirty(analysis::EffectKind Kind, ir::ProcId Proc);
  void markCallDelta(const ir::CallSite &Site);
  void markUniverseDirty();

  // Structure (linear integer work, no fixed points).
  void rebuildVarStructure();
  const EffectSet &localMask(ir::ProcId Proc);
  void initKindStates();
  void fullReset();
  /// The reverse dependency relation, built on first use after open or a
  /// call-structure delta.  Call edges come first, so an edge id below
  /// numCallSites() is the call site the edge reverses.
  const graph::Digraph &revDeps();

  // Plane rows.
  /// \p Proc's row, allocated on first use.  A row table grows to cover
  /// the row when its kind (or the LOCAL masks) first write it.
  std::uint32_t rowOf(std::uint32_t Proc);
  /// \p Proc's row, which must exist.
  std::uint32_t row(std::uint32_t Proc) const {
    assert(RowOf[Proc] != NoRow && "procedure holds no plane row");
    return RowOf[Proc];
  }
  /// Gives every procedure a row and lays the rows out in procedure order.
  void placeRowsInProcOrder();
  /// Restores the layout invariant after rows were allocated: once every
  /// procedure holds a row, row p belongs to procedure p.
  void settleRows() {
    if (NumRows == P.numProcs())
      placeRowsInProcOrder();
  }

  // Invalidation.
  void flushDirt();
  void unsolveClosure(KindState &K, std::uint32_t Root);
  void makeEffectReady(KindState &K, std::uint32_t Proc);
  /// Applies \p K's effect deltas; procedures whose IMOD+ moved without
  /// moving RMOD join \p Seeds for the GMOD-only re-solve.
  void applyEffectDelta(KindState &K, const std::vector<std::uint32_t> &Dirty,
                        std::vector<std::uint32_t> &Seeds);
  /// Re-solves GMOD in place from \p Seeds (Solved procedures whose IMOD+
  /// or call edges changed), callees first over the call graph's
  /// condensation, climbing callers only while a recomputed value differs.
  void resolveGMod(KindState &K, const std::vector<std::uint32_t> &Seeds);
  /// Equation (4) over one call-graph component: leaves GMOD(Members[J])
  /// in Vals[J], reading every callee outside the component from K's
  /// GMOD plane as final.
  void solveComponentGMod(KindState &K,
                          std::span<const std::uint32_t> Members,
                          std::vector<EffectSet> &Vals);

  // Region solving.
  /// Counts one query and its memo hits; returns how many of \p Procs
  /// are uncovered.
  std::size_t noteQuery(KindState &K, std::span<const ir::ProcId> Procs);
  /// Counts one region solve of \p Size procedures.
  void noteRegion(std::size_t Size);
  /// Collects the uncovered region \p Procs depend on (epoch-stamped;
  /// solveRegion must follow before the next epoch).
  void collectRegion(KindState &K, std::span<const ir::ProcId> Procs,
                     std::vector<std::uint32_t> &Region);
  bool batchWorthy(std::size_t RegionSize) const {
    return RegionSize * BatchRegionDen >= P.numProcs() * BatchRegionNum;
  }
  void solveRegion(KindState &K, const std::vector<std::uint32_t> &Region);
  void solveRegionRMod(KindState &K,
                       const std::vector<std::uint32_t> &Region);
  void solveRegionGMod(KindState &K,
                       const std::vector<std::uint32_t> &Region);
  /// The batch ceiling: runs the batch pass pipeline over the whole
  /// program for each of \p Kinds and installs every plane as Solved.
  void solveBatch(std::span<KindState *const> Kinds);
  /// A kind's GMOD rows and LOCAL masks as analysis/DMod reads them.
  class Callees;
  /// Solves \p S's callees in \p Kind, then projects DMOD(s), or MOD(s)
  /// under \p Aliases.
  EffectSet effectOfStmt(analysis::EffectKind Kind, ir::StmtId S,
                         const ir::AliasInfo *Aliases);

  static constexpr std::uint32_t NoRow = ~std::uint32_t(0);

  ir::Program P;
  DemandOptions Opts;
  DemandStats Stats;
  std::uint64_t Generation = 0;
  std::uint64_t CleanGeneration = 0;

  // Resident shared structure.
  /// Below[L]: variables declared at levels < L (the §4 edge filter).
  std::vector<EffectSet> Below;
  /// RowOf[p]: p's plane row, NoRow until p is first made Ready.  Rows
  /// are in procedure order whenever NumRows == numProcs().
  std::vector<std::uint32_t> RowOf;
  std::uint32_t NumRows = 0;
  /// LOCAL(p) masks by row, built lazily per procedure.  Like every row
  /// table, it may end before the last row.
  std::vector<EffectSet> LocalMasks;
  std::vector<char> LocalMaskReady;
  std::optional<graph::Digraph> RevDeps;
  /// The call graph's condensation (component ids reverse-topological),
  /// built by the first GMOD-only re-solve after a call delta.
  graph::Condensation Cond;
  bool CondValid = false;
  std::vector<KindState> States;

  // Dirty state, consumed by flushDirt().
  bool UniverseDirty = false;
  bool CallStructureDirty = false;
  std::vector<std::uint32_t> DirtyEffectProcs[2]; ///< Indexed by kind.
  std::vector<char> DirtyEffectFlag[2];
  /// Callers whose call deltas left β alone (GMOD-only) / touched it.
  std::vector<std::uint32_t> CallDirtyProcs, BetaDirtyProcs;
  std::vector<char> CallDirtyFlag, BetaDirtyFlag;

  // Epoch-stamped scratch so per-query and per-edit work is O(region) or
  // O(dirt), not O(program).
  std::uint32_t Epoch = 0;
  std::vector<std::uint32_t> ProcStamp, ProcSlot;
  /// Condensation components queued by resolveGMod.
  std::vector<std::uint32_t> CompStamp;
  void nextEpoch();
  // Scratch reused by solveComponentGMod: per-proc slot of the component
  // being solved (NoSlot elsewhere) and its intra-component edges.
  std::vector<std::uint32_t> MemberSlot;
  struct IntraEdge {
    std::uint32_t FromSlot;
    std::uint32_t ToSlot;
    unsigned CalleeLevel;
  };
  std::vector<IntraEdge> Intra;
  std::vector<EffectSet> MemberVals;
};

/// Applies \p E to \p Session — the one dispatch Edit streams (WAL replay,
/// EditGen, resolved script commands) drive the engine through.
void applyEdit(DemandSession &Session, const incremental::Edit &E);

/// One effect kind of a session behind the batch analyzers' const query
/// surface — gmod and rmodContains, all analysis::renderReport needs — so
/// a report renders through the same code on either engine.  The report
/// sweeps every procedure, so its first query already takes the batch
/// path.
class KindView {
public:
  KindView(DemandSession &S, analysis::EffectKind Kind) : S(S), Kind(Kind) {}
  const EffectSet &gmod(ir::ProcId Proc) const { return S.gmod(Proc, Kind); }
  bool rmodContains(ir::VarId F) const { return S.rmodContains(F, Kind); }

private:
  DemandSession &S;
  analysis::EffectKind Kind;
};

} // namespace demand
} // namespace ipse

#endif // IPSE_DEMAND_DEMANDSESSION_H
