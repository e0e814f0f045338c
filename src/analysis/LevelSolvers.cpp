//===- analysis/LevelSolvers.cpp - Condensation-level kernels ------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "analysis/LevelSolvers.h"

#include "analysis/IModPlus.h"
#include "graph/LevelSchedule.h"

#include <algorithm>
#include <cassert>
#include <functional>

using namespace ipse;
using namespace ipse::analysis;
using namespace ipse::graph;

namespace {

bool hasLanes(const ThreadPool *Pool) { return Pool && Pool->threads() > 1; }

/// Runs Task(I) for every I in [0, Width): across \p Pool when it has
/// lanes to spare and the level clears the fan-out bar, inline on this
/// thread otherwise.  Both paths run the same tasks, so the choice is
/// invisible in answers and word-op counts.  Returns whether the level
/// fanned out.
template <class TaskFn>
bool runLevel(ThreadPool *Pool, std::size_t Width, std::size_t WordsPerTask,
              std::size_t MinWords, const TaskFn &Task) {
  if (hasLanes(Pool) && isWideLevel(Width, WordsPerTask, MinWords)) {
    Pool->parallelFor(Width, Task);
    return true;
  }
  for (std::size_t I = 0; I != Width; ++I)
    Task(I);
  return false;
}

/// Runs Kernel(C) for every component of \p Sccs (a decomposition of
/// \p G), callees before callers.  With lanes to spare the components run
/// level by level, a wide level fanning out; otherwise they run in
/// ascending id order — reverse-topological as well (graph/Tarjan.h), and
/// depth-first, so a callee's result is usually still in cache when its
/// callers read it.  The same kernels run either way.
template <class KernelFn>
void runComponents(const Digraph &G, const SccDecomposition &Sccs,
                   ThreadPool *Pool, std::size_t WordsPerTask,
                   std::size_t MinWords, LevelStats *Stats,
                   const KernelFn &Kernel) {
  if (!hasLanes(Pool) && !Stats) {
    for (std::uint32_t C = 0; C != Sccs.numSccs(); ++C)
      Kernel(C);
    return;
  }
  LevelSchedule Levels = computeLevelSchedule(G, Sccs);
  if (Stats) {
    Stats->Levels = Levels.numLevels();
    Stats->WidestLevel = 0;
    Stats->FanoutLevels = 0;
  }
  for (std::size_t L = 0; L != Levels.numLevels(); ++L) {
    const std::vector<std::uint32_t> &Bucket = Levels.level(L);
    const bool FannedOut =
        runLevel(Pool, Bucket.size(), WordsPerTask, MinWords,
                 [&](std::size_t I) { Kernel(Bucket[I]); });
    if (Stats) {
      Stats->WidestLevel = std::max(Stats->WidestLevel, Bucket.size());
      Stats->FanoutLevels += FannedOut;
    }
  }
}

} // namespace

RModResult analysis::solveRModLevels(const ir::Program &P,
                                     const graph::BindingGraph &BG,
                                     const EffectSet &FormalBits,
                                     ThreadPool *Pool, std::size_t MinWords) {
  assert(FormalBits.size() == P.numVars() && "formal bits over wrong universe");

  RModResult Result;
  Result.ModifiedFormals = EffectSet(P.numVars());
  std::uint64_t Steps = 0;

  // Seeding and copy-back touch the shared ModifiedFormals vector, whose
  // formals share words, so both stay sequential; they are O(formals) and
  // O(Nβ) respectively.  Only the equation-(6) sweep is parallelized.
  for (std::uint32_t I = 0; I != P.numProcs(); ++I)
    for (ir::VarId F : P.proc(ir::ProcId(I)).Formals) {
      ++Steps;
      if (FormalBits.test(F.index()))
        Result.ModifiedFormals.set(F.index());
    }

  const Digraph &G = BG.graph();
  SccDecomposition Sccs = computeSccs(G);

  // One value slot and one step counter per component; a component's task
  // writes only its own entries (distinct memory locations) and reads only
  // values finalized at earlier levels, so the level barrier is the only
  // synchronization.  Intra-component successor reads see the slot's
  // initial 0 — exactly what the sequential sweep sees.
  std::vector<char> SccRMod(Sccs.numSccs(), 0);
  std::vector<std::uint64_t> CompSteps(Sccs.numSccs(), 0);

  // The sequential per-component kernel from analysis/RMod.cpp, verbatim —
  // including the early exit, so the per-component step count (and
  // therefore the total) matches solveRModOnBits exactly.
  auto Kernel = [&](std::uint32_t C) {
    std::uint64_t S = 0;
    char Value = 0;
    for (NodeId N : Sccs.Members[C]) {
      ++S;
      Value |= FormalBits.test(BG.formal(N).index()) ? 1 : 0;
      for (const Adjacency &A : G.succs(N)) {
        ++S;
        Value |= SccRMod[Sccs.SccOf[A.Dst]];
      }
      if (Value)
        break;
    }
    SccRMod[C] = Value;
    CompSteps[C] = S;
  };

  // One boolean word per component: only genuinely wide levels clear the
  // fan-out bar.
  runComponents(G, Sccs, Pool, 1, MinWords, nullptr, Kernel);

  for (std::uint32_t C = 0; C != Sccs.numSccs(); ++C)
    Steps += CompSteps[C];
  for (std::uint32_t C = 0; C != Sccs.numSccs(); ++C) {
    if (!SccRMod[C])
      continue;
    for (NodeId N : Sccs.Members[C]) {
      ++Steps;
      Result.ModifiedFormals.set(BG.formal(N).index());
    }
  }

  Result.BooleanSteps = Steps;
  return Result;
}

std::vector<EffectSet>
analysis::computeIModPlusLevels(const ir::Program &P, const LocalEffects &Local,
                                const EffectSet &RModBits, ThreadPool *Pool,
                                std::size_t MinWords) {
  std::vector<EffectSet> Result(P.numProcs());
  // One task per procedure, one effect universe of words each.
  runLevel(Pool, P.numProcs(), EffectSet(P.numVars()).wordCount(), MinWords,
           [&](std::size_t I) {
             const ir::ProcId Proc(static_cast<std::uint32_t>(I));
             Result[I] = computeIModPlusFor(P, Local.extended(Proc), RModBits,
                                            Proc);
           });
  return Result;
}

GModResult analysis::solveGModLevels(const ir::Program &P,
                                     const graph::CallGraph &CG,
                                     const VarMasks &Masks,
                                     const std::vector<EffectSet> &IModPlus,
                                     ThreadPool *Pool, LevelStats *Stats,
                                     std::size_t MinWords) {
  const unsigned DP = P.maxProcLevel();
  const Digraph &G = CG.graph();
  SccDecomposition Sccs = computeSccs(G);

  const std::size_t V = P.numVars();

  // Below[L] = variables declared at nesting levels < L: the §4 filter for
  // an edge whose callee sits at level L (only those variables survive the
  // return).  For two-level programs Below[1] is exactly GLOBAL, making
  // this the Figure 2 filter.  Dense whatever the set policy: every fold
  // filters through one, and a dense filter keeps dense folds on the SIMD
  // kernels (a sparse one sends them down the word-cursor loop).
  std::vector<EffectSet> Below(
      DP + 1, EffectSet(V, EffectSet::Representation::Dense));
  for (unsigned L = 1; L <= DP; ++L) {
    Below[L] = Below[L - 1];
    Below[L].orWith(Masks.level(L - 1));
  }

  GModResult Result;
  Result.GMod.resize(P.numProcs());

  struct IntraEdge {
    std::uint32_t From; ///< Caller procedure index.
    std::uint32_t To;   ///< Callee procedure index (same component).
    unsigned CalleeLevel;
  };

  // Flat per-procedure nesting levels: the per-edge filter choice becomes
  // one array load instead of a Program::proc chase.
  std::vector<unsigned> ProcLevel(P.numProcs());
  for (std::uint32_t I = 0; I != P.numProcs(); ++I)
    ProcLevel[I] = P.proc(ir::ProcId(I)).Level;

  auto Kernel = [&](std::uint32_t C) {
    const std::vector<NodeId> &Members = Sccs.Members[C];

    // Init members from IMOD+ and fold cross edges: callee components sit
    // at lower levels and are final (level barrier), and this task owns
    // every member's GMOD vector, so the writes are unshared.
    std::vector<IntraEdge> Intra;
    bool Uniform = true;
    unsigned UniformLevel = 0;
    for (NodeId M : Members)
      Result.GMod[M] = IModPlus[M];
    for (NodeId M : Members) {
      // One adjacency per call site (C is a multi-graph), in call-site
      // order — the same edges and order the sequential solvers walk.
      for (const Adjacency &A : G.succs(M)) {
        const std::uint32_t Q = A.Dst;
        const unsigned Level = ProcLevel[Q];
        if (Sccs.SccOf[Q] == C) {
          if (Intra.empty())
            UniformLevel = Level;
          else
            Uniform &= Level == UniformLevel;
          Intra.push_back({M, Q, Level});
        } else {
          Result.GMod[M].orWithIntersect(Result.GMod[Q], Below[Level]);
        }
      }
    }
    if (Intra.empty())
      return;

    if (Uniform) {
      // Representative fast path (the paper's SCC collapse): when every
      // intra edge carries the same filter F = Below[UniformLevel], the
      // fixed point is Val[m] = Init[m] ∪ (∪_n Init[n] ∩ F) for every
      // member — strong connectivity routes each member's filtered
      // contribution to all others, and F∘F = F closes the loop.  Two
      // linear sweeps instead of an O(diameter)-round iteration, which
      // is what keeps a single giant SCC from serializing the solve.
      // Rep collects only filtered bits, so it stays as small (and as
      // sparse) as what it hands every member.
      EffectSet Rep(V);
      for (NodeId M : Members)
        Rep.orWithIntersect(Result.GMod[M], Below[UniformLevel]);
      for (NodeId M : Members)
        Result.GMod[M].orWith(Rep);
      return;
    }

    // Mixed callee levels inside one component (possible only with
    // nesting, e.g. a recursion cycle through different levels): iterate
    // the per-edge updates to the local fixed point, Gauss–Seidel style.
    // Deterministic: fixed edge order over this task's own vectors.
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (const IntraEdge &E : Intra)
        Changed |= Result.GMod[E.From].orWithIntersect(Result.GMod[E.To],
                                                       Below[E.CalleeLevel]);
    }
  };

  // A GMOD task streams whole effect-set words; width x universe words is
  // the level's estimated word work.
  runComponents(G, Sccs, Pool, EffectSet(V).wordCount(), MinWords, Stats,
                Kernel);
  return Result;
}
