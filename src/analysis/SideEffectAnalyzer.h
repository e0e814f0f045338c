//===- analysis/SideEffectAnalyzer.h - The §5 pipeline ----------*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library's batch analyzer: runs the whole Cooper–Kennedy pipeline
/// on a program —
///
///   LMOD/IMOD (§2, §3.3)  →  β + RMOD (§3, Figure 1)  →  IMOD+ (eq. 5)
///   →  GMOD (findgmod, Figure 2, or the §4 multi-level algorithm)
///   →  DMOD / MOD per statement and call site (eq. 2, §5)
///
/// and answers queries.  In the absence of aliasing the whole computation
/// is O(N (E + N)) as §5 states; with alias pairs supplied, MOD queries add
/// time linear in the pair counts.  USE mirrors every step.
///
/// Built once per program (ProgramShape): the masks, the call graph C, β,
/// the SCCs of both and the GMOD kernel.  Built per kind: LocalEffects,
/// then RMOD, IMOD+ and GMOD through one dispatch (solvePasses) on the
/// calling thread.  BatchAnalysis solves both kinds over one shape.  The
/// kernel is the condensation kernel (analysis/LevelSolvers.h) when some
/// level of C's condensation is wide, the reference solvers otherwise: on
/// a deep or narrow program its per-component bookkeeping buys nothing.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_ANALYSIS_SIDEEFFECTANALYZER_H
#define IPSE_ANALYSIS_SIDEEFFECTANALYZER_H

#include "analysis/DMod.h"
#include "analysis/EffectKind.h"
#include "analysis/GMod.h"
#include "analysis/IModPlus.h"
#include "analysis/LocalEffects.h"
#include "analysis/RMod.h"
#include "analysis/VarMasks.h"
#include "graph/BindingGraph.h"
#include "graph/CallGraph.h"
#include "graph/Tarjan.h"
#include "ir/AliasInfo.h"
#include "ir/Printer.h"
#include "ir/Program.h"
#include "observe/Trace.h"
#include "support/EffectSet.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace ipse {
namespace analysis {

/// Tuning knobs for the analyzer.
struct AnalyzerOptions {
  EffectKind Kind = EffectKind::Mod;

  /// Which GMOD algorithm to run.
  enum class GModAlgorithm {
    Auto,               ///< findgmod for two-level programs, else combined.
    FindGMod,           ///< Figure 2 (requires a two-level program).
    MultiLevelRepeated, ///< §4, one pass per nesting level.
    MultiLevelCombined  ///< §4, single DFS with lowlink vectors.
  };
  GModAlgorithm Algorithm = GModAlgorithm::Auto;
};

/// Which implementation runs the GMOD pass (RMOD and IMOD+ have one).
enum class PassKernel {
  Reference,   ///< findgmod / §4.
  Condensation ///< solveGModLevels.
};

/// What the passes read that depends on the program alone, not on the
/// effect kind, built under the "graphs" span.  The program must outlive it.
class ProgramShape {
  observe::ManualSpan GraphsSpan{"graphs"}; ///< First: spans the members.

public:
  explicit ProgramShape(const ir::Program &P);

  const ir::Program &P;
  const VarMasks Masks;
  const graph::CallGraph CG;
  const graph::BindingGraph BG;
  /// The SCCs of C and of β (Figure 1, step (1)), in reverse topological
  /// order (graph/Tarjan.h).
  const graph::SccDecomposition CallSccs, BindingSccs;
  /// Condensation iff some level of C's condensation is wide (isWideLevel,
  /// one effect universe of words per component).
  const PassKernel Kernel;
};

/// RMOD, IMOD+ and GMOD of one effect kind.
struct PassResults {
  RModResult RMod;
  std::vector<EffectSet> IModPlus;
  GModResult GMod;
};

/// The one dispatch for the paper's three passes over \p Shape, each under
/// its span ("rmod", "imodplus", "gmod"): solveRModOnBits, computeIModPlus,
/// then the GMOD kernel \p Kernel.  \p FormalBits is the IMOD bit of
/// every formal (formalBits(P, Local)).  The Reference kernel runs
/// \p Algorithm (Auto: findgmod for two-level programs, the combined §4
/// algorithm otherwise).
PassResults solvePasses(const ProgramShape &Shape, const LocalEffects &Local,
                        const EffectSet &FormalBits, PassKernel Kernel,
                        AnalyzerOptions::GModAlgorithm Algorithm =
                            AnalyzerOptions::GModAlgorithm::Auto);

/// Runs one kind's passes at construction; every query afterwards is
/// cheap.  The analyzed Program must outlive the analyzer.  Naming a GMOD
/// algorithm in the options pins the reference kernel.
class SideEffectAnalyzer {
public:
  /// Over a ProgramShape of its own.
  explicit SideEffectAnalyzer(const ir::Program &P,
                              AnalyzerOptions Options = AnalyzerOptions());
  /// Over \p Shape, which must outlive the analyzer.
  explicit SideEffectAnalyzer(const ProgramShape &Shape,
                              AnalyzerOptions Options = AnalyzerOptions());

  const ir::Program &program() const { return Shape.P; }
  EffectKind kind() const { return Options.Kind; }

  /// The kernel the passes ran on.
  PassKernel kernel() const { return Kernel; }

  /// GMOD(p) (or GUSE(p)): every variable an invocation of p may modify
  /// (use).
  const EffectSet &gmod(ir::ProcId Proc) const { return Passes.GMod.of(Proc); }

  /// True iff formal \p F is in RMOD of its owner.
  bool rmodContains(ir::VarId F) const { return Passes.RMod.contains(F); }

  /// IMOD+(p) (equation 5).
  const EffectSet &imodPlus(ir::ProcId Proc) const {
    return Passes.IModPlus[Proc.index()];
  }

  /// The nesting-extended IMOD(p).
  const EffectSet &imod(ir::ProcId Proc) const {
    return Local->extended(Proc);
  }

  /// DMOD(s) (equation 2).
  EffectSet dmod(ir::StmtId S) const {
    return dmodOfStmt(Shape.P, MaskedCallees(Shape.Masks, Passes.GMod), S);
  }

  /// be(GMOD(q)) for one call site.
  EffectSet dmod(ir::CallSiteId C) const {
    return projectCallSite(Shape.P, MaskedCallees(Shape.Masks, Passes.GMod),
                           C);
  }

  /// MOD(s) under the given alias pairs (§5).
  EffectSet mod(ir::StmtId S, const ir::AliasInfo &Aliases) const {
    return modOfStmt(Shape.P, Shape.Masks, Passes.GMod, Aliases, S);
  }

  /// Renders a variable set as sorted "a, p.b, ..." text (for examples and
  /// debugging).
  std::string setToString(const EffectSet &Set) const {
    return ir::setToString(Shape.P, Set);
  }

  /// Shared building blocks, exposed for tests and benchmarks.
  const VarMasks &masks() const { return Shape.Masks; }
  const graph::CallGraph &callGraph() const { return Shape.CG; }
  const graph::BindingGraph &bindingGraph() const { return Shape.BG; }
  const GModResult &gmodResult() const { return Passes.GMod; }
  const RModResult &rmodResult() const { return Passes.RMod; }

private:
  void solve();

  std::unique_ptr<const ProgramShape> OwnShape; ///< Null when shared.
  const ProgramShape &Shape;
  AnalyzerOptions Options;
  std::unique_ptr<LocalEffects> Local;
  PassKernel Kernel = PassKernel::Reference;
  PassResults Passes;
};

/// MOD and, when asked, USE over one ProgramShape.  The program must
/// outlive it.
struct BatchAnalysis {
  BatchAnalysis(const ir::Program &P, bool WithUse,
                AnalyzerOptions::GModAlgorithm Algorithm =
                    AnalyzerOptions::GModAlgorithm::Auto);
  BatchAnalysis(const BatchAnalysis &) = delete; ///< Mod and Use see Shape.

  const SideEffectAnalyzer &of(EffectKind Kind) const {
    return Kind == EffectKind::Mod ? Mod : *Use;
  }

  const ProgramShape Shape;
  const SideEffectAnalyzer Mod;
  std::optional<SideEffectAnalyzer> Use;
};

} // namespace analysis
} // namespace ipse

#endif // IPSE_ANALYSIS_SIDEEFFECTANALYZER_H
