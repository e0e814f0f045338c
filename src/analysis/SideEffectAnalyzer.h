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
/// time linear in the pair counts.  The same pipeline solves USE when
/// constructed with EffectKind::Use.
///
/// The RMOD, IMOD+ and GMOD passes run through one dispatch (solvePasses),
/// shared with the demand engine's batch ceiling, on the calling thread.
/// It picks the GMOD kernel from the program alone (chooseKernel): the
/// condensation kernel (analysis/LevelSolvers.h) when some call-graph
/// condensation level is wide, the reference solvers otherwise.  On a
/// wide program the per-component GMOD kernel beats findgmod; on a deep
/// or narrow one it loses, since the per-component bookkeeping then buys
/// nothing.
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
#include "ir/AliasInfo.h"
#include "ir/Printer.h"
#include "ir/Program.h"
#include "observe/Trace.h"
#include "support/EffectSet.h"

#include <memory>
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

/// The kernel for \p P, from the program alone: Condensation when some
/// level of \p CG's condensation is wide (isWideLevel, one effect universe
/// of words per component), Reference otherwise.  O(N + E).
PassKernel chooseKernel(const ir::Program &P, const graph::CallGraph &CG);

/// RMOD, IMOD+ and GMOD of one effect kind.
struct PassResults {
  RModResult RMod;
  std::vector<EffectSet> IModPlus;
  GModResult GMod;
};

/// The one dispatch for the paper's three passes, each under its span
/// ("rmod", "imodplus", "gmod"): solveRModOnBits, computeIModPlus, then
/// the GMOD kernel \p Kernel.  \p FormalBits is the IMOD bit of every
/// formal (formalBits(P, Local)).  The Reference kernel runs \p Algorithm
/// (Auto: findgmod for two-level programs, the combined §4 algorithm
/// otherwise).
PassResults solvePasses(const ir::Program &P, const graph::CallGraph &CG,
                        const graph::BindingGraph &BG, const VarMasks &Masks,
                        const LocalEffects &Local, const EffectSet &FormalBits,
                        PassKernel Kernel,
                        AnalyzerOptions::GModAlgorithm Algorithm =
                            AnalyzerOptions::GModAlgorithm::Auto);

/// Runs the pipeline at construction; every query afterwards is cheap.
/// The analyzed Program must outlive the analyzer.
class SideEffectAnalyzer {
public:
  /// Naming a GMOD algorithm in \p Options pins the reference kernel.
  explicit SideEffectAnalyzer(const ir::Program &P,
                              AnalyzerOptions Options = AnalyzerOptions());

  const ir::Program &program() const { return P; }
  EffectKind kind() const { return Options.Kind; }

  /// The kernel the passes ran on.
  PassKernel kernel() const { return Kernel; }

  /// GMOD(p) (or GUSE(p)): every variable an invocation of p may modify
  /// (use).
  const EffectSet &gmod(ir::ProcId Proc) const { return GMod.of(Proc); }

  /// True iff formal \p F is in RMOD of its owner.
  bool rmodContains(ir::VarId F) const { return RMod.contains(F); }

  /// IMOD+(p) (equation 5).
  const EffectSet &imodPlus(ir::ProcId Proc) const {
    return IModPlus[Proc.index()];
  }

  /// The nesting-extended IMOD(p).
  const EffectSet &imod(ir::ProcId Proc) const {
    return Local->extended(Proc);
  }

  /// DMOD(s) (equation 2).
  EffectSet dmod(ir::StmtId S) const { return dmodOfStmt(P, Masks, GMod, S); }

  /// be(GMOD(q)) for one call site.
  EffectSet dmod(ir::CallSiteId C) const {
    return projectCallSite(P, Masks, GMod, C);
  }

  /// MOD(s) under the given alias pairs (§5).
  EffectSet mod(ir::StmtId S, const ir::AliasInfo &Aliases) const {
    return modOfStmt(P, Masks, GMod, Aliases, S);
  }

  /// Renders a variable set as sorted "a, p.b, ..." text (for examples and
  /// debugging).
  std::string setToString(const EffectSet &Set) const {
    return ir::setToString(P, Set);
  }

  /// Shared building blocks, exposed for tests and benchmarks.
  const VarMasks &masks() const { return Masks; }
  const graph::CallGraph &callGraph() const { return CG; }
  const graph::BindingGraph &bindingGraph() const { return BG; }
  const GModResult &gmodResult() const { return GMod; }
  const RModResult &rmodResult() const { return RMod; }

private:
  const ir::Program &P;
  AnalyzerOptions Options;
  // Declared before the graphs so the "graphs" span covers their
  // member-initializer construction; closed at the top of the ctor body.
  observe::ManualSpan GraphsSpan{"graphs"};
  VarMasks Masks;
  graph::CallGraph CG;
  graph::BindingGraph BG;
  std::unique_ptr<LocalEffects> Local;
  PassKernel Kernel = PassKernel::Reference;
  RModResult RMod;
  std::vector<EffectSet> IModPlus;
  GModResult GMod;
};

} // namespace analysis
} // namespace ipse

#endif // IPSE_ANALYSIS_SIDEEFFECTANALYZER_H
