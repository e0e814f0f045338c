//===- service/AnalysisSnapshot.h - Immutable analysis results --*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One immutable, self-contained copy of a demand session's solution: the
/// program as of some session generation, the per-effect-kind GMOD planes
/// and RMOD bits, and the per-procedure coverage flags that say which
/// plane entries were final when the copy was taken.  The service
/// publishes a new snapshot after each committed edit batch (a shared_ptr
/// swap) and readers answer every query from whichever snapshot they
/// pinned — MVCC in miniature: readers never block writers, writers never
/// tear readers, and a pinned snapshot stays valid for as long as the pin
/// is held, regardless of how many generations the writer publishes
/// meanwhile.
///
/// There is one form.  A session solved everywhere (ensureSolvedAll)
/// yields a snapshot that covers every procedure; otherwise it covers the
/// procedures the session's queries have solved.  Each accessor checks,
/// at the read, the flag of every procedure whose plane it reads and
/// throws UncoveredRead on a miss, so no reader ever sees a stale or
/// empty entry.  Coverage is sound per procedure: Solved(p) implies every
/// procedure p's answers depend on is Solved too.
///
/// Self-containment is the invariant that makes the concurrency story
/// trivial: a snapshot holds copies, not references into the session, so
/// nothing a reader touches is ever written again.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_SERVICE_ANALYSISSNAPSHOT_H
#define IPSE_SERVICE_ANALYSISSNAPSHOT_H

#include "analysis/EffectKind.h"
#include "analysis/GMod.h"
#include "ir/Program.h"
#include "service/ScriptDriver.h"
#include "support/EffectSet.h"

#include <memory>

namespace ipse {
namespace service {

/// Thrown by a snapshot read of a plane entry whose procedure was not
/// solved when the snapshot was taken.  The tenant service's inline read
/// path catches it and hands the query to the tenant's writer shard,
/// which solves the missing region and republishes.
struct UncoveredRead {};

class AnalysisSnapshot final : public QueryTarget {
public:
  /// Copies \p Session's program, planes and coverage flags as they
  /// stand; solves nothing (pending edits are applied as invalidation).
  /// Call Session.ensureSolvedAll() first for a snapshot that covers
  /// every procedure.  \p Generation is the session generation the copy
  /// reflects.
  static std::shared_ptr<const AnalysisSnapshot>
  capture(demand::DemandSession &Session, std::uint64_t Generation);

  std::uint64_t generation() const { return Gen; }

  /// The program state this snapshot was computed from.
  const ir::Program &program() const override { return P; }

  const EffectSet &gmod(ir::ProcId Proc) const override {
    return plane(Proc, analysis::EffectKind::Mod);
  }
  const EffectSet &guse(ir::ProcId Proc) const override {
    assert(HasUse && "guse on a snapshot without a USE pipeline");
    return plane(Proc, analysis::EffectKind::Use);
  }
  bool rmodContains(ir::VarId Formal,
                    analysis::EffectKind Kind) const override;
  EffectSet modNoAlias(ir::StmtId S) const override;
  EffectSet useNoAlias(ir::StmtId S) const override;
  EffectSet dmodSite(ir::CallSiteId C) const override;

  bool tracksUse() const override { return HasUse; }

  /// True when \p Proc's plane entries were final in \p Kind.
  bool covered(ir::ProcId Proc, analysis::EffectKind Kind) const {
    const std::vector<char> &C =
        Kind == analysis::EffectKind::Mod ? ModCovered : UseCovered;
    return Proc.index() < C.size() && C[Proc.index()];
  }

private:
  class Callees;

  AnalysisSnapshot() = default;

  /// GMOD(Proc) in \p Kind; throws UncoveredRead unless covered.
  const EffectSet &plane(ir::ProcId Proc, analysis::EffectKind Kind) const;

  std::uint64_t Gen = 0;
  ir::Program P;
  analysis::GModResult ModResult, UseResult;
  EffectSet ModRMod, UseRMod;
  bool HasUse = false;
  std::vector<char> ModCovered, UseCovered;
};

} // namespace service
} // namespace ipse

#endif // IPSE_SERVICE_ANALYSISSNAPSHOT_H
