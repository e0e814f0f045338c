//===- service/AnalysisSnapshot.cpp - Immutable analysis results --------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "service/AnalysisSnapshot.h"

#include "analysis/DMod.h"
#include "demand/DemandSession.h"

using namespace ipse;
using namespace ipse::service;
using analysis::EffectKind;

std::shared_ptr<const AnalysisSnapshot>
AnalysisSnapshot::capture(demand::DemandSession &Session,
                          std::uint64_t Generation) {
  // No make_shared: the constructor is private and capture is the only
  // producer.  The session is not edited concurrently (capture runs on
  // its tenant's writer shard).
  std::shared_ptr<AnalysisSnapshot> S(new AnalysisSnapshot());
  S->Gen = Generation;
  S->P = Session.program();
  S->ModResult = Session.peekGModResult(EffectKind::Mod);
  S->ModRMod = Session.peekRModBits(EffectKind::Mod);
  S->ModCovered = Session.coveredFlags(EffectKind::Mod);
  S->HasUse = Session.options().TrackUse;
  if (S->HasUse) {
    S->UseResult = Session.peekGModResult(EffectKind::Use);
    S->UseRMod = Session.peekRModBits(EffectKind::Use);
    S->UseCovered = Session.coveredFlags(EffectKind::Use);
  }
  return S;
}

const EffectSet &AnalysisSnapshot::plane(ir::ProcId Proc,
                                         EffectKind Kind) const {
  if (!covered(Proc, Kind))
    throw UncoveredRead{};
  return (Kind == EffectKind::Mod ? ModResult : UseResult).of(Proc);
}

bool AnalysisSnapshot::rmodContains(ir::VarId Formal, EffectKind Kind) const {
  // RMOD(p) of p's formals is final whenever Solved(p).
  if (!covered(P.var(Formal).Owner, Kind))
    throw UncoveredRead{};
  return (Kind == EffectKind::Mod ? ModRMod : UseRMod).test(Formal.index());
}

/// One kind's covered GMOD planes, with LOCAL(q) built at the read (a
/// snapshot keeps no per-procedure masks).
class AnalysisSnapshot::Callees final : public analysis::CalleeSets {
public:
  Callees(const AnalysisSnapshot &S, EffectKind Kind) : S(S), Kind(Kind) {}
  const EffectSet &gmod(ir::ProcId Q) const override {
    return S.plane(Q, Kind);
  }
  const EffectSet &local(ir::ProcId Q, EffectSet &Scratch) const override {
    return Scratch = analysis::localMask(S.P, Q);
  }

private:
  const AnalysisSnapshot &S;
  EffectKind Kind;
};

// MOD(s) under the empty alias relation is DMOD(s).
EffectSet AnalysisSnapshot::modNoAlias(ir::StmtId S) const {
  return analysis::dmodOfStmt(P, Callees(*this, EffectKind::Mod), S);
}

EffectSet AnalysisSnapshot::useNoAlias(ir::StmtId S) const {
  assert(HasUse && "snapshot captured without a USE pipeline");
  return analysis::dmodOfStmt(P, Callees(*this, EffectKind::Use), S);
}

EffectSet AnalysisSnapshot::dmodSite(ir::CallSiteId C) const {
  return analysis::projectCallSite(P, Callees(*this, EffectKind::Mod), C);
}
