//===- analysis/Report.cpp - Human-readable analysis reports -------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "analysis/Report.h"

#include "analysis/SideEffectAnalyzer.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace ipse;
using namespace ipse::analysis;
using namespace ipse::ir;

SetRenderer::SetRenderer(const Program &P)
    : P(P), Offset(P.numVars() + 1), RankOf(P.numVars()),
      OwnerOfRank(P.numVars()) {
  // Qualified names by VarId, as ir::qualifiedName spells them.
  const std::uint32_t NumVars = P.numVars();
  std::string ById;
  std::vector<std::uint32_t> At(NumVars + 1);
  for (std::uint32_t V = 0; V != NumVars; ++V) {
    At[V] = ById.size();
    const Variable &Var = P.var(VarId(V));
    if (Var.Kind != VarKind::Global)
      ById.append(P.name(Var.Owner)).push_back('.');
    ById.append(P.name(VarId(V)));
  }
  At[NumVars] = ById.size();
  auto Name = [&](std::uint32_t V) {
    return std::string_view(ById).substr(At[V], At[V + 1] - At[V]);
  };

  // Sort by the first eight bytes as a big-endian integer (zero-padded:
  // the order of the prefixes, where they differ, is the order of the
  // names), and compare whole names only on a tie.
  struct Key {
    std::uint64_t Prefix;
    std::uint32_t Var;
  };
  std::vector<Key> Order(NumVars);
  for (std::uint32_t V = 0; V != NumVars; ++V) {
    std::string_view N = Name(V);
    std::uint64_t Prefix = 0;
    for (std::size_t I = 0; I != 8; ++I)
      Prefix = Prefix << 8 | (I < N.size() ? std::uint8_t(N[I]) : 0);
    Order[V] = {Prefix, V};
  }
  auto ByName = [&](const Key &A, const Key &B) {
    if (A.Prefix != B.Prefix)
      return A.Prefix < B.Prefix;
    return Name(A.Var) < Name(B.Var);
  };
  std::sort(Order.begin(), Order.end(), ByName);

  Arena.reserve(ById.size() + NumVars * Sep.size());
  for (std::uint32_t R = 0; R != NumVars; ++R) {
    const std::uint32_t V = Order[R].Var;
    RankOf[V] = R;
    OwnerOfRank[R] = P.var(VarId(V)).Owner;
    Offset[R] = Arena.size();
    Arena.append(Name(V)).append(Sep);
  }
  Offset[NumVars] = Arena.size();
}

void SetRenderer::appendSortedRanks(const EffectSet &Set,
                                    std::vector<std::uint32_t> &Out) const {
  const std::size_t Begin = Out.size();
  Out.resize(Begin + Set.count());
  std::uint32_t *D = Out.data() + Begin;
  Set.forEachSetBit([&](std::size_t Idx) { *D++ = RankOf[Idx]; });
  std::sort(Out.begin() + Begin, Out.end());
}

ProcId SetRenderer::boundRanks(CallSiteId Site,
                               std::span<const std::uint32_t> Callee) {
  const CallSite &C = P.callSite(Site);
  std::span<const VarId> Formals = P.proc(C.Callee).Formals;
  // Formal-to-actual projection: the variable actuals bound to a formal
  // in GMOD(q).  Non-variable actuals bind no storage.
  Bound.clear();
  for (unsigned Pos = 0; Pos != C.Actuals.size(); ++Pos) {
    const Actual &A = C.Actuals[Pos];
    if (A.isVariable() &&
        std::binary_search(Callee.begin(), Callee.end(),
                           RankOf[Formals[Pos].index()]))
      Bound.push_back(RankOf[A.Var.index()]);
  }
  std::sort(Bound.begin(), Bound.end());
  return C.Callee;
}

void SetRenderer::callSiteRanks(CallSiteId Site,
                                std::span<const std::uint32_t> Callee,
                                std::vector<std::uint32_t> &Out) {
  const ProcId Q = boundRanks(Site, Callee);
  // Merged with the pass-through, GMOD(q) \ LOCAL(q): what q declares
  // dies with its activation.  A bound actual already passed through, or
  // bound to two formals, is listed once.
  Out.clear();
  auto EmitBound = [&](std::uint32_t R) {
    if (Out.empty() || Out.back() != R)
      Out.push_back(R);
  };
  auto B = Bound.begin();
  for (std::uint32_t R : Callee) {
    if (OwnerOfRank[R] == Q)
      continue;
    for (; B != Bound.end() && *B < R; ++B)
      EmitBound(*B);
    Out.push_back(R);
  }
  for (; B != Bound.end(); ++B)
    EmitBound(*B);
}

std::size_t SetRenderer::passBytes(ProcId Q,
                                   std::span<const std::uint32_t> Callee) const {
  std::size_t Bytes = 0;
  for (std::uint32_t R : Callee)
    if (OwnerOfRank[R] != Q)
      Bytes += Offset[R + 1] - Offset[R];
  return Bytes;
}

std::size_t SetRenderer::callSiteLineBound(std::string_view Head,
                                           CallSiteId Site,
                                           std::span<const std::uint32_t> Callee,
                                           std::size_t PassBytes) {
  boundRanks(Site, Callee);
  std::size_t Size = Head.size() + PassBytes + Tail.size();
  for (std::uint32_t R : Bound)
    Size += Offset[R + 1] - Offset[R];
  return Size;
}

std::size_t SetRenderer::lineSize(std::string_view Head,
                                  std::span<const std::uint32_t> Ranks) const {
  std::size_t Size = Head.size() + Tail.size();
  for (std::uint32_t R : Ranks)
    Size += Offset[R + 1] - Offset[R];
  if (!Ranks.empty())
    Size -= Sep.size();
  return Size;
}

void SetRenderer::appendLine(std::string &Out, std::string_view Head,
                             std::span<const std::uint32_t> Ranks) const {
  const std::size_t Begin = Out.size(), Size = lineSize(Head, Ranks);
  Out.resize(Begin + Size);
  char *D = Out.data() + Begin;
  std::memcpy(D, Head.data(), Head.size());
  D += Head.size();
  // Each name is copied with the separator after it; the last separator
  // is overwritten by the tail.
  for (std::uint32_t R : Ranks) {
    const std::size_t N = Offset[R + 1] - Offset[R];
    std::memcpy(D, Arena.data() + Offset[R], N);
    D += N;
  }
  if (!Ranks.empty())
    D -= Sep.size();
  std::memcpy(D, Tail.data(), Tail.size());
  assert(D + Tail.size() == Out.data() + Out.size() &&
         "line size miscounted");
}

std::string analysis::makeReport(const Program &P, ReportOptions Options) {
  BatchAnalysis A(P, Options.IncludeUse);
  return renderReport(P, Options, A.Mod, A.Use ? &*A.Use : nullptr);
}
