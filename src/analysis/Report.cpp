//===- analysis/Report.cpp - Human-readable analysis reports -------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "analysis/Report.h"

#include "analysis/SideEffectAnalyzer.h"
#include "ir/Printer.h"

#include <algorithm>
#include <memory>
#include <numeric>

using namespace ipse;
using namespace ipse::analysis;
using namespace ipse::ir;

SetRenderer::SetRenderer(const Program &P) : RankOf(P.numVars()) {
  std::vector<std::string> ByVar(P.numVars());
  for (std::uint32_t V = 0; V != P.numVars(); ++V)
    ByVar[V] = qualifiedName(P, VarId(V));
  std::vector<std::uint32_t> Order(P.numVars());
  std::iota(Order.begin(), Order.end(), 0u);
  auto ByName = [&](std::uint32_t A, std::uint32_t B) {
    return ByVar[A] < ByVar[B];
  };
  std::sort(Order.begin(), Order.end(), ByName);
  Names.reserve(Order.size());
  for (std::uint32_t R = 0; R != Order.size(); ++R) {
    RankOf[Order[R]] = R;
    Names.push_back(std::move(ByVar[Order[R]]));
  }
}

void SetRenderer::append(std::string &Out, const EffectSet &Set) {
  Ranks.clear();
  Set.forEachSetBit([&](std::size_t Idx) { Ranks.push_back(RankOf[Idx]); });
  std::sort(Ranks.begin(), Ranks.end());
  for (std::size_t I = 0; I != Ranks.size(); ++I)
    Out.append(I == 0 ? "" : ", ").append(Names[Ranks[I]]);
}

std::string analysis::makeReport(const Program &P, ReportOptions Options) {
  SideEffectAnalyzer Mod(P);
  std::unique_ptr<SideEffectAnalyzer> Use;
  if (Options.IncludeUse) {
    AnalyzerOptions UseOpts;
    UseOpts.Kind = EffectKind::Use;
    Use = std::make_unique<SideEffectAnalyzer>(P, UseOpts);
  }
  return renderReport(P, Options, Mod, Use.get());
}
