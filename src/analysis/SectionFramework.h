//===- analysis/SectionFramework.h - Generic §6 data-flow frame -*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// §6's framework, abstracted over the lattice: "a variety of algorithms
/// can be accommodated in the regular section framework — these algorithms
/// would differ only in the cost of the representation of lattice
/// elements, ... the expense of the meet operation and the depth of the
/// lattice."  The solver below implements the rsd system
///
///   rsd(fp1) = lrsd(fp1) ⊓ ⊓_{e=(fp1,fp2)∈Eβ} g_e(rsd(fp2))
///
/// once, for any *section domain* — a type providing the lattice and the
/// edge functions:
///
///   struct Domain {
///     using Section = ...;                      // lattice element
///     static Section none(unsigned Rank);       // top (no effect)
///     // g_e: map a section of the callee formal into caller space.
///     static Section applyEdge(const ir::Program &P,
///                              const ir::CallSite &C,
///                              const SectionBinding &B,
///                              unsigned CallerRank, const Section &X);
///     // Section must additionally provide meet() and operator!=.
///   };
///
/// Instances: RegularSectionDomain (Figure 3; RegularSectionAnalysis.h's
/// solveRsd is a thin wrapper over this solver) and BoundedSectionDomain
/// (range-based sections, a beyond-paper lattice).
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_ANALYSIS_SECTIONFRAMEWORK_H
#define IPSE_ANALYSIS_SECTIONFRAMEWORK_H

#include "analysis/RegularSectionAnalysis.h"
#include "graph/BindingGraph.h"
#include "graph/Tarjan.h"
#include "ir/Program.h"

#include <algorithm>
#include <map>

namespace ipse {
namespace analysis {

/// A §6 problem instance over an arbitrary section domain.
template <typename DomainT> class SectionProblem {
public:
  using Section = typename DomainT::Section;

  SectionProblem(const ir::Program &P, const graph::BindingGraph &BG)
      : P(P), BG(BG) {}

  /// Declares formal \p F an array of rank \p Rank.
  void setFormalArray(ir::VarId F, unsigned Rank) {
    assert(P.var(F).Kind == ir::VarKind::Formal && "not a formal");
    Ranks[F] = Rank;
  }

  /// Sets lrsd(F).
  void setLocalSection(ir::VarId F, Section S) {
    assert(isArray(F) && "declare the formal an array first");
    LocalSections.insert_or_assign(F, std::move(S));
  }

  /// Describes binding edge \p E (defaults to Identity).
  void setEdgeBinding(graph::EdgeId E, SectionBinding B) {
    assert(E < BG.numEdges() && "bad binding edge");
    Bindings.insert_or_assign(E, B);
  }

  bool isArray(ir::VarId F) const { return Ranks.count(F) != 0; }

  unsigned rankOf(ir::VarId F) const {
    auto It = Ranks.find(F);
    assert(It != Ranks.end() && "formal was not declared an array");
    return It->second;
  }

  Section localSection(ir::VarId F) const {
    auto It = LocalSections.find(F);
    if (It != LocalSections.end())
      return It->second;
    return DomainT::none(rankOf(F));
  }

  SectionBinding edgeBinding(graph::EdgeId E) const {
    auto It = Bindings.find(E);
    return It == Bindings.end() ? SectionBinding::identity() : It->second;
  }

  const ir::Program &program() const { return P; }
  const graph::BindingGraph &bindingGraph() const { return BG; }

private:
  const ir::Program &P;
  const graph::BindingGraph &BG;
  std::map<ir::VarId, unsigned> Ranks;
  std::map<ir::VarId, Section> LocalSections;
  std::map<graph::EdgeId, SectionBinding> Bindings;
};

/// Result of a generic section solve.
template <typename DomainT> struct SectionSolveResult {
  using Section = typename DomainT::Section;

  std::map<ir::VarId, Section> Sections;
  std::uint64_t MeetOps = 0;
  unsigned MaxComponentRounds = 0;

  const Section &of(ir::VarId F) const {
    auto It = Sections.find(F);
    assert(It != Sections.end() && "formal was not declared an array");
    return It->second;
  }
};

/// Solves the rsd system by SCC condensation plus per-component iteration
/// (reverse topological component order).  Termination: the lattice has
/// finite descending chains and values only descend.
template <typename DomainT>
SectionSolveResult<DomainT>
solveSectionProblem(const SectionProblem<DomainT> &Problem) {
  const ir::Program &P = Problem.program();
  const graph::BindingGraph &BG = Problem.bindingGraph();
  const graph::Digraph &G = BG.graph();

  SectionSolveResult<DomainT> Result;
  for (std::uint32_t I = 0; I != P.numProcs(); ++I)
    for (ir::VarId F : P.proc(ir::ProcId(I)).Formals)
      if (Problem.isArray(F))
        Result.Sections.insert({F, Problem.localSection(F)});

  graph::SccDecomposition Sccs = graph::computeSccs(G);
  for (std::uint32_t C = 0; C != Sccs.numSccs(); ++C) {
    unsigned Rounds = 0;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      ++Rounds;
      for (graph::NodeId M : Sccs.members(C)) {
        ir::VarId F = BG.formal(M);
        if (!Problem.isArray(F))
          continue;
        auto Cur = Result.Sections.at(F);
        for (const graph::Adjacency &A : G.succs(M)) {
          ir::VarId Succ = BG.formal(A.Dst);
          if (!Problem.isArray(Succ))
            continue;
          const ir::CallSite &Site = P.callSite(BG.origin(A.Edge).Site);
          auto Mapped = DomainT::applyEdge(P, Site,
                                           Problem.edgeBinding(A.Edge),
                                           Problem.rankOf(F),
                                           Result.Sections.at(Succ));
          Cur = Cur.meet(Mapped);
          ++Result.MeetOps;
        }
        if (Cur != Result.Sections.at(F)) {
          Result.Sections.insert_or_assign(F, Cur);
          Changed = true;
        }
      }
    }
    Result.MaxComponentRounds = std::max(Result.MaxComponentRounds, Rounds);
  }
  return Result;
}

} // namespace analysis
} // namespace ipse

#endif // IPSE_ANALYSIS_SECTIONFRAMEWORK_H
