//===- analysis/RegularSectionAnalysis.cpp - §6 RSD data flow -----------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "analysis/RegularSectionAnalysis.h"

#include "analysis/SectionDomains.h"
#include "analysis/SectionFramework.h"
#include "graph/Tarjan.h"

#include <algorithm>

using namespace ipse;
using namespace ipse::analysis;
using namespace ipse::graph;
using namespace ipse::ir;

void RsdProblem::setFormalArray(VarId F, unsigned Rank) {
  assert(P.var(F).Kind == VarKind::Formal && "not a formal");
  assert(Rank >= 1 && Rank <= RegularSection::MaxRank && "bad rank");
  Ranks[F] = Rank;
}

void RsdProblem::setLocalSection(VarId F, RegularSection S) {
  assert(isArray(F) && "declare the formal an array first");
  assert(S.rank() == Ranks.at(F) && "section rank mismatch");
  LocalSections.insert_or_assign(F, S);
}

void RsdProblem::setEdgeBinding(EdgeId E, SectionBinding B) {
  assert(E < BG.numEdges() && "bad binding edge");
  Bindings.insert_or_assign(E, B);
}

unsigned RsdProblem::rankOf(VarId F) const {
  auto It = Ranks.find(F);
  assert(It != Ranks.end() && "formal was not declared an array");
  return It->second;
}

RegularSection RsdProblem::localSection(VarId F) const {
  auto It = LocalSections.find(F);
  if (It != LocalSections.end())
    return It->second;
  return RegularSection::none(rankOf(F));
}

SectionBinding RsdProblem::edgeBinding(EdgeId E) const {
  auto It = Bindings.find(E);
  return It == Bindings.end() ? SectionBinding::identity() : It->second;
}

RsdResult analysis::solveRsd(const RsdProblem &Problem) {
  // Delegate to the generic framework instantiated at Figure 3's lattice.
  const Program &P = Problem.program();
  const graph::BindingGraph &BG = Problem.bindingGraph();

  SectionProblem<RegularSectionDomain> Generic(P, BG);
  for (std::uint32_t I = 0; I != P.numProcs(); ++I)
    for (VarId F : P.proc(ProcId(I)).Formals)
      if (Problem.isArray(F)) {
        Generic.setFormalArray(F, Problem.rankOf(F));
        Generic.setLocalSection(F, Problem.localSection(F));
      }
  for (EdgeId E = 0; E != BG.numEdges(); ++E)
    Generic.setEdgeBinding(E, Problem.edgeBinding(E));

  SectionSolveResult<RegularSectionDomain> Solved =
      solveSectionProblem(Generic);

  RsdResult Result;
  Result.Sections = std::move(Solved.Sections);
  Result.MeetOps = Solved.MeetOps;
  Result.MaxComponentRounds = Solved.MaxComponentRounds;
  return Result;
}

void GlobalSectionProblem::setGlobalArray(VarId G, unsigned Rank) {
  assert(P.var(G).Kind == VarKind::Global && "not a global");
  assert(Rank >= 1 && Rank <= RegularSection::MaxRank && "bad rank");
  Ranks[G] = Rank;
}

void GlobalSectionProblem::setLocalSection(ProcId Proc, VarId G,
                                           RegularSection S) {
  assert(isArray(G) && "declare the global an array first");
  assert(S.rank() == Ranks.at(G) && "section rank mismatch");
  LocalSections.insert_or_assign(std::make_pair(Proc, G), S);
}

unsigned GlobalSectionProblem::rankOf(VarId G) const {
  auto It = Ranks.find(G);
  assert(It != Ranks.end() && "global was not declared an array");
  return It->second;
}

RegularSection GlobalSectionProblem::localSection(ProcId Proc, VarId G) const {
  auto It = LocalSections.find({Proc, G});
  if (It != LocalSections.end())
    return It->second;
  return RegularSection::none(rankOf(G));
}

/// Rewrites a section of a *global* array into caller space: global arrays
/// keep their identity across the call, but symbolic subscripts naming
/// callee-side values must be translated exactly as in g_e.
static RegularSection translateGlobalSection(const Program &P,
                                             const CallSite &C,
                                             const RegularSection &X) {
  if (X.isNone() || X.rank() == 0)
    return X;
  if (X.rank() == 1)
    return RegularSection::section1(translateSubscript(P, C, X.sub(0)));
  return RegularSection::section2(translateSubscript(P, C, X.sub(0)),
                                  translateSubscript(P, C, X.sub(1)));
}

GlobalSectionResult
analysis::solveGlobalSections(const GlobalSectionProblem &Problem) {
  const Program &P = Problem.program();
  const CallGraph &CG = Problem.callGraph();
  const Digraph &G = CG.graph();

  // Collect the declared arrays once, in id order (deterministic).
  std::vector<VarId> Arrays;
  for (std::uint32_t I = 0; I != P.numVars(); ++I)
    if (Problem.isArray(VarId(I)))
      Arrays.push_back(VarId(I));

  GlobalSectionResult Result;
  for (std::uint32_t N = 0; N != G.numNodes(); ++N)
    for (VarId A : Arrays)
      Result.Sections.insert(
          {{ProcId(N), A}, Problem.localSection(ProcId(N), A)});

  SccDecomposition Sccs = computeSccs(G);
  for (std::uint32_t C = 0; C != Sccs.numSccs(); ++C) {
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (NodeId M : Sccs.members(C)) {
        for (const Adjacency &Adj : G.succs(M)) {
          const CallSite &Site = P.callSite(CG.callSite(Adj.Edge));
          for (VarId A : Arrays) {
            const RegularSection &SuccS =
                Result.Sections.at({ProcId(Adj.Dst), A});
            if (SuccS.isNone())
              continue;
            RegularSection Mapped = translateGlobalSection(P, Site, SuccS);
            RegularSection &Mine = Result.Sections.at({ProcId(M), A});
            RegularSection New = Mine.meet(Mapped);
            ++Result.MeetOps;
            if (New != Mine) {
              Mine = New;
              Changed = true;
            }
          }
        }
      }
    }
  }
  return Result;
}
