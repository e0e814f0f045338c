//===- tests/graph_test.cpp - Digraph, Tarjan, call/binding graphs ------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "graph/BindingGraph.h"
#include "graph/CallGraph.h"
#include "graph/Digraph.h"
#include "graph/Dot.h"
#include "graph/Reachability.h"
#include "graph/Tarjan.h"
#include "ir/ProgramBuilder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace ipse;
using namespace ipse::graph;
using namespace ipse::ir;

namespace {

TEST(Digraph, EmptyGraph) {
  Digraph G(3);
  G.finalize();
  EXPECT_EQ(G.numNodes(), 3u);
  EXPECT_EQ(G.numEdges(), 0u);
  EXPECT_TRUE(G.succs(0).empty());
}

TEST(Digraph, AdjacencyAndEdgeIds) {
  Digraph G(4);
  EdgeId E0 = G.addEdge(0, 1);
  EdgeId E1 = G.addEdge(0, 2);
  EdgeId E2 = G.addEdge(2, 3);
  EdgeId E3 = G.addEdge(0, 1); // Parallel edge.
  G.finalize();

  EXPECT_EQ(G.numEdges(), 4u);
  EXPECT_EQ(G.succs(0).size(), 3u);
  EXPECT_EQ(G.succs(2).size(), 1u);
  EXPECT_TRUE(G.succs(3).empty());
  EXPECT_EQ(G.edgeSource(E2), 2u);
  EXPECT_EQ(G.edgeTarget(E2), 3u);

  std::multiset<NodeId> Targets;
  for (const Adjacency &A : G.succs(0))
    Targets.insert(A.Dst);
  EXPECT_EQ(Targets.count(1), 2u);
  EXPECT_EQ(Targets.count(2), 1u);
  (void)E0;
  (void)E1;
  (void)E3;
}

TEST(Digraph, SelfLoop) {
  Digraph G(2);
  G.addEdge(1, 1);
  G.finalize();
  ASSERT_EQ(G.succs(1).size(), 1u);
  EXPECT_EQ(G.succs(1)[0].Dst, 1u);
}

TEST(Digraph, Reversed) {
  Digraph G(3);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.finalize();
  Digraph R = G.reversed();
  ASSERT_EQ(R.succs(2).size(), 1u);
  EXPECT_EQ(R.succs(2)[0].Dst, 1u);
  // Edge ids preserved under reversal.
  EXPECT_EQ(R.succs(2)[0].Edge, 1u);
  EXPECT_TRUE(R.succs(0).empty());
}

TEST(Tarjan, ChainIsAllSingletons) {
  Digraph G(4);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(2, 3);
  G.finalize();
  SccDecomposition S = computeSccs(G);
  EXPECT_EQ(S.numSccs(), 4u);
  // Reverse topological: the sink closes first.
  EXPECT_LT(S.SccOf[3], S.SccOf[2]);
  EXPECT_LT(S.SccOf[2], S.SccOf[1]);
  EXPECT_LT(S.SccOf[1], S.SccOf[0]);
}

TEST(Tarjan, SingleCycle) {
  Digraph G(3);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(2, 0);
  G.finalize();
  SccDecomposition S = computeSccs(G);
  EXPECT_EQ(S.numSccs(), 1u);
  EXPECT_EQ(S.members(0).size(), 3u);
}

TEST(Tarjan, TwoComponentsAndBridge) {
  // {0,1} -> {2,3}, plus an isolated node 4.
  Digraph G(5);
  G.addEdge(0, 1);
  G.addEdge(1, 0);
  G.addEdge(1, 2);
  G.addEdge(2, 3);
  G.addEdge(3, 2);
  G.finalize();
  SccDecomposition S = computeSccs(G);
  EXPECT_EQ(S.numSccs(), 3u);
  EXPECT_EQ(S.SccOf[0], S.SccOf[1]);
  EXPECT_EQ(S.SccOf[2], S.SccOf[3]);
  EXPECT_NE(S.SccOf[0], S.SccOf[2]);
  // Edge from {0,1} to {2,3}: the target component closes first.
  EXPECT_LT(S.SccOf[2], S.SccOf[0]);
}

TEST(Tarjan, SelfLoopIsItsOwnScc) {
  Digraph G(2);
  G.addEdge(0, 0);
  G.finalize();
  SccDecomposition S = computeSccs(G);
  EXPECT_EQ(S.numSccs(), 2u);
}

TEST(Tarjan, ReverseTopologicalIdsOnRandomDag) {
  // Layered DAG: every edge must point to a smaller SCC id.
  Digraph G(12);
  for (NodeId I = 0; I != 8; ++I)
    G.addEdge(I, I + 4 > 11 ? 11 : I + 4);
  G.addEdge(0, 11);
  G.finalize();
  SccDecomposition S = computeSccs(G);
  for (EdgeId E = 0; E != G.numEdges(); ++E) {
    if (S.SccOf[G.edgeSource(E)] != S.SccOf[G.edgeTarget(E)]) {
      EXPECT_LT(S.SccOf[G.edgeTarget(E)], S.SccOf[G.edgeSource(E)]);
    }
  }
}

TEST(Tarjan, DeepChainNoStackOverflow) {
  constexpr NodeId N = 200000;
  Digraph G(N);
  for (NodeId I = 0; I + 1 != N; ++I)
    G.addEdge(I, I + 1);
  G.finalize();
  SccDecomposition S = computeSccs(G);
  EXPECT_EQ(S.numSccs(), N);
}

TEST(Tarjan, Condensation) {
  Digraph G(4);
  G.addEdge(0, 1);
  G.addEdge(1, 0);
  G.addEdge(1, 2);
  G.addEdge(1, 2); // Parallel cross edge survives as a multi-edge.
  G.addEdge(2, 3);
  G.finalize();
  SccDecomposition S = computeSccs(G);
  Digraph C = buildCondensation(G, S);
  EXPECT_EQ(C.numNodes(), 3u);
  EXPECT_EQ(C.numEdges(), 3u); // Two parallel + one, intra-scc edges gone.
}

/// program main; var g; proc q(c); begin c := 1; end;
/// proc p(a,b); begin call q(a); call q(g); end;
/// begin call p(g,g); end.
struct BindingExample {
  Program P;
  ProcId Main, PProc, QProc;
  VarId G, A, Bv, C;

  BindingExample() {
    ProgramBuilder B;
    Main = B.createMain("main");
    G = B.addGlobal("g");
    QProc = B.createProc("q", Main);
    C = B.addFormal(QProc, "c");
    StmtId QS = B.addStmt(QProc);
    B.addMod(QS, C);
    PProc = B.createProc("p", Main);
    A = B.addFormal(PProc, "a");
    Bv = B.addFormal(PProc, "b");
    B.addCallStmt(PProc, QProc, {A});
    B.addCallStmt(PProc, QProc, {G}); // Global actual: no β edge.
    B.addCallStmt(Main, PProc, {G, G});
    P = B.finish();
  }
};

TEST(CallGraph, EdgesMatchCallSites) {
  BindingExample E;
  CallGraph CG(E.P);
  EXPECT_EQ(CG.graph().numNodes(), 3u);
  EXPECT_EQ(CG.graph().numEdges(), 3u);
  // Edge ids coincide with call-site ids.
  for (EdgeId Eid = 0; Eid != CG.graph().numEdges(); ++Eid) {
    const CallSite &Site = E.P.callSite(CG.callSite(Eid));
    EXPECT_EQ(Site.Caller.index(), CG.graph().edgeSource(Eid));
    EXPECT_EQ(Site.Callee.index(), CG.graph().edgeTarget(Eid));
  }
}

TEST(BindingGraph, OnlyFormalActualsMakeEdges) {
  BindingExample E;
  BindingGraph BG(E.P);
  // Exactly one binding event: a -> c.  Nodes: a and c only.
  EXPECT_EQ(BG.numEdges(), 1u);
  EXPECT_EQ(BG.numNodes(), 2u);
  EXPECT_NE(BG.nodeOf(E.A), BindingGraph::NoNode);
  EXPECT_NE(BG.nodeOf(E.C), BindingGraph::NoNode);
  EXPECT_EQ(BG.nodeOf(E.Bv), BindingGraph::NoNode); // b never passed.

  NodeId From = BG.graph().edgeSource(0);
  NodeId To = BG.graph().edgeTarget(0);
  EXPECT_EQ(BG.formal(From), E.A);
  EXPECT_EQ(BG.formal(To), E.C);
  EXPECT_EQ(BG.origin(0).ArgPos, 0u);
}

TEST(BindingGraph, NodeCountBound) {
  BindingExample E;
  BindingGraph BG(E.P);
  // The paper's bound: every node is an edge endpoint, so Nβ <= 2 Eβ.
  EXPECT_LE(BG.numNodes(), 2 * BG.numEdges());
}

TEST(BindingGraph, AncestorFormalAtNestedCallSite) {
  // §3.3 problem 2: a formal of p passed at a call site inside q, q
  // nested in p, must produce an edge from p's formal.
  ProgramBuilder B;
  ProcId Main = B.createMain("m");
  ProcId PProc = B.createProc("p", Main);
  VarId A = B.addFormal(PProc, "a");
  ProcId QProc = B.createProc("q", PProc);
  ProcId RProc = B.createProc("r", Main);
  VarId F = B.addFormal(RProc, "f");
  StmtId RS = B.addStmt(RProc);
  B.addMod(RS, F);
  B.addCallStmt(QProc, RProc, {A}); // Inside q, passing p's formal.
  B.addCallStmt(PProc, QProc, {});
  VarId G = B.addGlobal("g");
  B.addCallStmt(Main, PProc, {G});
  Program P = B.finish();

  BindingGraph BG(P);
  ASSERT_NE(BG.nodeOf(A), BindingGraph::NoNode);
  ASSERT_NE(BG.nodeOf(F), BindingGraph::NoNode);
  bool FoundEdge = false;
  for (const Adjacency &Adj : BG.graph().succs(BG.nodeOf(A)))
    FoundEdge |= BG.formal(Adj.Dst) == F;
  EXPECT_TRUE(FoundEdge);
}

TEST(Reachability, FindsReachableSet) {
  ProgramBuilder B;
  ProcId Main = B.createMain("m");
  ProcId A = B.createProc("a", Main);
  ProcId Bp = B.createProc("b", Main);
  ProcId Dead = B.createProc("dead", Main);
  ProcId DeadChild = B.createProc("deadchild", Dead);
  B.addCallStmt(Main, A, {});
  B.addCallStmt(A, Bp, {});
  B.addCallStmt(Dead, DeadChild, {});
  Program P = B.finish();

  EffectSet R = reachableProcs(P);
  EXPECT_TRUE(R.test(Main.index()));
  EXPECT_TRUE(R.test(A.index()));
  EXPECT_TRUE(R.test(Bp.index()));
  EXPECT_FALSE(R.test(Dead.index()));
  EXPECT_FALSE(R.test(DeadChild.index()));
}

TEST(Reachability, EliminateUnreachable) {
  ProgramBuilder B;
  ProcId Main = B.createMain("m");
  VarId G = B.addGlobal("g");
  ProcId A = B.createProc("a", Main);
  VarId F = B.addFormal(A, "f");
  StmtId S = B.addStmt(A);
  B.addMod(S, F);
  ProcId Dead = B.createProc("dead", Main);
  VarId DeadVar = B.addLocal(Dead, "dv");
  StmtId DS = B.addStmt(Dead);
  B.addMod(DS, DeadVar);
  B.addCallStmt(Dead, A, {DeadVar});
  B.addCallStmt(Main, A, {G});
  Program P = B.finish();

  Program Clean = graph::eliminateUnreachable(P);
  EXPECT_EQ(Clean.numProcs(), 2u);
  EXPECT_EQ(Clean.numVars(), 2u); // g and f.
  EXPECT_EQ(Clean.numCallSites(), 1u);
  std::string Error;
  EXPECT_TRUE(Clean.verify(Error)) << Error;
  // Names survive.
  EXPECT_EQ(Clean.name(Clean.main()), "m");
  EXPECT_EQ(Clean.name(ProcId(1)), "a");
}

TEST(Reachability, KeepsEverythingWhenAllReachable) {
  BindingExample E;
  Program Clean = graph::eliminateUnreachable(E.P);
  EXPECT_EQ(Clean.numProcs(), E.P.numProcs());
  EXPECT_EQ(Clean.numCallSites(), E.P.numCallSites());
}

TEST(Dot, RendersBothGraphs) {
  BindingExample E;
  CallGraph CG(E.P);
  BindingGraph BG(E.P);
  std::string CgDot = callGraphToDot(E.P, CG);
  EXPECT_NE(CgDot.find("digraph callgraph"), std::string::npos);
  EXPECT_NE(CgDot.find("\"main\""), std::string::npos);
  std::string BgDot = bindingGraphToDot(E.P, BG);
  EXPECT_NE(BgDot.find("digraph binding"), std::string::npos);
  EXPECT_NE(BgDot.find("\"p.a\""), std::string::npos);
}

} // namespace
