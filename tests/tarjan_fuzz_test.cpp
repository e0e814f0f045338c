//===- tests/tarjan_fuzz_test.cpp - SCC fuzzing vs brute force ----------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
//
// Both linear-time algorithms stand on Tarjan's SCC machinery, so it gets
// its own randomized validation: on hundreds of random digraphs, the SCC
// decomposition must match the brute-force definition (mutual
// reachability via transitive closure), and the component ids must be a
// reverse topological order of the condensation.
//
//===----------------------------------------------------------------------===//

#include "graph/Digraph.h"
#include "graph/Tarjan.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <vector>

using namespace ipse;
using namespace ipse::graph;

namespace {

/// Warshall transitive closure; Reach[i][j] == i reaches j (reflexive).
std::vector<std::vector<bool>> transitiveClosure(const Digraph &G) {
  const std::size_t N = G.numNodes();
  std::vector<std::vector<bool>> Reach(N, std::vector<bool>(N, false));
  for (NodeId I = 0; I != N; ++I) {
    Reach[I][I] = true;
    for (const Adjacency &A : G.succs(I))
      Reach[I][A.Dst] = true;
  }
  for (NodeId K = 0; K != N; ++K)
    for (NodeId I = 0; I != N; ++I)
      if (Reach[I][K])
        for (NodeId J = 0; J != N; ++J)
          if (Reach[K][J])
            Reach[I][J] = true;
  return Reach;
}

Digraph randomGraph(Rng &R, std::size_t N, std::size_t E) {
  Digraph G(N);
  for (std::size_t I = 0; I != E; ++I)
    G.addEdge(static_cast<NodeId>(R.nextBelow(N)),
              static_cast<NodeId>(R.nextBelow(N)));
  G.finalize();
  return G;
}

class TarjanFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TarjanFuzz, MatchesMutualReachability) {
  Rng R(GetParam());
  for (int Round = 0; Round != 8; ++Round) {
    std::size_t N = 2 + R.nextBelow(30);
    std::size_t E = R.nextBelow(3 * N);
    Digraph G = randomGraph(R, N, E);
    SccDecomposition S = computeSccs(G);
    std::vector<std::vector<bool>> Reach = transitiveClosure(G);

    // Same component iff mutually reachable.
    for (NodeId I = 0; I != N; ++I)
      for (NodeId J = 0; J != N; ++J)
        EXPECT_EQ(S.SccOf[I] == S.SccOf[J], Reach[I][J] && Reach[J][I])
            << "nodes " << I << "," << J << " at N=" << N << " E=" << E;

    // Reverse topological ids.
    for (EdgeId Eid = 0; Eid != G.numEdges(); ++Eid)
      if (S.SccOf[G.edgeSource(Eid)] != S.SccOf[G.edgeTarget(Eid)])
        EXPECT_LT(S.SccOf[G.edgeTarget(Eid)], S.SccOf[G.edgeSource(Eid)]);

    // Members lists partition the nodes.
    std::size_t Total = 0;
    for (std::uint32_t C = 0; C != S.numSccs(); ++C) {
      Total += S.members(C).size();
      for (NodeId M : S.members(C))
        EXPECT_EQ(S.SccOf[M], C);
    }
    EXPECT_EQ(Total, N);

    // The condensation must be acyclic: its SCCs are all singletons.
    Digraph Cond = buildCondensation(G, S);
    SccDecomposition CS = computeSccs(Cond);
    EXPECT_EQ(CS.numSccs(), Cond.numNodes());
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TarjanFuzz,
                         ::testing::Range<std::uint64_t>(1, 26));

} // namespace
