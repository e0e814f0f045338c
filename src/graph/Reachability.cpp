//===- graph/Reachability.cpp - Call-graph reachability ----------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "graph/Reachability.h"

#include "graph/CallGraph.h"

#include "ir/ProgramBuilder.h"

using namespace ipse;
using namespace ipse::graph;
using namespace ipse::ir;

EffectSet graph::reachableProcs(const Program &P) {
  CallGraph CG(P);
  EffectSet Reached(P.numProcs());
  std::vector<NodeId> Stack;
  Reached.set(P.main().index());
  Stack.push_back(P.main().index());
  while (!Stack.empty()) {
    NodeId N = Stack.back();
    Stack.pop_back();
    for (const Adjacency &A : CG.graph().succs(N)) {
      if (Reached.test(A.Dst))
        continue;
      Reached.set(A.Dst);
      Stack.push_back(A.Dst);
    }
  }
  return Reached;
}

Program graph::eliminateUnreachable(const Program &P) {
  EffectSet Reached = reachableProcs(P);

  ProgramBuilder B;
  std::vector<ProcId> ProcMap(P.numProcs());
  std::vector<VarId> VarMap(P.numVars());
  std::vector<StmtId> StmtMap(P.numStmts());

  // Procedures in id order (parents precede children), then their
  // variables so formal ordinals are preserved.
  for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
    ProcId Old(I);
    if (!Reached.test(I))
      continue;
    const Procedure &Pr = P.proc(Old);
    ProcId New;
    if (Old == P.main()) {
      New = B.createMain(P.name(Old));
    } else {
      assert(Reached.test(Pr.Parent.index()) &&
             "a reachable procedure must have a reachable lexical parent");
      New = B.createProc(P.name(Old), ProcMap[Pr.Parent.index()]);
    }
    ProcMap[I] = New;
    for (VarId F : Pr.Formals)
      VarMap[F.index()] = B.addFormal(New, P.name(F));
    for (VarId L : Pr.Locals)
      VarMap[L.index()] = B.addLocal(New, P.name(L));
  }

  // Statements of surviving procedures, in id order.
  for (std::uint32_t I = 0; I != P.numStmts(); ++I) {
    const Statement &S = P.stmt(StmtId(I));
    if (!Reached.test(S.Parent.index()))
      continue;
    StmtId New = B.addStmt(ProcMap[S.Parent.index()]);
    StmtMap[I] = New;
    for (VarId V : S.LMod)
      B.addMod(New, VarMap[V.index()]);
    for (VarId V : S.LUse)
      B.addUse(New, VarMap[V.index()]);
  }

  // Call sites of surviving procedures, in id order.  A reachable caller
  // implies a reachable callee.
  for (std::uint32_t I = 0; I != P.numCallSites(); ++I) {
    const CallSite &C = P.callSite(CallSiteId(I));
    if (!Reached.test(C.Caller.index()))
      continue;
    assert(Reached.test(C.Callee.index()) &&
           "a call site in reachable code must have a reachable callee");
    std::vector<Actual> Actuals;
    Actuals.reserve(C.Actuals.size());
    for (const Actual &A : C.Actuals)
      Actuals.push_back(A.isVariable() ? Actual::variable(VarMap[A.Var.index()])
                                       : Actual::expression());
    B.addCall(StmtMap[C.Stmt.index()], ProcMap[C.Callee.index()],
              std::move(Actuals));
  }

  return B.finish();
}
