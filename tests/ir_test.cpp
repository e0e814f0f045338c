//===- tests/ir_test.cpp - Program model and builder tests --------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "ir/AliasInfo.h"
#include "ir/Printer.h"
#include "ir/Program.h"
#include "ir/ProgramBuilder.h"
#include "ir/ProgramEditor.h"
#include "ProgramEdits.h"
#include "ProgramTables.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

using namespace ipse;
using namespace ipse::ir;

namespace {

/// Builds the running example used throughout the test suites:
///
///   program main; var g, h;
///     proc q(c);       begin c := g; end;
///     proc p(a, b); var x;
///       begin x := a; call q(b); h := 2; end;
///   begin call p(g, h); write g; end.
struct Example {
  Program P;
  ProcId Main, PProc, QProc;
  VarId G, H, A, Bv, X, C;
  CallSiteId CallP, CallQ;

  Example() {
    ProgramBuilder B;
    Main = B.createMain("main");
    G = B.addGlobal("g");
    H = B.addGlobal("h");

    QProc = B.createProc("q", Main);
    C = B.addFormal(QProc, "c");
    StmtId QS = B.addStmt(QProc);
    B.addMod(QS, C);
    B.addUse(QS, G);

    PProc = B.createProc("p", Main);
    A = B.addFormal(PProc, "a");
    Bv = B.addFormal(PProc, "b");
    X = B.addLocal(PProc, "x");
    StmtId PS1 = B.addStmt(PProc);
    B.addMod(PS1, X);
    B.addUse(PS1, A);
    CallQ = B.addCallStmt(PProc, QProc, {Bv});
    StmtId PS3 = B.addStmt(PProc);
    B.addMod(PS3, H);

    CallP = B.addCallStmt(Main, PProc, {G, H});
    StmtId MS = B.addStmt(Main);
    B.addUse(MS, G);

    P = B.finish();
  }
};

TEST(Program, BasicShape) {
  Example E;
  EXPECT_EQ(E.P.numProcs(), 3u);
  EXPECT_EQ(E.P.numVars(), 6u);
  EXPECT_EQ(E.P.numCallSites(), 2u);
  EXPECT_EQ(E.P.main(), E.Main);
  EXPECT_EQ(E.P.maxProcLevel(), 1u);
}

TEST(Program, Names) {
  Example E;
  EXPECT_EQ(E.P.name(E.PProc), "p");
  EXPECT_EQ(E.P.name(E.G), "g");
  EXPECT_EQ(E.P.name(E.C), "c");
}

TEST(Program, VariableKinds) {
  Example E;
  EXPECT_EQ(E.P.var(E.G).Kind, VarKind::Global);
  EXPECT_EQ(E.P.var(E.X).Kind, VarKind::Local);
  EXPECT_EQ(E.P.var(E.A).Kind, VarKind::Formal);
  EXPECT_EQ(E.P.var(E.A).FormalPos, 0u);
  EXPECT_EQ(E.P.var(E.Bv).FormalPos, 1u);
  EXPECT_TRUE(E.P.isGlobal(E.G));
  EXPECT_FALSE(E.P.isGlobal(E.X));
}

TEST(Program, Ownership) {
  Example E;
  EXPECT_TRUE(E.P.isLocalTo(E.X, E.PProc));
  EXPECT_TRUE(E.P.isLocalTo(E.A, E.PProc));
  EXPECT_FALSE(E.P.isLocalTo(E.G, E.PProc));
  EXPECT_TRUE(E.P.isLocalTo(E.G, E.Main));
}

TEST(Program, Visibility) {
  Example E;
  EXPECT_TRUE(E.P.isVisibleIn(E.G, E.PProc));
  EXPECT_TRUE(E.P.isVisibleIn(E.X, E.PProc));
  EXPECT_FALSE(E.P.isVisibleIn(E.X, E.QProc));
  EXPECT_FALSE(E.P.isVisibleIn(E.C, E.PProc));
  EXPECT_TRUE(E.P.isVisibleIn(E.G, E.Main));
}

TEST(Program, VarLevels) {
  Example E;
  EXPECT_EQ(E.P.varLevel(E.G), 0u);
  EXPECT_EQ(E.P.varLevel(E.X), 1u);
  EXPECT_EQ(E.P.varLevel(E.C), 1u);
}

TEST(Program, CallSites) {
  Example E;
  const CallSite &CP = E.P.callSite(E.CallP);
  EXPECT_EQ(CP.Caller, E.Main);
  EXPECT_EQ(CP.Callee, E.PProc);
  ASSERT_EQ(CP.Actuals.size(), 2u);
  EXPECT_TRUE(CP.Actuals[0].isVariable());
  EXPECT_EQ(CP.Actuals[0].Var, E.G);
  EXPECT_EQ(CP.Actuals[1].Var, E.H);
}

TEST(Program, VerifyAcceptsValid) {
  Example E;
  std::string Error;
  EXPECT_TRUE(E.P.verify(Error)) << Error;
  EXPECT_TRUE(Error.empty());
}

TEST(Program, NestingTree) {
  ProgramBuilder B;
  ProcId Main = B.createMain("m");
  ProcId Outer = B.createProc("outer", Main);
  ProcId Inner = B.createProc("inner", Outer);
  ProcId Deep = B.createProc("deep", Inner);
  B.addStmt(Main);
  Program P = B.finish();

  EXPECT_EQ(P.proc(Outer).Level, 1u);
  EXPECT_EQ(P.proc(Inner).Level, 2u);
  EXPECT_EQ(P.proc(Deep).Level, 3u);
  EXPECT_EQ(P.maxProcLevel(), 3u);
  EXPECT_TRUE(P.isAncestorOrSelf(Main, Deep));
  EXPECT_TRUE(P.isAncestorOrSelf(Outer, Deep));
  EXPECT_TRUE(P.isAncestorOrSelf(Deep, Deep));
  EXPECT_FALSE(P.isAncestorOrSelf(Deep, Outer));
  ASSERT_EQ(P.proc(Outer).Nested.size(), 1u);
  EXPECT_EQ(P.proc(Outer).Nested[0], Inner);
}

TEST(Program, NestedVisibilityAndCalls) {
  ProgramBuilder B;
  ProcId Main = B.createMain("m");
  VarId G = B.addGlobal("g");
  ProcId Outer = B.createProc("outer", Main);
  VarId OV = B.addLocal(Outer, "ov");
  ProcId Inner = B.createProc("inner", Outer);
  StmtId S = B.addStmt(Inner);
  B.addMod(S, OV); // Inner may modify outer's local.
  B.addMod(S, G);
  B.addCallStmt(Outer, Inner, {});
  B.addCallStmt(Inner, Outer, {}); // Recursion upward is legal.
  B.addCallStmt(Main, Outer, {});
  Program P = B.finish();

  EXPECT_TRUE(P.isVisibleIn(OV, Inner));
  std::string Error;
  EXPECT_TRUE(P.verify(Error)) << Error;
}

TEST(ProgramBuilder, ArityMismatchDiesInFinish) {
  // addCall does not check arity (verify does); finish() must abort.
  ASSERT_DEATH(
      {
        ProgramBuilder B;
        ProcId Main = B.createMain("m");
        ProcId Q = B.createProc("q", Main);
        B.addFormal(Q, "f");
        B.addCallStmt(Main, Q, {}); // Missing the one actual.
        B.finish();
      },
      "arity mismatch");
}

TEST(ProgramBuilder, ScopeViolationDiesInFinish) {
  // Calling a procedure that is not lexically visible must be rejected.
  ASSERT_DEATH(
      {
        ProgramBuilder B;
        ProcId Main = B.createMain("m");
        ProcId Outer = B.createProc("outer", Main);
        ProcId Inner = B.createProc("inner", Outer);
        ProcId Other = B.createProc("other", Main);
        (void)Inner;
        B.addCallStmt(Other, Inner, {}); // Inner is hidden inside Outer.
        B.finish();
      },
      "lexical scoping");
}

/// Main with two flat sibling procedures, each called once from main.
Program siblingsProgram() {
  ProgramBuilder B;
  ProcId Main = B.createMain("m");
  ProcId A = B.createProc("a", Main);
  ProcId Bp = B.createProc("b", Main);
  B.addCallStmt(Main, A, {});
  B.addCallStmt(Main, Bp, {});
  return B.finish();
}

/// Decodes encoded program tables; returns decode's (verify's) error.
std::string decodeError(const std::vector<std::uint8_t> &Bytes) {
  ByteReader R(Bytes.data(), Bytes.size());
  Program Q;
  std::string Err;
  EXPECT_FALSE(persist::ProgramCodec::decode(R, Q, Err));
  return Err;
}

TEST(Program, VerifyRejectsProcMissingFromParentNested) {
  using namespace programtables;
  std::vector<std::uint8_t> Bytes = encode(siblingsProgram());
  {
    ByteReader R(Bytes.data(), Bytes.size());
    Program Q;
    std::string Err;
    ASSERT_TRUE(persist::ProgramCodec::decode(R, Q, Err)) << Err;
  }
  // b keeps main as its parent, but main no longer lists it.
  dropLast(Bytes, mainListOffset(Bytes, ProcList::Nested));
  EXPECT_NE(decodeError(Bytes).find(
                "procedure b missing from its parent's Nested list"),
            std::string::npos);
}

TEST(Program, VerifyRejectsCallSiteMissingFromCallerList) {
  using namespace programtables;
  std::vector<std::uint8_t> Bytes = encode(siblingsProgram());
  dropLast(Bytes, mainListOffset(Bytes, ProcList::CallSites));
  EXPECT_NE(decodeError(Bytes).find("call site missing from its caller's list"),
            std::string::npos);
}

TEST(Printer, RendersProgram) {
  Example E;
  std::string Text = printProgram(E.P);
  EXPECT_NE(Text.find("program main"), std::string::npos);
  EXPECT_NE(Text.find("proc p(a, b)"), std::string::npos);
  EXPECT_NE(Text.find("call q(b)"), std::string::npos);
  EXPECT_NE(Text.find("mod{x}"), std::string::npos);
}

TEST(Printer, QualifiedNames) {
  Example E;
  EXPECT_EQ(qualifiedName(E.P, E.G), "g");
  EXPECT_EQ(qualifiedName(E.P, E.X), "p.x");
  EXPECT_EQ(qualifiedName(E.P, E.C), "q.c");
}

TEST(Printer, SetToStringSortsQualifiedNames) {
  Example E;
  EffectSet S(E.P.numVars());
  EXPECT_EQ(setToString(E.P, S), "");
  S.set(E.C.index());
  S.set(E.X.index());
  S.set(E.G.index());
  EXPECT_EQ(setToString(E.P, S), "g, p.x, q.c");
}

TEST(AliasInfo, StoresNormalizedPairs) {
  Example E;
  AliasInfo AI(E.P);
  AI.addPair(E.PProc, E.Bv, E.A); // Stored with the smaller id first.
  ASSERT_EQ(AI.pairs(E.PProc).size(), 1u);
  EXPECT_EQ(AI.pairs(E.PProc)[0].first, E.A);
  EXPECT_EQ(AI.pairs(E.PProc)[0].second, E.Bv);
  EXPECT_EQ(AI.totalPairs(), 1u);
  EXPECT_TRUE(AI.pairs(E.QProc).empty());
}

//===----------------------------------------------------------------------===//
// Pooled tables against a vector-of-vectors shadow model.
//===----------------------------------------------------------------------===//

template <typename T> std::vector<T> vecOf(std::span<const T> S) {
  return std::vector<T>(S.begin(), S.end());
}

/// The program as plain vectors: what every accessor must return.  Edits
/// are applied to it independently of ProgramEditor, following the
/// editor's documented id rules.
struct Model {
  struct Proc {
    std::string Name;
    ProcId Parent;
    unsigned Level = 0;
    std::vector<ProcId> Nested;
    std::vector<VarId> Formals, Locals;
    std::vector<StmtId> Stmts;
    std::vector<CallSiteId> CallSites;
  };
  struct Var {
    std::string Name;
    VarKind Kind = VarKind::Global;
    ProcId Owner;
    unsigned FormalPos = ~0u;
  };
  struct Stmt {
    ProcId Parent;
    std::vector<VarId> LMod, LUse;
    std::vector<CallSiteId> Calls;
  };
  struct Call {
    ProcId Caller, Callee;
    StmtId Stmt;
    std::vector<Actual> Actuals;
  };
  std::vector<Proc> Procs;
  std::vector<Var> Vars;
  std::vector<Stmt> Stmts;
  std::vector<Call> Calls;
  /// Every name ever interned: the table never forgets one.
  std::set<std::string> Names;

  static Model of(const Program &P) {
    Model M;
    for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
      Procedure Pr = P.proc(ProcId(I));
      M.Procs.push_back({P.name(ProcId(I)), Pr.Parent, Pr.Level,
                         vecOf(Pr.Nested), vecOf(Pr.Formals),
                         vecOf(Pr.Locals), vecOf(Pr.Stmts),
                         vecOf(Pr.CallSites)});
    }
    for (std::uint32_t I = 0; I != P.numVars(); ++I) {
      const Variable &V = P.var(VarId(I));
      M.Vars.push_back({P.name(VarId(I)), V.Kind, V.Owner, V.FormalPos});
    }
    for (std::uint32_t I = 0; I != P.numStmts(); ++I) {
      Statement S = P.stmt(StmtId(I));
      M.Stmts.push_back(
          {S.Parent, vecOf(S.LMod), vecOf(S.LUse), vecOf(S.Calls)});
    }
    for (std::uint32_t I = 0; I != P.numCallSites(); ++I) {
      CallSite C = P.callSite(CallSiteId(I));
      M.Calls.push_back({C.Caller, C.Callee, C.Stmt, vecOf(C.Actuals)});
    }
    for (SymbolId I = 0; I != P.names().size(); ++I)
      M.Names.insert(P.names().text(I));
    return M;
  }

  template <typename T> static void eraseFirst(std::vector<T> &L, T V) {
    L.erase(std::find(L.begin(), L.end(), V));
  }

  void addVar(ProcId Owner, const std::string &Name, VarKind Kind) {
    VarId Id(static_cast<std::uint32_t>(Vars.size()));
    Var V{Name, Kind, Owner, ~0u};
    if (Kind == VarKind::Formal) {
      V.FormalPos = static_cast<unsigned>(Procs[Owner.index()].Formals.size());
      Procs[Owner.index()].Formals.push_back(Id);
    } else {
      Procs[Owner.index()].Locals.push_back(Id);
    }
    Vars.push_back(V);
  }

  void apply(const incremental::Edit &E) {
    using K = incremental::EditKind;
    if (E.Kind >= K::AddProc && E.Kind != K::RemoveProc)
      Names.insert(E.Name);
    switch (E.Kind) {
    case K::AddMod:
      Stmts[E.Stmt.index()].LMod.push_back(E.Var);
      break;
    case K::RemoveMod:
      eraseFirst(Stmts[E.Stmt.index()].LMod, E.Var);
      break;
    case K::AddUse:
      Stmts[E.Stmt.index()].LUse.push_back(E.Var);
      break;
    case K::RemoveUse:
      eraseFirst(Stmts[E.Stmt.index()].LUse, E.Var);
      break;
    case K::AddStmt: {
      Procs[E.Proc.index()].Stmts.push_back(
          StmtId(static_cast<std::uint32_t>(Stmts.size())));
      Stmts.push_back({E.Proc, {}, {}, {}});
      break;
    }
    case K::AddCall: {
      CallSiteId Id(static_cast<std::uint32_t>(Calls.size()));
      ProcId Caller = Stmts[E.Stmt.index()].Parent;
      Calls.push_back({Caller, E.Callee, E.Stmt, E.Actuals});
      Stmts[E.Stmt.index()].Calls.push_back(Id);
      Procs[Caller.index()].CallSites.push_back(Id);
      break;
    }
    case K::RemoveCall: {
      const Call Doomed = Calls[E.Call.index()];
      eraseFirst(Stmts[Doomed.Stmt.index()].Calls, E.Call);
      eraseFirst(Procs[Doomed.Caller.index()].CallSites, E.Call);
      CallSiteId Last(static_cast<std::uint32_t>(Calls.size() - 1));
      if (E.Call != Last) {
        Calls[E.Call.index()] = Calls.back();
        const Call &Moved = Calls[E.Call.index()];
        std::replace(Stmts[Moved.Stmt.index()].Calls.begin(),
                     Stmts[Moved.Stmt.index()].Calls.end(), Last, E.Call);
        std::replace(Procs[Moved.Caller.index()].CallSites.begin(),
                     Procs[Moved.Caller.index()].CallSites.end(), Last,
                     E.Call);
      }
      Calls.pop_back();
      break;
    }
    case K::AddProc: {
      ProcId Id(static_cast<std::uint32_t>(Procs.size()));
      Procs.push_back({E.Name, E.Proc, Procs[E.Proc.index()].Level + 1,
                       {}, {}, {}, {}, {}});
      Procs[E.Proc.index()].Nested.push_back(Id);
      break;
    }
    case K::AddGlobal:
      addVar(ProcId(0), E.Name, VarKind::Global);
      break;
    case K::AddLocal:
      addVar(E.Proc, E.Name,
             E.Proc == ProcId(0) ? VarKind::Global : VarKind::Local);
      break;
    case K::AddFormal:
      addVar(E.Proc, E.Name, VarKind::Formal);
      break;
    case K::RemoveProc:
      removeProc(E.Proc);
      break;
    }
  }

  void removeProc(ProcId Dead) {
    eraseFirst(Procs[Procs[Dead.index()].Parent.index()].Nested, Dead);
    auto shift = [](std::size_t N, auto IsDead) {
      std::vector<std::uint32_t> Map(N);
      std::uint32_t Next = 0;
      for (std::uint32_t I = 0; I != N; ++I)
        Map[I] = IsDead(I) ? ~0u : Next++;
      return Map;
    };
    auto PM = shift(Procs.size(), [&](auto I) { return I == Dead.index(); });
    auto VM = shift(Vars.size(), [&](auto I) { return Vars[I].Owner == Dead; });
    auto SM = shift(Stmts.size(),
                    [&](auto I) { return Stmts[I].Parent == Dead; });
    auto CM = shift(Calls.size(),
                    [&](auto I) { return Calls[I].Caller == Dead; });
    auto keep = [](auto &Table, const std::vector<std::uint32_t> &Map) {
      std::remove_reference_t<decltype(Table)> Out;
      for (std::size_t I = 0; I != Table.size(); ++I)
        if (Map[I] != ~0u)
          Out.push_back(Table[I]);
      Table = std::move(Out);
    };
    keep(Procs, PM);
    keep(Vars, VM);
    keep(Stmts, SM);
    keep(Calls, CM);
    auto P = [&](ProcId &Id) { Id = ProcId(PM[Id.index()]); };
    auto V = [&](VarId &Id) { Id = VarId(VM[Id.index()]); };
    auto S = [&](StmtId &Id) { Id = StmtId(SM[Id.index()]); };
    auto C = [&](CallSiteId &Id) { Id = CallSiteId(CM[Id.index()]); };
    for (Proc &Pr : Procs) {
      if (Pr.Parent.isValid())
        P(Pr.Parent);
      std::for_each(Pr.Nested.begin(), Pr.Nested.end(), P);
      std::for_each(Pr.Formals.begin(), Pr.Formals.end(), V);
      std::for_each(Pr.Locals.begin(), Pr.Locals.end(), V);
      std::for_each(Pr.Stmts.begin(), Pr.Stmts.end(), S);
      std::for_each(Pr.CallSites.begin(), Pr.CallSites.end(), C);
    }
    for (Var &Vr : Vars)
      P(Vr.Owner);
    for (Stmt &St : Stmts) {
      P(St.Parent);
      std::for_each(St.LMod.begin(), St.LMod.end(), V);
      std::for_each(St.LUse.begin(), St.LUse.end(), V);
      std::for_each(St.Calls.begin(), St.Calls.end(), C);
    }
    for (Call &Cl : Calls) {
      P(Cl.Caller);
      P(Cl.Callee);
      S(Cl.Stmt);
      for (Actual &A : Cl.Actuals)
        if (A.isVariable())
          V(A.Var);
    }
  }
};

/// Every accessor of \p P against the model; false at the first mismatch.
::testing::AssertionResult matches(const Program &P, const Model &M) {
  auto Fail = [](const std::string &What) {
    return ::testing::AssertionFailure() << What;
  };
  if (P.numProcs() != M.Procs.size() || P.numVars() != M.Vars.size() ||
      P.numStmts() != M.Stmts.size() ||
      P.numCallSites() != M.Calls.size())
    return Fail("table sizes differ");
  if (P.names().size() != M.Names.size())
    return Fail("name table size differs");
  unsigned MaxLevel = 0;
  for (std::uint32_t I = 0; I != M.Procs.size(); ++I) {
    const Model::Proc &E = M.Procs[I];
    Procedure Pr = P.proc(ProcId(I));
    MaxLevel = std::max(MaxLevel, E.Level);
    if (P.name(ProcId(I)) != E.Name || Pr.Parent != E.Parent ||
        Pr.Level != E.Level || P.names().text(Pr.Name) != E.Name)
      return Fail("proc " + std::to_string(I) + " header differs");
    if (vecOf(Pr.Nested) != E.Nested || vecOf(Pr.Formals) != E.Formals ||
        vecOf(Pr.Locals) != E.Locals || vecOf(Pr.Stmts) != E.Stmts ||
        vecOf(Pr.CallSites) != E.CallSites)
      return Fail("proc " + std::to_string(I) + " lists differ");
  }
  if (P.maxProcLevel() != MaxLevel)
    return Fail("max level differs");
  for (std::uint32_t I = 0; I != M.Vars.size(); ++I) {
    const Variable &V = P.var(VarId(I));
    const Model::Var &E = M.Vars[I];
    if (P.name(VarId(I)) != E.Name || V.Kind != E.Kind ||
        V.Owner != E.Owner || V.FormalPos != E.FormalPos)
      return Fail("var " + std::to_string(I) + " differs");
  }
  for (std::uint32_t I = 0; I != M.Stmts.size(); ++I) {
    Statement S = P.stmt(StmtId(I));
    const Model::Stmt &E = M.Stmts[I];
    if (S.Parent != E.Parent || vecOf(S.LMod) != E.LMod ||
        vecOf(S.LUse) != E.LUse || vecOf(S.Calls) != E.Calls)
      return Fail("stmt " + std::to_string(I) + " differs");
  }
  for (std::uint32_t I = 0; I != M.Calls.size(); ++I) {
    CallSite C = P.callSite(CallSiteId(I));
    const Model::Call &E = M.Calls[I];
    if (C.Caller != E.Caller || C.Callee != E.Callee || C.Stmt != E.Stmt ||
        vecOf(C.Actuals) != E.Actuals)
      return Fail("call site " + std::to_string(I) + " differs");
  }
  return ::testing::AssertionSuccess();
}

TEST(ProgramPools, SeededEditSequencesMatchShadowModel) {
  std::size_t Counts[programedits::NumEditKinds] = {};
  for (std::uint64_t Seed = 1; Seed != 7; ++Seed) {
    synth::ProgramGenConfig Cfg;
    Cfg.NumProcs = 30;
    Cfg.NumGlobals = 5;
    Cfg.MaxNestDepth = 1 + Seed % 3;
    Cfg.Seed = Seed;
    Program P = synth::generateProgram(Cfg);
    Model M = Model::of(P);
    synth::EditGenConfig ECfg;
    ECfg.Seed = 100 + Seed;
    synth::EditGen Gen(ECfg);
    for (unsigned Step = 0; Step != 250; ++Step) {
      std::optional<incremental::Edit> E = Gen.next(P);
      ASSERT_TRUE(E.has_value());
      const std::string Ctx = "seed " + std::to_string(Seed) + " step " +
                              std::to_string(Step) + ": " +
                              incremental::toString(P, *E);
      // Edit a copy; the original must not move, names included.
      const Program Before = P;
      const Model ModelBefore = M;
      programedits::applyToProgram(P, *E);
      M.apply(*E);
      ++Counts[static_cast<std::size_t>(E->Kind)];

      std::string Err;
      ASSERT_TRUE(P.verify(Err)) << Ctx << ": " << Err;
      ASSERT_TRUE(matches(P, M)) << Ctx;
      ASSERT_TRUE(matches(Before, ModelBefore)) << Ctx << " (original)";
      if (!E->Name.empty() && !ModelBefore.Names.count(E->Name)) {
        ASSERT_EQ(Before.names().lookup(E->Name), InvalidSymbol) << Ctx;
      }

      std::vector<std::uint8_t> Bytes = programtables::encode(P);
      ByteReader R(Bytes.data(), Bytes.size());
      Program Decoded;
      ASSERT_TRUE(persist::ProgramCodec::decode(R, Decoded, Err))
          << Ctx << ": " << Err;
      ASSERT_TRUE(matches(Decoded, M)) << Ctx << " (decoded)";
      ASSERT_EQ(programtables::encode(Decoded), Bytes) << Ctx;
    }
  }
  for (std::size_t K = 0; K != programedits::NumEditKinds; ++K)
    EXPECT_GT(Counts[K], 0u) << "edit kind " << K << " never drawn";
}

TEST(ProgramPools, AppendsToOneListAfterAnotherGrewStayOrdered) {
  // Alternating appends to two statements move each list to the pool's
  // end on every turn, so dead slots pile up and compaction runs many
  // times while both lists keep their order.
  Example E;
  ProgramEditor Ed(E.P);
  StmtId S1 = Ed.addStmt(E.PProc), S2 = Ed.addStmt(E.QProc);
  std::vector<VarId> L1, L2;
  for (unsigned I = 0; I != 200; ++I) {
    VarId A = I % 2 ? E.G : E.A, C = I % 3 ? E.H : E.C;
    Ed.addMod(S1, A);
    Ed.addMod(S2, C);
    L1.push_back(A);
    L2.push_back(C);
    if (I % 7 == 6) {
      ASSERT_TRUE(Ed.removeMod(S1, E.G));
      L1.erase(std::find(L1.begin(), L1.end(), E.G));
    }
    ASSERT_EQ(vecOf(E.P.stmt(S1).LMod), L1) << "after " << I;
    ASSERT_EQ(vecOf(E.P.stmt(S2).LMod), L2) << "after " << I;
  }
  std::string Err;
  EXPECT_TRUE(E.P.verify(Err)) << Err;
}

TEST(StringInterner, GrowsAcrossRehashesWithStableIds) {
  StringInterner SI;
  std::vector<std::string> Texts;
  for (unsigned I = 0; I != 5000; ++I) {
    Texts.push_back("v" + std::to_string(I * 7919u % 100003u));
    ASSERT_EQ(SI.intern(Texts.back()), static_cast<SymbolId>(I));
    if (I % 97 == 0) { // Earlier ids survive every rehash.
      for (unsigned J = 0; J <= I; J += 13)
        ASSERT_EQ(SI.intern(Texts[J]), static_cast<SymbolId>(J));
    }
  }
  EXPECT_EQ(SI.size(), Texts.size());
  for (unsigned I = 0; I != Texts.size(); ++I) {
    EXPECT_EQ(SI.lookup(Texts[I]), static_cast<SymbolId>(I));
    EXPECT_EQ(SI.text(I), Texts[I]);
  }
  for (unsigned I = 0; I != 2000; ++I)
    EXPECT_EQ(SI.lookup("w" + std::to_string(I)), InvalidSymbol);
  EXPECT_EQ(SI.lookup(""), InvalidSymbol);
  EXPECT_EQ(StringInterner().lookup("v0"), InvalidSymbol);
}

TEST(StringInterner, InternIntoACopyLeavesTheOriginal) {
  StringInterner Orig;
  for (unsigned I = 0; I != 40; ++I)
    Orig.intern("n" + std::to_string(I));
  StringInterner Copy = Orig;
  EXPECT_EQ(Copy.intern("n7"), 7u); // A hit needs no clone.
  for (unsigned I = 40; I != 100; ++I)
    EXPECT_EQ(Copy.intern("n" + std::to_string(I)), static_cast<SymbolId>(I));
  EXPECT_EQ(Orig.size(), 40u);
  EXPECT_EQ(Orig.lookup("n40"), InvalidSymbol);
  EXPECT_EQ(Orig.lookup("n39"), 39u);
  // And the other way round: the original's new names stay its own.
  EXPECT_EQ(Orig.intern("only-orig"), 40u);
  EXPECT_EQ(Copy.lookup("only-orig"), InvalidSymbol);
  EXPECT_EQ(Copy.text(40), "n40");
  StringInterner Assigned;
  Assigned = Copy;
  Assigned.intern("only-assigned");
  EXPECT_EQ(Copy.lookup("only-assigned"), InvalidSymbol);
  EXPECT_EQ(Copy.size(), 100u);
}

TEST(StrongId, DefaultIsInvalid) {
  VarId V;
  EXPECT_FALSE(V.isValid());
  VarId W(3);
  EXPECT_TRUE(W.isValid());
  EXPECT_EQ(W.index(), 3u);
  EXPECT_NE(V, W);
}

} // namespace
