//===- synth/ProgramGen.cpp - Synthetic program generators --------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "synth/ProgramGen.h"

#include "ir/ProgramBuilder.h"
#include "support/Rng.h"

#include <string>
#include <vector>

using namespace ipse;
using namespace ipse::synth;
using namespace ipse::ir;

namespace {

/// The lexical chain p, parent(p), ..., main.
std::vector<ProcId> ancestorsOrSelf(const Program &P, ProcId Proc) {
  std::vector<ProcId> Chain;
  for (ProcId Cur = Proc; Cur.isValid(); Cur = P.proc(Cur).Parent)
    Chain.push_back(Cur);
  return Chain;
}

/// Every variable visible in \p Proc, in deterministic order.
std::vector<VarId> visibleVars(const Program &P, ProcId Proc) {
  std::vector<VarId> Vars;
  for (ProcId A : ancestorsOrSelf(P, Proc)) {
    for (VarId F : P.proc(A).Formals)
      Vars.push_back(F);
    for (VarId L : P.proc(A).Locals)
      Vars.push_back(L);
  }
  return Vars;
}

/// Every *formal* visible in \p Proc (its own and its ancestors').
std::vector<VarId> visibleFormals(const Program &P, ProcId Proc) {
  std::vector<VarId> Formals;
  for (ProcId A : ancestorsOrSelf(P, Proc))
    for (VarId F : P.proc(A).Formals)
      Formals.push_back(F);
  return Formals;
}

/// Every procedure callable from \p Proc: those declared by \p Proc or by
/// one of its ancestors (lexical visibility; main is never callable).
std::vector<ProcId> visibleCallees(const Program &P, ProcId Proc) {
  std::vector<ProcId> Callees;
  for (ProcId A : ancestorsOrSelf(P, Proc))
    for (ProcId N : P.proc(A).Nested)
      Callees.push_back(N);
  return Callees;
}

} // namespace

Program synth::generateProgram(const ProgramGenConfig &Config) {
  Rng R(Config.Seed);
  ProgramBuilder B;
  ProcId Main = B.createMain("main");

  for (unsigned G = 0; G != Config.NumGlobals; ++G)
    B.addGlobal("g" + std::to_string(G));

  // Procedures: pick each parent among already-created procedures whose
  // level still admits a child, biased toward main so two-level shapes
  // dominate unless deep nesting was requested.
  std::vector<ProcId> Procs;
  for (unsigned I = 0; I != Config.NumProcs; ++I) {
    ProcId Parent = Main;
    if (Config.MaxNestDepth > 1 && !Procs.empty() && R.nextChance(40, 100)) {
      ProcId Candidate = Procs[R.nextBelow(Procs.size())];
      if (B.peek().proc(Candidate).Level < Config.MaxNestDepth)
        Parent = Candidate;
    }
    ProcId Id = B.createProc("p" + std::to_string(I), Parent);
    Procs.push_back(Id);
    unsigned NumFormals =
        static_cast<unsigned>(R.nextBelow(Config.MaxFormals + 1));
    for (unsigned F = 0; F != NumFormals; ++F)
      B.addFormal(Id, "p" + std::to_string(I) + "_f" + std::to_string(F));
    unsigned NumLocals =
        static_cast<unsigned>(R.nextBelow(Config.MaxLocals + 1));
    for (unsigned L = 0; L != NumLocals; ++L)
      B.addLocal(Id, "p" + std::to_string(I) + "_l" + std::to_string(L));
  }

  // Bodies: one local-effect statement plus a few call statements each,
  // for main and every procedure.
  std::vector<ProcId> All;
  All.push_back(Main);
  All.insert(All.end(), Procs.begin(), Procs.end());

  for (ProcId Proc : All) {
    const Program &Cur = B.peek();
    std::vector<VarId> Visible = visibleVars(Cur, Proc);
    std::vector<VarId> Formals = visibleFormals(Cur, Proc);

    StmtId Local = B.addStmt(Proc);
    for (VarId V : Visible) {
      if (R.nextChance(Config.ModDensityPct, 100))
        B.addMod(Local, V);
      if (R.nextChance(Config.UseDensityPct, 100))
        B.addUse(Local, V);
    }

    std::vector<ProcId> Callees = visibleCallees(Cur, Proc);
    if (!Config.AllowRecursion) {
      std::vector<ProcId> Forward;
      for (ProcId C : Callees)
        if (Proc < C)
          Forward.push_back(C);
      Callees = Forward;
    }
    if (Callees.empty())
      continue;

    unsigned NumCalls =
        static_cast<unsigned>(R.nextBelow(Config.MaxCallsPerProc + 1));
    for (unsigned CIdx = 0; CIdx != NumCalls; ++CIdx) {
      ProcId Callee = Callees[R.nextBelow(Callees.size())];
      std::vector<Actual> Actuals;
      for (std::size_t Pos = 0;
           Pos != B.peek().proc(Callee).Formals.size(); ++Pos) {
        if (!Formals.empty() &&
            R.nextChance(Config.FormalActualBiasPct, 100)) {
          Actuals.push_back(
              Actual::variable(Formals[R.nextBelow(Formals.size())]));
        } else if (!Visible.empty() && R.nextChance(60, 100)) {
          Actuals.push_back(
              Actual::variable(Visible[R.nextBelow(Visible.size())]));
        } else {
          Actuals.push_back(Actual::expression());
        }
      }
      B.addCall(B.addStmt(Proc), Callee, std::move(Actuals));
    }
  }

  return B.finish();
}

Program synth::makeChainProgram(unsigned NumProcs, unsigned NumFormals) {
  assert(NumProcs >= 1 && NumFormals >= 1 && "degenerate chain");
  ProgramBuilder B;
  ProcId Main = B.createMain("main");

  std::vector<VarId> Globals;
  for (unsigned F = 0; F != NumFormals; ++F)
    Globals.push_back(B.addGlobal("g" + std::to_string(F)));

  std::vector<ProcId> Chain;
  std::vector<std::vector<VarId>> Formals;
  for (unsigned I = 0; I != NumProcs; ++I) {
    ProcId P = B.createProc("p" + std::to_string(I), Main);
    Chain.push_back(P);
    std::vector<VarId> Fs;
    for (unsigned F = 0; F != NumFormals; ++F)
      Fs.push_back(
          B.addFormal(P, "p" + std::to_string(I) + "_f" + std::to_string(F)));
    Formals.push_back(std::move(Fs));
  }

  B.addCallStmt(Main, Chain[0], Globals);
  for (unsigned I = 0; I + 1 != NumProcs; ++I)
    B.addCallStmt(Chain[I], Chain[I + 1], Formals[I]);

  // Only the chain's end modifies anything: the effect must travel the
  // whole binding chain back to main's globals.
  StmtId S = B.addStmt(Chain[NumProcs - 1]);
  B.addMod(S, Formals[NumProcs - 1][0]);
  return B.finish();
}

Program synth::makeCycleProgram(unsigned NumProcs, unsigned NumFormals) {
  assert(NumProcs >= 1 && NumFormals >= 1 && "degenerate cycle");
  ProgramBuilder B;
  ProcId Main = B.createMain("main");

  std::vector<VarId> Globals;
  for (unsigned F = 0; F != NumFormals; ++F)
    Globals.push_back(B.addGlobal("g" + std::to_string(F)));

  std::vector<ProcId> Ring;
  std::vector<std::vector<VarId>> Formals;
  for (unsigned I = 0; I != NumProcs; ++I) {
    ProcId P = B.createProc("p" + std::to_string(I), Main);
    Ring.push_back(P);
    std::vector<VarId> Fs;
    for (unsigned F = 0; F != NumFormals; ++F)
      Fs.push_back(
          B.addFormal(P, "p" + std::to_string(I) + "_f" + std::to_string(F)));
    Formals.push_back(std::move(Fs));
  }

  B.addCallStmt(Main, Ring[0], Globals);
  for (unsigned I = 0; I != NumProcs; ++I)
    B.addCallStmt(Ring[I], Ring[(I + 1) % NumProcs], Formals[I]);

  StmtId S = B.addStmt(Ring[NumProcs - 1]);
  B.addMod(S, Formals[NumProcs - 1][0]);
  return B.finish();
}

Program synth::makeLayeredProgram(unsigned Layers, unsigned Width,
                                  unsigned Fanout, unsigned NumFormals,
                                  unsigned NumGlobals, std::uint64_t Seed) {
  assert(Layers >= 1 && Width >= 1 && "degenerate layering");
  Rng R(Seed);
  ProgramBuilder B;
  ProcId Main = B.createMain("main");

  std::vector<VarId> Globals;
  for (unsigned G = 0; G != NumGlobals; ++G)
    Globals.push_back(B.addGlobal("g" + std::to_string(G)));

  std::vector<std::vector<ProcId>> Layer(Layers);
  std::vector<std::vector<VarId>> Formals;
  std::vector<ProcId> Order;
  for (unsigned L = 0; L != Layers; ++L)
    for (unsigned W = 0; W != Width; ++W) {
      ProcId P = B.createProc(
          "p" + std::to_string(L) + "_" + std::to_string(W), Main);
      Layer[L].push_back(P);
      Order.push_back(P);
      std::vector<VarId> Fs;
      for (unsigned F = 0; F != NumFormals; ++F)
        Fs.push_back(B.addFormal(P, B.peek().name(P) + "_f" +
                                        std::to_string(F)));
      Formals.push_back(std::move(Fs));
    }

  // A copy: the builder's spans last only until its next call.
  auto formalsOf = [&](ProcId P) {
    std::span<const VarId> Fs = B.peek().proc(P).Formals;
    return std::vector<VarId>(Fs.begin(), Fs.end());
  };

  // Main seeds every layer-0 procedure with globals (or expressions when
  // there are not enough globals).
  for (ProcId P : Layer[0]) {
    std::vector<Actual> Actuals;
    for (unsigned F = 0; F != NumFormals; ++F) {
      if (F < Globals.size())
        Actuals.push_back(Actual::variable(Globals[F]));
      else
        Actuals.push_back(Actual::expression());
    }
    B.addCall(B.addStmt(Main), P, std::move(Actuals));
  }

  // Each procedure fans out into the next layer, rotating its formals so
  // binding chains braid across positions.
  for (unsigned L = 0; L + 1 != Layers; ++L)
    for (ProcId P : Layer[L]) {
      const std::vector<VarId> &Fs = formalsOf(P);
      for (unsigned K = 0; K != Fanout; ++K) {
        ProcId Callee = Layer[L + 1][R.nextBelow(Width)];
        unsigned Rot = static_cast<unsigned>(R.nextBelow(
            NumFormals == 0 ? 1 : NumFormals));
        std::vector<Actual> Actuals;
        for (unsigned F = 0; F != NumFormals; ++F)
          Actuals.push_back(Actual::variable(Fs[(F + Rot) % NumFormals]));
        B.addCall(B.addStmt(P), Callee, std::move(Actuals));
      }
    }

  // The deepest layer does the modifying.
  for (ProcId P : Layer[Layers - 1]) {
    StmtId S = B.addStmt(P);
    if (NumFormals != 0 && R.nextChance(50, 100))
      B.addMod(S, formalsOf(P)[R.nextBelow(NumFormals)]);
    if (!Globals.empty() && R.nextChance(50, 100))
      B.addMod(S, Globals[R.nextBelow(Globals.size())]);
  }
  return B.finish();
}

Program synth::makeFortranStyleProgram(unsigned NumProcs, unsigned NumGlobals,
                                       unsigned CallsPerProc,
                                       std::uint64_t Seed) {
  assert(NumProcs >= 1 && NumGlobals >= 1 && "degenerate program");
  Rng R(Seed);
  ProgramBuilder B;
  ProcId Main = B.createMain("main");

  std::vector<VarId> Globals;
  for (unsigned G = 0; G != NumGlobals; ++G)
    Globals.push_back(B.addGlobal("g" + std::to_string(G)));

  std::vector<ProcId> Procs;
  for (unsigned I = 0; I != NumProcs; ++I)
    Procs.push_back(B.createProc("sub" + std::to_string(I), Main));

  // Every procedure touches a handful of globals and calls a few others
  // (recursion allowed: callee drawn from the whole program).
  for (unsigned I = 0; I != NumProcs; ++I) {
    StmtId S = B.addStmt(Procs[I]);
    unsigned Touches = 1 + static_cast<unsigned>(R.nextBelow(4));
    for (unsigned T = 0; T != Touches; ++T) {
      VarId G = Globals[R.nextBelow(Globals.size())];
      if (R.nextChance(50, 100))
        B.addMod(S, G);
      else
        B.addUse(S, G);
    }
    for (unsigned C = 0; C != CallsPerProc; ++C)
      B.addCallStmt(Procs[I], Procs[R.nextBelow(NumProcs)], {});
  }

  // Main enters a few subroutines.
  unsigned Entries = std::min<unsigned>(NumProcs, 3);
  for (unsigned E = 0; E != Entries; ++E)
    B.addCallStmt(Main, Procs[R.nextBelow(NumProcs)], {});
  return B.finish();
}

Program synth::makeNestedProgram(unsigned Depth, unsigned ProcsPerLevel,
                                 std::uint64_t Seed) {
  assert(Depth >= 1 && ProcsPerLevel >= 1 && "degenerate nesting");
  Rng R(Seed);
  ProgramBuilder B;
  ProcId Main = B.createMain("main");
  B.addGlobal("g");

  // A tower t1 in t0=main, t2 in t1, ...; each level also gets siblings.
  std::vector<ProcId> Tower;
  std::vector<std::vector<ProcId>> Siblings(Depth);
  ProcId Parent = Main;
  for (unsigned L = 0; L != Depth; ++L) {
    ProcId T = B.createProc("t" + std::to_string(L + 1), Parent);
    B.addLocal(T, "v" + std::to_string(L + 1));
    B.addFormal(T, "t" + std::to_string(L + 1) + "_f");
    Tower.push_back(T);
    for (unsigned S = 1; S < ProcsPerLevel; ++S) {
      ProcId Sib = B.createProc(
          "s" + std::to_string(L + 1) + "_" + std::to_string(S), Parent);
      B.addLocal(Sib, B.peek().name(Sib) + "_v");
      Siblings[L].push_back(Sib);
    }
    Parent = T;
  }

  // Bodies: each tower member modifies a random visible variable, calls
  // its child (passing a visible variable by reference), sometimes calls a
  // visible ancestor or sibling (creating cycles that span levels).
  for (unsigned L = 0; L != Depth; ++L) {
    ProcId T = Tower[L];
    const Program &Cur = B.peek();
    std::vector<VarId> Visible = visibleVars(Cur, T);
    StmtId S = B.addStmt(T);
    B.addMod(S, Visible[R.nextBelow(Visible.size())]);
    B.addUse(S, Visible[R.nextBelow(Visible.size())]);

    if (L + 1 != Depth)
      B.addCallStmt(T, Tower[L + 1],
                    {Visible[R.nextBelow(Visible.size())]});
    for (ProcId Sib : Siblings[L])
      if (R.nextChance(60, 100))
        B.addCallStmt(T, Sib, {});
    // A call back up the tower closes a multi-level cycle.
    if (L >= 1 && R.nextChance(50, 100))
      B.addCallStmt(T, Tower[R.nextBelow(L + 1)],
                    {Visible[R.nextBelow(Visible.size())]});
  }

  // Sibling bodies: modify something visible, occasionally call the tower
  // member of their level.
  for (unsigned L = 0; L != Depth; ++L)
    for (ProcId Sib : Siblings[L]) {
      const Program &Cur = B.peek();
      std::vector<VarId> Visible = visibleVars(Cur, Sib);
      StmtId S = B.addStmt(Sib);
      B.addMod(S, Visible[R.nextBelow(Visible.size())]);
      if (R.nextChance(50, 100))
        B.addCallStmt(Sib, Tower[L], {Visible[R.nextBelow(Visible.size())]});
    }

  B.addCallStmt(Main, Tower[0], {B.peek().proc(Main).Locals[0]});
  return B.finish();
}
