//===- frontend/Interpreter.cpp - Concrete MiniProc execution ------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "frontend/Interpreter.h"

#include "support/Compiler.h"

#include <cassert>
#include <map>
#include <set>
#include <string_view>

using namespace ipse;
using namespace ipse::frontend;
using namespace ipse::frontend::ast;

namespace {

using CellId = std::uint32_t;

/// An activation record: the owning procedure's index (0 for main), the
/// static link to the lexically enclosing activation, and the name
/// bindings this frame introduces.
struct Frame {
  std::uint32_t Proc = 0;
  const Frame *StaticLink = nullptr;
  std::map<std::string_view, CellId> Vars;
};

/// Per-call effect tracking during the call's dynamic extent.
struct Record {
  std::set<CellId> Written;
  std::set<CellId> Read;
};

class Machine {
public:
  Machine(const ProgramAst &Ast, const InterpreterOptions &Options)
      : Ast(Ast), Options(Options), CallIndex(Ast.Stmts.size()) {
    for (const Proc &Decl : Ast.Procs) {
      unsigned Next = 0;
      indexCalls(Decl.Body, Next);
    }
  }

  ExecutionResult run() {
    Frame Main;
    for (std::string_view G : Ast.names(Ast.main().Vars))
      Main.Vars[G] = newCell();

    execStmts(Ast.main().Body, Main);
    Result.Finished = !Aborted;
    Result.Steps = Steps;
    for (const auto &[Name, Cell] : Main.Vars)
      Result.Globals[std::string(Name)] = Cells[Cell];
    return std::move(Result);
  }

private:
  //===--------------------------------------------------------------------===//
  // Static structure: textual call indices per procedure.
  //===--------------------------------------------------------------------===//

  /// Numbers a procedure's call statements in the order Sema lowers them,
  /// so the number matches the caller's CallSites list in the ir::Program.
  void indexCalls(Range Stmts, unsigned &Next) {
    for (std::uint32_t S : Ast.list(Stmts)) {
      const Stmt &Node = Ast.Stmts[S];
      switch (Node.K) {
      case Stmt::Kind::Call:
        CallIndex[S] = Next++;
        break;
      case Stmt::Kind::If:
      case Stmt::Kind::While:
        indexCalls(Node.Then, Next);
        indexCalls(Node.Else, Next);
        break;
      default:
        break;
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Cells and effect tracking.
  //===--------------------------------------------------------------------===//

  CellId newCell() {
    Cells.push_back(0);
    return static_cast<CellId>(Cells.size() - 1);
  }

  std::int64_t readCell(CellId C) {
    for (Record *R : ActiveRecords)
      R->Read.insert(C);
    return Cells[C];
  }

  void writeCell(CellId C, std::int64_t V) {
    for (Record *R : ActiveRecords)
      R->Written.insert(C);
    Cells[C] = V;
  }

  //===--------------------------------------------------------------------===//
  // Name resolution along the static chain.
  //===--------------------------------------------------------------------===//

  CellId lookupVar(const Frame &F, std::string_view Name) const {
    for (const Frame *Cur = &F; Cur; Cur = Cur->StaticLink) {
      auto It = Cur->Vars.find(Name);
      if (It != Cur->Vars.end())
        return It->second;
    }
    unreachable("interpreter: unresolved variable (run Sema first)");
  }

  /// Finds the innermost visible procedure declaration named \p Name and
  /// the frame that will serve as its static link (the activation of the
  /// scope declaring it).
  std::pair<std::uint32_t, const Frame *>
  lookupProc(const Frame &F, std::string_view Name) const {
    for (const Frame *Cur = &F; Cur; Cur = Cur->StaticLink)
      for (std::uint32_t Decl : Ast.list(Ast.Procs[Cur->Proc].Procs))
        if (Ast.Procs[Decl].Name == Name)
          return {Decl, Cur};
    unreachable("interpreter: unresolved procedure (run Sema first)");
  }

  /// The caller-visible variables at \p F: qualified name -> cell, inner
  /// declarations shadowing outer ones.
  std::map<std::string, CellId> visibleVars(const Frame &F) const {
    std::map<std::string, CellId> Out;          // qualified -> cell
    std::set<std::string_view> SeenUnqualified; // shadowing filter
    for (const Frame *Cur = &F; Cur; Cur = Cur->StaticLink) {
      for (const auto &[Name, Cell] : Cur->Vars) {
        if (!SeenUnqualified.insert(Name).second)
          continue;
        std::string Qualified(Name);
        if (Cur->Proc != 0)
          Qualified = std::string(Ast.Procs[Cur->Proc].Name) + "." + Qualified;
        Out.emplace(std::move(Qualified), Cell);
      }
    }
    return Out;
  }

  //===--------------------------------------------------------------------===//
  // Evaluation and execution.
  //===--------------------------------------------------------------------===//

  bool budget() {
    if (Steps >= Options.MaxSteps) {
      Aborted = true;
      return false;
    }
    ++Steps;
    return true;
  }

  std::int64_t evalExpr(std::uint32_t Index, const Frame &F) {
    if (Aborted)
      return 0;
    const Expr &E = Ast.Exprs[Index];
    switch (E.K) {
    case Expr::Kind::Number:
      return E.Value;
    case Expr::Kind::VarRef:
      return readCell(lookupVar(F, E.Name));
    case Expr::Kind::Unary:
      return static_cast<std::int64_t>(
          -static_cast<std::uint64_t>(evalExpr(E.Lhs, F)));
    case Expr::Kind::Binary: {
      std::int64_t L = evalExpr(E.Lhs, F);
      std::int64_t R = evalExpr(E.Rhs, F);
      switch (E.Op) {
      case '+':
        return static_cast<std::int64_t>(static_cast<std::uint64_t>(L) +
                                         static_cast<std::uint64_t>(R));
      case '-':
        return static_cast<std::int64_t>(static_cast<std::uint64_t>(L) -
                                         static_cast<std::uint64_t>(R));
      case '*':
        return static_cast<std::int64_t>(static_cast<std::uint64_t>(L) *
                                         static_cast<std::uint64_t>(R));
      case '/':
        if (R == 0)
          return 0; // Total semantics: x/0 = 0.
        if (R == -1) // Avoid INT64_MIN / -1 overflow.
          return static_cast<std::int64_t>(-static_cast<std::uint64_t>(L));
        return L / R;
      }
      unreachable("interpreter: unknown binary operator");
    }
    }
    unreachable("interpreter: unknown expression kind");
  }

  void execStmts(Range Stmts, Frame &F) {
    for (std::uint32_t S : Ast.list(Stmts)) {
      if (Aborted)
        return;
      execStmt(S, F);
    }
  }

  void execStmt(std::uint32_t Index, Frame &F) {
    if (!budget())
      return;
    const Stmt &S = Ast.Stmts[Index];
    switch (S.K) {
    case Stmt::Kind::Assign: {
      std::int64_t V = evalExpr(S.Value, F);
      writeCell(lookupVar(F, S.Name), V);
      return;
    }
    case Stmt::Kind::Read: {
      std::int64_t V =
          NextInput < Options.Input.size() ? Options.Input[NextInput++] : 0;
      writeCell(lookupVar(F, S.Name), V);
      return;
    }
    case Stmt::Kind::Write:
      Result.Output.push_back(evalExpr(S.Value, F));
      return;
    case Stmt::Kind::If:
      if (evalExpr(S.Value, F) != 0)
        execStmts(S.Then, F);
      else
        execStmts(S.Else, F);
      return;
    case Stmt::Kind::While:
      while (!Aborted && evalExpr(S.Value, F) != 0) {
        if (!budget())
          return;
        execStmts(S.Then, F);
      }
      return;
    case Stmt::Kind::Call:
      execCall(Index, F);
      return;
    }
  }

  void execCall(std::uint32_t Index, Frame &F) {
    if (ActiveRecords.size() >= Options.MaxDepth) {
      Aborted = true;
      return;
    }
    const Stmt &S = Ast.Stmts[Index];
    auto [DeclIndex, DeclFrame] = lookupProc(F, S.Name);
    const Proc &Decl = Ast.Procs[DeclIndex];
    assert(Decl.Params.size() == S.Args.size() &&
           "interpreter: arity mismatch (run Sema first)");

    // Start the observable event.
    std::size_t EventIdx = Result.Calls.size();
    {
      CallEvent Event;
      Event.CallerProc = Ast.Procs[F.Proc].Name;
      Event.CallIndexInCaller = CallIndex[Index];
      Event.Callee = S.Name;
      Result.Calls.push_back(std::move(Event));
    }
    std::map<std::string, CellId> Snapshot = visibleVars(F);

    // Bind actuals: bare variables by reference, expressions by value.
    Frame Callee;
    Callee.Proc = DeclIndex;
    Callee.StaticLink = DeclFrame;
    std::span<const std::string_view> Params = Ast.names(Decl.Params);
    std::span<const std::uint32_t> Args = Ast.list(S.Args);
    for (std::size_t I = 0; I != Args.size(); ++I) {
      const Expr &Arg = Ast.Exprs[Args[I]];
      CellId Cell;
      if (Arg.isVarRef()) {
        Cell = lookupVar(F, Arg.Name);
      } else {
        Cell = newCell();
        Cells[Cell] = evalExpr(Args[I], F);
      }
      Callee.Vars[Params[I]] = Cell;
    }
    for (std::string_view Local : Ast.names(Decl.Vars))
      Callee.Vars[Local] = newCell();

    Record R;
    ActiveRecords.push_back(&R);
    execStmts(Decl.Body, Callee);
    ActiveRecords.pop_back();

    // Report the caller-visible effects.
    CallEvent &Event = Result.Calls[EventIdx];
    Event.Completed = !Aborted;
    for (const auto &[Qualified, Cell] : Snapshot) {
      if (R.Written.count(Cell))
        Event.WrittenVisible.push_back(Qualified);
      if (R.Read.count(Cell))
        Event.ReadVisible.push_back(Qualified);
    }
  }

  const ProgramAst &Ast;
  const InterpreterOptions &Options;
  ExecutionResult Result;

  std::vector<std::int64_t> Cells;
  std::vector<Record *> ActiveRecords;
  /// A call statement's position among its procedure's call statements,
  /// by statement index.
  std::vector<unsigned> CallIndex;

  std::uint64_t Steps = 0;
  std::size_t NextInput = 0;
  bool Aborted = false;
};

} // namespace

ExecutionResult frontend::interpret(const ProgramAst &Ast,
                                    const InterpreterOptions &Options) {
  return Machine(Ast, Options).run();
}
