//===- frontend/Sema.cpp - Name resolution and IR lowering --------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "frontend/Sema.h"

#include "ir/ProgramBuilder.h"

#include <string>
#include <string_view>
#include <unordered_map>

using namespace ipse;
using namespace ipse::frontend;
using namespace ipse::frontend::ast;

namespace {

/// What a name denotes in some scope.
struct Binding {
  enum class Kind { Variable, Procedure } K;
  ir::VarId Var;
  ir::ProcId Proc;

  static Binding variable(ir::VarId V) {
    return Binding{Kind::Variable, V, ir::ProcId()};
  }
  static Binding procedure(ir::ProcId P) {
    return Binding{Kind::Procedure, ir::VarId(), P};
  }
};

/// A lexical scope: one map per procedure body, chained to the parent.
/// Keys view the AST's names, which outlive every scope.
class Scope {
public:
  explicit Scope(const Scope *Parent) : Parent(Parent) {}

  /// Declares \p Name; returns false if it already exists in this scope.
  bool declare(std::string_view Name, Binding B) {
    return Bindings.emplace(Name, B).second;
  }

  /// Innermost binding for \p Name, or nullptr.
  const Binding *lookup(std::string_view Name) const {
    for (const Scope *S = this; S; S = S->Parent) {
      auto It = S->Bindings.find(Name);
      if (It != S->Bindings.end())
        return &It->second;
    }
    return nullptr;
  }

private:
  const Scope *Parent;
  std::unordered_map<std::string_view, Binding> Bindings;
};

class SemaImpl {
public:
  explicit SemaImpl(DiagnosticEngine &Diags) : Diags(Diags) {}

  std::optional<ir::Program> run(const ProgramAst &Ast) {
    ir::ProcId Main = B.createMain(Ast.Name);
    Scope Globals(nullptr);
    declareVars(Ast.Vars, Main, Globals, SourceLoc{1, 1});
    declareAndProcessProcs(Ast.Procs, Main, Globals);
    lowerStmts(Ast.Body, Main, Globals);
    if (Diags.hasErrors())
      return std::nullopt;
    return B.finish();
  }

private:
  void declareVars(const std::vector<std::string> &Names, ir::ProcId Owner,
                   Scope &S, SourceLoc Loc) {
    for (const std::string &Name : Names) {
      ir::VarId V = B.addLocal(Owner, Name);
      if (!S.declare(Name, Binding::variable(V)))
        Diags.report(Loc, "duplicate declaration of '" + Name + "'");
    }
  }

  /// Declares every procedure of a block — names *and* formal parameters,
  /// so arity is known before any body is lowered (siblings may be
  /// mutually recursive and call forward) — then processes the bodies.
  void declareAndProcessProcs(
      const std::vector<std::unique_ptr<ProcDecl>> &Procs, ir::ProcId Parent,
      Scope &S) {
    std::vector<ir::ProcId> Ids;
    Ids.reserve(Procs.size());
    for (const auto &Decl : Procs) {
      ir::ProcId Id = B.createProc(Decl->Name, Parent);
      Ids.push_back(Id);
      if (!S.declare(Decl->Name, Binding::procedure(Id)))
        Diags.report(Decl->Loc,
                     "duplicate declaration of '" + Decl->Name + "'");
      for (const std::string &Param : Decl->Params)
        B.addFormal(Id, Param);
    }
    for (std::size_t I = 0; I != Procs.size(); ++I)
      processProc(*Procs[I], Ids[I], S);
  }

  void processProc(const ProcDecl &Decl, ir::ProcId Id, const Scope &Parent) {
    Scope S(&Parent);
    // Formals were created in the declaration phase; bind their names now
    // (copy the list: the builder's storage moves as variables are added).
    std::span<const ir::VarId> Staged = B.peek().proc(Id).Formals;
    std::vector<ir::VarId> Formals(Staged.begin(), Staged.end());
    for (std::size_t I = 0; I != Decl.Params.size(); ++I)
      if (!S.declare(Decl.Params[I], Binding::variable(Formals[I])))
        Diags.report(Decl.Loc, "duplicate parameter '" + Decl.Params[I] +
                                   "' in '" + Decl.Name + "'");
    declareVars(Decl.Vars, Id, S, Decl.Loc);
    declareAndProcessProcs(Decl.Procs, Id, S);
    lowerStmts(Decl.Body, Id, S);
  }

  /// Resolves \p Name to a variable, reporting otherwise.
  ir::VarId resolveVar(const std::string &Name, const Scope &S,
                       SourceLoc Loc) {
    const Binding *Bind = S.lookup(Name);
    if (!Bind) {
      Diags.report(Loc, "use of undeclared name '" + Name + "'");
      return ir::VarId();
    }
    if (Bind->K != Binding::Kind::Variable) {
      Diags.report(Loc, "'" + Name + "' is a procedure, not a variable");
      return ir::VarId();
    }
    return Bind->Var;
  }

  /// Adds every variable referenced by \p E to LUSE of \p Stmt.
  void collectUses(const Expr &E, ir::StmtId Stmt, const Scope &S) {
    switch (E.K) {
    case Expr::Kind::Number:
      return;
    case Expr::Kind::VarRef: {
      ir::VarId V = resolveVar(E.Name, S, E.Loc);
      if (V.isValid())
        B.addUse(Stmt, V);
      return;
    }
    case Expr::Kind::Unary:
      collectUses(*E.Lhs, Stmt, S);
      return;
    case Expr::Kind::Binary:
      collectUses(*E.Lhs, Stmt, S);
      collectUses(*E.Rhs, Stmt, S);
      return;
    }
  }

  void lowerStmts(const std::vector<StmtPtr> &Stmts, ir::ProcId Proc,
                  const Scope &S) {
    for (const StmtPtr &Stmt : Stmts)
      lowerStmt(*Stmt, Proc, S);
  }

  void lowerStmt(const Stmt &Node, ir::ProcId Proc, const Scope &S) {
    switch (Node.K) {
    case Stmt::Kind::Assign: {
      ir::StmtId Id = B.addStmt(Proc);
      ir::VarId Target = resolveVar(Node.Target, S, Node.Loc);
      if (Target.isValid())
        B.addMod(Id, Target);
      collectUses(*Node.Value, Id, S);
      return;
    }
    case Stmt::Kind::Read: {
      ir::StmtId Id = B.addStmt(Proc);
      ir::VarId Target = resolveVar(Node.Target, S, Node.Loc);
      if (Target.isValid())
        B.addMod(Id, Target);
      return;
    }
    case Stmt::Kind::Write: {
      ir::StmtId Id = B.addStmt(Proc);
      collectUses(*Node.Value, Id, S);
      return;
    }
    case Stmt::Kind::Call:
      lowerCall(Node, Proc, S);
      return;
    case Stmt::Kind::If: {
      ir::StmtId Cond = B.addStmt(Proc);
      collectUses(*Node.Value, Cond, S);
      lowerStmts(Node.Then, Proc, S);
      lowerStmts(Node.Else, Proc, S);
      return;
    }
    case Stmt::Kind::While: {
      ir::StmtId Cond = B.addStmt(Proc);
      collectUses(*Node.Value, Cond, S);
      lowerStmts(Node.Else, Proc, S);
      return;
    }
    }
  }

  void lowerCall(const Stmt &Node, ir::ProcId Proc, const Scope &S) {
    const Binding *Bind = S.lookup(Node.Callee);
    if (!Bind) {
      Diags.report(Node.Loc,
                   "call to undeclared procedure '" + Node.Callee + "'");
      return;
    }
    if (Bind->K != Binding::Kind::Procedure) {
      Diags.report(Node.Loc,
                   "'" + Node.Callee + "' is a variable, not a procedure");
      return;
    }
    ir::ProcId Callee = Bind->Proc;
    std::size_t Arity = B.peek().proc(Callee).Formals.size();
    if (Node.Args.size() != Arity) {
      Diags.report(Node.Loc, "'" + Node.Callee + "' expects " +
                                 std::to_string(Arity) + " argument(s), got " +
                                 std::to_string(Node.Args.size()));
      return;
    }

    ir::StmtId Id = B.addStmt(Proc);
    std::vector<ir::Actual> Actuals;
    Actuals.reserve(Node.Args.size());
    for (const ExprPtr &Arg : Node.Args) {
      if (Arg->isVarRef()) {
        ir::VarId V = resolveVar(Arg->Name, S, Arg->Loc);
        Actuals.push_back(V.isValid() ? ir::Actual::variable(V)
                                      : ir::Actual::expression());
      } else {
        // Passed by value: no binding, but its variables are used here.
        collectUses(*Arg, Id, S);
        Actuals.push_back(ir::Actual::expression());
      }
    }
    if (!Diags.hasErrors())
      B.addCall(Id, Callee, std::move(Actuals));
  }

  DiagnosticEngine &Diags;
  ir::ProgramBuilder B;
};

} // namespace

std::optional<ir::Program> frontend::lowerToIr(const ProgramAst &Ast,
                                               DiagnosticEngine &Diags) {
  return SemaImpl(Diags).run(Ast);
}
