//===- frontend/Sema.cpp - Name resolution and IR lowering --------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "frontend/Sema.h"

#include "ir/ProgramBuilder.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

using namespace ipse;
using namespace ipse::frontend;
using namespace ipse::frontend::ast;

namespace {

/// What a name denotes and which scope declared it.
struct Binding {
  enum class Kind : std::uint8_t { Variable, Procedure };

  Kind K = Kind::Variable;
  /// A VarId or ProcId index, by K.
  std::uint32_t Id = 0;
  /// The declaring scope; 0 for "unbound" (scopes count from 1).
  std::uint32_t Scope = 0;
};

/// A binding a declaration displaced, restored when its scope ends.
struct Shadowed {
  SymbolId Sym;
  Binding Prev;
};

/// Names resolve through the builder's own interner: a declaration binds
/// the SymbolId the builder just interned for it, and a use is one lookup
/// in that interner plus an array read, never a second hash table.
///
/// Top[Sym] is the innermost binding of a symbol.  Each declaration pushes
/// the binding it displaces onto Undo; a scope records Undo's height on
/// entry and, on exit, pops back to it, restoring what each entry saved.
class SemaImpl {
public:
  SemaImpl(const ProgramAst &Ast, DiagnosticEngine &Diags)
      : Ast(Ast), Diags(Diags) {}

  std::optional<ir::Program> run() {
    // Every interned name is main's, a procedure's, or a variable's, so
    // these bound the tables.
    const std::size_t NumNames = Ast.Procs.size() + Ast.Names.size();
    B.reserve(Ast.Procs.size(), Ast.Names.size(), Ast.Stmts.size(),
              Ast.Stmts.size());
    Top.assign(NumNames, Binding());

    const Proc &Main = Ast.main();
    ir::ProcId MainId = B.createMain(Main.Name);
    enterScope();
    declareVars(Main.Vars, MainId, SourceLoc{1, 1});
    declareAndProcessProcs(Main.Procs, MainId);
    lowerStmts(Main.Body, MainId);
    if (Diags.hasErrors())
      return std::nullopt;
    return B.finish();
  }

private:
  std::uint32_t enterScope() {
    CurScope = ++NumScopes;
    return static_cast<std::uint32_t>(Undo.size());
  }

  /// Undoes every declaration made since \p Mark, innermost first.
  void exitScope(std::uint32_t Mark, std::uint32_t OuterScope) {
    while (Undo.size() > Mark) {
      Top[Undo.back().Sym] = Undo.back().Prev;
      Undo.pop_back();
    }
    CurScope = OuterScope;
  }

  /// Binds \p Sym in the current scope; returns false (binding nothing)
  /// if the scope already binds it.
  bool declare(SymbolId Sym, Binding::Kind K, std::uint32_t Id) {
    assert(Sym < Top.size() && "name outside the parsed tables");
    if (Top[Sym].Scope == CurScope)
      return false;
    Undo.push_back(Shadowed{Sym, Top[Sym]});
    Top[Sym] = Binding{K, Id, CurScope};
    return true;
  }

  /// The innermost binding of \p Name, or nullptr.
  const Binding *lookup(std::string_view Name) const {
    const SymbolId Sym = B.peek().names().lookup(Name);
    if (Sym == InvalidSymbol || Top[Sym].Scope == 0)
      return nullptr;
    return &Top[Sym];
  }

  void declareVars(Range Names, ir::ProcId Owner, SourceLoc Loc) {
    for (std::string_view Name : Ast.names(Names)) {
      ir::VarId V = B.addLocal(Owner, Name);
      if (!declare(B.peek().var(V).Name, Binding::Kind::Variable, V.index()))
        Diags.report(Loc, "duplicate declaration of '" + std::string(Name) +
                              "'");
    }
  }

  /// Declares every procedure of a block — names *and* formal parameters,
  /// so arity is known before any body is lowered (siblings may be
  /// mutually recursive and call forward) — then processes the bodies.
  void declareAndProcessProcs(Range Procs, ir::ProcId Parent) {
    const std::size_t Mark = Ids.size();
    for (std::uint32_t D : Ast.list(Procs)) {
      const Proc &Decl = Ast.Procs[D];
      ir::ProcId Id = B.createProc(Decl.Name, Parent);
      Ids.push_back(Id);
      if (!declare(B.peek().proc(Id).Name, Binding::Kind::Procedure,
                   Id.index()))
        Diags.report(Decl.Loc, "duplicate declaration of '" +
                                   std::string(Decl.Name) + "'");
      for (std::string_view Param : Ast.names(Decl.Params))
        B.addFormal(Id, Param);
    }
    for (std::uint32_t I = 0; I != Procs.size(); ++I)
      processProc(Ast.Procs[Ast.Lists[Procs.Begin + I]], Ids[Mark + I]);
    Ids.resize(Mark);
  }

  void processProc(const Proc &Decl, ir::ProcId Id) {
    const std::uint32_t OuterScope = CurScope;
    const std::uint32_t Mark = enterScope();
    // The formals were created in the declaration phase; bind them now.
    // (No builder call runs in this loop, so the span stays valid.)
    std::span<const ir::VarId> Formals = B.peek().proc(Id).Formals;
    std::span<const std::string_view> Params = Ast.names(Decl.Params);
    for (std::size_t I = 0; I != Formals.size(); ++I)
      if (!declare(B.peek().var(Formals[I]).Name, Binding::Kind::Variable,
                   Formals[I].index()))
        Diags.report(Decl.Loc, "duplicate parameter '" +
                                   std::string(Params[I]) + "' in '" +
                                   std::string(Decl.Name) + "'");
    declareVars(Decl.Vars, Id, Decl.Loc);
    declareAndProcessProcs(Decl.Procs, Id);
    lowerStmts(Decl.Body, Id);
    exitScope(Mark, OuterScope);
  }

  /// Resolves \p Name to a variable, reporting otherwise.
  ir::VarId resolveVar(std::string_view Name, SourceLoc Loc) {
    const Binding *Bind = lookup(Name);
    if (!Bind) {
      Diags.report(Loc, "use of undeclared name '" + std::string(Name) + "'");
      return ir::VarId();
    }
    if (Bind->K != Binding::Kind::Variable) {
      Diags.report(Loc, "'" + std::string(Name) +
                            "' is a procedure, not a variable");
      return ir::VarId();
    }
    return ir::VarId(Bind->Id);
  }

  /// Adds every variable referenced by expression \p E to LUSE of \p Stmt.
  void collectUses(std::uint32_t E, ir::StmtId Stmt) {
    const Expr &X = Ast.Exprs[E];
    switch (X.K) {
    case Expr::Kind::Number:
      return;
    case Expr::Kind::VarRef: {
      ir::VarId V = resolveVar(X.Name, X.Loc);
      if (V.isValid())
        B.addUse(Stmt, V);
      return;
    }
    case Expr::Kind::Unary:
      collectUses(X.Lhs, Stmt);
      return;
    case Expr::Kind::Binary:
      collectUses(X.Lhs, Stmt);
      collectUses(X.Rhs, Stmt);
      return;
    }
  }

  void lowerStmts(Range Stmts, ir::ProcId Proc) {
    for (std::uint32_t S : Ast.list(Stmts))
      lowerStmt(Ast.Stmts[S], Proc);
  }

  void lowerStmt(const Stmt &Node, ir::ProcId Proc) {
    switch (Node.K) {
    case Stmt::Kind::Assign: {
      ir::StmtId Id = B.addStmt(Proc);
      ir::VarId Target = resolveVar(Node.Name, Node.Loc);
      if (Target.isValid())
        B.addMod(Id, Target);
      collectUses(Node.Value, Id);
      return;
    }
    case Stmt::Kind::Read: {
      ir::StmtId Id = B.addStmt(Proc);
      ir::VarId Target = resolveVar(Node.Name, Node.Loc);
      if (Target.isValid())
        B.addMod(Id, Target);
      return;
    }
    case Stmt::Kind::Write: {
      ir::StmtId Id = B.addStmt(Proc);
      collectUses(Node.Value, Id);
      return;
    }
    case Stmt::Kind::Call:
      lowerCall(Node, Proc);
      return;
    case Stmt::Kind::If: {
      ir::StmtId Cond = B.addStmt(Proc);
      collectUses(Node.Value, Cond);
      lowerStmts(Node.Then, Proc);
      lowerStmts(Node.Else, Proc);
      return;
    }
    case Stmt::Kind::While: {
      ir::StmtId Cond = B.addStmt(Proc);
      collectUses(Node.Value, Cond);
      lowerStmts(Node.Then, Proc);
      return;
    }
    }
  }

  void lowerCall(const Stmt &Node, ir::ProcId Proc) {
    const Binding *Bind = lookup(Node.Name);
    if (!Bind) {
      Diags.report(Node.Loc, "call to undeclared procedure '" +
                                 std::string(Node.Name) + "'");
      return;
    }
    if (Bind->K != Binding::Kind::Procedure) {
      Diags.report(Node.Loc, "'" + std::string(Node.Name) +
                                 "' is a variable, not a procedure");
      return;
    }
    ir::ProcId Callee(Bind->Id);
    std::size_t Arity = B.peek().proc(Callee).Formals.size();
    if (Node.Args.size() != Arity) {
      Diags.report(Node.Loc, "'" + std::string(Node.Name) + "' expects " +
                                 std::to_string(Arity) + " argument(s), got " +
                                 std::to_string(Node.Args.size()));
      return;
    }

    ir::StmtId Id = B.addStmt(Proc);
    std::vector<ir::Actual> Actuals;
    Actuals.reserve(Node.Args.size());
    for (std::uint32_t A : Ast.list(Node.Args)) {
      const Expr &Arg = Ast.Exprs[A];
      if (Arg.isVarRef()) {
        ir::VarId V = resolveVar(Arg.Name, Arg.Loc);
        Actuals.push_back(V.isValid() ? ir::Actual::variable(V)
                                      : ir::Actual::expression());
      } else {
        // Passed by value: no binding, but its variables are used here.
        collectUses(A, Id);
        Actuals.push_back(ir::Actual::expression());
      }
    }
    if (!Diags.hasErrors())
      B.addCall(Id, Callee, std::move(Actuals));
  }

  const ProgramAst &Ast;
  DiagnosticEngine &Diags;
  ir::ProgramBuilder B;

  std::vector<Binding> Top;
  std::vector<Shadowed> Undo;
  std::uint32_t CurScope = 0;
  std::uint32_t NumScopes = 0;
  /// The builder ids of the blocks being declared, innermost last.
  std::vector<ir::ProcId> Ids;
};

} // namespace

std::optional<ir::Program> frontend::lowerToIr(const ProgramAst &Ast,
                                               DiagnosticEngine &Diags) {
  return SemaImpl(Ast, Diags).run();
}
