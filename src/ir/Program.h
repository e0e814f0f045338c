//===- ir/Program.h - Interprocedural program model -------------*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The program model the analyses run over.  It captures exactly what the
/// paper's problem needs and nothing more: procedures with reference formal
/// parameters and lexical nesting, variables (globals, locals, formals),
/// statements annotated with their local effects (LMOD / LUSE), and call
/// sites with actual-argument lists.
///
/// The main program is itself a procedure (at nesting level 0) whose locals
/// are the program's global variables; this matches the paper's footnote 3,
/// which allows GMOD(main) to be non-empty.  Main is never a callee.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_IR_PROGRAM_H
#define IPSE_IR_PROGRAM_H

#include "ir/Ids.h"
#include "support/StringInterner.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <string>
#include <vector>

namespace ipse {
namespace persist {
class ProgramCodec;
}
namespace ir {

/// What scope a variable belongs to.
enum class VarKind {
  Global, ///< Declared by the main program (nesting level 0).
  Local,  ///< Declared by a procedure.
  Formal  ///< A reference formal parameter of a procedure.
};

/// A scalar (or whole-array) variable.
struct Variable {
  SymbolId Name = InvalidSymbol;
  VarKind Kind = VarKind::Global;
  /// The procedure that declares this variable (main for globals).
  ProcId Owner;
  /// Zero-based ordinal among Owner's formals; only valid for formals.
  unsigned FormalPos = ~0u;
};

/// One actual argument at a call site: either a variable passed by
/// reference, or a non-variable expression (a literal or computed value),
/// which can be neither modified nor bound and generates no binding edge.
struct Actual {
  /// The variable passed, or an invalid id for a non-variable expression.
  VarId Var;

  static Actual variable(VarId V) { return Actual{V}; }
  static Actual expression() { return Actual{VarId()}; }
  bool isVariable() const { return Var.isValid(); }

  friend bool operator==(const Actual &, const Actual &) = default;
};

/// A call site e = (p, q): an invocation of Callee from a statement in
/// Caller's body, with an ordered list of actual arguments.
///
/// Like Statement and Procedure, this is a view returned by value: its
/// list members are spans into the program's pooled arrays, valid until
/// the next edit of the program (see Program).
struct CallSite {
  ProcId Caller;
  ProcId Callee;
  StmtId Stmt; ///< The statement containing the call.
  std::span<const Actual> Actuals;
};

/// A statement, reduced to its analysis-relevant content: the variables it
/// may modify or use directly (LMOD(s) / LUSE(s), exclusive of calls) and
/// the call sites it contains.
struct Statement {
  ProcId Parent;
  std::span<const VarId> LMod;
  std::span<const VarId> LUse;
  std::span<const CallSiteId> Calls;
};

/// A procedure p: formals, locals, body statements, own call sites, and its
/// position in the lexical nesting tree.
struct Procedure {
  SymbolId Name = InvalidSymbol;
  /// The lexically enclosing procedure; invalid only for main.
  ProcId Parent;
  /// Nesting level: main is 0, a procedure declared at level k is k+1.
  unsigned Level = 0;
  /// Nest(p): procedures declared directly inside p.
  std::span<const ProcId> Nested;
  std::span<const VarId> Formals;
  std::span<const VarId> Locals;
  std::span<const StmtId> Stmts;
  /// Call sites appearing in p's own body (not in nested procedures).
  std::span<const CallSiteId> CallSites;
};

/// Where one list lives in its pool: Size elements starting at Begin.
struct Slice {
  std::uint32_t Begin = 0;
  std::uint32_t Size = 0;
};

/// One pooled array holding every list of one field (say, every
/// statement's LMOD), each list a Slice of it.  Slots no live list covers
/// are dead; they are reclaimed by relayout().
template <typename T> struct Pool {
  std::vector<T> Items;
  std::size_t Dead = 0;

  std::span<const T> view(Slice S) const {
    return {Items.data() + S.Begin, S.Size};
  }

  /// Appends \p V to list \p S.  A list that does not end the pool is
  /// first moved to the pool's end, so an append costs O(|S|) at worst and
  /// O(1) while S stays last.
  void append(Slice &S, T V) {
    if (S.Begin + S.Size != Items.size())
      relocate(S);
    Items.push_back(V);
    ++S.Size;
  }

  /// Appends \p V under the builder's staging rule: a staged list owns the
  /// power-of-two slot count at or above its size, so it moves (doubling)
  /// only when full and every append is amortized O(1), however appends to
  /// different lists interleave.  Only for lists that were always staged.
  void stage(Slice &S, T V) {
    if ((S.Size & (S.Size - 1)) == 0) { // Full: 0 or a power of two.
      if (S.Size == 0 || S.Begin + S.Size != Items.size())
        relocate(S);
      Items.resize(S.Begin + (S.Size ? 2 * S.Size : 1));
    }
    Items[S.Begin + S.Size++] = V;
  }

  /// Removes the element at position \p I of list \p S, keeping the order
  /// of the rest.
  void erase(Slice &S, std::size_t I) {
    auto First = Items.begin() + S.Begin;
    std::copy(First + I + 1, First + S.Size, First + I);
    ++Dead;
    --S.Size;
  }

  /// Copies list \p S to the pool's end; its old slots turn dead.
  void relocate(Slice &S) {
    const std::size_t NewBegin = Items.size();
    Items.resize(NewBegin + S.Size);
    std::copy_n(Items.begin() + S.Begin, S.Size, Items.begin() + NewBegin);
    Dead += S.Size;
    S.Begin = static_cast<std::uint32_t>(NewBegin);
  }

  /// True once dead slots outnumber live ones.
  bool sparse() const { return Dead > Items.size() - Dead; }

  /// Lays out the list \p Field of every row of \p Rows again, in row
  /// order with no dead slots, passing each element through \p Map.
  template <typename Row, typename MapFn>
  void relayout(std::vector<Row> &Rows, Slice Row::*Field, MapFn Map) {
    std::size_t Live = 0;
    for (const Row &R : Rows)
      Live += (R.*Field).Size;
    std::vector<T> Out;
    Out.reserve(Live);
    for (Row &R : Rows) {
      Slice &S = R.*Field;
      const std::uint32_t Begin = static_cast<std::uint32_t>(Out.size());
      for (std::uint32_t K = 0; K != S.Size; ++K)
        Out.push_back(Map(Items[S.Begin + K]));
      S.Begin = Begin;
    }
    Items = std::move(Out);
    Dead = 0;
  }
  template <typename Row>
  void relayout(std::vector<Row> &Rows, Slice Row::*Field) {
    relayout(Rows, Field, [](T V) { return V; });
  }
};

/// An immutable whole program.  Build one with ProgramBuilder.
///
/// Dense ids: procedures, variables, statements, and call sites are stored
/// in flat tables indexed by their ids, so analyses can allocate dense side
/// arrays.  Iteration in id order is deterministic.
///
/// Representation: one row array per entity kind, and every list field
/// (Nested, Formals, ..., Actuals) is a Slice into one pooled array for
/// that field.  A copy is therefore a fixed number of flat array copies,
/// and the name table is shared between copies (see StringInterner).
/// proc(), stmt() and callSite() return views by value; the spans inside
/// a view stay valid until the program is next edited or destroyed.
class Program {
public:
  /// The main program; always procedure 0.
  ProcId main() const { return ProcId(0); }

  std::size_t numProcs() const { return Procs.size(); }
  std::size_t numVars() const { return Vars.size(); }
  std::size_t numStmts() const { return Stmts.size(); }
  std::size_t numCallSites() const { return Calls.size(); }

  Procedure proc(ProcId Id) const {
    assert(Id.index() < Procs.size() && "invalid ProcId");
    const ProcRow &R = Procs[Id.index()];
    return {R.Name,
            R.Parent,
            R.Level,
            NestedPool.view(R.Nested),
            FormalPool.view(R.Formals),
            LocalPool.view(R.Locals),
            StmtPool.view(R.Stmts),
            CallSitePool.view(R.CallSites)};
  }
  const Variable &var(VarId Id) const {
    assert(Id.index() < Vars.size() && "invalid VarId");
    return Vars[Id.index()];
  }
  Statement stmt(StmtId Id) const {
    assert(Id.index() < Stmts.size() && "invalid StmtId");
    const StmtRow &R = Stmts[Id.index()];
    return {R.Parent, LModPool.view(R.LMod), LUsePool.view(R.LUse),
            CallPool.view(R.Calls)};
  }
  CallSite callSite(CallSiteId Id) const {
    assert(Id.index() < Calls.size() && "invalid CallSiteId");
    const CallRow &R = Calls[Id.index()];
    return {R.Caller, R.Callee, R.Stmt, ActualPool.view(R.Actuals)};
  }

  /// Returns the name of a procedure / variable.
  const std::string &name(ProcId Id) const {
    assert(Id.index() < Procs.size() && "invalid ProcId");
    return Names.text(Procs[Id.index()].Name);
  }
  const std::string &name(VarId Id) const { return Names.text(var(Id).Name); }

  /// Returns the nesting level of a variable: 0 for globals, otherwise the
  /// level of the declaring procedure.
  unsigned varLevel(VarId Id) const {
    return Procs[var(Id).Owner.index()].Level;
  }

  /// The maximum procedure nesting level dP (1 for a two-level program).
  unsigned maxProcLevel() const { return MaxLevel; }

  /// Returns true if \p V is a global variable (declared by main).
  bool isGlobal(VarId V) const { return var(V).Kind == VarKind::Global; }

  /// Returns true if \p V belongs to LOCAL(p): p declares it as a local or
  /// a formal.  For main this is the set of globals.
  bool isLocalTo(VarId V, ProcId P) const { return var(V).Owner == P; }

  /// Returns true if \p V is visible inside \p P's body: declared by P or
  /// by one of its lexical ancestors.
  bool isVisibleIn(VarId V, ProcId P) const;

  /// Returns true if \p Ancestor is \p P or a lexical ancestor of \p P.
  bool isAncestorOrSelf(ProcId Ancestor, ProcId P) const;

  /// Checks all structural invariants; returns true and leaves \p ErrorOut
  /// empty on success, otherwise fills it with the first violation found.
  /// Invariants: id cross-references are consistent; main is procedure 0
  /// and is never a callee; every variable a statement touches is visible
  /// in its procedure; every callee is visible at the call site; actual
  /// counts match formal counts; levels match the nesting tree.
  bool verify(std::string &ErrorOut) const;

  /// The interner holding all names in this program.
  const StringInterner &names() const { return Names; }

private:
  friend class ProgramBuilder;
  friend class ProgramEditor;
  /// The snapshot serializer reads and reconstitutes the raw tables
  /// directly (persist/Snapshot.cpp); a decoded program is re-checked with
  /// verify() before anything consumes it.
  friend class persist::ProgramCodec;

  struct ProcRow {
    SymbolId Name = InvalidSymbol;
    ProcId Parent;
    unsigned Level = 0;
    Slice Nested, Formals, Locals, Stmts, CallSites;
  };
  struct StmtRow {
    ProcId Parent;
    Slice LMod, LUse, Calls;
  };
  struct CallRow {
    ProcId Caller;
    ProcId Callee;
    StmtId Stmt;
    Slice Actuals;
  };

  /// Calls \p F(Pool, Rows, Field) once per list field.
  template <typename Self, typename Fn> static void forEachList(Self &P, Fn F) {
    F(P.NestedPool, P.Procs, &ProcRow::Nested);
    F(P.FormalPool, P.Procs, &ProcRow::Formals);
    F(P.LocalPool, P.Procs, &ProcRow::Locals);
    F(P.StmtPool, P.Procs, &ProcRow::Stmts);
    F(P.CallSitePool, P.Procs, &ProcRow::CallSites);
    F(P.LModPool, P.Stmts, &StmtRow::LMod);
    F(P.LUsePool, P.Stmts, &StmtRow::LUse);
    F(P.CallPool, P.Stmts, &StmtRow::Calls);
    F(P.ActualPool, P.Calls, &CallRow::Actuals);
  }

  std::vector<ProcRow> Procs;
  std::vector<Variable> Vars;
  std::vector<StmtRow> Stmts;
  std::vector<CallRow> Calls;
  Pool<ProcId> NestedPool;
  Pool<VarId> FormalPool, LocalPool;
  Pool<StmtId> StmtPool;
  Pool<CallSiteId> CallSitePool;
  Pool<VarId> LModPool, LUsePool;
  Pool<CallSiteId> CallPool;
  Pool<Actual> ActualPool;
  StringInterner Names;
  unsigned MaxLevel = 0;
};

} // namespace ir
} // namespace ipse

#endif // IPSE_IR_PROGRAM_H
