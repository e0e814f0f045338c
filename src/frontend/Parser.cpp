//===- frontend/Parser.cpp - MiniProc parser -----------------------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"

#include "frontend/Lexer.h"

#include <charconv>
#include <limits>
#include <string>

using namespace ipse;
using namespace ipse::frontend;
using namespace ipse::frontend::ast;

namespace {

/// parseStmt's result for a statement that failed to parse.
constexpr std::uint32_t NoStmt = std::numeric_limits<std::uint32_t>::max();

class ParserImpl {
public:
  ParserImpl(std::string_view Source, DiagnosticEngine &Diags)
      : Lex(Source, Diags), Diags(Diags),
        LexErrorsBefore(Diags.all().size()) {
    // Size the row tables once from the source length, so a large source
    // neither copies them nor faults twice their pages while they grow.
    // The densest generated sources measure about 8.2 bytes per
    // expression row and 23 per statement row (random programs; chains,
    // cycles and nesting run 30-130); a denser source just grows past the
    // hint.  Untouched reserve is address space, not resident memory.
    Ast.Exprs.reserve(Source.size() / 7);
    Ast.Stmts.reserve(Source.size() / 20);
    Cur = Lex.next();
    Next = Lex.next();
  }

  std::optional<ProgramAst> run() {
    Ast.Procs.emplace_back(); // main
    expect(TokenKind::KwProgram);
    Ast.Procs[0].Name = expectIdent();
    expect(TokenKind::Semicolon);
    parseBlock(0);
    expect(TokenKind::Dot);
    if (!Cur.is(TokenKind::Eof))
      error("extra input after final '.'");

    // Every lexical error of the source is reported, and then no parse
    // error is: they would only echo the bad tokens.
    while (!Next.is(TokenKind::Eof))
      Next = Lex.next();
    if (Diags.all().size() != LexErrorsBefore)
      return std::nullopt;
    if (ParseDiags.hasErrors()) {
      for (const Diagnostic &D : ParseDiags.all())
        Diags.report(D.Loc, D.Message);
      return std::nullopt;
    }
    return std::move(Ast);
  }

private:
  void advance() {
    Cur = Next;
    Next = Lex.next();
  }

  void error(const std::string &Msg) { ParseDiags.report(Cur.Loc, Msg); }

  bool accept(TokenKind Kind) {
    if (!Cur.is(Kind))
      return false;
    advance();
    return true;
  }

  void expect(TokenKind Kind) {
    if (accept(Kind))
      return;
    error(std::string("expected ") + tokenKindName(Kind) + " before " +
          tokenKindName(Cur.Kind));
  }

  std::string_view expectIdent() {
    if (Cur.is(TokenKind::Identifier)) {
      std::string_view Name = Cur.Text;
      advance();
      return Name;
    }
    error(std::string("expected identifier before ") +
          tokenKindName(Cur.Kind));
    return "<error>";
  }

  /// Skips tokens until a statement boundary (';', 'end', '.', eof).
  void synchronize() {
    while (!Cur.is(TokenKind::Eof) && !Cur.is(TokenKind::Semicolon) &&
           !Cur.is(TokenKind::KwEnd) && !Cur.is(TokenKind::Dot))
      advance();
    accept(TokenKind::Semicolon);
  }

  /// Lists nest (a body holds an `if` holding a body), so their elements
  /// collect on the Pending stack and move to the pool, contiguous, once
  /// the list is complete.
  Range closeList(std::size_t Mark) {
    const auto Begin = static_cast<std::uint32_t>(Ast.Lists.size());
    Ast.Lists.insert(Ast.Lists.end(), Pending.begin() + Mark, Pending.end());
    Pending.resize(Mark);
    return {Begin, static_cast<std::uint32_t>(Ast.Lists.size())};
  }

  /// Name lists never nest, so they go to the name pool directly.
  Range parseNameList() {
    const auto Begin = static_cast<std::uint32_t>(Ast.Names.size());
    Ast.Names.push_back(expectIdent());
    while (accept(TokenKind::Comma))
      Ast.Names.push_back(expectIdent());
    return {Begin, static_cast<std::uint32_t>(Ast.Names.size())};
  }

  void parseBlock(std::uint32_t P) {
    if (accept(TokenKind::KwVar)) {
      const Range Vars = parseNameList();
      Ast.Procs[P].Vars = Vars;
      expect(TokenKind::Semicolon);
    }
    const std::size_t Mark = Pending.size();
    while (Cur.is(TokenKind::KwProc))
      Pending.push_back(parseProcDecl());
    const Range Procs = closeList(Mark);
    Ast.Procs[P].Procs = Procs;
    expect(TokenKind::KwBegin);
    const Range Body = parseStmtList();
    Ast.Procs[P].Body = Body;
    expect(TokenKind::KwEnd);
  }

  std::uint32_t parseProcDecl() {
    const auto P = static_cast<std::uint32_t>(Ast.Procs.size());
    Ast.Procs.emplace_back();
    Ast.Procs[P].Loc = Cur.Loc;
    expect(TokenKind::KwProc);
    Ast.Procs[P].Name = expectIdent();
    if (accept(TokenKind::LParen)) {
      if (!Cur.is(TokenKind::RParen))
        Ast.Procs[P].Params = parseNameList();
      expect(TokenKind::RParen);
    }
    expect(TokenKind::Semicolon);
    parseBlock(P);
    expect(TokenKind::Semicolon);
    return P;
  }

  bool startsStmt() const {
    switch (Cur.Kind) {
    case TokenKind::Identifier:
    case TokenKind::KwCall:
    case TokenKind::KwIf:
    case TokenKind::KwWhile:
    case TokenKind::KwRead:
    case TokenKind::KwWrite:
      return true;
    default:
      return false;
    }
  }

  Range parseStmtList() {
    const std::size_t Mark = Pending.size();
    while (startsStmt()) {
      const std::uint32_t S = parseStmt();
      if (S != NoStmt)
        Pending.push_back(S);
      accept(TokenKind::Semicolon);
    }
    return closeList(Mark);
  }

  std::uint32_t newStmt(Stmt::Kind K, SourceLoc Loc) {
    Ast.Stmts.push_back(Stmt{K, Loc, {}, 0, {}, {}, {}});
    return static_cast<std::uint32_t>(Ast.Stmts.size() - 1);
  }

  std::uint32_t parseStmt() {
    const SourceLoc Loc = Cur.Loc;
    switch (Cur.Kind) {
    case TokenKind::KwCall:
      advance();
      return parseCall(Loc);
    case TokenKind::Identifier: {
      if (Next.is(TokenKind::LParen))
        return parseCall(Loc);
      const std::uint32_t S = newStmt(Stmt::Kind::Assign, Loc);
      Ast.Stmts[S].Name = expectIdent();
      expect(TokenKind::Assign);
      const std::uint32_t Value = parseExpr();
      Ast.Stmts[S].Value = Value;
      return S;
    }
    case TokenKind::KwIf: {
      advance();
      const std::uint32_t S = newStmt(Stmt::Kind::If, Loc);
      const std::uint32_t Cond = parseExpr();
      Ast.Stmts[S].Value = Cond;
      expect(TokenKind::KwThen);
      const Range Then = parseStmtList();
      Ast.Stmts[S].Then = Then;
      if (accept(TokenKind::KwElse)) {
        const Range Else = parseStmtList();
        Ast.Stmts[S].Else = Else;
      }
      expect(TokenKind::KwEnd);
      return S;
    }
    case TokenKind::KwWhile: {
      advance();
      const std::uint32_t S = newStmt(Stmt::Kind::While, Loc);
      const std::uint32_t Cond = parseExpr();
      Ast.Stmts[S].Value = Cond;
      expect(TokenKind::KwDo);
      const Range Body = parseStmtList();
      Ast.Stmts[S].Then = Body;
      expect(TokenKind::KwEnd);
      return S;
    }
    case TokenKind::KwRead: {
      advance();
      const std::uint32_t S = newStmt(Stmt::Kind::Read, Loc);
      Ast.Stmts[S].Name = expectIdent();
      return S;
    }
    case TokenKind::KwWrite: {
      advance();
      const std::uint32_t S = newStmt(Stmt::Kind::Write, Loc);
      const std::uint32_t Value = parseExpr();
      Ast.Stmts[S].Value = Value;
      return S;
    }
    default:
      error("expected a statement");
      synchronize();
      return NoStmt;
    }
  }

  std::uint32_t parseCall(SourceLoc Loc) {
    const std::uint32_t S = newStmt(Stmt::Kind::Call, Loc);
    Ast.Stmts[S].Name = expectIdent();
    expect(TokenKind::LParen);
    const std::size_t Mark = Pending.size();
    if (!Cur.is(TokenKind::RParen)) {
      Pending.push_back(parseExpr());
      while (accept(TokenKind::Comma))
        Pending.push_back(parseExpr());
    }
    const Range Args = closeList(Mark);
    Ast.Stmts[S].Args = Args;
    expect(TokenKind::RParen);
    return S;
  }

  std::uint32_t newExpr(Expr::Kind K, SourceLoc Loc) {
    Expr E;
    E.K = K;
    E.Loc = Loc;
    Ast.Exprs.push_back(E);
    return static_cast<std::uint32_t>(Ast.Exprs.size() - 1);
  }

  std::uint32_t newBinary(char Op, SourceLoc Loc, std::uint32_t Lhs,
                          std::uint32_t Rhs) {
    const std::uint32_t B = newExpr(Expr::Kind::Binary, Loc);
    Ast.Exprs[B].Op = Op;
    Ast.Exprs[B].Lhs = Lhs;
    Ast.Exprs[B].Rhs = Rhs;
    return B;
  }

  std::uint32_t parseExpr() {
    std::uint32_t E = parseTerm();
    while (Cur.is(TokenKind::Plus) || Cur.is(TokenKind::Minus)) {
      const char Op = Cur.is(TokenKind::Plus) ? '+' : '-';
      const SourceLoc Loc = Cur.Loc;
      advance();
      const std::uint32_t Rhs = parseTerm();
      E = newBinary(Op, Loc, E, Rhs);
    }
    return E;
  }

  std::uint32_t parseTerm() {
    std::uint32_t E = parseFactor();
    while (Cur.is(TokenKind::Star) || Cur.is(TokenKind::Slash)) {
      const char Op = Cur.is(TokenKind::Star) ? '*' : '/';
      const SourceLoc Loc = Cur.Loc;
      advance();
      const std::uint32_t Rhs = parseFactor();
      E = newBinary(Op, Loc, E, Rhs);
    }
    return E;
  }

  std::uint32_t parseFactor() {
    const SourceLoc Loc = Cur.Loc;
    switch (Cur.Kind) {
    case TokenKind::Number: {
      const std::uint32_t E = newExpr(Expr::Kind::Number, Loc);
      long &Value = Ast.Exprs[E].Value;
      // Out of range saturates at LONG_MAX, as strtol does.
      if (std::from_chars(Cur.Text.data(), Cur.Text.data() + Cur.Text.size(),
                          Value)
              .ec == std::errc::result_out_of_range)
        Value = std::numeric_limits<long>::max();
      advance();
      return E;
    }
    case TokenKind::Identifier: {
      const std::uint32_t E = newExpr(Expr::Kind::VarRef, Loc);
      Ast.Exprs[E].Name = Cur.Text;
      advance();
      return E;
    }
    case TokenKind::LParen: {
      advance();
      const std::uint32_t Inner = parseExpr();
      expect(TokenKind::RParen);
      return Inner;
    }
    case TokenKind::Minus: {
      advance();
      const std::uint32_t Operand = parseFactor();
      const std::uint32_t E = newExpr(Expr::Kind::Unary, Loc);
      Ast.Exprs[E].Op = '-';
      Ast.Exprs[E].Lhs = Operand;
      return E;
    }
    default:
      error(std::string("expected an expression before ") +
            tokenKindName(Cur.Kind));
      advance();
      return newExpr(Expr::Kind::Number, Loc);
    }
  }

  Lexer Lex;
  /// Receives the lexer's errors.
  DiagnosticEngine &Diags;
  /// Diags' size before the first token was lexed.
  const std::size_t LexErrorsBefore;
  /// Receives the parser's errors until the lexer is known to have none.
  DiagnosticEngine ParseDiags;
  Token Cur;
  Token Next;
  ProgramAst Ast;
  std::vector<std::uint32_t> Pending;
};

} // namespace

std::optional<ProgramAst> frontend::parse(std::string_view Source,
                                          DiagnosticEngine &Diags) {
  return ParserImpl(Source, Diags).run();
}
