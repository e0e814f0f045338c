//===- frontend/Lexer.h - MiniProc lexer ------------------------*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-written lexer for MiniProc.  Comments run from "//" to end of line
/// or between "{" and "}" (Pascal style).  Unknown characters produce a
/// diagnostic and an Error token; lexing continues.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_FRONTEND_LEXER_H
#define IPSE_FRONTEND_LEXER_H

#include "frontend/Diagnostics.h"
#include "frontend/Token.h"

#include <cstddef>
#include <string_view>
#include <vector>

namespace ipse {
namespace frontend {

/// Streams the tokens of a source one at a time.  Token texts view the
/// source (no copies), so it must outlive the tokens.  Lexical errors go to
/// the DiagnosticEngine as they are met.
class Lexer {
public:
  Lexer(std::string_view Source, DiagnosticEngine &Diags)
      : Source(Source), Diags(Diags) {}

  /// The next token; Eof at the end, and again on every later call.
  Token next();

private:
  SourceLoc here() const {
    return {Line, static_cast<unsigned>(Pos - LineStart) + 1};
  }
  void skipTrivia();
  Token make(TokenKind Kind, SourceLoc Loc, std::size_t Start) const {
    return Token{Kind, Source.substr(Start, Pos - Start), Loc};
  }

  std::string_view Source;
  DiagnosticEngine &Diags;
  std::size_t Pos = 0;
  /// Where the current line starts; the column is counted from it.
  std::size_t LineStart = 0;
  unsigned Line = 1;
};

/// Lexes \p Source completely; the result always ends with an Eof token.
std::vector<Token> lex(std::string_view Source, DiagnosticEngine &Diags);

} // namespace frontend
} // namespace ipse

#endif // IPSE_FRONTEND_LEXER_H
