//===- frontend/Lexer.cpp - MiniProc lexer -------------------------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"

#include <string>

using namespace ipse;
using namespace ipse::frontend;

const char *frontend::tokenKindName(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::Identifier:
    return "identifier";
  case TokenKind::Number:
    return "number";
  case TokenKind::KwProgram:
    return "'program'";
  case TokenKind::KwProc:
    return "'proc'";
  case TokenKind::KwVar:
    return "'var'";
  case TokenKind::KwBegin:
    return "'begin'";
  case TokenKind::KwEnd:
    return "'end'";
  case TokenKind::KwCall:
    return "'call'";
  case TokenKind::KwIf:
    return "'if'";
  case TokenKind::KwThen:
    return "'then'";
  case TokenKind::KwElse:
    return "'else'";
  case TokenKind::KwWhile:
    return "'while'";
  case TokenKind::KwDo:
    return "'do'";
  case TokenKind::KwRead:
    return "'read'";
  case TokenKind::KwWrite:
    return "'write'";
  case TokenKind::Assign:
    return "':='";
  case TokenKind::Semicolon:
    return "';'";
  case TokenKind::Comma:
    return "','";
  case TokenKind::LParen:
    return "'('";
  case TokenKind::RParen:
    return "')'";
  case TokenKind::Plus:
    return "'+'";
  case TokenKind::Minus:
    return "'-'";
  case TokenKind::Star:
    return "'*'";
  case TokenKind::Slash:
    return "'/'";
  case TokenKind::Dot:
    return "'.'";
  case TokenKind::Eof:
    return "end of input";
  case TokenKind::Error:
    return "invalid token";
  }
  return "?";
}

namespace {

// MiniProc source is ASCII; these match the <cctype> classes in the "C"
// locale without a call per character.
bool isSpace(char C) { return C == ' ' || (C >= '\t' && C <= '\r'); }
bool isDigit(char C) { return C >= '0' && C <= '9'; }
bool isIdentStart(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_';
}
bool isIdentChar(char C) { return isIdentStart(C) || isDigit(C); }

/// The keyword \p Word spells, or Identifier: a switch on the length, then
/// at most three compares.
TokenKind classifyWord(std::string_view Word) {
  switch (Word.size()) {
  case 2:
    if (Word == "if")
      return TokenKind::KwIf;
    if (Word == "do")
      return TokenKind::KwDo;
    break;
  case 3:
    if (Word == "var")
      return TokenKind::KwVar;
    if (Word == "end")
      return TokenKind::KwEnd;
    break;
  case 4:
    if (Word == "proc")
      return TokenKind::KwProc;
    if (Word == "call")
      return TokenKind::KwCall;
    if (Word == "then")
      return TokenKind::KwThen;
    if (Word == "else")
      return TokenKind::KwElse;
    if (Word == "read")
      return TokenKind::KwRead;
    break;
  case 5:
    if (Word == "begin")
      return TokenKind::KwBegin;
    if (Word == "while")
      return TokenKind::KwWhile;
    if (Word == "write")
      return TokenKind::KwWrite;
    break;
  case 7:
    if (Word == "program")
      return TokenKind::KwProgram;
    break;
  }
  return TokenKind::Identifier;
}

} // namespace

void Lexer::skipTrivia() {
  const std::size_t End = Source.size();
  while (Pos < End) {
    const char C = Source[Pos];
    if (C == '\n') {
      ++Pos;
      ++Line;
      LineStart = Pos;
    } else if (isSpace(C)) {
      ++Pos;
    } else if (C == '/' && Pos + 1 < End && Source[Pos + 1] == '/') {
      while (Pos < End && Source[Pos] != '\n')
        ++Pos;
    } else if (C == '{') {
      const SourceLoc Start = here();
      for (++Pos; Pos < End && Source[Pos] != '}'; ++Pos)
        if (Source[Pos] == '\n') {
          ++Line;
          LineStart = Pos + 1;
        }
      if (Pos == End)
        Diags.report(Start, "unterminated '{' comment");
      else
        ++Pos;
    } else {
      return;
    }
  }
}

Token Lexer::next() {
  skipTrivia();
  const SourceLoc Loc = here();
  const std::size_t Start = Pos;
  if (Pos == Source.size())
    return make(TokenKind::Eof, Loc, Start);

  const char C = Source[Pos++];
  if (isIdentStart(C)) {
    while (Pos < Source.size() && isIdentChar(Source[Pos]))
      ++Pos;
    return make(classifyWord(Source.substr(Start, Pos - Start)), Loc, Start);
  }

  if (isDigit(C)) {
    while (Pos < Source.size() && isDigit(Source[Pos]))
      ++Pos;
    return make(TokenKind::Number, Loc, Start);
  }

  switch (C) {
  case ':':
    if (Pos < Source.size() && Source[Pos] == '=') {
      ++Pos;
      return make(TokenKind::Assign, Loc, Start);
    }
    Diags.report(Loc, "expected '=' after ':'");
    return make(TokenKind::Error, Loc, Start);
  case ';':
    return make(TokenKind::Semicolon, Loc, Start);
  case ',':
    return make(TokenKind::Comma, Loc, Start);
  case '(':
    return make(TokenKind::LParen, Loc, Start);
  case ')':
    return make(TokenKind::RParen, Loc, Start);
  case '+':
    return make(TokenKind::Plus, Loc, Start);
  case '-':
    return make(TokenKind::Minus, Loc, Start);
  case '*':
    return make(TokenKind::Star, Loc, Start);
  case '/':
    return make(TokenKind::Slash, Loc, Start);
  case '.':
    return make(TokenKind::Dot, Loc, Start);
  default:
    Diags.report(Loc, std::string("unexpected character '") + C + "'");
    return make(TokenKind::Error, Loc, Start);
  }
}

std::vector<Token> frontend::lex(std::string_view Source,
                                 DiagnosticEngine &Diags) {
  Lexer L(Source, Diags);
  std::vector<Token> Tokens(1, L.next());
  while (!Tokens.back().is(TokenKind::Eof))
    Tokens.push_back(L.next());
  return Tokens;
}
