//===- syntax/Lexer.h - C-- lexer -------------------------------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-written lexer for C--. Comments are /* ... */ and // to end of line.
/// Tokens are views into the source buffer; nothing is copied or allocated
/// per token.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_SYNTAX_LEXER_H
#define CMM_SYNTAX_LEXER_H

#include "support/Diagnostics.h"
#include "syntax/Token.h"

#include <string_view>

namespace cmm {

/// Produces a token stream from a source buffer. Does not own the buffer.
class Lexer {
public:
  Lexer(std::string_view Source, DiagnosticEngine &Diags)
      : Source(Source), Diags(Diags) {}

  /// Lexes the next token into \p T. After end of input, repeatedly
  /// yields Eof.
  void next(Token &T);

  /// Skips the rest of the buffer: every later next() returns Eof.
  void skipToEnd() { Pos = Source.size(); }

private:
  char peek(size_t Ahead = 0) const {
    return Pos + Ahead < Source.size() ? Source[Pos + Ahead] : '\0';
  }
  /// Line/column of Pos. Every byte but '\n' advances the column by one.
  SourceLoc here() const {
    return SourceLoc(Line, static_cast<uint32_t>(Pos - LineStart + 1));
  }
  /// Called with Pos just past a '\n'.
  void newLine() {
    ++Line;
    LineStart = Pos;
  }
  void skipTrivia();
  /// Skips the comment at Pos ("//" or "/*").
  void skipComment();

  void lexIdentOrKeyword(Token &T);
  void lexPrimName(Token &T);
  void lexNumber(Token &T);
  void lexString(Token &T);
  void skipStrayBytes(SourceLoc Loc);

  std::string_view Source;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
  size_t LineStart = 0;
  uint32_t Line = 1;
};

/// Decodes the escapes of a string literal's raw text (Token::Text of a
/// StrLit) into \p Out, which must have room for Raw.size() bytes. Returns
/// the decoded length. Unknown escapes decode to nothing; the lexer has
/// already reported them.
size_t decodeStringLiteral(std::string_view Raw, char *Out);

} // namespace cmm

#endif // CMM_SYNTAX_LEXER_H
