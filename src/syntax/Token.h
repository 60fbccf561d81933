//===- syntax/Token.h - C-- tokens ------------------------------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Token kinds for the concrete C-- language of the paper.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_SYNTAX_TOKEN_H
#define CMM_SYNTAX_TOKEN_H

#include "support/SourceLoc.h"

#include <cstdint>
#include <string_view>

namespace cmm {

/// Lexical token kinds.
enum class TokKind : uint8_t {
  Eof,
  Ident,    ///< plain identifier
  PrimName, ///< %name — fast-but-dangerous primitive (Section 4.3)
  IntLit,
  FloatLit,
  StrLit,

  // Keywords.
  KwExport,
  KwImport,
  KwGlobal,
  KwRegister, ///< synonym for global (Figure 10 declares "register bits32")
  KwData,
  KwBits8,
  KwBits16,
  KwBits32,
  KwBits64,
  KwFloat32,
  KwFloat64,
  KwIf,
  KwElse,
  KwGoto,
  KwReturn,
  KwJump,
  KwCut,
  KwTo,
  KwContinuation,
  KwAlso,
  KwCuts,
  KwUnwinds,
  KwReturns,
  KwAborts,
  KwDescriptors,
  KwSizeof,

  // Punctuation and operators.
  LBrace,
  RBrace,
  LParen,
  RParen,
  LBracket,
  RBracket,
  Comma,
  Semi,
  Colon,
  Assign,   ///< =
  EqEq,
  NotEq,
  Less,
  LessEq,
  Greater,
  GreaterEq,
  Plus,
  Minus,
  Star,
  Slash,
  Percent,
  Amp,
  Pipe,
  Caret,
  Shl,      ///< <<
  Shr,      ///< >>
  Tilde,
  Bang,
};

/// One lexed token: trivially copyable, it owns nothing. Text views the
/// source buffer, which must outlive the token.
struct Token {
  TokKind Kind = TokKind::Eof;
  SourceLoc Loc;
  /// Ident/PrimName: the spelling. StrLit: the raw bytes between the quotes,
  /// escapes not yet decoded (see decodeStringLiteral).
  std::string_view Text;
  union {
    uint64_t IntValue = 0;
    double FloatValue;
  };

  bool is(TokKind K) const { return Kind == K; }
};

/// Human-readable token-kind name for diagnostics.
const char *tokKindName(TokKind K);

} // namespace cmm

#endif // CMM_SYNTAX_TOKEN_H
