//===- syntax/Parser.h - C-- parser -----------------------------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for C--. Produces a Module; callers should run
/// Sema afterwards to resolve names and check the annotation rules.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_SYNTAX_PARSER_H
#define CMM_SYNTAX_PARSER_H

#include "support/Diagnostics.h"
#include "syntax/Ast.h"
#include "syntax/Lexer.h"

#include <optional>

namespace cmm {

/// Parses one C-- compilation unit.
class Parser {
public:
  /// How deeply the source may nest, counted two ways. The parser recurses
  /// once per open parenthesis, argument list, unary operator and `if`
  /// body; and every later pass, down to the bytecode compiler, walks an
  /// expression tree recursively, so a tree may be at most this tall (each
  /// operator of a chain `a + b + ...` makes it one level taller). The arms
  /// of an else-if chain do not nest. Input past either bound is rejected
  /// with one diagnostic instead of overflowing the stack. Sized for the
  /// worst frame: under ASan the bytecode compiler takes ~5.3 KiB per level
  /// of a tree, so 1024 levels need about 5.4 MiB of an 8 MiB stack.
  static constexpr unsigned MaxNesting = 1024;
  /// After this many errors in one module the parser gives up.
  static constexpr unsigned MaxErrors = 100;

  /// \p Names optionally supplies a shared interner so several modules of
  /// one program agree on Symbol identities; by default the module gets a
  /// fresh interner. \p ArenaBytes sizes the module's first arena chunk; by
  /// default it is derived from the source length.
  Parser(std::string_view Source, DiagnosticEngine &Diags,
         std::shared_ptr<Interner> Names = nullptr, size_t ArenaBytes = 0);

  /// Parses the whole buffer. On syntax errors the returned module is
  /// partial and Diags has errors.
  Module parseModule();

private:
  const Token &tok(unsigned Ahead = 0) const {
    return Buf[(Head + Ahead) & 1];
  }
  /// Drops the current token, lexing into its slot the one after next.
  void skip() {
    Lex.next(Buf[Head]);
    Head ^= 1;
  }
  Token consume() {
    Token T = tok();
    skip();
    return T;
  }
  bool at(TokKind K) const { return tok().Kind == K; }
  bool accept(TokKind K) {
    if (!at(K))
      return false;
    skip();
    return true;
  }
  /// Gives up on the module once it has reported MaxErrors errors.
  void checkErrorLimit();
  bool expect(TokKind K, const char *Context) {
    return accept(K) || expectFailed(K, Context);
  }
  bool expectFailed(TokKind K, const char *Context);
  void error(SourceLoc Loc, std::string Message);
  void giveUp(SourceLoc Loc, std::string Why);
  void syncToStmtBoundary();
  Symbol intern(std::string_view Text) { return Mod.Names->intern(Text); }
  Symbol internName() {
    Symbol S = intern(tok().Text);
    skip();
    return S;
  }
  template <typename T, typename... Args> T *make(Args &&...A) {
    return Mod.Arena.make<T>(std::forward<Args>(A)...);
  }
  template <typename T> ArenaListBuilder<T> list() {
    return ArenaListBuilder<T>(Mod.Arena);
  }
  std::string_view stringValue(const Token &T);

  /// Counts one level of nesting; false (after giving up on the module)
  /// when the input nests deeper than MaxNesting.
  bool enter();
  void leave() { --Depth; }
  /// Records \p E as one level above a subtree \p Below levels tall, giving
  /// up on the module when that is taller than MaxNesting.
  Expr *above(unsigned Below, Expr *E);

  std::optional<Type> parseTypeOpt();
  bool atType() const;

  // Top level.
  void parseTopDecl();
  void parseExportImport(bool IsExport);
  void parseGlobal();
  void parseData();
  void parseProc(Symbol Name, SourceLoc Loc);

  // Statements.
  std::span<Stmt *> parseBlock();
  Stmt *parseStmt();
  Stmt *parseIf(SourceLoc Loc);
  Stmt *parseReturn(SourceLoc Loc);
  Stmt *parseJump(SourceLoc Loc);
  Stmt *parseCutTo(SourceLoc Loc);
  Stmt *parseContinuation(SourceLoc Loc);
  Stmt *parseIdentStmt();
  Stmt *parseCallTail(SourceLoc Loc, std::span<Symbol> Results,
                      Expr *Callee);
  Annotations parseAnnotations();
  void parseNameList(const char *Context, ArenaListBuilder<Symbol> &Names);

  // Expressions (precedence climbing).
  Expr *parseExpr();
  Expr *parseBinaryRhs(unsigned MinPrec, Expr *Lhs);
  Expr *parseUnary();
  Expr *parsePrimary();
  std::span<Expr *> parseArgs();

  Lexer Lex;
  DiagnosticEngine &Diags;
  /// The current token and the next one, a two-slot ring starting at Head.
  Token Buf[2];
  unsigned Head = 0;
  Module Mod;
  ArenaListBuilder<Symbol> Exports, Imports;
  ArenaListBuilder<GlobalDecl> Globals;
  ArenaListBuilder<DataDecl> Data;
  ArenaListBuilder<ProcDecl> Procs;
  /// Open parentheses, argument lists, unary operators and `if` bodies.
  unsigned Depth = 0;
  /// The height of the expression the last expression parser returned.
  unsigned Height = 0;
  /// Diags' error count when this module's parse began.
  unsigned BaseErrors;
  /// Set when the parser gave up: the rest of the input is skipped and no
  /// further diagnostics are reported.
  bool Abandoned = false;
};

} // namespace cmm

#endif // CMM_SYNTAX_PARSER_H
