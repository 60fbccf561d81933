//===- syntax/Parser.cpp --------------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "syntax/Parser.h"

#include "support/Assert.h"

#include <algorithm>

using namespace cmm;

namespace {
/// Arena bytes to expect per source byte. Generated programs use 7.2 on
/// average (8.1 at most), so a typical module's tree fits in one chunk and
/// a cached program pins little more than it uses.
constexpr size_t ArenaBytesPerSourceByte = 8;
/// The most a first chunk reserves up front. A larger module's tree grows
/// in doubling chunks as it is built, so a large source that fails early
/// reserves little.
constexpr size_t MaxFirstChunk = 128 << 10;
} // namespace

Parser::Parser(std::string_view Source, DiagnosticEngine &Diags,
               std::shared_ptr<Interner> Names, size_t ArenaBytes)
    : Lex(Source, Diags), Diags(Diags), Exports(Mod.Arena),
      Imports(Mod.Arena), Globals(Mod.Arena), Data(Mod.Arena),
      Procs(Mod.Arena), BaseErrors(Diags.errorCount()) {
  Mod.Names = Names ? std::move(Names) : std::make_shared<Interner>();
  Mod.Arena = AstArena(ArenaBytes ? ArenaBytes
                                  : std::min(Source.size() *
                                                 ArenaBytesPerSourceByte,
                                             MaxFirstChunk));
  Lex.next(Buf[0]);
  Lex.next(Buf[1]);
}

void Parser::checkErrorLimit() {
  if (!Abandoned && Diags.errorCount() - BaseErrors >= MaxErrors)
    giveUp(tok().Loc, "too many errors; giving up on this module");
}

void Parser::error(SourceLoc Loc, std::string Message) {
  if (!Abandoned)
    Diags.error(Loc, std::move(Message));
}

void Parser::giveUp(SourceLoc Loc, std::string Why) {
  Diags.error(Loc, std::move(Why));
  Abandoned = true;
  Lex.skipToEnd();
  Lex.next(Buf[0]);
  Lex.next(Buf[1]);
}

bool Parser::enter() {
  if (++Depth <= MaxNesting)
    return true;
  --Depth;
  if (!Abandoned)
    giveUp(tok().Loc, "expressions or statements nest deeper than the "
                      "limit of " +
                          std::to_string(MaxNesting) + " levels");
  return false;
}

Expr *Parser::above(unsigned Below, Expr *E) {
  Height = Below + 1;
  if (Height > MaxNesting && !Abandoned)
    giveUp(E->loc(), "expression nests deeper than the limit of " +
                         std::to_string(MaxNesting) +
                         " levels (each operator of a chain is a level)");
  return E;
}

std::string_view Parser::stringValue(const Token &T) {
  char *Out = Mod.Arena.allocArray<char>(T.Text.size());
  return {Out, decodeStringLiteral(T.Text, Out)};
}

bool Parser::expectFailed(TokKind K, const char *Context) {
  error(tok().Loc, std::string("expected ") + tokKindName(K) + " " + Context +
                       ", found " + tokKindName(tok().Kind));
  return false;
}

void Parser::syncToStmtBoundary() {
  while (!at(TokKind::Eof) && !at(TokKind::Semi) && !at(TokKind::RBrace))
    skip();
  accept(TokKind::Semi);
}

bool Parser::atType() const {
  switch (tok().Kind) {
  case TokKind::KwBits8:
  case TokKind::KwBits16:
  case TokKind::KwBits32:
  case TokKind::KwBits64:
  case TokKind::KwFloat32:
  case TokKind::KwFloat64:
    return true;
  default:
    return false;
  }
}

std::optional<Type> Parser::parseTypeOpt() {
  switch (tok().Kind) {
  case TokKind::KwBits8: skip(); return Type::bits(8);
  case TokKind::KwBits16: skip(); return Type::bits(16);
  case TokKind::KwBits32: skip(); return Type::bits(32);
  case TokKind::KwBits64: skip(); return Type::bits(64);
  case TokKind::KwFloat32: skip(); return Type::flt(32);
  case TokKind::KwFloat64: skip(); return Type::flt(64);
  default:
    return std::nullopt;
  }
}

//===----------------------------------------------------------------------===//
// Top level
//===----------------------------------------------------------------------===//

Module Parser::parseModule() {
  while (!at(TokKind::Eof))
    parseTopDecl();
  Mod.Exports = Exports.finish();
  Mod.Imports = Imports.finish();
  Mod.Globals = Globals.finish();
  Mod.Data = Data.finish();
  Mod.Procs = Procs.finish();
  return std::move(Mod);
}

void Parser::parseTopDecl() {
  checkErrorLimit();
  SourceLoc Loc = tok().Loc;
  switch (tok().Kind) {
  case TokKind::KwExport:
    skip();
    parseExportImport(/*IsExport=*/true);
    return;
  case TokKind::KwImport:
    skip();
    parseExportImport(/*IsExport=*/false);
    return;
  case TokKind::KwGlobal:
  case TokKind::KwRegister:
    skip();
    parseGlobal();
    return;
  case TokKind::KwData:
    skip();
    parseData();
    return;
  case TokKind::Ident:
    parseProc(internName(), Loc);
    return;
  case TokKind::PrimName: {
    // The standard library defines the slow-but-solid %%name procedures
    // (Section 4.3) as ordinary C-- procedures.
    Token Name = consume();
    if (!Name.Text.starts_with("%%"))
      error(Loc, "'" + std::string(Name.Text) +
                     "' is a primitive; only %%names may be defined "
                     "as procedures");
    parseProc(intern(Name.Text), Loc);
    return;
  }
  default:
    error(Loc, std::string("expected top-level declaration, found ") +
                         tokKindName(tok().Kind));
    skip();
  }
}

void Parser::parseExportImport(bool IsExport) {
  do {
    if (!at(TokKind::Ident) && !at(TokKind::PrimName)) {
      error(tok().Loc, "expected name in export/import list");
      break;
    }
    (IsExport ? Exports : Imports).push_back(internName());
  } while (accept(TokKind::Comma));
  expect(TokKind::Semi, "after export/import list");
}

void Parser::parseGlobal() {
  SourceLoc Loc = tok().Loc;
  std::optional<Type> Ty = parseTypeOpt();
  if (!Ty) {
    error(Loc, "expected type in global declaration");
    syncToStmtBoundary();
    return;
  }
  do {
    if (!at(TokKind::Ident)) {
      error(tok().Loc, "expected name in global declaration");
      break;
    }
    SourceLoc NameLoc = tok().Loc;
    Globals.push_back({NameLoc, *Ty, internName()});
  } while (accept(TokKind::Comma));
  expect(TokKind::Semi, "after global declaration");
}

void Parser::parseData() {
  DataDecl D;
  D.Loc = tok().Loc;
  if (!at(TokKind::Ident)) {
    error(tok().Loc, "expected data block name");
    syncToStmtBoundary();
    return;
  }
  D.Name = internName();
  if (!expect(TokKind::LBrace, "to open data block"))
    return;
  ArenaListBuilder<DataItem> Items = list<DataItem>();
  while (!at(TokKind::RBrace) && !at(TokKind::Eof)) {
    SourceLoc ItemLoc = tok().Loc;
    std::optional<Type> Ty = parseTypeOpt();
    if (!Ty) {
      error(ItemLoc, "expected type in data item");
      syncToStmtBoundary();
      continue;
    }
    if (accept(TokKind::LBracket)) {
      // "bits32[10];" reserves 10 zeroed cells.
      DataItem Item;
      Item.K = DataItem::Kind::Reserve;
      Item.Ty = *Ty;
      if (at(TokKind::IntLit))
        Item.ReserveCount = consume().IntValue;
      else
        error(tok().Loc, "expected cell count in data reservation");
      expect(TokKind::RBracket, "after data reservation count");
      expect(TokKind::Semi, "after data item");
      Items.push_back(Item);
      continue;
    }
    do {
      DataItem Item;
      Item.Ty = *Ty;
      if (at(TokKind::IntLit)) {
        Item.K = DataItem::Kind::Int;
        Item.IntValue = consume().IntValue;
      } else if (at(TokKind::StrLit)) {
        Item.K = DataItem::Kind::Str;
        Item.StrValue = stringValue(consume());
      } else if (at(TokKind::Ident)) {
        Item.K = DataItem::Kind::Name;
        Item.NameValue = internName();
      } else {
        error(tok().Loc, "expected data value");
        break;
      }
      Items.push_back(Item);
    } while (accept(TokKind::Comma));
    expect(TokKind::Semi, "after data item");
  }
  expect(TokKind::RBrace, "to close data block");
  D.Items = Items.finish();
  Data.push_back(D);
}

void Parser::parseProc(Symbol Name, SourceLoc Loc) {
  ProcDecl P;
  P.Loc = Loc;
  P.Name = Name;
  if (!expect(TokKind::LParen, "after procedure name"))
    return;
  ArenaListBuilder<Param> Params = list<Param>();
  if (!at(TokKind::RParen)) {
    do {
      SourceLoc PLoc = tok().Loc;
      std::optional<Type> Ty = parseTypeOpt();
      if (!Ty) {
        error(PLoc, "expected parameter type");
        break;
      }
      if (!at(TokKind::Ident)) {
        error(tok().Loc, "expected parameter name");
        break;
      }
      Params.push_back({*Ty, internName()});
    } while (accept(TokKind::Comma));
  }
  expect(TokKind::RParen, "after parameter list");
  P.Params = Params.finish();
  if (!expect(TokKind::LBrace, "to open procedure body"))
    return;
  P.Body = parseBlock();
  Procs.push_back(P);
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

std::span<Stmt *> Parser::parseBlock() {
  ArenaListBuilder<Stmt *> Stmts = list<Stmt *>();
  while (!at(TokKind::RBrace) && !at(TokKind::Eof))
    if (Stmt *S = parseStmt())
      Stmts.push_back(S);
  expect(TokKind::RBrace, "to close block");
  return Stmts.finish();
}

Stmt *Parser::parseStmt() {
  checkErrorLimit();
  SourceLoc Loc = tok().Loc;
  switch (tok().Kind) {
  case TokKind::KwIf:
    skip();
    return parseIf(Loc);
  case TokKind::KwGoto: {
    skip();
    Symbol Target;
    if (at(TokKind::Ident))
      Target = internName();
    else
      error(tok().Loc, "expected label after 'goto'");
    expect(TokKind::Semi, "after goto");
    return make<GotoStmt>(Loc, Target);
  }
  case TokKind::KwReturn:
    skip();
    return parseReturn(Loc);
  case TokKind::KwJump:
    skip();
    return parseJump(Loc);
  case TokKind::KwCut:
    skip();
    expect(TokKind::KwTo, "after 'cut'");
    return parseCutTo(Loc);
  case TokKind::KwContinuation:
    skip();
    return parseContinuation(Loc);
  case TokKind::Ident:
  case TokKind::PrimName:
    return parseIdentStmt();
  default:
    break;
  }

  if (atType()) {
    Type Ty = *parseTypeOpt();
    if (accept(TokKind::LBracket)) {
      // Memory store: "type[addr] = e;"
      Expr *Addr = parseExpr();
      expect(TokKind::RBracket, "after store address");
      expect(TokKind::Assign, "in memory store");
      Expr *Value = parseExpr();
      expect(TokKind::Semi, "after memory store");
      return make<MemAssignStmt>(Loc, Ty, Addr, Value);
    }
    // Local variable declaration.
    ArenaListBuilder<Symbol> Names = list<Symbol>();
    do {
      if (!at(TokKind::Ident)) {
        error(tok().Loc, "expected variable name in declaration");
        break;
      }
      Names.push_back(internName());
    } while (accept(TokKind::Comma));
    expect(TokKind::Semi, "after variable declaration");
    return make<VarDeclStmt>(Loc, Ty, Names.finish());
  }

  error(Loc, std::string("expected statement, found ") +
                       tokKindName(tok().Kind));
  syncToStmtBoundary();
  return nullptr;
}

Stmt *Parser::parseIf(SourceLoc Loc) {
  if (!enter())
    return nullptr;
  // An else-if chain is parsed in a loop: each arm becomes the previous
  // arm's one-statement else list, but its body nests no deeper.
  IfStmt *First = nullptr, *Last = nullptr;
  while (true) {
    Expr *Cond = parseExpr();
    expect(TokKind::LBrace, "to open 'if' body");
    std::span<Stmt *> Then = parseBlock();
    auto *If = make<IfStmt>(Loc, Cond, Then, std::span<Stmt *>());
    Stmt *Arm = If;
    if (Last)
      Last->Else = Mod.Arena.copy(std::span<Stmt *const>(&Arm, 1));
    else
      First = If;
    Last = If;
    if (!accept(TokKind::KwElse))
      break;
    if (!at(TokKind::KwIf)) {
      expect(TokKind::LBrace, "to open 'else' body");
      Last->Else = parseBlock();
      break;
    }
    Loc = tok().Loc;
    skip();
  }
  leave();
  return First;
}

Stmt *Parser::parseReturn(SourceLoc Loc) {
  unsigned ContIndex = 0, AltCount = 0;
  if (accept(TokKind::Less)) {
    if (at(TokKind::IntLit))
      ContIndex = static_cast<unsigned>(consume().IntValue);
    else
      error(tok().Loc, "expected continuation index in return <i/n>");
    expect(TokKind::Slash, "in return <i/n>");
    if (at(TokKind::IntLit))
      AltCount = static_cast<unsigned>(consume().IntValue);
    else
      error(tok().Loc, "expected continuation count in return <i/n>");
    expect(TokKind::Greater, "in return <i/n>");
  }
  std::span<Expr *> Values;
  if (accept(TokKind::LParen)) {
    if (!at(TokKind::RParen))
      Values = parseArgs();
    expect(TokKind::RParen, "after return values");
  }
  expect(TokKind::Semi, "after return");
  return make<ReturnStmt>(Loc, ContIndex, AltCount, Values);
}

Stmt *Parser::parseJump(SourceLoc Loc) {
  Expr *Callee = parsePrimary();
  expect(TokKind::LParen, "after jump target");
  std::span<Expr *> Args;
  if (!at(TokKind::RParen))
    Args = parseArgs();
  expect(TokKind::RParen, "after jump arguments");
  expect(TokKind::Semi, "after jump");
  return make<JumpStmt>(Loc, Callee, Args);
}

Stmt *Parser::parseCutTo(SourceLoc Loc) {
  Expr *Cont = parsePrimary();
  expect(TokKind::LParen, "after cut to target");
  std::span<Expr *> Args;
  if (!at(TokKind::RParen))
    Args = parseArgs();
  expect(TokKind::RParen, "after cut to arguments");
  Annotations Annots = parseAnnotations();
  if (!Annots.UnwindsTo.empty() || !Annots.ReturnsTo.empty() || Annots.Aborts)
    error(Loc, "only 'also cuts to' may annotate a cut to statement");
  expect(TokKind::Semi, "after cut to");
  return make<CutToStmt>(Loc, Cont, Args, Annots.CutsTo);
}

Stmt *Parser::parseContinuation(SourceLoc Loc) {
  if (!at(TokKind::Ident)) {
    error(tok().Loc, "expected continuation name");
    syncToStmtBoundary();
    return nullptr;
  }
  Symbol Name = internName();
  ArenaListBuilder<Symbol> Params = list<Symbol>();
  if (accept(TokKind::LParen)) {
    if (!at(TokKind::RParen)) {
      do {
        if (!at(TokKind::Ident)) {
          error(tok().Loc, "expected continuation parameter name");
          break;
        }
        Params.push_back(internName());
      } while (accept(TokKind::Comma));
    }
    expect(TokKind::RParen, "after continuation parameters");
  }
  expect(TokKind::Colon, "after continuation header");
  return make<ContinuationStmt>(Loc, Name, Params.finish());
}

/// Statements that start with an identifier: label, call, or assignment.
Stmt *Parser::parseIdentStmt() {
  SourceLoc Loc = tok().Loc;

  // "%%divu(...)" call statement (no results).
  if (at(TokKind::PrimName)) {
    Token Callee = consume();
    if (!Callee.Text.starts_with("%%"))
      error(Loc, "primitive '" + std::string(Callee.Text) +
                     "' cannot be used as a statement; only %%names "
                     "denote callable procedures");
    return parseCallTail(Loc, {}, make<NameExpr>(Loc, intern(Callee.Text)));
  }

  // Label?
  if (tok(1).is(TokKind::Colon)) {
    Symbol Name = internName();
    skip(); // ':'
    return make<LabelStmt>(Loc, Name);
  }

  // Call without results: "f(args) annots;"
  if (tok(1).is(TokKind::LParen)) {
    return parseCallTail(Loc, {}, make<NameExpr>(Loc, internName()));
  }

  // Otherwise: "x = e;", "x, y = f(...);"
  ArenaListBuilder<Symbol> Lhs = list<Symbol>();
  do {
    if (!at(TokKind::Ident)) {
      error(tok().Loc, "expected variable on left-hand side");
      syncToStmtBoundary();
      return nullptr;
    }
    Lhs.push_back(internName());
  } while (accept(TokKind::Comma));
  if (!expect(TokKind::Assign, "in assignment")) {
    syncToStmtBoundary();
    return nullptr;
  }

  // Call on the right-hand side? Calls are statements, not expressions, so
  // detect "name (" / "%%name (" here.
  bool IsCall =
      (at(TokKind::Ident) && tok(1).is(TokKind::LParen)) ||
      (at(TokKind::PrimName) && tok().Text.starts_with("%%"));
  if (IsCall) {
    SourceLoc CalleeLoc = tok().Loc;
    Expr *Callee = make<NameExpr>(CalleeLoc, internName());
    return parseCallTail(Loc, Lhs.finish(), Callee);
  }

  if (Lhs.size() != 1)
    error(Loc, "multiple assignment targets require a call on the "
                     "right-hand side");
  Symbol Target = Lhs.finish().front();
  Expr *Value = parseExpr();
  expect(TokKind::Semi, "after assignment");
  return make<AssignStmt>(Loc, Target, Value);
}

Stmt *Parser::parseCallTail(SourceLoc Loc, std::span<Symbol> Results,
                            Expr *Callee) {
  expect(TokKind::LParen, "after callee");
  std::span<Expr *> Args;
  if (!at(TokKind::RParen))
    Args = parseArgs();
  expect(TokKind::RParen, "after call arguments");
  Annotations Annots = parseAnnotations();
  expect(TokKind::Semi, "after call");
  return make<CallStmt>(Loc, Results, Callee, Args, Annots);
}

Annotations Parser::parseAnnotations() {
  Annotations A;
  ArenaListBuilder<Symbol> CutsTo = list<Symbol>(),
                           UnwindsTo = list<Symbol>(),
                           ReturnsTo = list<Symbol>();
  ArenaListBuilder<Expr *> Descriptors = list<Expr *>();
  while (true) {
    if (accept(TokKind::KwAlso)) {
      if (accept(TokKind::KwCuts)) {
        expect(TokKind::KwTo, "after 'also cuts'");
        parseNameList("in also cuts to", CutsTo);
      } else if (accept(TokKind::KwUnwinds)) {
        expect(TokKind::KwTo, "after 'also unwinds'");
        parseNameList("in also unwinds to", UnwindsTo);
      } else if (accept(TokKind::KwReturns)) {
        expect(TokKind::KwTo, "after 'also returns'");
        parseNameList("in also returns to", ReturnsTo);
      } else if (accept(TokKind::KwAborts)) {
        A.Aborts = true;
      } else {
        error(tok().Loc,
                    "expected 'cuts to', 'unwinds to', 'returns to', or "
                    "'aborts' after 'also'");
        break;
      }
      continue;
    }
    if (accept(TokKind::KwDescriptors)) {
      do
        Descriptors.push_back(parseExpr());
      while (accept(TokKind::Comma));
      continue;
    }
    break;
  }
  A.CutsTo = CutsTo.finish();
  A.UnwindsTo = UnwindsTo.finish();
  A.ReturnsTo = ReturnsTo.finish();
  A.Descriptors = Descriptors.finish();
  return A;
}

void Parser::parseNameList(const char *Context,
                           ArenaListBuilder<Symbol> &Names) {
  do {
    if (!at(TokKind::Ident)) {
      error(tok().Loc, std::string("expected continuation name ") +
                                 Context);
      break;
    }
    Names.push_back(internName());
  } while (accept(TokKind::Comma));
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

namespace {
/// Binding strength of a binary operator token; 0 = not a binary operator.
unsigned binPrec(TokKind K) {
  switch (K) {
  case TokKind::Star:
  case TokKind::Slash:
  case TokKind::Percent:
    return 10;
  case TokKind::Plus:
  case TokKind::Minus:
    return 9;
  case TokKind::Shl:
  case TokKind::Shr:
    return 8;
  case TokKind::Less:
  case TokKind::LessEq:
  case TokKind::Greater:
  case TokKind::GreaterEq:
    return 7;
  case TokKind::EqEq:
  case TokKind::NotEq:
    return 6;
  case TokKind::Amp:
    return 5;
  case TokKind::Caret:
    return 4;
  case TokKind::Pipe:
    return 3;
  default:
    return 0;
  }
}

BinOp binOpFor(TokKind K) {
  switch (K) {
  case TokKind::Star: return BinOp::Mul;
  case TokKind::Slash: return BinOp::Div;
  case TokKind::Percent: return BinOp::Mod;
  case TokKind::Plus: return BinOp::Add;
  case TokKind::Minus: return BinOp::Sub;
  case TokKind::Shl: return BinOp::Shl;
  case TokKind::Shr: return BinOp::Shr;
  case TokKind::Less: return BinOp::LtS;
  case TokKind::LessEq: return BinOp::LeS;
  case TokKind::Greater: return BinOp::GtS;
  case TokKind::GreaterEq: return BinOp::GeS;
  case TokKind::EqEq: return BinOp::Eq;
  case TokKind::NotEq: return BinOp::Ne;
  case TokKind::Amp: return BinOp::And;
  case TokKind::Caret: return BinOp::Xor;
  case TokKind::Pipe: return BinOp::Or;
  default: cmm_unreachable("not a binary operator token");
  }
}
} // namespace

Expr *Parser::parseExpr() {
  if (!enter())
    return above(0, make<IntLitExpr>(tok().Loc, 0));
  Expr *E = parseBinaryRhs(1, parseUnary());
  leave();
  return E;
}

Expr *Parser::parseBinaryRhs(unsigned MinPrec, Expr *Lhs) {
  // A chain is a loop here, but each operator folded into Lhs makes the
  // (left-leaning) tree one level taller, and later passes walk the tree
  // recursively.
  while (true) {
    unsigned Prec = binPrec(tok().Kind);
    if (Prec < MinPrec)
      return Lhs;
    unsigned LhsHeight = Height;
    Token Op = consume();
    Expr *Rhs = parseUnary();
    // Left-associative: bind tighter operators into Rhs first.
    while (binPrec(tok().Kind) > Prec)
      Rhs = parseBinaryRhs(binPrec(tok().Kind), Rhs);
    Lhs = above(std::max(LhsHeight, Height),
                make<BinaryExpr>(Op.Loc, binOpFor(Op.Kind), Lhs, Rhs));
  }
}

Expr *Parser::parseUnary() {
  SourceLoc Loc = tok().Loc;
  UnOp Op;
  if (at(TokKind::Minus))
    Op = UnOp::Neg;
  else if (at(TokKind::Tilde))
    Op = UnOp::Com;
  else if (at(TokKind::Bang))
    Op = UnOp::Not;
  else
    return parsePrimary();
  if (!enter())
    return above(0, make<IntLitExpr>(Loc, 0));
  skip();
  Expr *Operand = parseUnary();
  leave();
  return above(Height, make<UnaryExpr>(Loc, Op, Operand));
}

Expr *Parser::parsePrimary() {
  SourceLoc Loc = tok().Loc;
  switch (tok().Kind) {
  case TokKind::IntLit:
    return above(0, make<IntLitExpr>(Loc, consume().IntValue));
  case TokKind::FloatLit:
    return above(0, make<FloatLitExpr>(Loc, consume().FloatValue));
  case TokKind::StrLit:
    Mod.HasStrLits = true;
    return above(0, make<StrLitExpr>(Loc, stringValue(consume())));
  case TokKind::Ident:
    return above(0, make<NameExpr>(Loc, internName()));
  case TokKind::PrimName: {
    Token Prim = consume();
    if (Prim.Text.starts_with("%%")) {
      error(Loc, "'" + std::string(Prim.Text) +
                     "' is a procedure and must be called as a "
                     "statement, not used in an expression");
    }
    expect(TokKind::LParen, "after primitive name");
    std::span<Expr *> Args;
    unsigned ArgsHeight = 0;
    if (!at(TokKind::RParen)) {
      Args = parseArgs();
      ArgsHeight = Height;
    }
    expect(TokKind::RParen, "after primitive arguments");
    // Interned after its arguments: Symbol ids follow this order.
    return above(ArgsHeight, make<PrimExpr>(Loc, intern(Prim.Text), Args));
  }
  case TokKind::KwSizeof: {
    skip();
    expect(TokKind::LParen, "after sizeof");
    Symbol Name;
    if (at(TokKind::Ident))
      Name = internName();
    else
      error(tok().Loc, "expected name in sizeof");
    expect(TokKind::RParen, "after sizeof operand");
    return above(0, make<SizeofExpr>(Loc, Name));
  }
  case TokKind::LParen: {
    skip();
    Expr *E = parseExpr();
    expect(TokKind::RParen, "to close parenthesized expression");
    return E;
  }
  default:
    break;
  }

  if (atType()) {
    Type Ty = *parseTypeOpt();
    expect(TokKind::LBracket, "after type in memory load");
    Expr *Addr = parseExpr();
    expect(TokKind::RBracket, "after load address");
    return above(Height, make<LoadExpr>(Loc, Ty, Addr));
  }

  error(Loc, std::string("expected expression, found ") +
                       tokKindName(tok().Kind));
  skip();
  return above(0, make<IntLitExpr>(Loc, 0));
}

std::span<Expr *> Parser::parseArgs() {
  ArenaListBuilder<Expr *> Args = list<Expr *>();
  unsigned Tallest = 0;
  do {
    Args.push_back(parseExpr());
    Tallest = std::max(Tallest, Height);
  } while (accept(TokKind::Comma));
  Height = Tallest;
  return Args.finish();
}
