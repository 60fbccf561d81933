//===- syntax/AstPrinter.h - C-- pretty printer -----------------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders a Module back to concrete C-- syntax. print(parse(print(M)))
/// equals print(M); the property tests rely on this round trip.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_SYNTAX_ASTPRINTER_H
#define CMM_SYNTAX_ASTPRINTER_H

#include "syntax/Ast.h"

#include <string>

namespace cmm {

/// Pretty-prints \p Mod as parseable C-- source.
std::string printModule(const Module &Mod);

/// Pretty-prints one expression (for diagnostics and tests). \p Names is
/// the interner that owns the names appearing in \p E.
std::string printExpr(const Expr &E, const Interner &Names);

/// The source spelling of \p Op ("+", "<=", ...).
const char *binOpSpelling(BinOp Op);

} // namespace cmm

#endif // CMM_SYNTAX_ASTPRINTER_H
