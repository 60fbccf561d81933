//===- ir/Validate.h - Abstract C-- verifier --------------------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural invariants of Abstract C-- graphs, checked after translation
/// and after every optimizer pass: no dangling successors, bundles have a
/// normal return, bundle and cut targets are CopyIn nodes of the same
/// procedure, Yield appears only as the intrinsic procedure's body.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_IR_VALIDATE_H
#define CMM_IR_VALIDATE_H

#include "ir/Ir.h"
#include "support/Diagnostics.h"

namespace cmm {

struct ReachScratch;

/// Verifies \p P; reports problems to \p Diags. Returns true when clean.
bool validateProc(const IrProc &P, const Interner &Names,
                  DiagnosticEngine &Diags);
/// As above, walking the graph in \p Walk's reusable storage.
bool validateProc(const IrProc &P, const Interner &Names,
                  DiagnosticEngine &Diags, ReachScratch &Walk);

/// Verifies every procedure of \p Prog.
bool validateProgram(const IrProgram &Prog, DiagnosticEngine &Diags);

} // namespace cmm

#endif // CMM_IR_VALIDATE_H
