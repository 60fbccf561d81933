//===- syntax/PrimOps.h - Primitive operations ------------------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The %name primitive operations (Section 4.3). These are the
/// fast-but-dangerous variants: %divu(x, 0) has unspecified behaviour. The
/// slow-but-solid %%name variants are ordinary procedures provided by the
/// standard library (src/sem/StdLib), written in C-- on top of `yield`.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_SYNTAX_PRIMOPS_H
#define CMM_SYNTAX_PRIMOPS_H

#include "syntax/Type.h"

#include <optional>
#include <string_view>

namespace cmm {

/// Identifies a primitive operation.
enum class PrimKind : uint8_t {
  // Fast-but-dangerous integer division family; unspecified on zero divisor.
  DivU,
  DivS,
  ModU,
  ModS,
  // Unsigned comparisons (infix comparisons are signed).
  LtU,
  LeU,
  GtU,
  GeU,
  // Arithmetic shift right (infix >> is logical).
  ShrA,
  // Width conversions.
  Zx64, ///< zero-extend bits32 -> bits64
  Sx64, ///< sign-extend bits32 -> bits64
  Lo32, ///< low half of bits64
  Hi32, ///< high half of bits64
  // Floating point, then the conversions between integer and float: the
  // enumeration ends with everything primTouchesFloat covers.
  FAdd,
  FSub,
  FMul,
  FDiv,
  FNeg,
  FEq,
  FNe,
  FLt,
  FLe,
  // Conversions between integer and float.
  I2F, ///< signed bits32 -> float64
  F2I, ///< float64 -> signed bits32, truncating; unspecified on overflow
};

/// Looks up a primitive by its spelling including the leading '%'
/// (e.g. "%divu"). Returns nullopt for unknown names.
std::optional<PrimKind> lookupPrim(std::string_view Name);

/// The spelling (including '%') of \p K.
const char *primName(PrimKind K);

/// Number of operands of \p K.
unsigned primArity(PrimKind K);

/// Result type given the first operand type \p Arg0 (primitives are
/// width-generic where sensible).
Type primResultType(PrimKind K, Type Arg0);

/// True iff the operand types are acceptable.
bool primOperandsOk(PrimKind K, const Type *ArgTys, unsigned NumArgs);

/// True for the floating-point primitives and the conversions between
/// bits and float.
bool primTouchesFloat(PrimKind K);

/// True for primitives whose failure behaviour is unspecified (the divide
/// family); used by the machine to flag "went wrong: unspecified primitive".
bool primCanFail(PrimKind K);

} // namespace cmm

#endif // CMM_SYNTAX_PRIMOPS_H
