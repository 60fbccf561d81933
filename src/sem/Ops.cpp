//===- sem/Ops.cpp - Goes-wrong reasons of the operators ------------------===//
//
// Part of cmmex (see DESIGN.md).
//
// The one rendering of an operator's stuck state (sem/Ops.h) as the
// goes-wrong reason every executor reports. Kept out of line: the executors
// call it only on the way to a Wrong state.
//
//===----------------------------------------------------------------------===//

#include "sem/Ops.h"

#include "syntax/AstPrinter.h"

using namespace cmm;

namespace {

/// "bits16", "float64": a value's kind and width as the operators see it.
std::string kindAndWidth(const Value &V) {
  return (V.isFloat() ? "float" : "bits") + std::to_string(unsigned(V.Width));
}

/// \p Op names the operator as it appears in the reason: a primitive's
/// spelling, or a quoted infix operator.
std::string render(OpStuck Why, const std::string &Op, const Value *Args) {
  switch (Why) {
  case OpStuck::None:
    break;
  case OpStuck::MixedKinds:
    return "mixed floating-point and bit operands";
  case OpStuck::WidthMismatch:
    return Op + " applied to operands of different widths (" +
           kindAndWidth(Args[0]) + " and " + kindAndWidth(Args[1]) + ")";
  case OpStuck::BitOpOnFloat:
    return "bit operation on floating-point operands";
  case OpStuck::SignedDivZero:
    return "unspecified: signed division by zero (use %%divs for the "
           "checked variant)";
  case OpStuck::SignedDivOverflow:
    return "unspecified: signed division overflow";
  case OpStuck::SignedModZero:
    return "unspecified: signed modulus by zero (use %%mods for the "
           "checked variant)";
  case OpStuck::ZeroDivisor:
    return "unspecified: " + Op + " with zero divisor (use the %% variant)";
  case OpStuck::DivsOverflow:
    return "unspecified: %divs overflow";
  case OpStuck::F2IOutOfRange:
    return "unspecified: %f2i out of range";
  case OpStuck::FloatOperand:
    return Op + " applied to a floating-point operand";
  case OpStuck::OperandWidth:
    return Op + " applied to a " + kindAndWidth(Args[0]) + " operand";
  case OpStuck::BitOperand:
    return Op + " applied to a bit operand";
  case OpStuck::Arity:
    return Op + " applied to the wrong number of operands";
  }
  cmm_unreachable("no reason for a successful application");
}

} // namespace

std::string cmm::opStuckReason(OpStuck Why, UnOp, const Value &V) {
  return render(Why, "", &V);
}

std::string cmm::opStuckReason(OpStuck Why, BinOp Op, const Value &L,
                               const Value &R) {
  const Value Args[] = {L, R};
  return render(Why, std::string("'") + binOpSpelling(Op) + "'", Args);
}

std::string cmm::opStuckReason(OpStuck Why, PrimKind K, const Value *Args) {
  return render(Why, primName(K), Args);
}
