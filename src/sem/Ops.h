//===- sem/Ops.h - The meaning of every operator ----------------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one definition of the unary, binary and primitive operators of
/// Section 5.2's expression evaluation: pure functions over Values that
/// either produce the result or name the operator's stuck state. The tree
/// walker, the bytecode dispatch loop and ConstProp's folding all apply
/// operators through here; each executor turns a stuck cause into its
/// goes-wrong reason with opStuckReason (sem/Ops.cpp), and the optimizer
/// declines to fold it.
///
/// Operand rule. Sema rejects mis-typed operands statically, but an
/// indirect call can launder any value into any parameter, so the rule is
/// also enforced here at run time: a binary operator or a two-operand
/// primitive goes wrong unless both operands have the same kind (bits or
/// float) and the same width; a bit operation (including `~` and `!`) goes
/// wrong on a float; a primitive goes wrong on operands of the wrong kind
/// or width, or on the wrong number of operands. Code and continuation
/// values are bit patterns to the operators.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_SEM_OPS_H
#define CMM_SEM_OPS_H

#include "sem/Value.h"
#include "support/Assert.h"
#include "support/Bits.h"
#include "syntax/Ast.h"
#include "syntax/PrimOps.h"

#include <string>

#if defined(__GNUC__) || defined(__clang__)
#define CMM_VM_INLINE __attribute__((always_inline)) inline
#define CMM_OPS_NOINLINE __attribute__((noinline)) inline
#else
#define CMM_VM_INLINE inline
#define CMM_OPS_NOINLINE inline
#endif

namespace cmm {

/// Why an operator application has no result (None: it has one).
enum class OpStuck : uint8_t {
  None,
  MixedKinds,        ///< a float operand beside a bits operand
  WidthMismatch,     ///< two operands of different widths
  BitOpOnFloat,      ///< a bit operation on float operands
  SignedDivZero,     ///< `/` by zero
  SignedDivOverflow, ///< `/` of the most negative value by -1
  SignedModZero,     ///< `%` by zero
  ZeroDivisor,       ///< a primitive of the divide family by zero
  DivsOverflow,      ///< %divs of the most negative value by -1
  F2IOutOfRange,     ///< %f2i of a float outside bits32
  FloatOperand,      ///< a bits primitive given a float operand
  OperandWidth,      ///< a one-operand bits primitive given the wrong width
  BitOperand,        ///< a float primitive given a non-float operand
  Arity,             ///< a primitive given the wrong number of operands
};

/// The goes-wrong reason for \p Why, the stuck state of applying the named
/// operator to its operands.
std::string opStuckReason(OpStuck Why, UnOp Op, const Value &V);
std::string opStuckReason(OpStuck Why, BinOp Op, const Value &L,
                          const Value &R);
std::string opStuckReason(OpStuck Why, PrimKind K, const Value *Args);

inline OpStuck applyUnary(Value &Out, const Value &V, UnOp Op) {
  switch (Op) {
  case UnOp::Neg:
    Out = V.isFloat() ? Value::flt(V.Width, -V.F)
                      : Value::bits(V.Width, 0 - V.Raw);
    return OpStuck::None;
  case UnOp::Com:
    if (V.isFloat())
      return OpStuck::BitOpOnFloat;
    Out = Value::bits(V.Width, ~V.Raw);
    return OpStuck::None;
  case UnOp::Not:
    if (V.isFloat())
      return OpStuck::BitOpOnFloat;
    Out = Value::bits(32, V.Raw == 0 ? 1 : 0);
    return OpStuck::None;
  }
  cmm_unreachable("unknown unary operator");
}

/// The binary operators with no stuck state on two bits operands of one
/// width: the dispatch loop's inlined fast path, and the first thing
/// applyBinary tries. Returns false (Out untouched) for every other case.
CMM_VM_INLINE bool applyBinaryFast(Value &Out, const Value &L, const Value &R,
                                   BinOp Op) {
  if (L.isFloat() || R.isFloat() || L.Width != R.Width) [[unlikely]]
    return false;
  const unsigned W = L.Width;
  const uint64_t X = L.Raw, Y = R.Raw;
  auto S = [W](uint64_t V) { return signExtend(V, W); };
  switch (Op) {
  case BinOp::Add: Out = Value::bits(W, X + Y); return true;
  case BinOp::Sub: Out = Value::bits(W, X - Y); return true;
  case BinOp::Mul: Out = Value::bits(W, X * Y); return true;
  case BinOp::And: Out = Value::bits(W, X & Y); return true;
  case BinOp::Or: Out = Value::bits(W, X | Y); return true;
  case BinOp::Xor: Out = Value::bits(W, X ^ Y); return true;
  case BinOp::Shl: Out = Value::bits(W, Y >= W ? 0 : X << Y); return true;
  case BinOp::Shr: Out = Value::bits(W, Y >= W ? 0 : X >> Y); return true;
  case BinOp::Eq: Out = Value::bits(32, X == Y); return true;
  case BinOp::Ne: Out = Value::bits(32, X != Y); return true;
  case BinOp::LtS: Out = Value::bits(32, S(X) < S(Y)); return true;
  case BinOp::LeS: Out = Value::bits(32, S(X) <= S(Y)); return true;
  case BinOp::GtS: Out = Value::bits(32, S(X) > S(Y)); return true;
  case BinOp::GeS: Out = Value::bits(32, S(X) >= S(Y)); return true;
  default:
    return false; // `/` and `%` can go wrong
  }
}

/// Everything applyBinaryFast declines: operand discipline, floats, and
/// the signed division family. Out of line, so the fast path's call sites
/// in the dispatch loop stay small.
CMM_OPS_NOINLINE OpStuck applyBinarySlow(Value &Out, const Value &L,
                                         const Value &R, BinOp Op) {
  if (L.isFloat() != R.isFloat())
    return OpStuck::MixedKinds;
  if (L.Width != R.Width)
    return OpStuck::WidthMismatch;
  const unsigned W = L.Width;
  if (L.isFloat()) {
    const double X = L.F, Y = R.F;
    switch (Op) {
    case BinOp::Add: Out = Value::flt(W, X + Y); return OpStuck::None;
    case BinOp::Sub: Out = Value::flt(W, X - Y); return OpStuck::None;
    case BinOp::Mul: Out = Value::flt(W, X * Y); return OpStuck::None;
    case BinOp::Div: Out = Value::flt(W, X / Y); return OpStuck::None;
    case BinOp::Eq: Out = Value::bits(32, X == Y); return OpStuck::None;
    case BinOp::Ne: Out = Value::bits(32, X != Y); return OpStuck::None;
    case BinOp::LtS: Out = Value::bits(32, X < Y); return OpStuck::None;
    case BinOp::LeS: Out = Value::bits(32, X <= Y); return OpStuck::None;
    case BinOp::GtS: Out = Value::bits(32, X > Y); return OpStuck::None;
    case BinOp::GeS: Out = Value::bits(32, X >= Y); return OpStuck::None;
    default: return OpStuck::BitOpOnFloat;
    }
  }
  // The fast-but-dangerous signed divide (Section 4.3): its failure
  // behaviour is unspecified, which the abstract machine models as going
  // wrong.
  const int64_t SX = signExtend(L.Raw, W), SY = signExtend(R.Raw, W);
  const bool MinByMinusOne = SX == signExtend(signedMin(W), W) && SY == -1;
  switch (Op) {
  case BinOp::Div:
    if (SY == 0)
      return OpStuck::SignedDivZero;
    if (MinByMinusOne)
      return OpStuck::SignedDivOverflow;
    Out = Value::bits(W, static_cast<uint64_t>(SX / SY));
    return OpStuck::None;
  case BinOp::Mod:
    if (SY == 0)
      return OpStuck::SignedModZero;
    Out = Value::bits(W, MinByMinusOne ? 0 : static_cast<uint64_t>(SX % SY));
    return OpStuck::None;
  default:
    cmm_unreachable("applyBinaryFast applies every other bits operator");
  }
}

CMM_VM_INLINE OpStuck applyBinary(Value &Out, const Value &L, const Value &R,
                                  BinOp Op) {
  if (applyBinaryFast(Out, L, R, Op)) [[likely]]
    return OpStuck::None;
  return applyBinarySlow(Out, L, R, Op);
}

/// A primitive's operand discipline: a float primitive (%i2f is not one)
/// takes float operands and every other primitive bit patterns; two
/// operands agree in width, and a width conversion's operand has the width
/// it converts from.
inline OpStuck primOperands(PrimKind K, const Value *Args, unsigned Count) {
  const bool Floats = primTouchesFloat(K) && K != PrimKind::I2F;
  for (unsigned I = 0; I < Count; ++I)
    if (Args[I].isFloat() != Floats)
      return Floats ? OpStuck::BitOperand : OpStuck::FloatOperand;
  if (Count == 2)
    return Args[0].Width == Args[1].Width ? OpStuck::None
                                          : OpStuck::WidthMismatch;
  if (Floats)
    return OpStuck::None;
  const unsigned From = K == PrimKind::Lo32 || K == PrimKind::Hi32 ? 64 : 32;
  return Args[0].Width == From ? OpStuck::None : OpStuck::OperandWidth;
}

/// Applies primitive \p K to the \p Count operands \p Args (only the
/// first primArity(K) are read, and only once Count equals it).
CMM_OPS_NOINLINE OpStuck applyPrim(Value &Out, PrimKind K, const Value *Args,
                                   unsigned Count) {
  if (Count != primArity(K))
    return OpStuck::Arity;
  if (OpStuck Why = primOperands(K, Args, Count); Why != OpStuck::None)
    return Why;
  const Value &A = Args[0], &B = Args[Count - 1];
  const unsigned W = A.Width;
  switch (K) {
  case PrimKind::DivU:
  case PrimKind::ModU:
    if (B.Raw == 0)
      return OpStuck::ZeroDivisor;
    Out = Value::bits(W, K == PrimKind::DivU ? A.Raw / B.Raw : A.Raw % B.Raw);
    break;
  case PrimKind::DivS:
  case PrimKind::ModS: {
    const int64_t X = signExtend(A.Raw, W), Y = signExtend(B.Raw, W);
    if (Y == 0)
      return OpStuck::ZeroDivisor;
    const bool MinByMinusOne = X == signExtend(signedMin(W), W) && Y == -1;
    if (K == PrimKind::ModS)
      Out = Value::bits(W, MinByMinusOne ? 0 : static_cast<uint64_t>(X % Y));
    else if (MinByMinusOne)
      return OpStuck::DivsOverflow;
    else
      Out = Value::bits(W, static_cast<uint64_t>(X / Y));
    break;
  }
  case PrimKind::LtU: Out = Value::bits(32, A.Raw < B.Raw); break;
  case PrimKind::LeU: Out = Value::bits(32, A.Raw <= B.Raw); break;
  case PrimKind::GtU: Out = Value::bits(32, A.Raw > B.Raw); break;
  case PrimKind::GeU: Out = Value::bits(32, A.Raw >= B.Raw); break;
  case PrimKind::ShrA: {
    const int64_t X = signExtend(A.Raw, W);
    Out = Value::bits(W, B.Raw >= W ? (X < 0 ? ~uint64_t(0) : 0)
                                    : static_cast<uint64_t>(X >> B.Raw));
    break;
  }
  case PrimKind::Zx64: Out = Value::bits(64, A.Raw); break;
  case PrimKind::Sx64:
    Out = Value::bits(64, static_cast<uint64_t>(signExtend(A.Raw, 32)));
    break;
  case PrimKind::Lo32: Out = Value::bits(32, A.Raw); break;
  case PrimKind::Hi32: Out = Value::bits(32, A.Raw >> 32); break;
  case PrimKind::FAdd: Out = Value::flt(W, A.F + B.F); break;
  case PrimKind::FSub: Out = Value::flt(W, A.F - B.F); break;
  case PrimKind::FMul: Out = Value::flt(W, A.F * B.F); break;
  case PrimKind::FDiv: Out = Value::flt(W, A.F / B.F); break;
  case PrimKind::FNeg: Out = Value::flt(W, -A.F); break;
  case PrimKind::FEq: Out = Value::bits(32, A.F == B.F); break;
  case PrimKind::FNe: Out = Value::bits(32, A.F != B.F); break;
  case PrimKind::FLt: Out = Value::bits(32, A.F < B.F); break;
  case PrimKind::FLe: Out = Value::bits(32, A.F <= B.F); break;
  case PrimKind::I2F:
    Out = Value::flt(64, static_cast<double>(signExtend(A.Raw, 32)));
    break;
  case PrimKind::F2I:
    if (!(A.F >= -2147483648.0 && A.F < 2147483648.0))
      return OpStuck::F2IOutOfRange;
    Out = Value::bits(32, static_cast<uint64_t>(static_cast<int64_t>(A.F)));
    break;
  }
  return OpStuck::None;
}

} // namespace cmm

#endif // CMM_SEM_OPS_H
