//===- opt/ConstProp.cpp --------------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "opt/ConstProp.h"

#include "support/Assert.h"
#include "syntax/PrimOps.h"

#include <bit>
#include <cmath>

using namespace cmm;

namespace {

//===----------------------------------------------------------------------===//
// Folding
//===----------------------------------------------------------------------===//

/// Evaluates \p E when all leaves are known and evaluation cannot fail.
/// \p Lookup(Symbol) gives a variable's known value, if any.
template <typename LookupFn>
std::optional<Value> fold(const Expr *E, const LookupFn &Lookup,
                          const Interner &Names) {
  switch (E->kind()) {
  case Expr::Kind::IntLit:
    return Value::bits(E->Ty.Width, cast<IntLitExpr>(E)->Value);
  case Expr::Kind::FloatLit:
    return Value::flt(E->Ty.Width, cast<FloatLitExpr>(E)->Value);
  case Expr::Kind::Sizeof:
    return Value::bits(32, cast<SizeofExpr>(E)->SizeInBytes);
  case Expr::Kind::Name: {
    const auto *N = cast<NameExpr>(E);
    if (N->Ref == RefKind::Local || N->Ref == RefKind::Global)
      return Lookup(N->Name);
    return std::nullopt; // procedure/data addresses stay symbolic
  }
  case Expr::Kind::StrLit:
  case Expr::Kind::Load:
    return std::nullopt;

  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    std::optional<Value> V = fold(U->Operand, Lookup, Names);
    if (!V)
      return std::nullopt;
    switch (U->Op) {
    case UnOp::Neg:
      if (V->isFloat())
        return Value::flt(V->Width, -V->F);
      return Value::bits(V->Width, 0 - V->Raw);
    case UnOp::Com:
      if (!V->isBits())
        return std::nullopt;
      return Value::bits(V->Width, ~V->Raw);
    case UnOp::Not:
      if (!V->isBits())
        return std::nullopt;
      return Value::bits(32, V->Raw == 0 ? 1 : 0);
    }
    return std::nullopt;
  }

  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    std::optional<Value> L = fold(B->Lhs, Lookup, Names);
    std::optional<Value> R = fold(B->Rhs, Lookup, Names);
    if (!L || !R)
      return std::nullopt;
    if (L->isFloat() || R->isFloat()) {
      if (!(L->isFloat() && R->isFloat()))
        return std::nullopt;
      switch (B->Op) {
      case BinOp::Add: return Value::flt(L->Width, L->F + R->F);
      case BinOp::Sub: return Value::flt(L->Width, L->F - R->F);
      case BinOp::Mul: return Value::flt(L->Width, L->F * R->F);
      case BinOp::Div: return Value::flt(L->Width, L->F / R->F);
      case BinOp::Eq: return Value::bits(32, L->F == R->F);
      case BinOp::Ne: return Value::bits(32, L->F != R->F);
      case BinOp::LtS: return Value::bits(32, L->F < R->F);
      case BinOp::LeS: return Value::bits(32, L->F <= R->F);
      case BinOp::GtS: return Value::bits(32, L->F > R->F);
      case BinOp::GeS: return Value::bits(32, L->F >= R->F);
      default: return std::nullopt;
      }
    }
    if (!L->isBits() || !R->isBits() || L->Width != R->Width)
      return std::nullopt;
    unsigned W = L->Width;
    uint64_t X = L->Raw, Y = R->Raw;
    int64_t SX = signExtend(X, W), SY = signExtend(Y, W);
    switch (B->Op) {
    case BinOp::Add: return Value::bits(W, X + Y);
    case BinOp::Sub: return Value::bits(W, X - Y);
    case BinOp::Mul: return Value::bits(W, X * Y);
    case BinOp::Div:
      // Fold only when the division provably succeeds: the failure
      // behaviour of the fast variant is unspecified and must be preserved.
      if (SY == 0 || (SX == signExtend(signedMin(W), W) && SY == -1))
        return std::nullopt;
      return Value::bits(W, static_cast<uint64_t>(SX / SY));
    case BinOp::Mod:
      if (SY == 0 || (SX == signExtend(signedMin(W), W) && SY == -1))
        return std::nullopt;
      return Value::bits(W, static_cast<uint64_t>(SX % SY));
    case BinOp::And: return Value::bits(W, X & Y);
    case BinOp::Or: return Value::bits(W, X | Y);
    case BinOp::Xor: return Value::bits(W, X ^ Y);
    case BinOp::Shl: return Value::bits(W, Y >= W ? 0 : X << Y);
    case BinOp::Shr: return Value::bits(W, Y >= W ? 0 : X >> Y);
    case BinOp::Eq: return Value::bits(32, X == Y);
    case BinOp::Ne: return Value::bits(32, X != Y);
    case BinOp::LtS: return Value::bits(32, SX < SY);
    case BinOp::LeS: return Value::bits(32, SX <= SY);
    case BinOp::GtS: return Value::bits(32, SX > SY);
    case BinOp::GeS: return Value::bits(32, SX >= SY);
    }
    return std::nullopt;
  }

  case Expr::Kind::Prim: {
    const auto *P = cast<PrimExpr>(E);
    // Sema checks arity: every primitive takes one or two operands. The
    // operands are folded before the (string-keyed) primitive lookup, which
    // most expressions then never reach.
    Value Args[2];
    if (P->Args.size() > std::size(Args))
      return std::nullopt;
    for (size_t I = 0; I < P->Args.size(); ++I) {
      std::optional<Value> V = fold(P->Args[I], Lookup, Names);
      if (!V)
        return std::nullopt;
      Args[I] = *V;
    }
    std::optional<PrimKind> K = lookupPrim(Names.spelling(P->Name));
    if (!K)
      return std::nullopt;
    // Fold only operand shapes the machine would accept: Bits operands of
    // the width the primitive expects. A float or mixed-width operand
    // (reachable dynamically through an indirect call even though the
    // static checker rejects it at direct call sites) must keep its
    // go-wrong behaviour rather than fold to a .Raw reinterpretation.
    auto BitsSameWidth = [&](unsigned W) {
      return Args[0].isBits() && Args[1].isBits() && Args[0].Width == W &&
             Args[1].Width == W;
    };
    auto BitsOfWidth = [&](unsigned W) {
      return Args[0].isBits() && Args[0].Width == W;
    };
    unsigned W = P->Args.empty() ? 32 : Args[0].Width;
    switch (*K) {
    case PrimKind::DivU:
      if (!BitsSameWidth(W) || Args[1].Raw == 0)
        return std::nullopt;
      return Value::bits(W, Args[0].Raw / Args[1].Raw);
    case PrimKind::ModU:
      if (!BitsSameWidth(W) || Args[1].Raw == 0)
        return std::nullopt;
      return Value::bits(W, Args[0].Raw % Args[1].Raw);
    case PrimKind::LtU:
      if (!BitsSameWidth(W))
        return std::nullopt;
      return Value::bits(32, Args[0].Raw < Args[1].Raw);
    case PrimKind::LeU:
      if (!BitsSameWidth(W))
        return std::nullopt;
      return Value::bits(32, Args[0].Raw <= Args[1].Raw);
    case PrimKind::GtU:
      if (!BitsSameWidth(W))
        return std::nullopt;
      return Value::bits(32, Args[0].Raw > Args[1].Raw);
    case PrimKind::GeU:
      if (!BitsSameWidth(W))
        return std::nullopt;
      return Value::bits(32, Args[0].Raw >= Args[1].Raw);
    case PrimKind::Zx64:
      if (!BitsOfWidth(32))
        return std::nullopt;
      return Value::bits(64, Args[0].Raw);
    case PrimKind::Sx64:
      if (!BitsOfWidth(32))
        return std::nullopt;
      return Value::bits(64,
                         static_cast<uint64_t>(signExtend(Args[0].Raw, 32)));
    case PrimKind::Lo32:
      if (!BitsOfWidth(64))
        return std::nullopt;
      return Value::bits(32, Args[0].Raw);
    case PrimKind::Hi32:
      if (!BitsOfWidth(64))
        return std::nullopt;
      return Value::bits(32, Args[0].Raw >> 32);
    default:
      // Signed division, shifts and float primitives: folded rarely enough
      // that the conservative answer costs nothing.
      return std::nullopt;
    }
  }
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// The lattice
//===----------------------------------------------------------------------===//

/// Lattice cell per variable: Top (no information yet, optimistic), a known
/// constant, or NAC (not a constant). Constants are bits or float values
/// (all that folding produces), kept as their bit pattern: a constant
/// equals itself, and +0.0 and -0.0 are different constants. With that the
/// cells form a lattice, and the solve's fixpoint does not depend on the
/// order in which paths meet.
struct Cell {
  enum class Kind : uint8_t { Top, Const, Nac };
  Kind K = Kind::Top;
  bool IsFloat = false;
  uint8_t Width = 0;
  uint64_t Bits = 0;

  static Cell nac() { return {Kind::Nac}; }
  /// A variable holding NaN is never a constant, so uses of it are not
  /// folded (the pass has never propagated NaN; tests/golden pins that).
  static Cell constant(const Value &V) {
    assert((V.isBits() || V.isFloat()) && "folding yields bits or floats");
    if (V.isFloat())
      return std::isnan(V.F)
                 ? nac()
                 : Cell{Kind::Const, true, V.Width,
                        std::bit_cast<uint64_t>(V.F)};
    return {Kind::Const, false, V.Width, V.Raw};
  }

  Value value() const {
    return IsFloat ? Value::flt(Width, std::bit_cast<double>(Bits))
                   : Value::bits(Width, Bits);
  }
  bool sameConstant(const Cell &O) const {
    return IsFloat == O.IsFloat && Width == O.Width && Bits == O.Bits;
  }
};

/// C = meet(C, O). Returns true when C changed.
bool meetInto(Cell &C, const Cell &O) {
  if (C.K == Cell::Kind::Nac || O.K == Cell::Kind::Top)
    return false;
  if (C.K == Cell::Kind::Top) {
    C = O;
    return true;
  }
  if (O.K == Cell::Kind::Const && C.sameConstant(O))
    return false;
  C = Cell::nac();
  return true;
}

/// One state: a cell per variable of the universe, a row of the solve's
/// flat cell array.
using State = Cell *;

class ConstPropImpl {
public:
  ConstPropImpl(IrProc &P, const IrProgram &Prog, bool WithExceptionalEdges)
      : P(P), Names(*Prog.Names), WithExceptional(WithExceptionalEdges),
        U(LocUniverse::forProc(P, Prog)) {}

  ConstPropReport run();

private:
  std::optional<Value> lookupIn(const Cell *S, Symbol V) const {
    std::optional<unsigned> I = U.varIndex(V);
    if (!I || !U.isVar(*I))
      return std::nullopt;
    if (S[*I].K != Cell::Kind::Const)
      return std::nullopt;
    return S[*I].value();
  }

  /// Applies \p N's effect to \p S (variables only; A and M are not
  /// tracked).
  void transfer(const Node *N, State S) const;
  /// Applies call \p N's kills along one outgoing edge of kind \p Kind.
  void clobberOnEdge(const Node *N, EdgeKind Kind, State S) const;

  const Expr *rewriteExpr(const Expr *E, const Cell *S);
  const Expr *makeLiteral(const Value &V, SourceLoc Loc);

  IrProc &P;
  const Interner &Names;
  bool WithExceptional;
  LocUniverse U;
  FlowGraph G;
  BitMatrix MaySigma;
  ForwardStates<Cell> States;
  ConstPropReport Report;
};

void ConstPropImpl::transfer(const Node *N, State S) const {
  switch (N->kind()) {
  case Node::Kind::Entry:
    // Continuation values are per-activation, never compile-time constants.
    for (const auto &[Name, Target] : cast<EntryNode>(N)->Conts) {
      (void)Target;
      if (std::optional<unsigned> I = U.varIndex(Name))
        S[*I] = Cell::nac();
    }
    return;
  case Node::Kind::CopyIn:
    for (Symbol V : cast<CopyInNode>(N)->Vars)
      if (std::optional<unsigned> I = U.varIndex(V))
        S[*I] = Cell::nac();
    return;
  case Node::Kind::Assign: {
    const auto *A = cast<AssignNode>(N);
    std::optional<unsigned> I = U.varIndex(A->Var);
    if (!I)
      return;
    auto Lookup = [&](Symbol V) { return lookupIn(S, V); };
    if (std::optional<Value> V = fold(A->Value, Lookup, Names))
      S[*I] = Cell::constant(*V);
    else
      S[*I] = Cell::nac();
    return;
  }
  default:
    return;
  }
}

void ConstPropImpl::clobberOnEdge(const Node *N, EdgeKind Kind,
                                  State S) const {
  // A call may assign any global register.
  for (unsigned I = 0; I < U.numVars(); ++I)
    if (U.isGlobalVar(I))
      S[I] = Cell::nac();
  // Along a cut edge, values in callee-saves registers are destroyed.
  if (Kind == EdgeKind::Cut && N->Id < MaySigma.rows())
    MaySigma[N->Id].forEach([&](size_t I) {
      if (U.isVar(static_cast<unsigned>(I)))
        S[I] = Cell::nac();
    });
}

const Expr *ConstPropImpl::makeLiteral(const Value &V, SourceLoc Loc) {
  if (V.isFloat()) {
    auto *E = P.Arena.make<FloatLitExpr>(Loc, V.F);
    E->Ty = Type::flt(V.Width);
    return E;
  }
  auto *E = P.Arena.make<IntLitExpr>(Loc, V.Raw);
  E->Ty = Type::bits(V.Width);
  return E;
}

const Expr *ConstPropImpl::rewriteExpr(const Expr *E, const Cell *S) {
  if (isa<IntLitExpr>(E) || isa<FloatLitExpr>(E))
    return E;
  auto Lookup = [&](Symbol V) { return lookupIn(S, V); };
  if (std::optional<Value> V = fold(E, Lookup, Names)) {
    // Fold only bits/float results; code and continuation values must stay
    // symbolic.
    if (V->isBits() || V->isFloat()) {
      ++Report.ExprsRewritten;
      return makeLiteral(*V, E->loc());
    }
  }
  return E;
}

ConstPropReport ConstPropImpl::run() {
  G.build(P);
  computeMaySigma(G, U, MaySigma);

  // Parameters and globals are unknown at entry.
  States.solve(
      G, P, U.numVars(), Cell::nac(), WithExceptional,
      [&](const Node *N, State S) { transfer(N, S); },
      [&](const Node *N, EdgeKind Kind, State S) { clobberOnEdge(N, Kind, S); },
      meetInto);

  // Rewrite expressions with the solved facts.
  for (unsigned Pos = 0; Pos < G.size(); ++Pos) {
    if (!States.reached(Pos))
      continue;
    Node *N = G.node(Pos);
    const Cell *S = States.in(Pos);
    switch (N->kind()) {
    case Node::Kind::Assign: {
      auto *A = cast<AssignNode>(N);
      A->Value = rewriteExpr(A->Value, S);
      break;
    }
    case Node::Kind::Store: {
      auto *St = cast<StoreNode>(N);
      St->Addr = rewriteExpr(St->Addr, S);
      St->Value = rewriteExpr(St->Value, S);
      break;
    }
    case Node::Kind::CopyOut: {
      auto *C = cast<CopyOutNode>(N);
      for (const Expr *&E : C->Exprs)
        E = rewriteExpr(E, S);
      break;
    }
    case Node::Kind::Branch: {
      auto *B = cast<BranchNode>(N);
      B->Cond = rewriteExpr(B->Cond, S);
      if (const auto *Lit = dyn_cast<IntLitExpr>(B->Cond)) {
        Node *Taken = Lit->Value != 0 ? B->TrueDst : B->FalseDst;
        if (B->TrueDst != B->FalseDst) {
          B->TrueDst = B->FalseDst = Taken;
          ++Report.BranchesResolved;
        }
      }
      break;
    }
    default:
      break;
    }
  }
  return Report;
}

} // namespace

ConstPropReport cmm::propagateConstants(IrProc &P, const IrProgram &Prog,
                                        bool WithExceptionalEdges) {
  if (P.isYieldIntrinsic())
    return ConstPropReport();
  return ConstPropImpl(P, Prog, WithExceptionalEdges).run();
}

std::optional<Value> cmm::foldConstExpr(const Expr *E, const Interner &Names) {
  return fold(E, [](Symbol) { return std::optional<Value>(); }, Names);
}
