//===- opt/ConstProp.cpp --------------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "opt/ConstProp.h"

#include "sem/Ops.h"
#include "support/Assert.h"
#include "syntax/PrimOps.h"

#include <bit>
#include <cmath>

using namespace cmm;

namespace {

//===----------------------------------------------------------------------===//
// Folding
//===----------------------------------------------------------------------===//

/// Evaluates \p E when all leaves are known and evaluation cannot fail:
/// sem/Ops.h applies each operator, and a stuck application is not folded.
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
    Value Out;
    if (!V || applyUnary(Out, *V, U->Op) != OpStuck::None)
      return std::nullopt;
    return Out;
  }

  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    std::optional<Value> L = fold(B->Lhs, Lookup, Names);
    std::optional<Value> R = fold(B->Rhs, Lookup, Names);
    Value Out;
    if (!L || !R || applyBinary(Out, *L, *R, B->Op) != OpStuck::None)
      return std::nullopt;
    return Out;
  }

  case Expr::Kind::Prim: {
    const auto *P = cast<PrimExpr>(E);
    // Every primitive takes one or two operands. The operands are folded
    // before the (string-keyed) primitive lookup, which most expressions
    // then never reach.
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
    // Signed division, %shra and everything touching floats are not folded:
    // they are rare enough in practice that the conservative answer costs
    // nothing, and the optimizer's output stays as it is.
    if (!K || *K == PrimKind::DivS || *K == PrimKind::ModS ||
        *K == PrimKind::ShrA || primTouchesFloat(*K))
      return std::nullopt;
    Value Out;
    if (applyPrim(Out, *K, Args, unsigned(P->Args.size())) != OpStuck::None)
      return std::nullopt;
    return Out;
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
