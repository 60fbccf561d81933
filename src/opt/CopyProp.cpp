//===- opt/CopyProp.cpp ---------------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "opt/CopyProp.h"

#include "support/Assert.h"

using namespace cmm;

namespace {

/// Per-variable lattice value: Top (no information yet), NoCopy, or the
/// index of the variable it copies.
constexpr unsigned TopVal = ~0u;
constexpr unsigned NoCopy = ~0u - 1;

/// One state: a cell per variable of the universe, a row of the solve's
/// flat cell array.
using State = unsigned *;

/// C = meet(C, O). Returns true when C changed.
bool meetInto(unsigned &C, unsigned O) {
  if (O == TopVal || C == O || C == NoCopy)
    return false;
  C = C == TopVal ? O : NoCopy;
  return true;
}

class CopyPropImpl {
public:
  CopyPropImpl(IrProc &P, const IrProgram &Prog, bool WithExceptionalEdges)
      : P(P), WithExceptional(WithExceptionalEdges),
        U(LocUniverse::forProc(P, Prog)) {}

  CopyPropReport run();

private:
  /// Removes every copy fact involving \p V, as source or destination.
  void killVar(State S, unsigned V) const {
    S[V] = NoCopy;
    for (unsigned I = 0; I < U.numVars(); ++I)
      if (S[I] == V)
        S[I] = NoCopy;
  }

  void transfer(const Node *N, State S) const;
  /// Applies call \p N's kills along one outgoing edge of kind \p Kind.
  void clobberOnEdge(const Node *N, EdgeKind Kind, State S) const;

  /// Clones \p E with every propagatable variable use replaced.
  const Expr *rewriteExpr(const Expr *E, const unsigned *S);

  IrProc &P;
  bool WithExceptional;
  LocUniverse U;
  FlowGraph G;
  BitMatrix MaySigma;
  ForwardStates<unsigned> States;
  CopyPropReport Report;
};

void CopyPropImpl::transfer(const Node *N, State S) const {
  switch (N->kind()) {
  case Node::Kind::Entry:
    for (const auto &[Name, Target] : cast<EntryNode>(N)->Conts) {
      (void)Target;
      if (std::optional<unsigned> I = U.varIndex(Name))
        killVar(S, *I);
    }
    return;
  case Node::Kind::CopyIn:
    for (Symbol V : cast<CopyInNode>(N)->Vars)
      if (std::optional<unsigned> I = U.varIndex(V))
        killVar(S, *I);
    return;
  case Node::Kind::Assign: {
    const auto *A = cast<AssignNode>(N);
    std::optional<unsigned> Dst = U.varIndex(A->Var);
    if (!Dst)
      return;
    killVar(S, *Dst);
    if (const auto *Src = dyn_cast<NameExpr>(A->Value)) {
      if (Src->Ref != RefKind::Local && Src->Ref != RefKind::Global)
        return;
      std::optional<unsigned> SrcI = U.varIndex(Src->Name);
      // Record only same-typed variable-to-variable copies.
      if (SrcI && *SrcI != *Dst && Src->Ty == A->Value->Ty)
        S[*Dst] = *SrcI;
    }
    return;
  }
  default:
    return;
  }
}

void CopyPropImpl::clobberOnEdge(const Node *N, EdgeKind Kind,
                                 State S) const {
  // The callee may assign any global register: kill copies touching them.
  for (unsigned I = 0; I < U.numVars(); ++I)
    if (U.isGlobalVar(I))
      killVar(S, I);
  if (Kind == EdgeKind::Cut && N->Id < MaySigma.rows())
    MaySigma[N->Id].forEach([&](size_t I) {
      if (U.isVar(static_cast<unsigned>(I)))
        killVar(S, static_cast<unsigned>(I));
    });
}

const Expr *CopyPropImpl::rewriteExpr(const Expr *E, const unsigned *S) {
  switch (E->kind()) {
  case Expr::Kind::Name: {
    const auto *N = cast<NameExpr>(E);
    if (N->Ref != RefKind::Local && N->Ref != RefKind::Global)
      return E;
    std::optional<unsigned> I = U.varIndex(N->Name);
    if (!I || S[*I] == NoCopy || S[*I] == TopVal || !U.isVar(S[*I]))
      return E;
    auto *New = P.Arena.make<NameExpr>(N->loc(), U.varAt(S[*I]));
    New->Ty = N->Ty;
    New->Ref = U.isGlobalVar(S[*I]) ? RefKind::Global : RefKind::Local;
    ++Report.UsesRewritten;
    return New;
  }
  default:
    // Whole-expression uses only: nested occurrences are caught on later
    // pipeline rounds once constant propagation and dead-code elimination
    // shrink the trees. Rewriting inside shared subtrees would require
    // cloning whole expressions; not worth it here.
    return E;
  }
}

CopyPropReport CopyPropImpl::run() {
  G.build(P);
  computeMaySigma(G, U, MaySigma);

  States.solve(
      G, P, U.numVars(), NoCopy, WithExceptional,
      [&](const Node *N, State S) { transfer(N, S); },
      [&](const Node *N, EdgeKind Kind, State S) { clobberOnEdge(N, Kind, S); },
      meetInto);

  // Rewrite top-level variable uses. Only whole-expression Name uses and
  // direct children that are Names are rewritten; nested occurrences are
  // picked up by iterating the pass (the pipeline runs multiple rounds).
  for (unsigned Pos = 0; Pos < G.size(); ++Pos) {
    if (!States.reached(Pos))
      continue;
    Node *N = G.node(Pos);
    const unsigned *S = States.in(Pos);
    auto Rw = [&](const Expr *&Slot) { Slot = rewriteExpr(Slot, S); };
    switch (N->kind()) {
    case Node::Kind::Assign:
      Rw(cast<AssignNode>(N)->Value);
      break;
    case Node::Kind::Store:
      Rw(cast<StoreNode>(N)->Addr);
      Rw(cast<StoreNode>(N)->Value);
      break;
    case Node::Kind::Branch:
      Rw(cast<BranchNode>(N)->Cond);
      break;
    case Node::Kind::CopyOut:
      for (const Expr *&E : cast<CopyOutNode>(N)->Exprs)
        Rw(E);
      break;
    case Node::Kind::Call:
      Rw(cast<CallNode>(N)->Callee);
      break;
    case Node::Kind::Jump:
      Rw(cast<JumpNode>(N)->Callee);
      break;
    case Node::Kind::CutTo:
      Rw(cast<CutToNode>(N)->Cont);
      break;
    default:
      break;
    }
  }
  return Report;
}

} // namespace

CopyPropReport cmm::propagateCopies(IrProc &P, const IrProgram &Prog,
                                    bool WithExceptionalEdges) {
  if (P.isYieldIntrinsic())
    return CopyPropReport();
  return CopyPropImpl(P, Prog, WithExceptionalEdges).run();
}
