//===- opt/Dataflow.cpp ---------------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "opt/Dataflow.h"

#include "support/Assert.h"
#include "syntax/PrimOps.h"

#include <algorithm>

using namespace cmm;

//===----------------------------------------------------------------------===//
// LocUniverse
//===----------------------------------------------------------------------===//

namespace {

/// Calls \p F(Symbol) for every variable use in \p E, and \p OnLoad() for
/// every load (a read of M).
template <typename VarFn, typename LoadFn>
void forEachExprUse(const Expr *E, VarFn &F, LoadFn &OnLoad) {
  switch (E->kind()) {
  case Expr::Kind::Name: {
    const auto *N = cast<NameExpr>(E);
    if (N->Ref == RefKind::Local || N->Ref == RefKind::Global ||
        N->Ref == RefKind::Continuation)
      F(N->Name);
    return;
  }
  case Expr::Kind::Load:
    OnLoad();
    forEachExprUse(cast<LoadExpr>(E)->Addr, F, OnLoad);
    return;
  case Expr::Kind::Unary:
    forEachExprUse(cast<UnaryExpr>(E)->Operand, F, OnLoad);
    return;
  case Expr::Kind::Binary:
    forEachExprUse(cast<BinaryExpr>(E)->Lhs, F, OnLoad);
    forEachExprUse(cast<BinaryExpr>(E)->Rhs, F, OnLoad);
    return;
  case Expr::Kind::Prim:
    for (const Expr *A : cast<PrimExpr>(E)->Args)
      forEachExprUse(A, F, OnLoad);
    return;
  default:
    return;
  }
}

template <typename Fn> void forEachNodeExpr(const Node &N, Fn F) {
  switch (N.kind()) {
  case Node::Kind::CopyOut:
    for (const Expr *E : cast<CopyOutNode>(&N)->Exprs)
      F(E);
    return;
  case Node::Kind::Assign:
    F(cast<AssignNode>(&N)->Value);
    return;
  case Node::Kind::Store:
    F(cast<StoreNode>(&N)->Addr);
    F(cast<StoreNode>(&N)->Value);
    return;
  case Node::Kind::Branch:
    F(cast<BranchNode>(&N)->Cond);
    return;
  case Node::Kind::Call:
    F(cast<CallNode>(&N)->Callee);
    return;
  case Node::Kind::Jump:
    F(cast<JumpNode>(&N)->Callee);
    return;
  case Node::Kind::CutTo:
    F(cast<CutToNode>(&N)->Cont);
    return;
  default:
    return;
  }
}

} // namespace

LocUniverse LocUniverse::forProc(const IrProc &P, const IrProgram &Prog) {
  LocUniverse U;
  U.IndexBySym.assign(Prog.Names ? Prog.Names->size() + 1 : 0, NoIndex);
  U.Vars.reserve(P.VarTypes.size());
  auto AddVar = [&](Symbol V) {
    if (V.Id >= U.IndexBySym.size())
      U.IndexBySym.resize(V.Id + 1, NoIndex);
    if (U.IndexBySym[V.Id] == NoIndex) {
      U.IndexBySym[V.Id] = static_cast<unsigned>(U.Vars.size());
      U.Vars.push_back(V);
    }
  };
  // The locals come first, so every later location is a global.
  for (const auto &[V, Ty] : P.VarTypes) {
    (void)Ty;
    AddVar(V);
  }
  U.NumLocals = U.numVars();

  unsigned MaxA = static_cast<unsigned>(P.Params.size());
  auto NoLoad = [] {};
  for (const Node *N : P.Nodes) {
    // Referenced globals and continuation names become locations too.
    forEachNodeExpr(*N, [&](const Expr *E) {
      forEachExprUse(E, AddVar, NoLoad);
    });
    if (const auto *A = dyn_cast<AssignNode>(N))
      AddVar(A->Var);
    if (const auto *C = dyn_cast<CopyInNode>(N)) {
      for (Symbol V : C->Vars)
        AddVar(V);
      MaxA = std::max(MaxA, static_cast<unsigned>(C->Vars.size()));
    }
    if (const auto *C = dyn_cast<CopyOutNode>(N))
      MaxA = std::max(MaxA, static_cast<unsigned>(C->Exprs.size()));
    if (const auto *C = dyn_cast<CallNode>(N))
      MaxA = std::max(MaxA, C->NumArgs);
    if (const auto *J = dyn_cast<JumpNode>(N))
      MaxA = std::max(MaxA, J->NumArgs);
    if (const auto *C = dyn_cast<CutToNode>(N))
      MaxA = std::max(MaxA, C->NumArgs);
    if (const auto *E = dyn_cast<EntryNode>(N))
      for (const auto &[Name, Target] : E->Conts) {
        (void)Target;
        AddVar(Name);
      }
  }
  U.MaxArgs = MaxA;

  U.GlobalSet = BitVector(U.size());
  for (unsigned I = U.NumLocals; I < U.numVars(); ++I)
    U.GlobalSet.set(I);
  U.ArgSet = BitVector(U.size());
  for (unsigned I = 0; I < U.MaxArgs; ++I)
    U.ArgSet.set(U.argIndex(I));
  return U;
}

std::string LocUniverse::describe(unsigned I, const Interner &Names) const {
  if (I < Vars.size())
    return std::string(Names.spelling(Vars[I]));
  if (I == memIndex())
    return "M";
  return "A[" + std::to_string(I - memIndex() - 1) + "]";
}

void cmm::addFreeVars(const Expr *E, const LocUniverse &U, BitRow Out) {
  auto Var = [&](Symbol V) {
    if (std::optional<unsigned> I = U.varIndex(V))
      Out.set(*I);
  };
  auto Load = [&] { Out.set(U.memIndex()); };
  forEachExprUse(E, Var, Load);
}

bool cmm::exprCanFail(const Expr *E, const Interner &Names) {
  switch (E->kind()) {
  case Expr::Kind::Unary:
    return exprCanFail(cast<UnaryExpr>(E)->Operand, Names);
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    if ((B->Op == BinOp::Div || B->Op == BinOp::Mod) && B->Lhs->Ty.isBits())
      return true;
    return exprCanFail(B->Lhs, Names) || exprCanFail(B->Rhs, Names);
  }
  case Expr::Kind::Prim: {
    const auto *P = cast<PrimExpr>(E);
    if (std::optional<PrimKind> K = lookupPrim(Names.spelling(P->Name)))
      if (primCanFail(*K))
        return true;
    for (const Expr *A : P->Args)
      if (exprCanFail(A, Names))
        return true;
    return false;
  }
  case Expr::Kind::Load:
    return exprCanFail(cast<LoadExpr>(E)->Addr, Names);
  default:
    return false;
  }
}

//===----------------------------------------------------------------------===//
// Per-node facts (Table 3)
//===----------------------------------------------------------------------===//

NodeFacts cmm::computeFacts(const Node &N, const LocUniverse &U) {
  NodeFacts F;
  F.Use = BitVector(U.size());
  F.Def = BitVector(U.size());
  computeFacts(N, U, F.Use, F.Def, &F.Copies);
  return F;
}

void cmm::computeFacts(const Node &N, const LocUniverse &U, BitRow Use,
                       BitRow Def,
                       std::vector<std::pair<unsigned, unsigned>> *Copies) {
  auto Copy = [&](unsigned Dst, unsigned Src) {
    if (Copies)
      Copies->emplace_back(Dst, Src);
  };
  auto DefAllArgs = [&] { Def.unionWith(U.args()); };
  auto UseArgs = [&](unsigned Count) {
    for (unsigned I = 0; I < Count && I < U.maxArgs(); ++I)
      Use.set(U.argIndex(I));
  };
  // Global registers escape the procedure: every exit leaves them live for
  // the caller, and a call may read or write any of them.
  auto UseGlobals = [&] { Use.unionWith(U.globals()); };
  auto DefGlobals = [&] { Def.unionWith(U.globals()); };

  switch (N.kind()) {
  case Node::Kind::Entry: {
    // Parameters arrive in A; continuations are bound; memory is live-in.
    const auto *E = cast<EntryNode>(&N);
    DefAllArgs();
    Def.set(U.memIndex());
    for (const auto &[Name, Target] : E->Conts) {
      (void)Target;
      if (std::optional<unsigned> I = U.varIndex(Name))
        Def.set(*I);
    }
    return;
  }
  case Node::Kind::Exit:
    // use M; use A[i] for the procedure's results. The exact result count
    // depends on the reaching CopyOut; using every slot is conservative.
    Use.set(U.memIndex());
    UseArgs(U.maxArgs());
    UseGlobals();
    return;
  case Node::Kind::CopyIn: {
    const auto *C = cast<CopyInNode>(&N);
    for (size_t I = 0; I < C->Vars.size(); ++I) {
      std::optional<unsigned> VI = U.varIndex(C->Vars[I]);
      if (!VI)
        continue;
      Def.set(*VI);
      unsigned AI = U.argIndex(static_cast<unsigned>(I));
      Use.set(AI);
      Copy(*VI, AI);
    }
    return;
  }
  case Node::Kind::CopyOut: {
    const auto *C = cast<CopyOutNode>(&N);
    // CopyOut may overwrite the whole area: every slot is defined.
    DefAllArgs();
    for (size_t I = 0; I < C->Exprs.size(); ++I) {
      addFreeVars(C->Exprs[I], U, Use);
      if (const auto *Name = dyn_cast<NameExpr>(C->Exprs[I]))
        if (std::optional<unsigned> VI = U.varIndex(Name->Name))
          Copy(U.argIndex(static_cast<unsigned>(I)), *VI);
    }
    return;
  }
  case Node::Kind::CalleeSaves:
    // "No effect on dataflow."
    return;
  case Node::Kind::Assign: {
    const auto *A = cast<AssignNode>(&N);
    addFreeVars(A->Value, U, Use);
    if (std::optional<unsigned> VI = U.varIndex(A->Var)) {
      Def.set(*VI);
      if (const auto *Src = dyn_cast<NameExpr>(A->Value))
        if (std::optional<unsigned> SI = U.varIndex(Src->Name))
          Copy(*VI, *SI);
    }
    return;
  }
  case Node::Kind::Store: {
    const auto *St = cast<StoreNode>(&N);
    addFreeVars(St->Addr, U, Use);
    addFreeVars(St->Value, U, Use);
    // A store both reads and writes the memory pseudo-variable: other
    // addresses keep their contents.
    Use.set(U.memIndex());
    Def.set(U.memIndex());
    return;
  }
  case Node::Kind::Branch:
    addFreeVars(cast<BranchNode>(&N)->Cond, U, Use);
    return;
  case Node::Kind::Call: {
    const auto *C = cast<CallNode>(&N);
    addFreeVars(C->Callee, U, Use);
    Use.set(U.memIndex());
    Def.set(U.memIndex());
    UseArgs(C->NumArgs);
    UseGlobals();
    DefGlobals();
    if (C->Bundle.Abort) {
      // Table 3: "if abort is True, place use A[i] ... along the edge to
      // the exit node"; attaching the uses to the node is conservative.
      UseArgs(U.maxArgs());
    }
    return;
  }
  case Node::Kind::Jump: {
    const auto *J = cast<JumpNode>(&N);
    addFreeVars(J->Callee, U, Use);
    Use.set(U.memIndex());
    UseArgs(J->NumArgs);
    UseGlobals();
    return;
  }
  case Node::Kind::CutTo: {
    const auto *C = cast<CutToNode>(&N);
    addFreeVars(C->Cont, U, Use);
    Use.set(U.memIndex());
    UseArgs(C->NumArgs);
    UseGlobals();
    return;
  }
  case Node::Kind::Yield:
    // "Not in any optimized procedure."
    return;
  }
  cmm_unreachable("unknown node kind");
}

//===----------------------------------------------------------------------===//
// FlowGraph
//===----------------------------------------------------------------------===//

void FlowGraph::build(const IrProc &P, bool WithPreds,
                      bool WithExceptionalEdges) {
  reachableNodes(P, Walk);
  PosOf.assign(P.Nodes.size(), NoPos);
  for (unsigned I = 0; I < size(); ++I)
    PosOf[node(I)->Id] = I;
  PredStart.clear();
  Preds.clear();
  if (!WithPreds)
    return;
  // Counting sort of the edges by target: count, prefix-sum to segment
  // ends, then fill each segment from its end.
  PredStart.assign(size() + 1, 0);
  for (Node *N : order())
    forEachSucc(
        *N, [&](Node *S, EdgeKind) { ++PredStart[pos(S)]; },
        WithExceptionalEdges);
  unsigned Sum = 0;
  for (unsigned I = 0; I <= size(); ++I)
    PredStart[I] = Sum += PredStart[I];
  Preds.resize(Sum);
  for (unsigned I = 0; I < size(); ++I)
    forEachSucc(
        *node(I), [&](Node *S, EdgeKind) { Preds[--PredStart[pos(S)]] = I; },
        WithExceptionalEdges);
}

void FlowGraph::startSolve(bool BackwardIn, bool AllPending) {
  Backward = BackwardIn;
  Pending.assign(size(), AllPending);
  NumPending = AllPending ? size() : 0;
  Cursor = Backward && size() ? size() - 1 : 0;
}

bool FlowGraph::pop(unsigned &Pos) {
  if (NumPending == 0)
    return false;
  while (!Pending[Cursor]) {
    if (Backward)
      Cursor = Cursor == 0 ? size() - 1 : Cursor - 1;
    else
      Cursor = Cursor + 1 == size() ? 0 : Cursor + 1;
  }
  Pending[Cursor] = 0;
  --NumPending;
  Pos = Cursor;
  return true;
}

//===----------------------------------------------------------------------===//
// May-σ analysis
//===----------------------------------------------------------------------===//

void cmm::computeMaySigma(FlowGraph &G, const LocUniverse &U, BitMatrix &In) {
  In.reset(G.numIds(), U.size());
  // CalleeSaves nodes are the only source of σ; before callee-saves
  // placement has run there are none, and σ is empty everywhere.
  if (std::none_of(G.order().begin(), G.order().end(),
                   [](const Node *N) { return isa<CalleeSavesNode>(N); }))
    return;
  BitVector Saved(U.size());
  G.startSolve(/*Backward=*/false, /*AllPending=*/true);
  unsigned Pos;
  while (G.pop(Pos)) {
    Node *N = G.node(Pos);
    // σ out of a CalleeSaves node is its own set; anything else passes σ
    // through.
    ConstBitRow Out = In[N->Id];
    if (const auto *CS = dyn_cast<CalleeSavesNode>(N)) {
      Saved.clear();
      for (Symbol V : CS->Saved)
        if (std::optional<unsigned> I = U.varIndex(V))
          Saved.set(*I);
      Out = Saved;
    }
    forEachSucc(*N, [&](Node *S, EdgeKind) {
      if (In[S->Id].unionWith(Out))
        G.push(G.pos(S));
    });
  }
}

BitMatrix cmm::computeMaySigma(const IrProc &P, const LocUniverse &U) {
  FlowGraph G;
  G.build(P);
  BitMatrix In;
  computeMaySigma(G, U, In);
  return In;
}

//===----------------------------------------------------------------------===//
// Edge rewiring
//===----------------------------------------------------------------------===//

void cmm::replaceAllSuccessorUses(IrProc &P, Node *From, Node *To) {
  for (Node *N : P.Nodes) {
    auto Fix = [&](Node *&Slot) {
      if (Slot == From)
        Slot = To;
    };
    switch (N->kind()) {
    case Node::Kind::Entry: {
      auto *E = cast<EntryNode>(N);
      Fix(E->Next);
      for (auto &[Name, Target] : E->Conts) {
        (void)Name;
        Fix(Target);
      }
      break;
    }
    case Node::Kind::CopyIn:
      Fix(cast<CopyInNode>(N)->Next);
      break;
    case Node::Kind::CopyOut:
      Fix(cast<CopyOutNode>(N)->Next);
      break;
    case Node::Kind::CalleeSaves:
      Fix(cast<CalleeSavesNode>(N)->Next);
      break;
    case Node::Kind::Assign:
      Fix(cast<AssignNode>(N)->Next);
      break;
    case Node::Kind::Store:
      Fix(cast<StoreNode>(N)->Next);
      break;
    case Node::Kind::Branch:
      Fix(cast<BranchNode>(N)->TrueDst);
      Fix(cast<BranchNode>(N)->FalseDst);
      break;
    case Node::Kind::Call: {
      auto *C = cast<CallNode>(N);
      for (Node *&T : C->Bundle.ReturnsTo)
        Fix(T);
      for (Node *&T : C->Bundle.UnwindsTo)
        Fix(T);
      for (Node *&T : C->Bundle.CutsTo)
        Fix(T);
      break;
    }
    case Node::Kind::CutTo:
      for (Node *&T : cast<CutToNode>(N)->AlsoCutsTo)
        Fix(T);
      break;
    default:
      break;
    }
  }
  if (P.EntryPoint == From)
    P.EntryPoint = To;
}
