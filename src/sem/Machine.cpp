//===- sem/Machine.cpp ----------------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "sem/Machine.h"

#include "sem/Observer.h"
#include "sem/Ops.h"
#include "support/Assert.h"
#include "support/Casting.h"
#include "syntax/PrimOps.h"

#include <algorithm>

using namespace cmm;

void Machine::enterProc(const IrProc *P, SourceLoc Loc) {
  if (!P->EntryPoint) {
    wrongNoBody(P, Loc);
    return;
  }
  Control = P->EntryPoint;
  CurProc = P;
  Uid = NextUid++;
  Rho.clear();
  Sigma.clear();
}

void Machine::pushFrame(const CallNode *Site) {
  Frame F;
  F.CallSite = Site;
  F.Proc = CurProc;
  F.SavedEnv = std::move(Rho);
  F.SavedSigma = std::move(Sigma);
  F.Uid = Uid;
  Stack.push_back(std::move(F));
  Rho = Env();
  Sigma.clear();
  S.MaxStackDepth = std::max<uint64_t>(S.MaxStackDepth, Stack.size());
}

void Machine::bindVar(Symbol V, const Value &Val) {
  if (CurProc && CurProc->VarTypes.count(V)) {
    Rho.bind(V, Val);
    return;
  }
  if (Prog.Globals.count(V)) {
    GlobalEnv.bind(V, Val);
    return;
  }
  Rho.bind(V, Val);
}

//===----------------------------------------------------------------------===//
// Expression evaluation: E[[e]] ρ M  (Section 5.1)
//===----------------------------------------------------------------------===//

std::optional<Value> Machine::evalName(const NameExpr *N) {
  switch (N->Ref) {
  case RefKind::Local:
  case RefKind::Continuation: {
    const Value *V = Rho.lookup(N->Name);
    if (!V) {
      wrongUnbound(N->Name, N->loc());
      return std::nullopt;
    }
    return *V;
  }
  case RefKind::Global: {
    const Value *V = GlobalEnv.lookup(N->Name);
    if (!V) {
      wrongUnknownGlobal(N->Name, N->loc());
      return std::nullopt;
    }
    return *V;
  }
  case RefKind::Proc:
  case RefKind::DataLabel:
  case RefKind::Import: {
    std::optional<Value> V = evalConstExpr(N);
    if (!V) {
      // Imports may also name globals of another module.
      if (const Value *G = GlobalEnv.lookup(N->Name))
        return *G;
      wrongUnresolvedName(N->Name, N->loc());
    }
    return V;
  }
  case RefKind::Unresolved:
    break;
  }
  goWrong(unresolvedNameReachedEvaluatorReason(), N->loc());
  return std::nullopt;
}

std::optional<Value> Machine::evalUnary(const UnaryExpr *U) {
  std::optional<Value> V = evalExpr(U->Operand);
  if (!V)
    return std::nullopt;
  Value Out;
  if (OpStuck Why = applyUnary(Out, *V, U->Op); Why != OpStuck::None) {
    goWrong(opStuckReason(Why, U->Op, *V), U->loc());
    return std::nullopt;
  }
  return Out;
}

std::optional<Value> Machine::evalBinary(const BinaryExpr *B) {
  std::optional<Value> L = evalExpr(B->Lhs);
  if (!L)
    return std::nullopt;
  std::optional<Value> R = evalExpr(B->Rhs);
  if (!R)
    return std::nullopt;
  Value Out;
  if (OpStuck Why = applyBinary(Out, *L, *R, B->Op); Why != OpStuck::None) {
    goWrong(opStuckReason(Why, B->Op, *L, *R), B->loc());
    return std::nullopt;
  }
  return Out;
}

std::optional<Value> Machine::evalPrim(const PrimExpr *P) {
  std::optional<PrimKind> K = lookupPrim(Prog.Names->spelling(P->Name));
  if (!K) {
    goWrong(unknownPrimitiveReason(), P->loc());
    return std::nullopt;
  }
  // Every operand is evaluated, in order, even past the two any primitive
  // reads: applyPrim rejects a wrong count before it reads one.
  Value Args[2];
  unsigned Count = 0;
  for (const Expr *AE : P->Args) {
    std::optional<Value> V = evalExpr(AE);
    if (!V)
      return std::nullopt;
    if (Count < std::size(Args))
      Args[Count] = *V;
    ++Count;
  }
  Value Out;
  if (OpStuck Why = applyPrim(Out, *K, Args, Count); Why != OpStuck::None) {
    goWrong(opStuckReason(Why, *K, Args), P->loc());
    return std::nullopt;
  }
  return Out;
}

std::optional<Value> Machine::evalExpr(const Expr *E) {
  switch (E->kind()) {
  case Expr::Kind::IntLit:
    return Value::bits(E->Ty.Width, cast<IntLitExpr>(E)->Value);
  case Expr::Kind::FloatLit:
    return Value::flt(E->Ty.Width, cast<FloatLitExpr>(E)->Value);
  case Expr::Kind::StrLit: {
    std::optional<Value> V = evalConstExpr(E);
    if (!V)
      goWrong(strLitWithoutAddressReason(), E->loc());
    return V;
  }
  case Expr::Kind::Name:
    return evalName(cast<NameExpr>(E));
  case Expr::Kind::Load: {
    const auto *L = cast<LoadExpr>(E);
    std::optional<Value> Addr = evalExpr(L->Addr);
    if (!Addr)
      return std::nullopt;
    ++S.Loads;
    if (L->AccessTy.isFloat())
      return Value::flt(L->AccessTy.Width,
                        Mem.loadFloat(Addr->Raw, L->AccessTy.sizeInBytes()));
    return Value::bits(L->AccessTy.Width,
                       Mem.loadBits(Addr->Raw, L->AccessTy.sizeInBytes()));
  }
  case Expr::Kind::Unary:
    return evalUnary(cast<UnaryExpr>(E));
  case Expr::Kind::Binary:
    return evalBinary(cast<BinaryExpr>(E));
  case Expr::Kind::Prim:
    return evalPrim(cast<PrimExpr>(E));
  case Expr::Kind::Sizeof:
    return Value::bits(32, cast<SizeofExpr>(E)->SizeInBytes);
  }
  cmm_unreachable("unknown expression kind");
}

//===----------------------------------------------------------------------===//
// Transitions (Section 5.2)
//===----------------------------------------------------------------------===//

template <bool Observed> bool Machine::stepImpl() {
  if (St != MachineStatus::Running)
    return false;
  assert(Control && "running without control");
  ++S.Steps;
  // Yield suspensions are not transitions (the step is undone below), so
  // they do not fire onStep: profilers attributing steps per procedure stay
  // in agreement with Stats::Steps.
  if constexpr (Observed)
    if (Control->kind() != Node::Kind::Yield)
      Obs->onStep(*this, Control);

  switch (Control->kind()) {
  case Node::Kind::Entry: {
    // Entry binds the procedure's continuations into an empty environment;
    // the incoming environment is discarded.
    const auto *E = cast<EntryNode>(Control);
    Rho.clear();
    Sigma.clear();
    for (const auto &[Name, Target] : E->Conts) {
      uint64_t Handle = newCont(Target);
      Rho.bind(Name, Value::cont(Handle));
    }
    Control = E->Next;
    return true;
  }

  case Node::Kind::Exit: {
    const auto *E = cast<ExitNode>(Control);
    if (Stack.empty()) {
      if (E->ContIndex == 0 && E->AltCount == 0) {
        St = MachineStatus::Halted; // terminated normally
        if constexpr (Observed)
          Obs->onHalt(*this);
      } else {
        wrongAbnormalReturnEmptyStack(E->Loc);
      }
      return false;
    }
    Frame F = std::move(Stack.back());
    Stack.pop_back();
    const ContBundle &B = F.CallSite->Bundle;
    if (B.ReturnsTo.size() != size_t(E->AltCount) + 1) {
      wrongReturnArity(E->ContIndex, E->AltCount, B.ReturnsTo.size() - 1,
                       E->Loc);
      return false;
    }
    if (E->ContIndex >= B.ReturnsTo.size()) {
      wrongReturnIndex(E->Loc);
      return false;
    }
    const IrProc *Callee = CurProc;
    Control = B.ReturnsTo[E->ContIndex];
    restoreFrame(F);
    ++S.Returns;
    if constexpr (Observed)
      Obs->onReturn(*this, F.CallSite, Callee, CurProc, E->ContIndex);
    return true;
  }

  case Node::Kind::CopyIn: {
    const auto *C = cast<CopyInNode>(Control);
    if (A.size() < C->Vars.size()) {
      wrongTooFewValues(C->Vars.size(), A.size(), C->Loc);
      return false;
    }
    for (size_t I = 0; I < C->Vars.size(); ++I)
      bindVar(C->Vars[I], A[I]);
    A.clear(); // CopyIn replaces A by the empty list
    Control = C->Next;
    return true;
  }

  case Node::Kind::CopyOut: {
    const auto *C = cast<CopyOutNode>(Control);
    std::vector<Value> NewA;
    NewA.reserve(C->Exprs.size());
    for (const Expr *E : C->Exprs) {
      std::optional<Value> V = evalExpr(E);
      if (!V)
        return false;
      NewA.push_back(*V);
    }
    A = std::move(NewA);
    Control = C->Next;
    return true;
  }

  case Node::Kind::CalleeSaves: {
    const auto *C = cast<CalleeSavesNode>(Control);
    // Cost model: each variable entering or leaving the callee-saves set is
    // one register move (spill or reload).
    for (Symbol V : C->Saved)
      if (std::find(Sigma.begin(), Sigma.end(), V) == Sigma.end())
        ++S.CalleeSaveMoves;
    for (Symbol V : Sigma)
      if (std::find(C->Saved.begin(), C->Saved.end(), V) == C->Saved.end())
        ++S.CalleeSaveMoves;
    Sigma.assign(C->Saved.begin(), C->Saved.end());
    Control = C->Next;
    return true;
  }

  case Node::Kind::Assign: {
    const auto *N = cast<AssignNode>(Control);
    std::optional<Value> V = evalExpr(N->Value);
    if (!V)
      return false;
    if (N->IsGlobal)
      GlobalEnv.bind(N->Var, *V);
    else
      Rho.bind(N->Var, *V);
    Control = N->Next;
    return true;
  }

  case Node::Kind::Store: {
    const auto *N = cast<StoreNode>(Control);
    std::optional<Value> Addr = evalExpr(N->Addr);
    if (!Addr)
      return false;
    std::optional<Value> V = evalExpr(N->Value);
    if (!V)
      return false;
    ++S.Stores;
    if (N->AccessTy.isFloat())
      Mem.storeFloat(Addr->Raw, N->AccessTy.sizeInBytes(), V->F);
    else
      Mem.storeBits(Addr->Raw, N->AccessTy.sizeInBytes(), V->Raw);
    Control = N->Next;
    return true;
  }

  case Node::Kind::Branch: {
    const auto *B = cast<BranchNode>(Control);
    std::optional<Value> C = evalExpr(B->Cond);
    if (!C)
      return false;
    Control = C->isTruthy() ? B->TrueDst : B->FalseDst;
    return true;
  }

  case Node::Kind::Call: {
    const auto *C = cast<CallNode>(Control);
    std::optional<Value> Callee = evalExpr(C->Callee);
    if (!Callee)
      return false;
    const int64_t TargetIdx = decodeCodeIdx(*Callee);
    if (TargetIdx < 0) {
      wrongNotCode(/*IsJump=*/false, *Callee, C->Loc);
      return false;
    }
    const IrProc *Target = Prog.Procs[TargetIdx].get();
    const IrProc *Caller = CurProc;
    pushFrame(C);
    enterProc(Target, C->Loc);
    ++S.Calls;
    if constexpr (Observed)
      Obs->onCall(*this, C, Caller, Target);
    return true;
  }

  case Node::Kind::Jump: {
    const auto *J = cast<JumpNode>(Control);
    std::optional<Value> Callee = evalExpr(J->Callee);
    if (!Callee)
      return false;
    const int64_t TargetIdx = decodeCodeIdx(*Callee);
    if (TargetIdx < 0) {
      wrongNotCode(/*IsJump=*/true, *Callee, J->Loc);
      return false;
    }
    const IrProc *Target = Prog.Procs[TargetIdx].get();
    // Tail call: the caller's resources are deallocated before the call;
    // the continuation bundle on the stack is reused.
    const IrProc *Caller = CurProc;
    enterProc(Target, J->Loc);
    ++S.Jumps;
    if constexpr (Observed)
      Obs->onJump(*this, J, Caller, Target);
    return true;
  }

  case Node::Kind::CutTo: {
    const auto *C = cast<CutToNode>(Control);
    std::optional<Value> V = evalExpr(C->Cont);
    if (!V)
      return false;
    return doCutTo(*V, C);
  }

  case Node::Kind::Yield:
    // Execution passes to the run-time system. Undo the step count: the
    // suspension itself is not a transition.
    --S.Steps;
    ++S.Yields;
    St = MachineStatus::Suspended;
    if constexpr (Observed)
      Obs->onYield(*this);
    return false;
  }
  cmm_unreachable("unknown node kind");
}

// The inline step() in Machine.h dispatches to these from any TU.
template bool Machine::stepImpl<true>();
template bool Machine::stepImpl<false>();

MachineStatus Machine::run(uint64_t MaxSteps) {
  uint64_t Budget = MaxSteps;
  // Pick the step instantiation once, outside the hot loop: the unobserved
  // loop is branch-for-branch the loop this machine had before observers
  // existed.
  if (Obs) {
    while (St == MachineStatus::Running && Budget != 0) {
      stepImpl<true>();
      --Budget;
    }
  } else {
    while (St == MachineStatus::Running && Budget != 0) {
      stepImpl<false>();
      --Budget;
    }
  }
  return St;
}

template class cmm::ExecutorImpl<Machine, Frame>;
