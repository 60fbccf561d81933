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

Machine::Machine(const IrProgram &Prog) : Prog(Prog) {}

void Machine::goWrong(std::string Reason, SourceLoc Loc) {
  if (St == MachineStatus::Wrong)
    return; // keep the first reason
  St = MachineStatus::Wrong;
  WrongReason = std::move(Reason);
  WrongLoc = Loc;
  if (Obs)
    Obs->onWrong(*this, WrongReason, WrongLoc);
}

void Machine::start(std::string_view ProcName, std::vector<Value> Args) {
  Symbol S = Prog.Names->lookup(ProcName);
  if (!S) {
    goWrong("unknown start procedure '" + std::string(ProcName) + "'",
            SourceLoc());
    return;
  }
  start(S, std::move(Args));
}

void Machine::start(Symbol ProcName, std::vector<Value> Args) {
  // Reset all mutable state so a Machine can be restarted.
  Rho.clear();
  Sigma.clear();
  Stack.clear();
  ContTable.clear();
  GlobalEnv.clear();
  Mem = Memory();
  NextUid = 1;
  WrongReason.clear();
  St = MachineStatus::Running;

  // Load the static data image (bulk: per-page memcpy, not per-byte).
  if (!Prog.Image.Bytes.empty())
    Mem.storeBytes(Prog.Image.Base, Prog.Image.Bytes.data(),
                   Prog.Image.Bytes.size());
  for (const DataImage::Reloc &R : Prog.Image.Relocs) {
    uint64_t V = 0;
    if (const IrProc *P = Prog.findProc(R.Target)) {
      V = codeValue(P).Raw;
    } else {
      auto It = Prog.DataAddrs.find(R.Target);
      if (It == Prog.DataAddrs.end()) {
        goWrong("unresolved data relocation '" +
                    std::string(Prog.Names->spelling(R.Target)) + "'",
                SourceLoc());
        return;
      }
      V = It->second;
    }
    Mem.storeBits(R.Addr, TargetInfo::pointerBytes(), V);
  }

  // Zero-initialize the global registers.
  for (const auto &[Name, Ty] : Prog.Globals)
    GlobalEnv.bind(Name, Ty.isFloat() ? Value::flt(Ty.Width, 0)
                                      : Value::bits(Ty.Width, 0));

  const IrProc *P = Prog.findProc(ProcName);
  if (!P) {
    goWrong("unknown start procedure '" +
                std::string(Prog.Names->spelling(ProcName)) + "'",
            SourceLoc());
    return;
  }
  A = std::move(Args);
  enterProc(P, SourceLoc());
  if (Obs && St == MachineStatus::Running)
    Obs->onStart(*this, P);
}

void Machine::enterProc(const IrProc *P, SourceLoc Loc) {
  if (!P->EntryPoint) {
    goWrong("procedure '" + std::string(Prog.Names->spelling(P->Name)) +
                "' has no body",
            Loc);
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

uint64_t Machine::newCont(Node *Target, uint64_t ContUid,
                          const IrProc *Proc) {
  ContTable.push_back({Target, ContUid, Proc});
  ++S.ContsBound;
  return ContTable.size() - 1;
}

const ContRecord *Machine::decodeCont(const Value &V) const {
  uint64_t Raw;
  if (V.isCont()) {
    Raw = V.Raw;
  } else if (V.isBits() && Value::rawIsCont(V.Raw)) {
    Raw = V.Raw;
  } else {
    return nullptr;
  }
  if ((Raw - ContBase) % ContStride != 0)
    return nullptr;
  uint64_t Handle = (Raw - ContBase) / ContStride;
  if (Handle >= ContTable.size())
    return nullptr;
  return &ContTable[Handle];
}

const ContRecord *Machine::requireCont(const Value &V, SourceLoc Loc) {
  const ContRecord *R = decodeCont(V);
  if (!R)
    goWrong("cut to a value that is not a continuation (" + V.str() + ")",
            Loc);
  return R;
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

std::optional<Value> Machine::getGlobal(std::string_view Name) const {
  Symbol Sym = Prog.Names->lookup(Name);
  if (!Sym)
    return std::nullopt;
  const Value *V = GlobalEnv.lookup(Sym);
  if (!V)
    return std::nullopt;
  return *V;
}

void Machine::setGlobal(std::string_view Name, const Value &V) {
  Symbol Sym = Prog.Names->lookup(Name);
  assert(Sym && "unknown global");
  GlobalEnv.bind(Sym, V);
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
      goWrong("use of unbound variable '" +
                  std::string(Prog.Names->spelling(N->Name)) +
                  "' (never assigned, or killed along a cut edge)",
              N->loc());
      return std::nullopt;
    }
    return *V;
  }
  case RefKind::Global: {
    const Value *V = GlobalEnv.lookup(N->Name);
    if (!V) {
      goWrong("use of unknown global '" +
                  std::string(Prog.Names->spelling(N->Name)) + "'",
              N->loc());
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
      goWrong("unresolved name '" +
                  std::string(Prog.Names->spelling(N->Name)) + "'",
              N->loc());
    }
    return V;
  }
  case RefKind::Unresolved:
    break;
  }
  goWrong("internal: unresolved name reached the evaluator", N->loc());
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
    goWrong("unknown primitive", P->loc());
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
      goWrong("string literal without a data address", E->loc());
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
      uint64_t Handle = newCont(Target, Uid, CurProc);
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
        goWrong("abnormal return with an empty stack", E->Loc);
      }
      return false;
    }
    Frame F = std::move(Stack.back());
    Stack.pop_back();
    const ContBundle &B = F.CallSite->Bundle;
    if (B.ReturnsTo.size() != size_t(E->AltCount) + 1) {
      goWrong("return <" + std::to_string(E->ContIndex) + "/" +
                  std::to_string(E->AltCount) + "> at a call site with " +
                  std::to_string(B.ReturnsTo.size() - 1) +
                  " alternate return continuations",
              E->Loc);
      return false;
    }
    if (E->ContIndex >= B.ReturnsTo.size()) {
      goWrong("return continuation index out of range", E->Loc);
      return false;
    }
    const IrProc *Callee = CurProc;
    Control = B.ReturnsTo[E->ContIndex];
    Rho = std::move(F.SavedEnv);
    Sigma = std::move(F.SavedSigma);
    Uid = F.Uid;
    CurProc = F.Proc;
    ++S.Returns;
    if constexpr (Observed)
      Obs->onReturn(*this, F.CallSite, Callee, CurProc, E->ContIndex);
    return true;
  }

  case Node::Kind::CopyIn: {
    const auto *C = cast<CopyInNode>(Control);
    if (A.size() < C->Vars.size()) {
      goWrong("too few values in the argument-passing area: need " +
                  std::to_string(C->Vars.size()) + ", have " +
                  std::to_string(A.size()),
              C->Loc);
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
    const IrProc *Target = nullptr;
    if ((Callee->isCode() || Callee->isBits()) &&
        Value::rawIsCode(Callee->Raw)) {
      uint64_t Idx = Callee->codeIndex();
      if ((Callee->Raw - CodeBase) % CodeStride == 0 &&
          Idx < Prog.Procs.size())
        Target = Prog.Procs[Idx].get();
    }
    if (!Target) {
      goWrong("call target is not code (" + Callee->str() + ")", C->Loc);
      return false;
    }
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
    const IrProc *Target = nullptr;
    if ((Callee->isCode() || Callee->isBits()) &&
        Value::rawIsCode(Callee->Raw)) {
      uint64_t Idx = Callee->codeIndex();
      if ((Callee->Raw - CodeBase) % CodeStride == 0 &&
          Idx < Prog.Procs.size())
        Target = Prog.Procs[Idx].get();
    }
    if (!Target) {
      goWrong("jump target is not code (" + Callee->str() + ")", J->Loc);
      return false;
    }
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

bool Machine::doCutTo(const Value &ContVal, const CutToNode *FromNode) {
  SourceLoc Loc = FromNode ? FromNode->Loc : SourceLoc();
  const ContRecord *Rec = requireCont(ContVal, Loc);
  if (!Rec)
    return false;

  // Cut to a continuation of the current activation: permitted only when the
  // cut to statement itself carries an `also cuts to` naming it.
  if (FromNode && Rec->Uid == Uid) {
    bool Listed = std::find(FromNode->AlsoCutsTo.begin(),
                            FromNode->AlsoCutsTo.end(),
                            Rec->Target) != FromNode->AlsoCutsTo.end();
    if (!Listed) {
      goWrong("cut to a continuation of the current activation that is not "
              "named in this statement's also cuts to",
              Loc);
      return false;
    }
    Rho.erase(Sigma); // callee-saves values are not restored by a cut
    Sigma.clear();
    Control = Rec->Target;
    ++S.Cuts;
    if (Obs)
      Obs->onCut(*this, FromNode, Rec->Proc, 0, /*SameActivation=*/true);
    return true;
  }

  // Remove activations until the target's frame is on top. Each removed
  // frame's suspended call must be annotated `also aborts`.
  uint64_t Discarded = 0;
  while (!Stack.empty() && Stack.back().Uid != Rec->Uid) {
    if (!Stack.back().CallSite->Bundle.Abort) {
      goWrong("cut truncates the stack past a call site that lacks an "
              "also aborts annotation",
              Loc);
      return false;
    }
    if (Obs)
      Obs->onCutFrameDiscarded(*this, Stack.back().CallSite,
                               Stack.back().Proc);
    Stack.pop_back();
    ++S.FramesCutOver;
    ++Discarded;
  }
  if (Stack.empty()) {
    goWrong("cut to a dead continuation (its activation is no longer on "
            "the stack)",
            Loc);
    return false;
  }

  Frame F = std::move(Stack.back());
  Stack.pop_back();
  const ContBundle &B = F.CallSite->Bundle;
  if (std::find(B.CutsTo.begin(), B.CutsTo.end(), Rec->Target) ==
      B.CutsTo.end()) {
    goWrong("cut to a continuation that is not listed in the suspended "
            "call site's also cuts to",
            Loc);
    return false;
  }
  Control = Rec->Target;
  Rho = std::move(F.SavedEnv);
  Rho.erase(F.SavedSigma); // cuts do not restore callee-saves registers
  Sigma.clear();
  Uid = F.Uid;
  CurProc = F.Proc;
  ++S.Cuts;
  if (Obs)
    Obs->onCut(*this, FromNode, Rec->Proc, Discarded,
               /*SameActivation=*/false);
  return true;
}

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

//===----------------------------------------------------------------------===//
// Run-time-system substrate (the checked Yield transitions)
//===----------------------------------------------------------------------===//

bool Machine::rtUnwindTop(size_t Count) {
  if (St != MachineStatus::Suspended) {
    goWrong("run-time system acted on a machine that is not suspended",
            SourceLoc());
    return false;
  }
  for (size_t I = 0; I < Count; ++I) {
    if (Stack.empty()) {
      goWrong("run-time system unwound past the bottom of the stack",
              SourceLoc());
      return false;
    }
    if (!Stack.back().CallSite->Bundle.Abort) {
      goWrong("run-time system unwound past a call site that lacks an "
              "also aborts annotation",
              Stack.back().CallSite->Loc);
      return false;
    }
    if (Obs)
      Obs->onUnwindPop(*this, Stack.back().CallSite, Stack.back().Proc,
                       /*Resumed=*/false);
    Stack.pop_back();
    ++S.UnwindPops;
  }
  return true;
}

bool Machine::rtResume(const ResumeChoice &Choice,
                       std::vector<Value> Params) {
  if (St != MachineStatus::Suspended) {
    goWrong("run-time system resumed a machine that is not suspended",
            SourceLoc());
    return false;
  }
  std::optional<unsigned> Expected = resumeParamCount(Choice);
  if (!Expected) {
    goWrong("run-time system chose an invalid resumption continuation",
            SourceLoc());
    return false;
  }
  if (Params.size() != *Expected) {
    goWrong("run-time system passed " + std::to_string(Params.size()) +
                " continuation parameters where " +
                std::to_string(*Expected) + " are expected",
            SourceLoc());
    return false;
  }

  if (Choice.K == ResumeChoice::Kind::Cut) {
    St = MachineStatus::Running; // doCutTo acts from the running state
    if (!doCutTo(Choice.ContValue, nullptr))
      return false;
    A = std::move(Params);
    return true;
  }

  if (Stack.empty()) {
    goWrong("run-time system resumed with an empty stack", SourceLoc());
    return false;
  }
  Frame F = std::move(Stack.back());
  Stack.pop_back();
  const ContBundle &B = F.CallSite->Bundle;
  Node *Target = Choice.K == ResumeChoice::Kind::Return
                     ? B.ReturnsTo[Choice.Index]
                     : B.UnwindsTo[Choice.Index];
  // This transition restores callee-saves registers: the full saved
  // environment comes back.
  Control = Target;
  Rho = std::move(F.SavedEnv);
  Sigma = std::move(F.SavedSigma);
  Uid = F.Uid;
  CurProc = F.Proc;
  A = std::move(Params);
  if (Choice.K == ResumeChoice::Kind::Unwind) {
    ++S.UnwindPops;
    if (Obs)
      Obs->onUnwindPop(*this, F.CallSite, F.Proc, /*Resumed=*/true);
  }
  St = MachineStatus::Running;
  if (Obs)
    Obs->onResume(*this, Choice.K, Choice.Index);
  return true;
}
