//===- sem/Executor.cpp ---------------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
// What every backend shares: link-time constants, Code values, the
// continuation and global-register rules, start()'s common step, the
// resume-parameter-count query, and the reason of every transition's stuck
// state. The wrong* functions are cold: executors call them only on the way
// to a Wrong state.
//
//===----------------------------------------------------------------------===//

#include "sem/Executor.h"

#include "sem/Observer.h"

#include "support/Assert.h"
#include "support/Casting.h"

using namespace cmm;

std::optional<Value> cmm::linkTimeConstant(const IrProgram &Prog,
                                           const Expr *E) {
  switch (E->kind()) {
  case Expr::Kind::IntLit:
    return Value::bits(E->Ty.Width, cast<IntLitExpr>(E)->Value);
  case Expr::Kind::StrLit: {
    auto It = Prog.StrAddrs.find(cast<StrLitExpr>(E));
    if (It == Prog.StrAddrs.end())
      return std::nullopt;
    return Value::bits(TargetInfo::nativePointer().Width, It->second);
  }
  case Expr::Kind::Name: {
    const auto *N = cast<NameExpr>(E);
    if (N->Ref == RefKind::DataLabel) {
      auto It = Prog.DataAddrs.find(N->Name);
      if (It == Prog.DataAddrs.end())
        return std::nullopt;
      return Value::bits(TargetInfo::nativePointer().Width, It->second);
    }
    if (N->Ref == RefKind::Proc || N->Ref == RefKind::Import) {
      if (const IrProc *P = Prog.findProc(N->Name))
        return Value::code(P->Index);
      auto It = Prog.DataAddrs.find(N->Name);
      if (It != Prog.DataAddrs.end())
        return Value::bits(TargetInfo::nativePointer().Width, It->second);
      return std::nullopt;
    }
    return std::nullopt;
  }
  default:
    return std::nullopt;
  }
}

Value Executor::codeValue(const IrProc *P) const {
  assert(P->Index < Prog.Procs.size() && Prog.Procs[P->Index].get() == P &&
         "procedure not in this program");
  return Value::code(P->Index);
}

std::optional<unsigned>
Executor::resumeParamCount(const ResumeChoice &Choice) const {
  const Node *Target = nullptr;
  switch (Choice.K) {
  case ResumeChoice::Kind::Return: {
    if (stackDepth() == 0)
      return std::nullopt;
    const ContBundle &B = frameCallSite(0)->Bundle;
    if (Choice.Index >= B.ReturnsTo.size())
      return std::nullopt;
    Target = B.ReturnsTo[Choice.Index];
    break;
  }
  case ResumeChoice::Kind::Unwind: {
    if (stackDepth() == 0)
      return std::nullopt;
    const ContBundle &B = frameCallSite(0)->Bundle;
    if (Choice.Index >= B.UnwindsTo.size())
      return std::nullopt;
    Target = B.UnwindsTo[Choice.Index];
    break;
  }
  case ResumeChoice::Kind::Cut: {
    const ContRecord *Rec = decodeCont(Choice.ContValue);
    if (!Rec)
      return std::nullopt;
    Target = Rec->Target;
    break;
  }
  }
  if (const auto *In = dyn_cast<CopyInNode>(Target))
    return static_cast<unsigned>(In->Vars.size());
  return 0;
}

const ContRecord *Executor::decodeCont(const Value &V) const {
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

std::optional<Value> Executor::getGlobal(std::string_view Name) const {
  Symbol Sym = Prog.Names->lookup(Name);
  if (!Sym)
    return std::nullopt;
  const Value *V = GlobalEnv.lookup(Sym);
  if (!V)
    return std::nullopt;
  return *V;
}

void Executor::setGlobal(std::string_view Name, const Value &V) {
  Symbol Sym = Prog.Names->lookup(Name);
  assert(Sym && "unknown global");
  GlobalEnv.bind(Sym, V);
}

const IrProc *Executor::loadForStart(Symbol ProcName) {
  // Reset all shared state so an executor can be restarted.
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
        wrongUnresolvedReloc(R.Target);
        return nullptr;
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
  if (!P)
    wrongUnknownStart(Prog.Names->spelling(ProcName));
  return P;
}

//===----------------------------------------------------------------------===//
// Goes-wrong reasons
//===----------------------------------------------------------------------===//

void Executor::goWrong(std::string Reason, SourceLoc Loc) {
  if (St == MachineStatus::Wrong)
    return; // keep the first reason
  St = MachineStatus::Wrong;
  WrongReason = std::move(Reason);
  WrongLoc = Loc;
  if (Obs)
    Obs->onWrong(*this, WrongReason, WrongLoc);
}

const char *Executor::strLitWithoutAddressReason() {
  return "string literal without a data address";
}

const char *Executor::unknownPrimitiveReason() { return "unknown primitive"; }

const char *Executor::unresolvedNameReachedEvaluatorReason() {
  return "internal: unresolved name reached the evaluator";
}

void Executor::wrongUnknownStart(std::string_view ProcName) {
  goWrong("unknown start procedure '" + std::string(ProcName) + "'",
          SourceLoc());
}

void Executor::wrongUnresolvedReloc(Symbol Target) {
  goWrong("unresolved data relocation '" +
              std::string(Prog.Names->spelling(Target)) + "'",
          SourceLoc());
}

void Executor::wrongNoBody(const IrProc *P, SourceLoc Loc) {
  goWrong("procedure '" + std::string(Prog.Names->spelling(P->Name)) +
              "' has no body",
          Loc);
}

void Executor::wrongUnbound(Symbol Var, SourceLoc Loc) {
  goWrong("use of unbound variable '" +
              std::string(Prog.Names->spelling(Var)) +
              "' (never assigned, or killed along a cut edge)",
          Loc);
}

void Executor::wrongUnknownGlobal(Symbol Name, SourceLoc Loc) {
  goWrong("use of unknown global '" + std::string(Prog.Names->spelling(Name)) +
              "'",
          Loc);
}

void Executor::wrongUnresolvedName(Symbol Name, SourceLoc Loc) {
  goWrong("unresolved name '" + std::string(Prog.Names->spelling(Name)) + "'",
          Loc);
}

void Executor::wrongNotCode(bool IsJump, const Value &Callee, SourceLoc Loc) {
  goWrong(std::string(IsJump ? "jump" : "call") + " target is not code (" +
              Callee.str() + ")",
          Loc);
}

void Executor::wrongAbnormalReturnEmptyStack(SourceLoc Loc) {
  goWrong("abnormal return with an empty stack", Loc);
}

void Executor::wrongReturnArity(unsigned ContIndex, unsigned AltCount,
                                size_t Alternates, SourceLoc Loc) {
  goWrong("return <" + std::to_string(ContIndex) + "/" +
              std::to_string(AltCount) + "> at a call site with " +
              std::to_string(Alternates) + " alternate return continuations",
          Loc);
}

void Executor::wrongReturnIndex(SourceLoc Loc) {
  goWrong("return continuation index out of range", Loc);
}

void Executor::wrongTooFewValues(size_t Need, size_t Have, SourceLoc Loc) {
  goWrong("too few values in the argument-passing area: need " +
              std::to_string(Need) + ", have " + std::to_string(Have),
          Loc);
}

void Executor::wrongCutToNonCont(const Value &V, SourceLoc Loc) {
  goWrong("cut to a value that is not a continuation (" + V.str() + ")", Loc);
}

void Executor::wrongSameActivationCutUnlisted(SourceLoc Loc) {
  goWrong("cut to a continuation of the current activation that is not "
          "named in this statement's also cuts to",
          Loc);
}

void Executor::wrongCutPastNonAborting(SourceLoc Loc) {
  goWrong("cut truncates the stack past a call site that lacks an also "
          "aborts annotation",
          Loc);
}

void Executor::wrongCutToDeadCont(SourceLoc Loc) {
  goWrong("cut to a dead continuation (its activation is no longer on the "
          "stack)",
          Loc);
}

void Executor::wrongCutToUnlisted(SourceLoc Loc) {
  goWrong("cut to a continuation that is not listed in the suspended call "
          "site's also cuts to",
          Loc);
}

void Executor::wrongUnwindNotSuspended() {
  goWrong("run-time system acted on a machine that is not suspended",
          SourceLoc());
}

void Executor::wrongUnwindPastBottom() {
  goWrong("run-time system unwound past the bottom of the stack",
          SourceLoc());
}

void Executor::wrongUnwindPastNonAborting(SourceLoc Loc) {
  goWrong("run-time system unwound past a call site that lacks an also "
          "aborts annotation",
          Loc);
}

void Executor::wrongResumeNotSuspended() {
  goWrong("run-time system resumed a machine that is not suspended",
          SourceLoc());
}

void Executor::wrongInvalidResumption() {
  goWrong("run-time system chose an invalid resumption continuation",
          SourceLoc());
}

void Executor::wrongResumeParamCount(size_t Passed, unsigned Expected) {
  goWrong("run-time system passed " + std::to_string(Passed) +
              " continuation parameters where " + std::to_string(Expected) +
              " are expected",
          SourceLoc());
}
