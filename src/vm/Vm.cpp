//===- vm/Vm.cpp - Bytecode machine state, frames, cuts -------------------===//
//
// Part of cmmex (see DESIGN.md).
//
// Everything of the bytecode machine except the dispatch loop (which is in
// vm/Threaded.cpp): start, frames, cuts, and the Table 1 run-time
// substrate. Every transition, goes-wrong rule, counter increment, and
// observer event follows sem/Machine.cpp — that file is the reference; when
// the two disagree, the walker is right and the differential harness will
// say so. Operators are not here at all: both apply sem/Ops.h.
//
//===----------------------------------------------------------------------===//

#include "vm/Vm.h"

#include "sem/Observer.h"
#include "support/Assert.h"

#include <algorithm>

using namespace cmm;

VmMachine::VmMachine(const IrProgram &Prog)
    : VmMachine(Prog, std::make_shared<const CompiledProgram>(
                          compileToBytecode(Prog))) {}

VmMachine::VmMachine(const IrProgram &Prog,
                     std::shared_ptr<const CompiledProgram> Shared)
    : Prog(Prog), CPHold(std::move(Shared)), CP(*CPHold) {
  Staging.resize(std::max<uint32_t>(CP.MaxOut, 1));
  for (const CompiledProc &C : CP.Procs) {
    MaxRegs = std::max<uint32_t>(MaxRegs, C.NumRegs);
    MaxSlots = std::max<uint32_t>(MaxSlots, C.NumSlots);
  }
}

VmMachine::VmMachine(const IrProgram &Prog,
                     std::shared_ptr<const ThreadedProgram> Shared)
    : VmMachine(Prog, Shared->Bytecode) {
  Fused = std::move(Shared);
}

void VmMachine::goWrong(std::string Reason, SourceLoc Loc) {
  if (St == MachineStatus::Wrong)
    return; // keep the first reason
  St = MachineStatus::Wrong;
  WrongReason = std::move(Reason);
  WrongLoc = Loc;
  if (Obs)
    Obs->onWrong(*this, WrongReason, WrongLoc);
}

void VmMachine::wrongUnbound(uint16_t Slot, SourceLoc Loc) {
  goWrong("use of unbound variable '" +
              std::string(Prog.Names->spelling(Cur->SlotSyms[Slot])) +
              "' (never assigned, or killed along a cut edge)",
          Loc);
}

const Value *VmMachine::rvUnbound(uint16_t Slot, const VmInstr &I,
                                  unsigned Field) {
  // Report at the fused operand's own source location when one was
  // recorded — the walker diagnoses the variable reference, not the
  // consuming expression.
  wrongUnbound(Slot, Cur->rvSlotLoc(Pc, Field, I.Loc));
  return nullptr;
}

// decodeCodeIdx and newCont live in Vm.h: the dispatch loop hits them on
// every transfer (resp. every Entry node), and both are a handful of
// instructions once inlined.

const ContRecord *VmMachine::decodeCont(const Value &V) const {
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

std::optional<Value> VmMachine::getGlobal(std::string_view Name) const {
  Symbol Sym = Prog.Names->lookup(Name);
  if (!Sym)
    return std::nullopt;
  const Value *V = GlobalEnv.lookup(Sym);
  if (!V)
    return std::nullopt;
  return *V;
}

void VmMachine::setGlobal(std::string_view Name, const Value &V) {
  Symbol Sym = Prog.Names->lookup(Name);
  assert(Sym && "unknown global");
  GlobalEnv.bind(Sym, V);
}

//===----------------------------------------------------------------------===//
// Start, frames
//===----------------------------------------------------------------------===//

void VmMachine::start(std::string_view ProcName, std::vector<Value> Args) {
  Symbol Sym = Prog.Names->lookup(ProcName);
  if (!Sym) {
    // Match the walker even before any state is reset: a failed start on a
    // fresh machine leaves it Wrong.
    goWrong("unknown start procedure '" + std::string(ProcName) + "'",
            SourceLoc());
    return;
  }

  // Reset all mutable state so the machine can be restarted.
  Stack.clear();
  ContTable.clear();
  GlobalEnv.clear();
  Sigma.clear();
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

  const IrProc *P = Prog.findProc(Sym);
  if (!P) {
    goWrong("unknown start procedure '" +
                std::string(Prog.Names->spelling(Sym)) + "'",
            SourceLoc());
    return;
  }
  A = std::move(Args);
  enterProc(P, SourceLoc());
  if (Obs && St == MachineStatus::Running)
    Obs->onStart(*this, P);
}

void VmMachine::enterProc(const IrProc *P, SourceLoc Loc) {
  enterProcAt(P->Index, P, Loc);
}

void VmMachine::enterProcAt(uint32_t ProcIdx, const IrProc *P,
                            SourceLoc Loc) {
  const CompiledProc &C = CP.Procs[ProcIdx];
  if (!C.HasBody) {
    goWrong("procedure '" + std::string(Prog.Names->spelling(P->Name)) +
                "' has no body",
            Loc);
    return;
  }
  Cur = &C;
  CurIdx = ProcIdx;
  CurProc = P;
  Pc = C.EntryPc;
  Uid = NextUid++;
  // Grow-only register files: a file that is ever too small grows straight
  // to the program-wide maximum, so every file (including the recycled ones
  // in FreeFiles) converges to one size and this branch stops firing — the
  // resize was showing up on call-heavy profiles when differently-sized
  // files ping-ponged through FreeFiles. Registers past NumRegs are never
  // read — temporaries are written before use and slot reads are gated on
  // Bound, which is cleared for exactly NumSlots here.
  if (Regs.size() < C.NumRegs) [[unlikely]]
    Regs.resize(MaxRegs);
  if (Bound.size() < C.NumSlots) [[unlikely]]
    Bound.resize(MaxSlots);
  std::fill_n(Bound.begin(), C.NumSlots, 0);
  Sigma.clear();
}

// pushFrame and restoreFrame live in Vm.h: the dispatch loop executes them
// on every call and return, and inlining spares the spill of the loop's
// cached state around an out-of-line call.

//===----------------------------------------------------------------------===//
// Cuts
//===----------------------------------------------------------------------===//

bool VmMachine::doCutTo(const Value &ContVal, const CutToNode *FromNode) {
  SourceLoc Loc = FromNode ? FromNode->Loc : SourceLoc();
  const ContRecord *Rec = decodeCont(ContVal);
  if (!Rec) {
    goWrong("cut to a value that is not a continuation (" + ContVal.str() +
                ")",
            Loc);
    return false;
  }

  // Cut to a continuation of the current activation: permitted only when
  // the cut to statement itself carries an `also cuts to` naming it.
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
    for (uint16_t V : Sigma) // callee-saves values are not restored by a cut
      Bound[V] = 0;
    Sigma.clear();
    Pc = pcOf(*Cur, Rec->Target);
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
    FreeFiles.emplace_back(std::move(Stack.back().Regs),
                           std::move(Stack.back().Bound));
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

  VmFrame F = std::move(Stack.back());
  Stack.pop_back();
  const ContBundle &B = F.CallSite->Bundle;
  if (std::find(B.CutsTo.begin(), B.CutsTo.end(), Rec->Target) ==
      B.CutsTo.end()) {
    goWrong("cut to a continuation that is not listed in the suspended "
            "call site's also cuts to",
            Loc);
    return false;
  }
  restoreFrame(F);
  for (uint16_t V : Sigma) // cuts do not restore callee-saves registers
    Bound[V] = 0;
  Sigma.clear();
  Pc = pcOf(*Cur, Rec->Target);
  ++S.Cuts;
  if (Obs)
    Obs->onCut(*this, FromNode, Rec->Proc, Discarded,
               /*SameActivation=*/false);
  return true;
}

//===----------------------------------------------------------------------===//
// Run-time-system substrate (the checked Yield transitions)
//===----------------------------------------------------------------------===//

bool VmMachine::rtUnwindTop(size_t Count) {
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
    FreeFiles.emplace_back(std::move(Stack.back().Regs),
                           std::move(Stack.back().Bound));
    Stack.pop_back();
    ++S.UnwindPops;
  }
  return true;
}

bool VmMachine::rtResume(const ResumeChoice &Choice,
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
  VmFrame F = std::move(Stack.back());
  Stack.pop_back();
  const ContBundle &B = F.CallSite->Bundle;
  Node *Target = Choice.K == ResumeChoice::Kind::Return
                     ? B.ReturnsTo[Choice.Index]
                     : B.UnwindsTo[Choice.Index];
  // This transition restores callee-saves registers: the full saved
  // environment comes back.
  restoreFrame(F);
  Pc = pcOf(*Cur, Target);
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
