//===- vm/Vm.cpp - Bytecode machine state and frames ----------------------===//
//
// Part of cmmex (see DESIGN.md).
//
// Everything of the bytecode machine except the dispatch loop (which is in
// vm/Threaded.cpp): construction, procedure entry, and the frame hooks under
// which sem/ExecutorImpl.h's start, cut and Yield rules run.
//
//===----------------------------------------------------------------------===//

#include "vm/Vm.h"

#include "support/Assert.h"

#include <algorithm>

using namespace cmm;

VmMachine::VmMachine(const IrProgram &Prog)
    : VmMachine(Prog, std::make_shared<const CompiledProgram>(
                          compileToBytecode(Prog))) {}

VmMachine::VmMachine(const IrProgram &Prog,
                     std::shared_ptr<const CompiledProgram> Shared)
    : ExecutorImpl(Prog), CPHold(std::move(Shared)), CP(*CPHold) {
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

const Value *VmMachine::rvUnbound(uint16_t Slot, const VmInstr &I,
                                  unsigned Field) {
  // Report at the fused operand's own source location when one was
  // recorded — the walker diagnoses the variable reference, not the
  // consuming expression.
  wrongUnbound(Cur->SlotSyms[Slot], Cur->rvSlotLoc(Pc, Field, I.Loc));
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Procedure entry, frames
//===----------------------------------------------------------------------===//

void VmMachine::enterProc(const IrProc *P, SourceLoc Loc) {
  enterProcAt(P->Index, P, Loc);
}

void VmMachine::enterProcAt(uint32_t ProcIdx, const IrProc *P,
                            SourceLoc Loc) {
  const CompiledProc &C = CP.Procs[ProcIdx];
  if (!C.HasBody) {
    wrongNoBody(P, Loc);
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

template class cmm::ExecutorImpl<VmMachine, VmFrame>;
