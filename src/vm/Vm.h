//===- vm/Vm.h - Bytecode executor for Abstract C-- -------------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bytecode VM: compiles the checked IR to the register bytecode of
/// vm/Bytecode.h (once, at construction) and runs it in the threaded
/// dispatch loop of vm/Threaded.cpp over the unfused key stream.
/// Observable semantics are identical to the reference tree walker
/// (sem/Machine.h): the seven-component state, every goes-wrong rule with
/// the same diagnostic strings, Suspended at Yield nodes, the Table 1
/// run-time substrate, the same Stats counters, and MachineObserver events
/// at the same sites. The shared state, start, the cut and Yield rules and
/// every goes-wrong reason are the walker's own (sem/Executor.h,
/// sem/ExecutorImpl.h); this class adds the register-file frames and the
/// dispatch loop. docs/BYTECODE.md carries the preservation argument;
/// costmodel/DiffHarness.h cross-checks the two executors on every seed.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_VM_VM_H
#define CMM_VM_VM_H

#include "sem/Env.h"
#include "sem/ExecutorImpl.h"
#include "sem/Ops.h"
#include "vm/Fuse.h"

namespace cmm {

/// One suspended activation: the walker's (Γ, ρ, σ, uid) with ρ as a
/// register file plus bound flags instead of a symbol map.
struct VmFrame {
  const CallNode *CallSite = nullptr;
  const IrProc *Proc = nullptr;
  const CompiledProc *Compiled = nullptr;
  uint32_t CompiledIdx = 0; ///< dense index of Compiled in CP.Procs
  std::vector<Value> Regs;
  std::vector<uint8_t> Bound; ///< per-slot definedness (the domain of ρ)
  std::vector<uint16_t> Sigma;
  uint64_t Uid = 0;
};

/// The bytecode executor. One VmMachine is one C-- thread. The threaded
/// tier (vm/Threaded.h) derives from it and differs only in the key stream
/// the one dispatch loop runs: fused superinstruction keys instead of the
/// op stream. Frames, cuts, the run-time substrate, the expression slow
/// paths, and the loop itself are shared.
class VmMachine : public ExecutorImpl<VmMachine, VmFrame> {
public:
  explicit VmMachine(const IrProgram &Prog);

  /// Shares pre-compiled bytecode (the engine's artifact cache compiles
  /// once and hands the same CompiledProgram to every VM over the same
  /// program). \p Shared must be non-null and compiled from \p Prog.
  VmMachine(const IrProgram &Prog, std::shared_ptr<const CompiledProgram> Shared);

  std::string_view backendName() const override { return "vm"; }

  bool step() override;
  MachineStatus run(uint64_t MaxSteps = ~uint64_t(0)) override;

  /// The compiled form (for cmmi --dump-bytecode and tests).
  const CompiledProgram &compiled() const { return CP; }

  /// The dispatch-key stream the loop runs for procedure \p ProcIdx: the
  /// fused stream when this machine runs a ThreadedProgram, otherwise the
  /// bytecode's own op stream (CompiledProc::Keys). Parallel to Code.
  const std::vector<uint8_t> &dispatchKeys(uint32_t ProcIdx) const {
    return Fused ? Fused->Procs[ProcIdx].Keys : CP.Procs[ProcIdx].Keys;
  }

private:
  /// The dispatch loop (vm/Threaded.cpp).
  template <bool Observed> void dispatch(uint64_t &Budget);

protected:
  /// Runs over \p Shared 's fused key streams (the threaded tier).
  VmMachine(const IrProgram &Prog,
            std::shared_ptr<const ThreadedProgram> Shared);

  friend class ExecutorImpl<VmMachine, VmFrame>;

  /// Failure path of a fused-operand read; kept out of line so its
  /// RvSlotLocs lookup does not bloat the 16 inlined call sites in the
  /// dispatch loop. Always returns null.
  const Value *rvUnbound(uint16_t Slot, const VmInstr &I, unsigned Field);
  // The hooks of sem/ExecutorImpl.h. restoreFrame, like pushFrame, is
  // forced inline so the dispatch loop keeps its cached state in registers
  // across the per-call/per-return frame shuffles (GCC declines the inline
  // at -O2, and the out-of-line call spills on every transfer).
  void enterProc(const IrProc *P, SourceLoc Loc);
  void dropFrame(VmFrame &F) {
    FreeFiles.emplace_back(std::move(F.Regs), std::move(F.Bound));
  }
  CMM_VM_INLINE void restoreFrame(VmFrame &F);
  void killSigma() {
    for (uint16_t V : Sigma)
      Bound[V] = 0;
    Sigma.clear();
  }
  void setControl(const Node *N) { Pc = pcOf(*Cur, N); }

  CMM_VM_INLINE void pushFrame(const CallNode *Site);
  /// enterProc for a target already resolved to its dense index.
  void enterProcAt(uint32_t ProcIdx, const IrProc *P, SourceLoc Loc);
  uint32_t pcOf(const CompiledProc &C, const Node *N) const {
    return C.PcOfNode[N->Id];
  }

  /// Owns the bytecode (solely, or jointly with an artifact cache and
  /// other VMs; CompiledProgram is immutable after compilation, so
  /// sharing is safe). CP is the alias the hot paths read through.
  std::shared_ptr<const CompiledProgram> CPHold;
  const CompiledProgram &CP;
  /// The fused key streams over CP (threaded tier), or null (vm backend).
  std::shared_ptr<const ThreadedProgram> Fused;

  // The VM's own state components (uid, M and A are Executor's, S is
  // ExecutorImpl's): p as a pc into the current compiled proc, ρ as
  // Regs+Bound, σ as slot indices.
  uint32_t Pc = 0;
  std::vector<Value> Regs;
  std::vector<uint8_t> Bound;
  std::vector<uint16_t> Sigma;

  // Bookkeeping beyond the formal state.
  const CompiledProc *Cur = nullptr;
  /// Dense index of Cur in CP.Procs (== CurProc->Index). The loop's reload
  /// path addresses the per-proc key streams through it without a
  /// pointer-difference division.
  uint32_t CurIdx = 0;
  std::vector<Value> Staging;
  /// Program-wide maxima of CompiledProc::NumRegs/NumSlots: register files
  /// grow straight to these so recycling never resizes (enterProcAt).
  uint32_t MaxRegs = 0, MaxSlots = 0;
  /// Recycled (Regs, Bound) pairs so calls do not allocate in steady state.
  std::vector<std::pair<std::vector<Value>, std::vector<uint8_t>>> FreeFiles;
};

extern template class ExecutorImpl<VmMachine, VmFrame>;

inline void VmMachine::pushFrame(const CallNode *Site) {
  VmFrame &F = Stack.emplace_back(); // built in place: no temporary to move
  F.CallSite = Site;
  F.Proc = CurProc;
  F.Compiled = Cur;
  F.CompiledIdx = CurIdx;
  F.Uid = Uid;
  F.Regs = std::move(Regs);
  F.Bound = std::move(Bound);
  F.Sigma = std::move(Sigma);
  if (!FreeFiles.empty()) {
    Regs = std::move(FreeFiles.back().first);
    Bound = std::move(FreeFiles.back().second);
    FreeFiles.pop_back();
  } else {
    Regs = {};
    Bound = {};
  }
  Sigma.clear();
  S.MaxStackDepth = std::max<uint64_t>(S.MaxStackDepth, Stack.size());
}

inline void VmMachine::restoreFrame(VmFrame &F) {
  FreeFiles.emplace_back(std::move(Regs), std::move(Bound));
  Regs = std::move(F.Regs);
  Bound = std::move(F.Bound);
  Sigma = std::move(F.Sigma);
  Uid = F.Uid;
  CurProc = F.Proc;
  Cur = F.Compiled;
  CurIdx = F.CompiledIdx;
}

} // namespace cmm

#endif // CMM_VM_VM_H
