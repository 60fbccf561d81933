//===- vm/Threaded.h - Threaded-code executor for Abstract C-- --*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The third executor tier: the bytecode machine of vm/Vm.h running the
/// superinstruction key stream produced by the fusion pass in vm/Fuse.h.
///
/// Both bytecode backends run one dispatch loop (computed-goto label-address
/// dispatch, vm/Threaded.cpp); the vm backend feeds it the op stream, this
/// tier the fused stream. Frames, cuts, the Table 1 run-time substrate,
/// global access, and the expression slow paths are shared too, so every
/// observable — goes-wrong reasons and locations (including fused-operand
/// wrongLoc via RvSlotLocs), the 13 Stats counters, MachineObserver events,
/// and node-boundary fuel accounting — is the vm backend's by construction
/// except inside superinstruction handlers, whose preservation argument is
/// in docs/BYTECODE.md § "Threaded tier".
///
//===----------------------------------------------------------------------===//

#ifndef CMM_VM_THREADED_H
#define CMM_VM_THREADED_H

#include "vm/Vm.h"

namespace cmm {

/// The dispatch model of the bytecode loop ("computed-goto"), recorded in
/// bench metadata.
const char *threadedDispatchKind();

/// The threaded-code executor. One ThreadedMachine is one C-- thread.
class ThreadedMachine final : public VmMachine {
public:
  /// Compiles the bytecode and fuses it under the default table.
  explicit ThreadedMachine(const IrProgram &Prog);

  /// Shares a pre-fused program (the engine's artifact cache fuses once and
  /// hands the same ThreadedProgram to every executor over the same
  /// program). \p Shared must be non-null and fused from \p Prog 's
  /// bytecode.
  ThreadedMachine(const IrProgram &Prog,
                  std::shared_ptr<const ThreadedProgram> Shared);

  std::string_view backendName() const override { return "threaded"; }

  /// The fused form (for cmmi --dump-bytecode and tests).
  const ThreadedProgram &threadedProgram() const { return *Fused; }
};

} // namespace cmm

#endif // CMM_VM_THREADED_H
