//===- vm/Fuse.h - Superinstruction fusion for the threaded tier -*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The peephole fusion pass behind the threaded backend (vm/Threaded.h).
/// It post-processes a CompiledProgram into a ThreadedProgram: a per-pc
/// dispatch-key stream in which hot adjacent instruction pairs are collapsed
/// into superinstructions. The bytecode itself is untouched and the key
/// stream is pc-for-pc parallel to it, which is what makes the pass
/// observably invisible:
///
///  - every branch target, PcOfNode entry, and RvSlotLocs key keeps its
///    meaning (threaded pc == bytecode pc);
///  - the second half of a fused pair stays in place as an ordinary
///    instruction, so control that lands on it directly — a branch target,
///    or a budget-exhausted run resuming at its node boundary — executes it
///    standalone with identical semantics;
///  - a superinstruction performs both components' node-boundary accounting
///    (budget, Steps, onStep) and goes-wrong checks in exactly the order
///    the plain dispatch loop would.
///
/// The pair set is fixed at build time: each pair has a dedicated handler in
/// the dispatch loop. The vm backend runs the same loop over the unfused op
/// stream (CompiledProc::Keys).
///
//===----------------------------------------------------------------------===//

#ifndef CMM_VM_FUSE_H
#define CMM_VM_FUSE_H

#include "vm/Bytecode.h"

#include <array>
#include <memory>
#include <vector>

namespace cmm {

/// Dispatch keys of the threaded tier. The first NumBaseOps values mirror
/// Op exactly (a key stream with no fusion is the op stream); the rest name
/// the fused pairs.
enum class TOp : uint8_t {
  LoadConst,
  LoadLocal,
  LoadGlobal,
  LoadNameDyn,
  Unary,
  Binary,
  Prim,
  MemLoad,
  Wrong,
  SetGlobal,
  MemStore,
  StageOut,
  Commit,
  CopyIn,
  CalleeSaves,
  EntryOp,
  Goto,
  BranchIf,
  BranchCmp,
  ExitOp,
  CallOp,
  JumpOp,
  CutToOp,
  YieldOp,

  // Superinstructions. Every First falls through unconditionally, so the
  // pair is a straight line; Second may be anything, including a transfer.
  BinaryBinary, ///< two chained Binary ops (b = ...; c = b ...)
  BinaryGoto,   ///< loop latch: assign then back-edge
  BinaryBranchIf,
  BinaryBranchCmp, ///< assign then fused compare-and-branch
  UnaryBranchIf,
  LoadGlobalBinary,
  SetGlobalGoto,
  StageStage,  ///< adjacent CopyOut stages
  StageCommit, ///< last stage and its commit
  CommitCall,  ///< argument-area commit feeding the transfer
  CommitExit,
  CommitJump,
  CommitCut,
  EntryCopyIn, ///< procedure prologue: Entry node then CopyIn node
  CopyInGoto,

  NumTOps,
};

inline constexpr unsigned NumBaseOps = unsigned(Op::YieldOp) + 1;
static_assert(unsigned(TOp::YieldOp) == unsigned(Op::YieldOp),
              "TOp must mirror Op over the base range");

/// Short mnemonic for \p K ("bin+brc", ... falls back to the base-op name).
const char *superOpName(TOp K);

/// One supported fusion: Keys[pc] becomes Fused where Code[pc].K == First
/// and Code[pc+1].K == Second.
struct FusionPair {
  Op First;
  Op Second;
  TOp Fused;
};

/// Every pair the dispatch loop has a handler for, in TOp order.
const std::vector<FusionPair> &fusionPairs();

/// Fuse-time statistics (static counts — the dispatch loop is never taxed
/// with dynamic fusion counters).
struct FusionStats {
  /// Pairs collapsed into a superinstruction (fusion hits).
  uint64_t FusedSites = 0;
  /// Adjacent straight-line pairs examined that no live table entry
  /// covered (fusion misses).
  uint64_t MissedSites = 0;
  /// Fused sites per superinstruction kind (indexed by TOp).
  std::array<uint64_t, size_t(TOp::NumTOps)> SitesByOp{};
};

/// One procedure's dispatch-key stream, pc-for-pc parallel to the bytecode
/// of the CompiledProc at the same index.
struct ThreadedProc {
  std::vector<uint8_t> Keys;
};

/// A threaded program: the shared bytecode plus one key stream per
/// procedure. Immutable after fuseProgram returns, so any number of
/// ThreadedMachines on any number of threads may share one.
struct ThreadedProgram {
  std::shared_ptr<const CompiledProgram> Bytecode;
  std::vector<ThreadedProc> Procs; ///< parallel to Bytecode->Procs
  FusionStats Fusion;
};

/// Runs the fusion pass over \p Bytecode. \p Bytecode must be non-null;
/// the returned program co-owns it.
std::shared_ptr<const ThreadedProgram>
fuseProgram(std::shared_ptr<const CompiledProgram> Bytecode);

/// Renders procedure \p ProcIdx of \p TP as a listing in the style of
/// disassemble(), with fused sites prefixed by their superinstruction
/// mnemonic (cmmi --dump-bytecode under --backend=threaded).
std::string disassembleThreaded(const ThreadedProgram &TP, uint32_t ProcIdx,
                                const Interner &Names);

} // namespace cmm

#endif // CMM_VM_FUSE_H
