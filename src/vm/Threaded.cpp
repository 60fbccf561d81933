//===- vm/Threaded.cpp - The bytecode dispatch loop -----------------------===//
//
// Part of cmmex (see DESIGN.md).
//
// The one dispatch loop of both bytecode backends. Every check, counter
// increment, observer event, and goes-wrong path happens in the same order
// at the same point as in sem/Machine.cpp, and both apply the operators of
// sem/Ops.h. The loop's own structure is (a) dispatch — each handler jumps
// straight to the next instruction's handler through a label table indexed
// by the key stream (the op stream itself on the vm backend, the fused
// stream on the threaded tier), (b) superinstructions — a fused key runs
// two adjacent instructions in one handler, performing the second
// component's node-boundary accounting inline exactly where its own handler
// would have, and (c) state caching — the pc and the register-file/
// constant-pool data pointers live in locals for the whole loop. The
// caching discipline:
//
//  - the member Pc is written back at every exit from the loop (TRET),
//    so between dispatch calls the member state is exact;
//  - the three helpers that read or write the member Pc mid-loop get a
//    sync around the call: rvUnbound (reads it to key RvSlotLocs),
//    enterProc (writes the entry pc), and doCutTo (writes the target pc);
//  - RELOAD refreshes every cached pointer after any operation that can
//    move the underlying storage (frame pushes/pops, procedure changes).
//
// When this loop and the walker disagree, the walker (sem/Machine.cpp) is
// right; the cmmdiff sweep and VmConformanceTest exist to say so.
//
//===----------------------------------------------------------------------===//

#include "vm/Threaded.h"

#include "sem/Observer.h"
#include "support/Assert.h"
#include "support/Casting.h"

#include <algorithm>
#include <iterator>

using namespace cmm;

const char *cmm::threadedDispatchKind() { return "computed-goto"; }

ThreadedMachine::ThreadedMachine(const IrProgram &Prog)
    : ThreadedMachine(Prog,
                      fuseProgram(std::make_shared<const CompiledProgram>(
                          compileToBytecode(Prog)))) {}

ThreadedMachine::ThreadedMachine(const IrProgram &Prog,
                                 std::shared_ptr<const ThreadedProgram> Shared)
    : VmMachine(Prog, std::move(Shared)) {}

//===----------------------------------------------------------------------===//
// The dispatch loop
//===----------------------------------------------------------------------===//

// Exit the loop: write the cached fuel, step count, and shadow pc back so
// the machine's between-runs state is exact (resume, suspension, goes-wrong
// states, and stats() all read the members).
#define TRET()                                                                 \
  do {                                                                         \
    Budget = Fuel;                                                             \
    if constexpr (!Observed)                                                   \
      S.Steps += StepsTaken;                                                   \
    this->Pc = Pc;                                                             \
    return;                                                                    \
  } while (0)

// One abstract-machine transition begins at every FlagStartsNode
// instruction: charge the budget, count the step, notify the observer —
// the walker's per-transition accounting. A budget-exhausted return
// leaves Pc at the node boundary, so a resumed run (or a fused pair whose
// second component hits the boundary) continues in exactly the state one
// combined run reaches. Fuel and the step count stay in locals: the budget
// is invisible to everything but this loop, and S.Steps only has to be
// current when an observer (which may read stats()) can run — so the
// unobserved instantiation accumulates a delta and flushes it at TRET.
#define NODE_PROLOGUE(In)                                                      \
  if ((In).Flags & FlagStartsNode) {                                           \
    if (Fuel == 0)                                                             \
      TRET(); /* step budget exhausted at a node boundary */                   \
    --Fuel;                                                                    \
    if constexpr (Observed) {                                                  \
      ++S.Steps;                                                               \
      Obs->onStep(*this, (In).N);                                              \
    } else {                                                                   \
      ++StepsTaken;                                                            \
    }                                                                          \
  }

// Yield suspensions are not transitions (the walker un-counts them): the
// budget is still charged at the boundary, but neither Steps nor onStep
// fires.
#define YIELD_PROLOGUE(In)                                                     \
  if ((In).Flags & FlagStartsNode) {                                           \
    if (Fuel == 0)                                                             \
      TRET();                                                                  \
    --Fuel;                                                                    \
  }

// Refresh every cached pointer after any operation that can change the
// current compiled procedure or move the register files.
#define RELOAD()                                                               \
  do {                                                                         \
    Code = Cur->Code.data();                                                   \
    Keys = dispatchKeys(CurIdx).data();                                        \
    ConstsP = Cur->Consts.data();                                              \
    RegsP = Regs.data();                                                       \
    BoundP = Bound.data();                                                     \
    NumSlots = Cur->NumSlots;                                                  \
  } while (0)

//===----------------------------------------------------------------------===//
// Instruction bodies shared by the plain and the superinstruction handlers.
// A failing check goes wrong and leaves the loop with TRET(). Bodies that
// fall through leave Pc at the next instruction; transfer bodies set Pc and
// RELOAD().
//===----------------------------------------------------------------------===//

#define BODY_UNARY()                                                           \
  {                                                                            \
    const Value *Bv = ReadOperand(I->B, *I, 1);                                \
    if (!Bv)                                                                   \
      TRET();                                                                  \
    Value Out;                                                                 \
    if (OpStuck Why = applyUnary(Out, *Bv, UnOp(I->Imm));                      \
        Why != OpStuck::None) {                                                \
      goWrong(opStuckReason(Why, UnOp(I->Imm), *Bv), I->Loc);                  \
      TRET();                                                                  \
    }                                                                          \
    StoreValue(*I, Out);                                                       \
    ++Pc;                                                                      \
  }

#define BODY_BINARY()                                                          \
  {                                                                            \
    const Value *Bv = ReadOperand(I->B, *I, 1);                                \
    if (!Bv)                                                                   \
      TRET();                                                                  \
    const Value *Cv = ReadOperand(I->C, *I, 2);                                \
    if (!Cv)                                                                   \
      TRET();                                                                  \
    Value Out;                                                                 \
    if (OpStuck Why = applyBinary(Out, *Bv, *Cv, BinOp(I->Imm));               \
        Why != OpStuck::None) [[unlikely]] {                                   \
      goWrong(opStuckReason(Why, BinOp(I->Imm), *Bv, *Cv), I->Loc);            \
      TRET();                                                                  \
    }                                                                          \
    StoreValue(*I, Out);                                                       \
    ++Pc;                                                                      \
  }

#define BODY_LOADGLOBAL()                                                      \
  {                                                                            \
    const Value *V = GlobalEnv.lookup(Cur->Syms[I->Imm]);                      \
    if (!V) {                                                                  \
      wrongUnknownGlobal(Cur->Syms[I->Imm], I->Loc);                           \
      TRET();                                                                  \
    }                                                                          \
    StoreValue(*I, *V);                                                        \
    ++Pc;                                                                      \
  }

#define BODY_SETGLOBAL()                                                       \
  {                                                                            \
    const Value *Bv = ReadOperand(I->B, *I, 1);                                \
    if (!Bv)                                                                   \
      TRET();                                                                  \
    GlobalEnv.bind(Cur->Syms[I->Imm], *Bv);                                    \
    ++Pc;                                                                      \
  }

#define BODY_STAGEOUT()                                                        \
  {                                                                            \
    const Value *Bv = ReadOperand(I->B, *I, 1);                                \
    if (!Bv)                                                                   \
      TRET();                                                                  \
    StagingP[I->Imm] = *Bv;                                                    \
    ++Pc;                                                                      \
  }

// assign() would call the library's memmove for a handful of Values;
// clear+push_back stays inline, and only the first few commits pay the
// capacity growth.
#define BODY_COMMIT()                                                          \
  {                                                                            \
    /* Value is trivially copyable: assign is one bounds check + memmove. */   \
    A.assign(StagingP, StagingP + I->Imm);                                     \
    ++Pc;                                                                      \
  }

#define BODY_COPYIN()                                                          \
  {                                                                            \
    const std::span<const CopyDest> Plan = Cur->CopyPlans[I->Imm];             \
    if (A.size() < Plan.size()) {                                              \
      wrongTooFewValues(Plan.size(), A.size(), I->Loc);                        \
      TRET();                                                                  \
    }                                                                          \
    for (size_t J = 0; J < Plan.size(); ++J) {                                 \
      const CopyDest &D = Plan[J];                                             \
      if (D.Global) {                                                          \
        GlobalEnv.bind(D.Sym, A[J]);                                           \
      } else {                                                                 \
        RegsP[D.Slot] = A[J];                                                  \
        BoundP[D.Slot] = 1;                                                    \
      }                                                                        \
    }                                                                          \
    A.clear(); /* CopyIn replaces A by the empty list */                       \
    ++Pc;                                                                      \
  }

#define BODY_ENTRY()                                                           \
  {                                                                            \
    std::fill_n(BoundP, NumSlots, 0);                                          \
    Sigma.clear();                                                             \
    for (const auto &[Slot, Target] : Cur->EntryPlans[I->Imm]) {               \
      uint64_t Handle = newCont(Target);                                       \
      RegsP[Slot] = Value::cont(Handle);                                       \
      BoundP[Slot] = 1;                                                        \
    }                                                                          \
    ++Pc;                                                                      \
  }

#define BODY_GOTO() Pc = I->Imm;

#define BODY_BRANCHIF()                                                        \
  {                                                                            \
    const Value *Bv = ReadOperand(I->B, *I, 1);                                \
    if (!Bv)                                                                   \
      TRET();                                                                  \
    Pc = Bv->isTruthy() ? I->Imm : Pc + 1;                                     \
  }

#define BODY_BRANCHCMP()                                                       \
  {                                                                            \
    const Value *Bv = ReadOperand(I->B, *I, 1);                                \
    if (!Bv)                                                                   \
      TRET();                                                                  \
    const Value *Cv = ReadOperand(I->C, *I, 2);                                \
    if (!Cv)                                                                   \
      TRET();                                                                  \
    Value Out;                                                                 \
    if (OpStuck Why = applyBinary(Out, *Bv, *Cv, BinOp(I->A));                 \
        Why != OpStuck::None) [[unlikely]] {                                   \
      goWrong(opStuckReason(Why, BinOp(I->A), *Bv, *Cv), I->Loc);              \
      TRET();                                                                  \
    }                                                                          \
    Pc = Out.isTruthy() ? I->Imm : Pc + 1;                                     \
  }

#define BODY_EXIT()                                                            \
  {                                                                            \
    unsigned ContIndex = I->A, AltCount = I->B;                                \
    if (Stack.empty()) {                                                       \
      if (ContIndex == 0 && AltCount == 0) {                                   \
        St = MachineStatus::Halted; /* terminated normally */                  \
        if constexpr (Observed)                                                \
          Obs->onHalt(*this);                                                  \
      } else {                                                                 \
        wrongAbnormalReturnEmptyStack(I->Loc);                                 \
      }                                                                        \
      TRET();                                                                  \
    }                                                                          \
    VmFrame F = std::move(Stack.back());                                       \
    Stack.pop_back();                                                          \
    const ContBundle &Bundle = F.CallSite->Bundle;                             \
    if (Bundle.ReturnsTo.size() != size_t(AltCount) + 1) {                     \
      wrongReturnArity(ContIndex, AltCount, Bundle.ReturnsTo.size() - 1,       \
                       I->Loc);                                                \
      TRET();                                                                  \
    }                                                                          \
    if (ContIndex >= Bundle.ReturnsTo.size()) {                                \
      wrongReturnIndex(I->Loc);                                                \
      TRET();                                                                  \
    }                                                                          \
    const IrProc *Callee = CurProc;                                            \
    restoreFrame(F);                                                           \
    Pc = pcOf(*Cur, Bundle.ReturnsTo[ContIndex]);                              \
    RELOAD();                                                                  \
    ++S.Returns;                                                               \
    if constexpr (Observed)                                                    \
      Obs->onReturn(*this, F.CallSite, Callee, CurProc, ContIndex);            \
  }

#define BODY_CALL()                                                            \
  {                                                                            \
    const Value *CalleeV = ReadOperand(I->B, *I, 1);                           \
    if (!CalleeV)                                                              \
      TRET();                                                                  \
    const Value Callee = *CalleeV; /* pushFrame moves Regs out */              \
    const int64_t TargetIdx = decodeCodeIdx(Callee);                           \
    if (TargetIdx < 0) [[unlikely]] {                                          \
      wrongNotCode(/*IsJump=*/false, Callee, I->Loc);                          \
      TRET();                                                                  \
    }                                                                          \
    const IrProc *Target = Prog.Procs[TargetIdx].get();                        \
    const auto *CN = cast<CallNode>(I->N);                                     \
    const IrProc *Caller = CurProc;                                            \
    this->Pc = Pc; /* enterProcAt sets the member pc (or, on a bodiless       \
                      procedure, leaves it at this instruction) */             \
    pushFrame(CN);                                                             \
    enterProcAt(uint32_t(TargetIdx), Target, I->Loc);                          \
    Pc = this->Pc;                                                             \
    RELOAD();                                                                  \
    ++S.Calls;                                                                 \
    if constexpr (Observed)                                                    \
      Obs->onCall(*this, CN, Caller, Target);                                  \
    if (St != MachineStatus::Running)                                          \
      TRET(); /* bodiless procedure */                                         \
  }

#define BODY_JUMP()                                                            \
  {                                                                            \
    const Value *CalleeV = ReadOperand(I->B, *I, 1);                           \
    if (!CalleeV)                                                              \
      TRET();                                                                  \
    const Value Callee = *CalleeV; /* enterProcAt may grow Regs */             \
    const int64_t TargetIdx = decodeCodeIdx(Callee);                           \
    if (TargetIdx < 0) [[unlikely]] {                                          \
      wrongNotCode(/*IsJump=*/true, Callee, I->Loc);                           \
      TRET();                                                                  \
    }                                                                          \
    const IrProc *Target = Prog.Procs[TargetIdx].get();                        \
    const IrProc *Caller = CurProc;                                            \
    this->Pc = Pc;                                                             \
    enterProcAt(uint32_t(TargetIdx), Target, I->Loc);                          \
    Pc = this->Pc;                                                             \
    RELOAD();                                                                  \
    ++S.Jumps;                                                                 \
    if constexpr (Observed)                                                    \
      Obs->onJump(*this, cast<JumpNode>(I->N), Caller, Target);                \
    if (St != MachineStatus::Running)                                          \
      TRET(); /* bodiless procedure */                                         \
  }

#define BODY_CUTTO()                                                           \
  {                                                                            \
    const Value *ContV = ReadOperand(I->B, *I, 1);                             \
    if (!ContV)                                                                \
      TRET();                                                                  \
    const Value Cont = *ContV; /* doCutTo pops frames under the operand */     \
    this->Pc = Pc; /* doCutTo writes the member pc on success */               \
    doCutTo(Cont, cast<CutToNode>(I->N));                                      \
    Pc = this->Pc;                                                             \
    RELOAD();                                                                  \
    if (St != MachineStatus::Running)                                          \
      TRET();                                                                  \
  }

template <bool Observed> void VmMachine::dispatch(uint64_t &Budget) {
  if (St != MachineStatus::Running)
    return;
  // The state cache: the shadow pc and every hot data pointer live in
  // locals (see the file header for the sync discipline). Staging is sized
  // once at construction and never reallocated, so its pointer needs no
  // refresh.
  uint32_t Pc = this->Pc;
  uint64_t Fuel = Budget;
  [[maybe_unused]] uint64_t StepsTaken = 0; // flushed into S.Steps at TRET
  const VmInstr *Code = nullptr;
  const uint8_t *Keys = nullptr;
  const Value *ConstsP = nullptr;
  Value *RegsP = nullptr;
  uint8_t *BoundP = nullptr;
  uint32_t NumSlots = 0;
  Value *StagingP = Staging.data();
  RELOAD();
  const VmInstr *I = nullptr;

  // Reads a fused operand: a constant-pool value, an always-defined
  // expression temporary, or a frame slot (bound-checked — the compiler
  // fuses slots only where the walker's check would run at this point).
  // Null after going wrong. The pointer is invalidated by frame pushes and
  // pops; transfer ops copy the Value out first. rvUnbound keys
  // RvSlotLocs off the member Pc, so the shadow is synced before the call —
  // the member then holds the executing instruction's own pc, including for
  // the second component of a fused pair.
  auto ReadOperand = [&](uint16_t Enc, const VmInstr &In,
                         unsigned Field) -> const Value * {
    if (Enc & OperandConst)
      return &ConstsP[Enc & OperandIndexMask];
    if (Enc < NumSlots && !BoundP[Enc]) [[unlikely]] {
      this->Pc = Pc;
      return rvUnbound(Enc, In, Field);
    }
    return &RegsP[Enc];
  };
  // Result routing for value producers: a register (binding the slot when
  // the instruction is an Assign's retargeted tail) or a staging cell.
  auto StoreValue = [&](const VmInstr &In, const Value &V) {
    if (In.Flags & FlagStagesOut) {
      StagingP[In.A] = V;
      return;
    }
    RegsP[In.A] = V;
    if (In.Flags & FlagSetsBound)
      BoundP[In.A] = 1;
  };

  // Label-address dispatch: the key stream indexes this table and every
  // handler ends with its own indirect jump, so the branch predictor sees
  // one branch site per (predecessor op, successor op) pair instead of a
  // single shared dispatch branch.
  static const void *const Labels[] = {
      &&H_LoadConst,   &&H_LoadLocal,      &&H_LoadGlobal,
      &&H_LoadNameDyn, &&H_Unary,          &&H_Binary,
      &&H_Prim,        &&H_MemLoad,        &&H_Wrong,
      &&H_SetGlobal,   &&H_MemStore,       &&H_StageOut,
      &&H_Commit,      &&H_CopyIn,         &&H_CalleeSaves,
      &&H_EntryOp,     &&H_Goto,           &&H_BranchIf,
      &&H_BranchCmp,   &&H_ExitOp,         &&H_CallOp,
      &&H_JumpOp,      &&H_CutToOp,        &&H_YieldOp,
      &&H_BinaryBinary,    &&H_BinaryGoto,      &&H_BinaryBranchIf,
      &&H_BinaryBranchCmp, &&H_UnaryBranchIf,   &&H_LoadGlobalBinary,
      &&H_SetGlobalGoto,   &&H_StageStage,      &&H_StageCommit,
      &&H_CommitCall,      &&H_CommitExit,      &&H_CommitJump,
      &&H_CommitCut,       &&H_EntryCopyIn,     &&H_CopyInGoto,
  };
  static_assert(std::size(Labels) == size_t(TOp::NumTOps),
                "one label per dispatch key, in TOp order");
#define OPCASE(name) H_##name:
#define DISPATCH()                                                             \
  do {                                                                         \
    I = &Code[Pc];                                                             \
    goto *Labels[Keys[Pc]];                                                    \
  } while (0)
  DISPATCH();

  OPCASE(LoadConst) {
    NODE_PROLOGUE(*I);
    StoreValue(*I, ConstsP[I->Imm]);
    ++Pc;
    DISPATCH();
  }
  OPCASE(LoadLocal) {
    NODE_PROLOGUE(*I);
    if (!BoundP[I->B]) {
      wrongUnbound(Cur->SlotSyms[I->B], I->Loc);
      TRET();
    }
    StoreValue(*I, RegsP[I->B]);
    ++Pc;
    DISPATCH();
  }
  OPCASE(LoadGlobal) {
    NODE_PROLOGUE(*I);
    BODY_LOADGLOBAL();
    DISPATCH();
  }
  OPCASE(LoadNameDyn) {
    NODE_PROLOGUE(*I);
    {
      const Value *V = GlobalEnv.lookup(Cur->Syms[I->Imm]);
      if (!V) {
        wrongUnresolvedName(Cur->Syms[I->Imm], I->Loc);
        TRET();
      }
      StoreValue(*I, *V);
      ++Pc;
    }
    DISPATCH();
  }
  OPCASE(Unary) {
    NODE_PROLOGUE(*I);
    BODY_UNARY();
    DISPATCH();
  }
  OPCASE(Binary) {
    NODE_PROLOGUE(*I);
    BODY_BINARY();
    DISPATCH();
  }
  OPCASE(Prim) {
    NODE_PROLOGUE(*I);
    {
      unsigned Count = I->Imm >> 16;
      Value Args[2];
      if (Count > 0) {
        const Value *P = ReadOperand(I->B, *I, 1);
        if (!P)
          TRET();
        Args[0] = *P;
      }
      if (Count > 1) {
        const Value *P = ReadOperand(I->C, *I, 2);
        if (!P)
          TRET();
        Args[1] = *P;
      }
      Value Out;
      const PrimKind K = PrimKind(I->Imm & 0xffff);
      if (OpStuck Why = applyPrim(Out, K, Args, Count); Why != OpStuck::None) {
        goWrong(opStuckReason(Why, K, Args), I->Loc);
        TRET();
      }
      StoreValue(*I, Out);
      ++Pc;
    }
    DISPATCH();
  }
  OPCASE(MemLoad) {
    NODE_PROLOGUE(*I);
    {
      const Value *Bv = ReadOperand(I->B, *I, 1);
      if (!Bv)
        TRET();
      ++S.Loads; // after the address check, like the walker
      unsigned W = I->Imm >> 1;
      uint64_t Addr = Bv->Raw;
      StoreValue(*I, (I->Imm & 1)
                         ? Value::flt(W, Mem.loadFloat(Addr, W / 8))
                         : Value::bits(W, Mem.loadBits(Addr, W / 8)));
      ++Pc;
    }
    DISPATCH();
  }
  OPCASE(Wrong) {
    NODE_PROLOGUE(*I);
    goWrong(Cur->Msgs[I->Imm], I->Loc);
    TRET();
  }
  OPCASE(SetGlobal) {
    NODE_PROLOGUE(*I);
    BODY_SETGLOBAL();
    DISPATCH();
  }
  OPCASE(MemStore) {
    NODE_PROLOGUE(*I);
    {
      const Value *AddrV = ReadOperand(I->A, *I, 0);
      if (!AddrV)
        TRET();
      const Value *Bv = ReadOperand(I->B, *I, 1);
      if (!Bv)
        TRET();
      ++S.Stores; // after both operand checks, like the walker
      unsigned W = I->Imm >> 1;
      uint64_t Addr = AddrV->Raw;
      if (I->Imm & 1)
        Mem.storeFloat(Addr, W / 8, Bv->F);
      else
        Mem.storeBits(Addr, W / 8, Bv->Raw);
      ++Pc;
    }
    DISPATCH();
  }
  OPCASE(StageOut) {
    NODE_PROLOGUE(*I);
    BODY_STAGEOUT();
    DISPATCH();
  }
  OPCASE(Commit) {
    NODE_PROLOGUE(*I);
    BODY_COMMIT();
    DISPATCH();
  }
  OPCASE(CopyIn) {
    NODE_PROLOGUE(*I);
    BODY_COPYIN();
    DISPATCH();
  }
  OPCASE(CalleeSaves) {
    NODE_PROLOGUE(*I);
    {
      const std::span<const uint16_t> Saved = Cur->SavePlans[I->Imm];
      for (uint16_t V : Saved)
        if (std::find(Sigma.begin(), Sigma.end(), V) == Sigma.end())
          ++S.CalleeSaveMoves;
      for (uint16_t V : Sigma)
        if (std::find(Saved.begin(), Saved.end(), V) == Saved.end())
          ++S.CalleeSaveMoves;
      Sigma.assign(Saved.begin(), Saved.end());
      ++Pc;
    }
    DISPATCH();
  }
  OPCASE(EntryOp) {
    NODE_PROLOGUE(*I);
    BODY_ENTRY();
    DISPATCH();
  }
  OPCASE(Goto) {
    NODE_PROLOGUE(*I);
    BODY_GOTO();
    DISPATCH();
  }
  OPCASE(BranchIf) {
    NODE_PROLOGUE(*I);
    BODY_BRANCHIF();
    DISPATCH();
  }
  OPCASE(BranchCmp) {
    NODE_PROLOGUE(*I);
    BODY_BRANCHCMP();
    DISPATCH();
  }
  OPCASE(ExitOp) {
    NODE_PROLOGUE(*I);
    BODY_EXIT();
    DISPATCH();
  }
  OPCASE(CallOp) {
    NODE_PROLOGUE(*I);
    BODY_CALL();
    DISPATCH();
  }
  OPCASE(JumpOp) {
    NODE_PROLOGUE(*I);
    BODY_JUMP();
    DISPATCH();
  }
  OPCASE(CutToOp) {
    NODE_PROLOGUE(*I);
    BODY_CUTTO();
    DISPATCH();
  }
  OPCASE(YieldOp) {
    YIELD_PROLOGUE(*I);
    ++S.Yields;
    St = MachineStatus::Suspended;
    if constexpr (Observed)
      Obs->onYield(*this);
    TRET();
  }

  // Superinstructions: component 1's handler body, then component 2's
  // node-boundary prologue and body inline. A budget-exhausted prologue
  // returns with Pc at the second component, whose standalone key resumes
  // it — the split is invisible, exactly like an unfused run's.

  OPCASE(BinaryBinary) {
    NODE_PROLOGUE(*I);
    BODY_BINARY();
    I = &Code[Pc];
    NODE_PROLOGUE(*I);
    BODY_BINARY();
    DISPATCH();
  }
  OPCASE(BinaryGoto) {
    NODE_PROLOGUE(*I);
    BODY_BINARY();
    I = &Code[Pc];
    NODE_PROLOGUE(*I);
    BODY_GOTO();
    DISPATCH();
  }
  OPCASE(BinaryBranchIf) {
    NODE_PROLOGUE(*I);
    BODY_BINARY();
    I = &Code[Pc];
    NODE_PROLOGUE(*I);
    BODY_BRANCHIF();
    DISPATCH();
  }
  OPCASE(BinaryBranchCmp) {
    NODE_PROLOGUE(*I);
    BODY_BINARY();
    I = &Code[Pc];
    NODE_PROLOGUE(*I);
    BODY_BRANCHCMP();
    DISPATCH();
  }
  OPCASE(UnaryBranchIf) {
    NODE_PROLOGUE(*I);
    BODY_UNARY();
    I = &Code[Pc];
    NODE_PROLOGUE(*I);
    BODY_BRANCHIF();
    DISPATCH();
  }
  OPCASE(LoadGlobalBinary) {
    NODE_PROLOGUE(*I);
    BODY_LOADGLOBAL();
    I = &Code[Pc];
    NODE_PROLOGUE(*I);
    BODY_BINARY();
    DISPATCH();
  }
  OPCASE(SetGlobalGoto) {
    NODE_PROLOGUE(*I);
    BODY_SETGLOBAL();
    I = &Code[Pc];
    NODE_PROLOGUE(*I);
    BODY_GOTO();
    DISPATCH();
  }
  OPCASE(StageStage) {
    NODE_PROLOGUE(*I);
    BODY_STAGEOUT();
    I = &Code[Pc];
    NODE_PROLOGUE(*I);
    BODY_STAGEOUT();
    DISPATCH();
  }
  OPCASE(StageCommit) {
    NODE_PROLOGUE(*I);
    BODY_STAGEOUT();
    I = &Code[Pc];
    NODE_PROLOGUE(*I);
    BODY_COMMIT();
    DISPATCH();
  }
  OPCASE(CommitCall) {
    NODE_PROLOGUE(*I);
    BODY_COMMIT();
    I = &Code[Pc];
    NODE_PROLOGUE(*I);
    BODY_CALL();
    DISPATCH();
  }
  OPCASE(CommitExit) {
    NODE_PROLOGUE(*I);
    BODY_COMMIT();
    I = &Code[Pc];
    NODE_PROLOGUE(*I);
    BODY_EXIT();
    DISPATCH();
  }
  OPCASE(CommitJump) {
    NODE_PROLOGUE(*I);
    BODY_COMMIT();
    I = &Code[Pc];
    NODE_PROLOGUE(*I);
    BODY_JUMP();
    DISPATCH();
  }
  OPCASE(CommitCut) {
    NODE_PROLOGUE(*I);
    BODY_COMMIT();
    I = &Code[Pc];
    NODE_PROLOGUE(*I);
    BODY_CUTTO();
    DISPATCH();
  }
  OPCASE(EntryCopyIn) {
    NODE_PROLOGUE(*I);
    BODY_ENTRY();
    I = &Code[Pc];
    NODE_PROLOGUE(*I);
    BODY_COPYIN();
    DISPATCH();
  }
  OPCASE(CopyInGoto) {
    NODE_PROLOGUE(*I);
    BODY_COPYIN();
    I = &Code[Pc];
    NODE_PROLOGUE(*I);
    BODY_GOTO();
    DISPATCH();
  }
}

template void VmMachine::dispatch<true>(uint64_t &);
template void VmMachine::dispatch<false>(uint64_t &);

MachineStatus VmMachine::run(uint64_t MaxSteps) {
  uint64_t Budget = MaxSteps;
  if (Obs)
    dispatch<true>(Budget);
  else
    dispatch<false>(Budget);
  return St;
}

bool VmMachine::step() {
  if (St != MachineStatus::Running)
    return false;
  uint64_t Budget = 1;
  if (Obs)
    dispatch<true>(Budget);
  else
    dispatch<false>(Budget);
  return St == MachineStatus::Running;
}
