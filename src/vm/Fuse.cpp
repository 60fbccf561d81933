//===- vm/Fuse.cpp - Superinstruction fusion pass -------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "vm/Fuse.h"

#include "support/Assert.h"

using namespace cmm;

//===----------------------------------------------------------------------===//
// The supported pair set
//===----------------------------------------------------------------------===//

const std::vector<FusionPair> &cmm::fusionPairs() {
  // Every First here falls through unconditionally (no transfers, no
  // Wrong), so executing the pair as one handler is a straight line. The
  // set covers the sequences the bench corpus spends its dispatches on:
  // assign/branch loop latches, CopyOut staging runs, commit-then-transfer
  // call sequences, and the Entry/CopyIn procedure prologue.
  static const std::vector<FusionPair> Pairs = {
      {Op::Binary, Op::Binary, TOp::BinaryBinary},
      {Op::Binary, Op::Goto, TOp::BinaryGoto},
      {Op::Binary, Op::BranchIf, TOp::BinaryBranchIf},
      {Op::Binary, Op::BranchCmp, TOp::BinaryBranchCmp},
      {Op::Unary, Op::BranchIf, TOp::UnaryBranchIf},
      {Op::LoadGlobal, Op::Binary, TOp::LoadGlobalBinary},
      {Op::SetGlobal, Op::Goto, TOp::SetGlobalGoto},
      {Op::StageOut, Op::StageOut, TOp::StageStage},
      {Op::StageOut, Op::Commit, TOp::StageCommit},
      {Op::Commit, Op::CallOp, TOp::CommitCall},
      {Op::Commit, Op::ExitOp, TOp::CommitExit},
      {Op::Commit, Op::JumpOp, TOp::CommitJump},
      {Op::Commit, Op::CutToOp, TOp::CommitCut},
      {Op::EntryOp, Op::CopyIn, TOp::EntryCopyIn},
      {Op::CopyIn, Op::Goto, TOp::CopyInGoto},
  };
  return Pairs;
}

const char *cmm::superOpName(TOp K) {
  switch (K) {
  case TOp::BinaryBinary: return "bin+bin";
  case TOp::BinaryGoto: return "bin+goto";
  case TOp::BinaryBranchIf: return "bin+brt";
  case TOp::BinaryBranchCmp: return "bin+brc";
  case TOp::UnaryBranchIf: return "un+brt";
  case TOp::LoadGlobalBinary: return "ldg+bin";
  case TOp::SetGlobalGoto: return "stg+goto";
  case TOp::StageStage: return "stage+stage";
  case TOp::StageCommit: return "stage+commit";
  case TOp::CommitCall: return "commit+call";
  case TOp::CommitExit: return "commit+exit";
  case TOp::CommitJump: return "commit+jump";
  case TOp::CommitCut: return "commit+cut";
  case TOp::EntryCopyIn: return "entry+copyin";
  case TOp::CopyInGoto: return "copyin+goto";
  default:
    break;
  }
  switch (Op(K)) {
  case Op::LoadConst: return "ldc";
  case Op::LoadLocal: return "ldl";
  case Op::LoadGlobal: return "ldg";
  case Op::LoadNameDyn: return "ldn";
  case Op::Unary: return "un";
  case Op::Binary: return "bin";
  case Op::Prim: return "prim";
  case Op::MemLoad: return "load";
  case Op::Wrong: return "wrong";
  case Op::SetGlobal: return "stg";
  case Op::MemStore: return "store";
  case Op::StageOut: return "stage";
  case Op::Commit: return "commit";
  case Op::CopyIn: return "copyin";
  case Op::CalleeSaves: return "saves";
  case Op::EntryOp: return "entry";
  case Op::Goto: return "goto";
  case Op::BranchIf: return "brt";
  case Op::BranchCmp: return "brc";
  case Op::ExitOp: return "exit";
  case Op::CallOp: return "call";
  case Op::JumpOp: return "jump";
  case Op::CutToOp: return "cut";
  case Op::YieldOp: return "yield";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// The pass
//===----------------------------------------------------------------------===//

namespace {

/// True when \p K always falls through to pc+1 on success — the condition
/// for being the first half of a pair. (Transfers, branches, Wrong, and
/// Yield never appear as a First in fusionPairs(), so this is a
/// belt-and-braces check against future table entries.)
bool fallsThrough(Op K) {
  switch (K) {
  case Op::Goto:
  case Op::BranchIf:
  case Op::BranchCmp:
  case Op::ExitOp:
  case Op::CallOp:
  case Op::JumpOp:
  case Op::CutToOp:
  case Op::YieldOp:
  case Op::Wrong:
    return false;
  default:
    return true;
  }
}

/// The superinstruction for (First, Second), or TOp::NumTOps when no
/// supported pair applies.
TOp fusedKey(Op First, Op Second) {
  static const auto Map = [] {
    std::array<uint8_t, NumBaseOps * NumBaseOps> M;
    M.fill(uint8_t(TOp::NumTOps));
    for (const FusionPair &P : fusionPairs())
      M[unsigned(P.First) * NumBaseOps + unsigned(P.Second)] = uint8_t(P.Fused);
    return M;
  }();
  return TOp(Map[unsigned(First) * NumBaseOps + unsigned(Second)]);
}

} // namespace

std::shared_ptr<const ThreadedProgram>
cmm::fuseProgram(std::shared_ptr<const CompiledProgram> Bytecode) {
  assert(Bytecode && "fuseProgram needs bytecode");
  auto TP = std::make_shared<ThreadedProgram>();
  TP->Bytecode = std::move(Bytecode);
  TP->Procs.resize(TP->Bytecode->Procs.size());
  for (size_t PI = 0; PI < TP->Bytecode->Procs.size(); ++PI) {
    const CompiledProc &C = TP->Bytecode->Procs[PI];
    ThreadedProc &T = TP->Procs[PI];
    T.Keys = C.Keys;
    // Greedy pairing. Overlap is harmless by construction: a fused key at
    // pc executes Code[pc] and Code[pc+1] then dispatches at pc+2, and the
    // key at pc+1 — itself possibly fused — only runs when control reaches
    // pc+1 directly (a branch target, or a budget-suspended resume at its
    // node boundary).
    for (size_t Pc = 0; Pc + 1 < C.Code.size(); ++Pc) {
      if (!fallsThrough(C.Code[Pc].K))
        continue;
      TOp F = fusedKey(C.Code[Pc].K, C.Code[Pc + 1].K);
      if (F == TOp::NumTOps) {
        ++TP->Fusion.MissedSites;
        continue;
      }
      T.Keys[Pc] = uint8_t(F);
      ++TP->Fusion.FusedSites;
      ++TP->Fusion.SitesByOp[size_t(F)];
    }
  }
  return TP;
}

//===----------------------------------------------------------------------===//
// Disassembly
//===----------------------------------------------------------------------===//

std::string cmm::disassembleThreaded(const ThreadedProgram &TP,
                                     uint32_t ProcIdx, const Interner &Names) {
  const CompiledProc &C = TP.Bytecode->Procs[ProcIdx];
  const ThreadedProc &T = TP.Procs[ProcIdx];
  std::string S;
  S += "proc " + std::string(Names.spelling(C.Proc->Name)) + " (" +
       std::to_string(C.NumSlots) + " slots, " + std::to_string(C.NumRegs) +
       " regs, threaded)\n";
  if (!C.HasBody) {
    S += "  <no body>\n";
    return S;
  }
  auto Rv = [](uint16_t Enc) {
    return (Enc & OperandConst)
               ? "k" + std::to_string(Enc & OperandIndexMask)
               : "r" + std::to_string(Enc);
  };
  for (size_t I = 0; I < C.Code.size(); ++I) {
    const VmInstr &Ins = C.Code[I];
    TOp K = TOp(T.Keys[I]);
    S += (Ins.Flags & FlagStartsNode) ? "* " : "  ";
    S += std::to_string(I) + ":\t" + superOpName(K) + "\ta=" +
         std::to_string(Ins.A) + " b=" + Rv(Ins.B) + " c=" + Rv(Ins.C) +
         " imm=" + std::to_string(Ins.Imm);
    if (Ins.Flags & FlagSetsBound)
      S += " [bind]";
    if (Ins.Flags & FlagStagesOut)
      S += " [stage]";
    if (unsigned(K) >= NumBaseOps)
      S += " [fused with " + std::to_string(I + 1) + "]";
    S += "\n";
  }
  return S;
}
