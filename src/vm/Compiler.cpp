//===- vm/Compiler.cpp - IR-to-bytecode compiler --------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
// Lowers each procedure graph to the register bytecode of vm/Bytecode.h.
// Expression trees compile left-to-right into temporaries, so every
// observable effect (goes-wrong checks, load counting) happens in exactly
// the order the tree walker performs it. Anything the walker resolves to a
// constant per evaluation — literals, data labels, procedure code values,
// string addresses — is resolved here once; failures the walker reports
// only when an expression is reached become Wrong instructions in place,
// so dead wrong code stays dead.
//
//===----------------------------------------------------------------------===//

#include "vm/Bytecode.h"

#include "support/Assert.h"
#include "support/Casting.h"
#include "syntax/PrimOps.h"

#include <unordered_set>

using namespace cmm;

namespace {

class ProcCompiler {
public:
  ProcCompiler(const IrProgram &Prog, const IrProc &P, CompiledProc &Out,
               uint32_t &MaxOut)
      : Prog(Prog), P(P), Out(Out), MaxOut(MaxOut) {}

  void compile();

private:
  //===-- Slot assignment -------------------------------------------------===//
  void assignSlots();
  void collectExprSyms(const Expr *E);
  void addSlot(Symbol S) {
    if (SlotOf.count(S))
      return;
    uint16_t Idx = static_cast<uint16_t>(Out.SlotSyms.size());
    SlotOf.emplace(S, Idx);
    Out.SlotSyms.push_back(S);
  }
  /// True when the walker's bindVar would route \p S to the local
  /// environment rather than a global register.
  bool isLocalBind(Symbol S) const {
    return P.VarTypes.count(S) || !Prog.Globals.count(S);
  }

  //===-- Emission helpers ------------------------------------------------===//
  uint16_t newTemp() {
    uint16_t R = NextTemp++;
    if (NextTemp > MaxRegs)
      MaxRegs = NextTemp;
    return R;
  }
  void resetTemps() { NextTemp = static_cast<uint16_t>(Out.SlotSyms.size()); }

  VmInstr &emit(Op K, SourceLoc Loc) {
    VmInstr I;
    I.K = K;
    I.Loc = Loc;
    Out.Code.push_back(I);
    return Out.Code.back();
  }
  uint32_t constIdx(const Value &V) {
    Out.Consts.push_back(V);
    return static_cast<uint32_t>(Out.Consts.size() - 1);
  }
  uint32_t msgIdx(std::string M) {
    Out.Msgs.push_back(std::move(M));
    return static_cast<uint32_t>(Out.Msgs.size() - 1);
  }
  uint32_t symIdx(Symbol S) {
    Out.Syms.push_back(S);
    return static_cast<uint32_t>(Out.Syms.size() - 1);
  }
  static uint32_t tyEnc(Type T) {
    return (uint32_t(T.Width) << 1) | (T.isFloat() ? 1 : 0);
  }

  //===-- Expressions ------------------------------------------------------===//
  uint16_t compileExpr(const Expr *E);
  /// The fused-operand encoding of \p E when it is a leaf the consuming
  /// instruction can read directly: a constant (literal, sizeof, resolved
  /// data/procedure/string address) or, when \p AllowSlot, a frame slot.
  /// Slot operands are bound-checked by the consumer, so a slot may only be
  /// fused when nothing the walker evaluates after it can go wrong first —
  /// callers pass AllowSlot = false for a left operand whose right-hand
  /// side is not itself a leaf.
  std::optional<uint16_t> leafOperand(const Expr *E, bool AllowSlot = true);
  std::optional<uint16_t> constOperand(const Value &V) {
    uint32_t Idx = constIdx(V);
    if (Idx > OperandIndexMask) // pool too large to encode; use LoadConst
      return std::nullopt;
    return static_cast<uint16_t>(OperandConst | Idx);
  }
  /// Compiles a left/right operand pair in walker evaluation order, fusing
  /// each side when that preserves the order of goes-wrong checks.
  void compileOperandPair(const Expr *L, const Expr *R, uint16_t &LEnc,
                          uint16_t &REnc);
  /// Records the source location of a fused named-slot operand just placed
  /// in field \p Field (0 = A, 1 = B, 2 = C) of the most recently emitted
  /// instruction, so a failed bound check reports the variable reference
  /// itself (CompiledProc::RvSlotLocs). No-op for constants and temps.
  void noteRvLoc(unsigned Field, uint16_t Enc, const Expr *E) {
    if ((Enc & OperandConst) || Enc >= Out.SlotSyms.size())
      return;
    Out.RvSlotLocs.emplace((uint64_t(Out.Code.size()) - 1) * 4 + Field,
                           E->loc());
  }
  uint16_t emitWrong(std::string Msg, SourceLoc Loc) {
    uint16_t R = newTemp();
    VmInstr &I = emit(Op::Wrong, Loc);
    I.A = R;
    I.Imm = msgIdx(std::move(Msg));
    return R;
  }
  /// Compile-time constant resolution, mirroring Executor::evalConstExpr.
  std::optional<Value> resolveConst(const Expr *E) const;
  Value codeValueOf(const IrProc *Target) const;

  //===-- Nodes ------------------------------------------------------------===//
  void layout();
  void placeChain(const Node *N);
  static const Node *fallthroughOf(const Node *N);
  void emitNode(const Node *N, const Node *LaidOutNext);
  void branchTo(Op K, uint16_t CondReg, const Node *Target, SourceLoc Loc);

  const IrProgram &Prog;
  const IrProc &P;
  CompiledProc &Out;
  uint32_t &MaxOut;

  std::unordered_map<Symbol, uint16_t> SlotOf;
  uint16_t NextTemp = 0, MaxRegs = 0;
  std::vector<const Node *> Order;
  std::vector<std::pair<uint32_t, uint32_t>> Fixups; ///< (instr, node id)
};

//===----------------------------------------------------------------------===//
// Slot assignment
//===----------------------------------------------------------------------===//

void ProcCompiler::collectExprSyms(const Expr *E) {
  switch (E->kind()) {
  case Expr::Kind::Name: {
    const auto *N = cast<NameExpr>(E);
    if (N->Ref == RefKind::Local || N->Ref == RefKind::Continuation)
      addSlot(N->Name);
    return;
  }
  case Expr::Kind::Load:
    collectExprSyms(cast<LoadExpr>(E)->Addr);
    return;
  case Expr::Kind::Unary:
    collectExprSyms(cast<UnaryExpr>(E)->Operand);
    return;
  case Expr::Kind::Binary:
    collectExprSyms(cast<BinaryExpr>(E)->Lhs);
    collectExprSyms(cast<BinaryExpr>(E)->Rhs);
    return;
  case Expr::Kind::Prim:
    for (const Expr *A : cast<PrimExpr>(E)->Args)
      collectExprSyms(A);
    return;
  default:
    return;
  }
}

void ProcCompiler::assignSlots() {
  // Declared locals and parameters first, then anything else a node binds
  // or reads locally (the walker's ρ accepts any symbol).
  for (const auto &N : P.Nodes) {
    switch (N->kind()) {
    case Node::Kind::Entry:
      for (const auto &[Name, Target] : cast<EntryNode>(N.get())->Conts)
        addSlot(Name);
      break;
    case Node::Kind::CopyIn:
      for (Symbol V : cast<CopyInNode>(N.get())->Vars)
        if (isLocalBind(V))
          addSlot(V);
      break;
    case Node::Kind::CopyOut:
      for (const Expr *E : cast<CopyOutNode>(N.get())->Exprs)
        collectExprSyms(E);
      break;
    case Node::Kind::CalleeSaves:
      for (Symbol V : cast<CalleeSavesNode>(N.get())->Saved)
        addSlot(V);
      break;
    case Node::Kind::Assign: {
      const auto *A = cast<AssignNode>(N.get());
      if (!A->IsGlobal)
        addSlot(A->Var);
      collectExprSyms(A->Value);
      break;
    }
    case Node::Kind::Store:
      collectExprSyms(cast<StoreNode>(N.get())->Addr);
      collectExprSyms(cast<StoreNode>(N.get())->Value);
      break;
    case Node::Kind::Branch:
      collectExprSyms(cast<BranchNode>(N.get())->Cond);
      break;
    case Node::Kind::Call:
      collectExprSyms(cast<CallNode>(N.get())->Callee);
      break;
    case Node::Kind::Jump:
      collectExprSyms(cast<JumpNode>(N.get())->Callee);
      break;
    case Node::Kind::CutTo:
      collectExprSyms(cast<CutToNode>(N.get())->Cont);
      break;
    default:
      break;
    }
  }
  Out.NumSlots = static_cast<uint16_t>(Out.SlotSyms.size());
  MaxRegs = Out.NumSlots;
}

//===----------------------------------------------------------------------===//
// Constant resolution
//===----------------------------------------------------------------------===//

Value ProcCompiler::codeValueOf(const IrProc *Target) const {
  for (size_t I = 0; I < Prog.Procs.size(); ++I)
    if (Prog.Procs[I].get() == Target)
      return Value::code(I);
  cmm_unreachable("procedure not in this program");
}

std::optional<Value> ProcCompiler::resolveConst(const Expr *E) const {
  switch (E->kind()) {
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
      if (const IrProc *Target = Prog.findProc(N->Name))
        return codeValueOf(Target);
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

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

std::optional<uint16_t> ProcCompiler::leafOperand(const Expr *E,
                                                  bool AllowSlot) {
  switch (E->kind()) {
  case Expr::Kind::IntLit:
    return constOperand(Value::bits(E->Ty.Width, cast<IntLitExpr>(E)->Value));
  case Expr::Kind::FloatLit:
    return constOperand(Value::flt(E->Ty.Width, cast<FloatLitExpr>(E)->Value));
  case Expr::Kind::Sizeof:
    return constOperand(Value::bits(32, cast<SizeofExpr>(E)->SizeInBytes));
  case Expr::Kind::StrLit:
    if (std::optional<Value> V = resolveConst(E))
      return constOperand(*V);
    return std::nullopt;
  case Expr::Kind::Name: {
    const auto *N = cast<NameExpr>(E);
    if (N->Ref == RefKind::Local || N->Ref == RefKind::Continuation) {
      if (!AllowSlot)
        return std::nullopt;
      return SlotOf.at(N->Name);
    }
    if (N->Ref == RefKind::Proc || N->Ref == RefKind::DataLabel ||
        N->Ref == RefKind::Import)
      if (std::optional<Value> V = resolveConst(E))
        return constOperand(*V);
    return std::nullopt;
  }
  default:
    return std::nullopt;
  }
}

void ProcCompiler::compileOperandPair(const Expr *L, const Expr *R,
                                      uint16_t &LEnc, uint16_t &REnc) {
  if (std::optional<uint16_t> RC = leafOperand(R)) {
    // The right side is a leaf: nothing can go wrong between the left
    // operand's check at the instruction and the right's, so a left slot
    // may be fused too.
    if (std::optional<uint16_t> LC = leafOperand(L))
      LEnc = *LC;
    else
      LEnc = compileExpr(L);
    REnc = *RC;
    return;
  }
  // The right side emits code that may go wrong; a fused left slot would
  // be checked after that code runs, inverting the walker's order. Only a
  // constant (checked nowhere) may still be fused on the left.
  if (std::optional<uint16_t> LC = leafOperand(L, /*AllowSlot=*/false))
    LEnc = *LC;
  else
    LEnc = compileExpr(L);
  REnc = compileExpr(R);
}

uint16_t ProcCompiler::compileExpr(const Expr *E) {
  switch (E->kind()) {
  case Expr::Kind::IntLit: {
    uint16_t R = newTemp();
    VmInstr &I = emit(Op::LoadConst, E->loc());
    I.A = R;
    I.Imm = constIdx(Value::bits(E->Ty.Width, cast<IntLitExpr>(E)->Value));
    return R;
  }
  case Expr::Kind::FloatLit: {
    uint16_t R = newTemp();
    VmInstr &I = emit(Op::LoadConst, E->loc());
    I.A = R;
    I.Imm = constIdx(Value::flt(E->Ty.Width, cast<FloatLitExpr>(E)->Value));
    return R;
  }
  case Expr::Kind::Sizeof: {
    uint16_t R = newTemp();
    VmInstr &I = emit(Op::LoadConst, E->loc());
    I.A = R;
    I.Imm = constIdx(Value::bits(32, cast<SizeofExpr>(E)->SizeInBytes));
    return R;
  }
  case Expr::Kind::StrLit: {
    if (std::optional<Value> V = resolveConst(E)) {
      uint16_t R = newTemp();
      VmInstr &I = emit(Op::LoadConst, E->loc());
      I.A = R;
      I.Imm = constIdx(*V);
      return R;
    }
    return emitWrong("string literal without a data address", E->loc());
  }
  case Expr::Kind::Name: {
    const auto *N = cast<NameExpr>(E);
    switch (N->Ref) {
    case RefKind::Local:
    case RefKind::Continuation: {
      uint16_t R = newTemp();
      VmInstr &I = emit(Op::LoadLocal, E->loc());
      I.A = R;
      I.B = SlotOf.at(N->Name);
      return R;
    }
    case RefKind::Global: {
      uint16_t R = newTemp();
      VmInstr &I = emit(Op::LoadGlobal, E->loc());
      I.A = R;
      I.Imm = symIdx(N->Name);
      return R;
    }
    case RefKind::Proc:
    case RefKind::DataLabel:
    case RefKind::Import: {
      if (std::optional<Value> V = resolveConst(E)) {
        uint16_t R = newTemp();
        VmInstr &I = emit(Op::LoadConst, E->loc());
        I.A = R;
        I.Imm = constIdx(*V);
        return R;
      }
      // Imports may also name globals of another module: resolve through
      // the global environment at run time, like the walker does.
      uint16_t R = newTemp();
      VmInstr &I = emit(Op::LoadNameDyn, E->loc());
      I.A = R;
      I.Imm = symIdx(N->Name);
      return R;
    }
    case RefKind::Unresolved:
      break;
    }
    return emitWrong("internal: unresolved name reached the evaluator",
                     E->loc());
  }
  case Expr::Kind::Load: {
    const auto *L = cast<LoadExpr>(E);
    uint16_t Addr;
    if (std::optional<uint16_t> Enc = leafOperand(L->Addr))
      Addr = *Enc;
    else
      Addr = compileExpr(L->Addr);
    uint16_t R = newTemp();
    VmInstr &I = emit(Op::MemLoad, E->loc());
    I.A = R;
    I.B = Addr;
    I.Imm = tyEnc(L->AccessTy);
    noteRvLoc(1, Addr, L->Addr);
    return R;
  }
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    uint16_t Operand;
    if (std::optional<uint16_t> Enc = leafOperand(U->Operand))
      Operand = *Enc;
    else
      Operand = compileExpr(U->Operand);
    uint16_t R = newTemp();
    VmInstr &I = emit(Op::Unary, E->loc());
    I.A = R;
    I.B = Operand;
    I.Imm = static_cast<uint32_t>(U->Op);
    noteRvLoc(1, Operand, U->Operand);
    return R;
  }
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    uint16_t L, R2;
    compileOperandPair(B->Lhs, B->Rhs, L, R2);
    uint16_t R = newTemp();
    VmInstr &I = emit(Op::Binary, E->loc());
    I.A = R;
    I.B = L;
    I.C = R2;
    I.Imm = static_cast<uint32_t>(B->Op);
    noteRvLoc(1, L, B->Lhs);
    noteRvLoc(2, R2, B->Rhs);
    return R;
  }
  case Expr::Kind::Prim: {
    const auto *Pr = cast<PrimExpr>(E);
    std::optional<PrimKind> K = lookupPrim(Prog.Names->spelling(Pr->Name));
    if (!K) {
      // The walker rejects the primitive before evaluating its arguments.
      return emitWrong("unknown primitive", E->loc());
    }
    uint16_t Regs[2] = {0, 0};
    unsigned Count = static_cast<unsigned>(Pr->Args.size());
    if (Count == 1) {
      if (std::optional<uint16_t> Enc = leafOperand(Pr->Args[0]))
        Regs[0] = *Enc;
      else
        Regs[0] = compileExpr(Pr->Args[0]);
    } else if (Count == 2) {
      compileOperandPair(Pr->Args[0], Pr->Args[1], Regs[0],
                         Regs[1]);
    } else {
      // Rare arities take the unfused path (extra arguments are still
      // compiled: their goes-wrong checks run in order).
      unsigned Idx = 0;
      for (const Expr *A : Pr->Args) {
        uint16_t R = compileExpr(A);
        if (Idx < 2)
          Regs[Idx] = R;
        ++Idx;
      }
    }
    uint16_t R = newTemp();
    VmInstr &I = emit(Op::Prim, E->loc());
    I.A = R;
    I.B = Regs[0];
    I.C = Regs[1];
    I.Imm = static_cast<uint32_t>(*K) |
            (std::min(Count, 2u) << 16);
    if (Count > 0)
      noteRvLoc(1, Regs[0], Pr->Args[0]);
    if (Count > 1)
      noteRvLoc(2, Regs[1], Pr->Args[1]);
    return R;
  }
  }
  cmm_unreachable("unknown expression kind");
}

//===----------------------------------------------------------------------===//
// Layout and node emission
//===----------------------------------------------------------------------===//

const Node *ProcCompiler::fallthroughOf(const Node *N) {
  switch (N->kind()) {
  case Node::Kind::Entry:
    return cast<EntryNode>(N)->Next;
  case Node::Kind::CopyIn:
    return cast<CopyInNode>(N)->Next;
  case Node::Kind::CopyOut:
    return cast<CopyOutNode>(N)->Next;
  case Node::Kind::CalleeSaves:
    return cast<CalleeSavesNode>(N)->Next;
  case Node::Kind::Assign:
    return cast<AssignNode>(N)->Next;
  case Node::Kind::Store:
    return cast<StoreNode>(N)->Next;
  case Node::Kind::Branch:
    return cast<BranchNode>(N)->FalseDst;
  default:
    return nullptr;
  }
}

void ProcCompiler::placeChain(const Node *N) {
  while (N && Out.PcOfNode[N->Id] == ~0u) {
    Out.PcOfNode[N->Id] = 0; // placed marker; real pc assigned at emission
    Order.push_back(N);
    N = fallthroughOf(N);
  }
}

void ProcCompiler::layout() {
  Out.PcOfNode.assign(P.Nodes.size(), ~0u);
  placeChain(P.EntryPoint);
  // Chains started from secondary successors, in discovery order.
  for (size_t I = 0; I < Order.size(); ++I) {
    const Node *N = Order[I];
    switch (N->kind()) {
    case Node::Kind::Entry:
      for (const auto &[Name, Target] : cast<EntryNode>(N)->Conts)
        placeChain(Target);
      break;
    case Node::Kind::Branch:
      placeChain(cast<BranchNode>(N)->TrueDst);
      break;
    case Node::Kind::Call: {
      const ContBundle &B = cast<CallNode>(N)->Bundle;
      for (Node *T : B.ReturnsTo)
        placeChain(T);
      for (Node *T : B.UnwindsTo)
        placeChain(T);
      for (Node *T : B.CutsTo)
        placeChain(T);
      break;
    }
    case Node::Kind::CutTo:
      for (Node *T : cast<CutToNode>(N)->AlsoCutsTo)
        placeChain(T);
      break;
    default:
      break;
    }
  }
  // Stragglers (nodes reachable only through continuation values created
  // elsewhere, or plain dead code) still get code so every Node* can be
  // mapped to a pc.
  for (const auto &N : P.Nodes)
    placeChain(N.get());
}

void ProcCompiler::branchTo(Op K, uint16_t CondReg, const Node *Target,
                            SourceLoc Loc) {
  VmInstr &I = emit(K, Loc);
  I.B = CondReg;
  Fixups.emplace_back(static_cast<uint32_t>(Out.Code.size() - 1),
                      Target->Id);
}

void ProcCompiler::emitNode(const Node *N, const Node *LaidOutNext) {
  uint32_t StartPc = static_cast<uint32_t>(Out.Code.size());
  Out.PcOfNode[N->Id] = StartPc;
  resetTemps();

  switch (N->kind()) {
  case Node::Kind::Entry: {
    const auto *E = cast<EntryNode>(N);
    std::vector<std::pair<uint16_t, Node *>> Plan;
    Plan.reserve(E->Conts.size());
    for (const auto &[Name, Target] : E->Conts)
      Plan.emplace_back(SlotOf.at(Name), Target);
    Out.EntryPlans.push_back(std::move(Plan));
    VmInstr &I = emit(Op::EntryOp, N->Loc);
    I.Imm = static_cast<uint32_t>(Out.EntryPlans.size() - 1);
    break;
  }
  case Node::Kind::Exit: {
    const auto *E = cast<ExitNode>(N);
    VmInstr &I = emit(Op::ExitOp, N->Loc);
    I.A = static_cast<uint16_t>(E->ContIndex);
    I.B = static_cast<uint16_t>(E->AltCount);
    break;
  }
  case Node::Kind::CopyIn: {
    const auto *C = cast<CopyInNode>(N);
    std::vector<CopyDest> Plan;
    Plan.reserve(C->Vars.size());
    for (Symbol V : C->Vars) {
      CopyDest D;
      if (isLocalBind(V)) {
        D.Slot = SlotOf.at(V);
      } else {
        D.Global = true;
        D.Sym = V;
      }
      Plan.push_back(D);
    }
    Out.CopyPlans.push_back(std::move(Plan));
    VmInstr &I = emit(Op::CopyIn, N->Loc);
    I.Imm = static_cast<uint32_t>(Out.CopyPlans.size() - 1);
    break;
  }
  case Node::Kind::CopyOut: {
    const auto *C = cast<CopyOutNode>(N);
    if (C->Exprs.size() > MaxOut)
      MaxOut = static_cast<uint32_t>(C->Exprs.size());
    for (size_t I = 0; I < C->Exprs.size(); ++I) {
      if (std::optional<uint16_t> Enc = leafOperand(C->Exprs[I])) {
        VmInstr &S = emit(Op::StageOut, C->Exprs[I]->loc());
        S.B = *Enc;
        S.Imm = static_cast<uint32_t>(I);
        continue;
      }
      uint16_t R = compileExpr(C->Exprs[I]);
      VmInstr &Last = Out.Code.back();
      if (Last.K != Op::Wrong && Last.A == R) {
        // Stage straight out of the expression's final instruction; the
        // argument area is still only written at Commit.
        Last.Flags |= FlagStagesOut;
        Last.A = static_cast<uint16_t>(I);
      } else {
        VmInstr &S = emit(Op::StageOut, C->Exprs[I]->loc());
        S.B = R;
        S.Imm = static_cast<uint32_t>(I);
      }
      resetTemps(); // the staged value is safe; temps are dead
    }
    VmInstr &I = emit(Op::Commit, N->Loc);
    I.Imm = static_cast<uint32_t>(C->Exprs.size());
    break;
  }
  case Node::Kind::CalleeSaves: {
    const auto *C = cast<CalleeSavesNode>(N);
    std::vector<uint16_t> Plan;
    Plan.reserve(C->Saved.size());
    for (Symbol V : C->Saved)
      Plan.push_back(SlotOf.at(V));
    Out.SavePlans.push_back(std::move(Plan));
    VmInstr &I = emit(Op::CalleeSaves, N->Loc);
    I.Imm = static_cast<uint32_t>(Out.SavePlans.size() - 1);
    break;
  }
  case Node::Kind::Assign: {
    const auto *A = cast<AssignNode>(N);
    if (A->IsGlobal) {
      uint16_t R;
      if (std::optional<uint16_t> Enc = leafOperand(A->Value))
        R = *Enc;
      else
        R = compileExpr(A->Value);
      VmInstr &I = emit(Op::SetGlobal, N->Loc);
      I.B = R;
      I.Imm = symIdx(A->Var);
      noteRvLoc(1, R, A->Value);
      break;
    }
    (void)compileExpr(A->Value);
    VmInstr &Last = Out.Code.back();
    if (Last.K != Op::Wrong) {
      // Retarget the expression's final (value-producing) instruction at
      // the variable's slot; the walker binds only after the whole
      // expression evaluates, which FlagSetsBound preserves.
      Last.A = SlotOf.at(A->Var);
      Last.Flags |= FlagSetsBound;
    }
    break;
  }
  case Node::Kind::Store: {
    const auto *St = cast<StoreNode>(N);
    uint16_t Addr, V;
    compileOperandPair(St->Addr, St->Value, Addr, V);
    VmInstr &I = emit(Op::MemStore, N->Loc);
    I.A = Addr;
    I.B = V;
    I.Imm = tyEnc(St->AccessTy);
    noteRvLoc(0, Addr, St->Addr);
    noteRvLoc(1, V, St->Value);
    break;
  }
  case Node::Kind::Branch: {
    const auto *B = cast<BranchNode>(N);
    if (std::optional<uint16_t> Enc = leafOperand(B->Cond)) {
      branchTo(Op::BranchIf, *Enc, B->TrueDst, N->Loc);
      noteRvLoc(1, *Enc, B->Cond);
    } else {
      uint16_t Cond = compileExpr(B->Cond);
      VmInstr &Last = Out.Code.back();
      if (Last.K == Op::Binary && Last.A == Cond) {
        // Fuse the condition's compare into the branch (the temporary is
        // dead past this node; the BinOp moves to the A field).
        Last.K = Op::BranchCmp;
        Last.A = static_cast<uint16_t>(Last.Imm);
        Fixups.emplace_back(static_cast<uint32_t>(Out.Code.size() - 1),
                            B->TrueDst->Id);
      } else {
        branchTo(Op::BranchIf, Cond, B->TrueDst, N->Loc);
      }
    }
    if (B->FalseDst != LaidOutNext)
      branchTo(Op::Goto, 0, B->FalseDst, N->Loc);
    break;
  }
  case Node::Kind::Call: {
    const auto *C = cast<CallNode>(N);
    uint16_t Callee;
    if (std::optional<uint16_t> Enc = leafOperand(C->Callee))
      Callee = *Enc;
    else
      Callee = compileExpr(C->Callee);
    VmInstr &I = emit(Op::CallOp, N->Loc);
    I.B = Callee;
    I.N = N;
    noteRvLoc(1, Callee, C->Callee);
    break;
  }
  case Node::Kind::Jump: {
    const auto *J = cast<JumpNode>(N);
    uint16_t Callee;
    if (std::optional<uint16_t> Enc = leafOperand(J->Callee))
      Callee = *Enc;
    else
      Callee = compileExpr(J->Callee);
    VmInstr &I = emit(Op::JumpOp, N->Loc);
    I.B = Callee;
    I.N = N;
    noteRvLoc(1, Callee, J->Callee);
    break;
  }
  case Node::Kind::CutTo: {
    const auto *C = cast<CutToNode>(N);
    uint16_t Cont;
    if (std::optional<uint16_t> Enc = leafOperand(C->Cont))
      Cont = *Enc;
    else
      Cont = compileExpr(C->Cont);
    VmInstr &I = emit(Op::CutToOp, N->Loc);
    I.B = Cont;
    I.N = N;
    noteRvLoc(1, Cont, C->Cont);
    break;
  }
  case Node::Kind::Yield: {
    emit(Op::YieldOp, N->Loc);
    break;
  }
  }

  // Explicit jump when the fall-through successor is laid out elsewhere.
  if (const Node *Next = fallthroughOf(N))
    if (N->kind() != Node::Kind::Branch && Next != LaidOutNext)
      branchTo(Op::Goto, 0, Next, N->Loc);

  VmInstr &First = Out.Code[StartPc];
  First.Flags |= FlagStartsNode;
  First.N = N;
}

void ProcCompiler::compile() {
  if (!P.EntryPoint) {
    Out.HasBody = false;
    return;
  }
  Out.HasBody = true;
  assignSlots();
  layout();
  for (size_t I = 0; I < Order.size(); ++I)
    emitNode(Order[I], I + 1 < Order.size() ? Order[I + 1] : nullptr);
  for (const auto &[InstrIdx, NodeId] : Fixups)
    Out.Code[InstrIdx].Imm = Out.PcOfNode[NodeId];
  Out.EntryPc = Out.PcOfNode[P.EntryPoint->Id];
  Out.NumRegs = MaxRegs;
}

} // namespace

CompiledProgram cmm::compileToBytecode(const IrProgram &Prog) {
  CompiledProgram CP;
  CP.Procs.resize(Prog.Procs.size());
  for (size_t I = 0; I < Prog.Procs.size(); ++I) {
    const IrProc *P = Prog.Procs[I].get();
    CP.Index.emplace(P, static_cast<uint32_t>(I));
    CompiledProc &C = CP.Procs[I];
    C.Proc = P;
    ProcCompiler(Prog, *P, C, CP.MaxOut).compile();
    C.Keys.reserve(C.Code.size());
    for (const VmInstr &In : C.Code)
      C.Keys.push_back(uint8_t(In.K));
  }
  return CP;
}

//===----------------------------------------------------------------------===//
// Disassembly
//===----------------------------------------------------------------------===//

std::string cmm::disassemble(const CompiledProc &C, const Interner &Names) {
  auto OpName = [](Op K) -> const char * {
    switch (K) {
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
  };
  std::string S;
  S += "proc " + std::string(Names.spelling(C.Proc->Name)) + " (" +
       std::to_string(C.NumSlots) + " slots, " + std::to_string(C.NumRegs) +
       " regs)\n";
  if (!C.HasBody) {
    S += "  <no body>\n";
    return S;
  }
  // Fused operands render as r<n> (register) or k<n> (constant pool).
  auto Rv = [](uint16_t Enc) {
    return (Enc & OperandConst)
               ? "k" + std::to_string(Enc & OperandIndexMask)
               : "r" + std::to_string(Enc);
  };
  for (size_t I = 0; I < C.Code.size(); ++I) {
    const VmInstr &Ins = C.Code[I];
    S += (Ins.Flags & FlagStartsNode) ? "* " : "  ";
    S += std::to_string(I) + ":\t" + OpName(Ins.K) + "\ta=" +
         std::to_string(Ins.A) + " b=" + Rv(Ins.B) + " c=" + Rv(Ins.C) +
         " imm=" + std::to_string(Ins.Imm);
    if (Ins.Flags & FlagSetsBound)
      S += " [bind]";
    if (Ins.Flags & FlagStagesOut)
      S += " [stage]";
    S += "\n";
  }
  return S;
}
