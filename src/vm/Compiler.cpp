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

#include "sem/Executor.h"
#include "support/Assert.h"
#include "support/Casting.h"
#include "syntax/PrimOps.h"

using namespace cmm;

namespace {

/// Working storage shared by the procedures of one program, so compiling a
/// program allocates per program rather than per procedure: the symbol →
/// slot table, the layout worklists, and the code and pools of the
/// procedure being compiled, each copied out at its exact size when the
/// procedure is done.
struct Scratch {
  static constexpr uint16_t NoSlot = 0xffff;

  explicit Scratch(const IrProgram &Prog)
      : SlotOf(Prog.Names->size() + 1, NoSlot) {}

  /// Symbol id → frame slot of the procedure being compiled, or NoSlot.
  /// Reset entry by entry (through SlotSyms) after each procedure.
  std::vector<uint16_t> SlotOf;
  std::vector<const Node *> Order;
  std::vector<std::pair<uint32_t, uint32_t>> Fixups; ///< (instr, node id)
  std::vector<VmInstr> Code;
  std::vector<Value> Consts;
  std::vector<Symbol> Syms, SlotSyms;
  std::vector<RvSlotLoc> RvSlotLocs;
};

/// Copies \p From into \p To at its exact size, leaving \p From empty
/// (its capacity stays for the next procedure).
template <typename T> void takeExact(std::vector<T> &To, std::vector<T> &From) {
  To.assign(From.begin(), From.end());
  From.clear();
}

class ProcCompiler {
public:
  ProcCompiler(const IrProgram &Prog, const IrProc &P, CompiledProc &Out,
               uint32_t &MaxOut, Scratch &Work)
      : Prog(Prog), P(P), Out(Out), MaxOut(MaxOut), Work(Work) {}

  void compile();

private:
  //===-- Slot assignment -------------------------------------------------===//
  void assignSlots();
  void collectExprSyms(const Expr *E);
  void addSlot(Symbol S) {
    if (Work.SlotOf[S.Id] != Scratch::NoSlot)
      return;
    Work.SlotOf[S.Id] = static_cast<uint16_t>(Work.SlotSyms.size());
    Work.SlotSyms.push_back(S);
  }
  uint16_t slotOf(Symbol S) const {
    uint16_t Slot = Work.SlotOf[S.Id];
    assert(Slot != Scratch::NoSlot && "symbol without a frame slot");
    return Slot;
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
  void resetTemps() { NextTemp = static_cast<uint16_t>(Work.SlotSyms.size()); }

  VmInstr &emit(Op K, SourceLoc Loc) {
    VmInstr I;
    I.K = K;
    I.Loc = Loc;
    Work.Code.push_back(I);
    return Work.Code.back();
  }
  uint32_t constIdx(const Value &V) {
    Work.Consts.push_back(V);
    return static_cast<uint32_t>(Work.Consts.size() - 1);
  }
  uint32_t msgIdx(std::string M) {
    Out.Msgs.push_back(std::move(M));
    return static_cast<uint32_t>(Out.Msgs.size() - 1);
  }
  uint32_t symIdx(Symbol S) {
    Work.Syms.push_back(S);
    return static_cast<uint32_t>(Work.Syms.size() - 1);
  }
  static uint32_t tyEnc(Type T) {
    return (uint32_t(T.Width) << 1) | (T.isFloat() ? 1 : 0);
  }

  //===-- Expressions ------------------------------------------------------===//
  uint16_t compileExpr(const Expr *E);
  /// A literal, sizeof or name: compileExpr's non-recursive cases.
  [[gnu::noinline]] uint16_t compileLeaf(const Expr *E);
  [[gnu::noinline]] uint16_t compilePrim(const PrimExpr *Pr);
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
  /// Instructions are emitted in pc order and their fields noted in field
  /// order, so the keys arrive sorted.
  void noteRvLoc(unsigned Field, uint16_t Enc, const Expr *E) {
    if ((Enc & OperandConst) || Enc >= Work.SlotSyms.size())
      return;
    uint64_t Key = (uint64_t(Work.Code.size()) - 1) * 4 + Field;
    assert((Work.RvSlotLocs.empty() || Work.RvSlotLocs.back().Key < Key) &&
           "operand locations noted out of order");
    Work.RvSlotLocs.push_back({Key, E->loc()});
  }
  /// A statically stuck expression: goes wrong with \p Reason (one of
  /// Executor's static reasons) when reached.
  uint16_t emitWrong(const char *Reason, SourceLoc Loc) {
    uint16_t R = newTemp();
    VmInstr &I = emit(Op::Wrong, Loc);
    I.A = R;
    I.Imm = msgIdx(Reason);
    return R;
  }

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
  Scratch &Work;

  uint16_t NextTemp = 0, MaxRegs = 0;
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
  // or reads locally (the walker's ρ accepts any symbol). Layout gives
  // every node code exactly once, so the plan counts taken here size the
  // plan tables exactly.
  size_t CopyIns = 0, CopyDests = 0, Saves = 0, Saved = 0, Entries = 0,
         Conts = 0;
  for (const Node *N : P.Nodes) {
    switch (N->kind()) {
    case Node::Kind::Entry:
      ++Entries;
      Conts += cast<EntryNode>(N)->Conts.size();
      for (const auto &[Name, Target] : cast<EntryNode>(N)->Conts)
        addSlot(Name);
      break;
    case Node::Kind::CopyIn:
      ++CopyIns;
      CopyDests += cast<CopyInNode>(N)->Vars.size();
      for (Symbol V : cast<CopyInNode>(N)->Vars)
        if (isLocalBind(V))
          addSlot(V);
      break;
    case Node::Kind::CopyOut:
      for (const Expr *E : cast<CopyOutNode>(N)->Exprs)
        collectExprSyms(E);
      break;
    case Node::Kind::CalleeSaves:
      ++Saves;
      Saved += cast<CalleeSavesNode>(N)->Saved.size();
      for (Symbol V : cast<CalleeSavesNode>(N)->Saved)
        addSlot(V);
      break;
    case Node::Kind::Assign: {
      const auto *A = cast<AssignNode>(N);
      if (!A->IsGlobal)
        addSlot(A->Var);
      collectExprSyms(A->Value);
      break;
    }
    case Node::Kind::Store:
      collectExprSyms(cast<StoreNode>(N)->Addr);
      collectExprSyms(cast<StoreNode>(N)->Value);
      break;
    case Node::Kind::Branch:
      collectExprSyms(cast<BranchNode>(N)->Cond);
      break;
    case Node::Kind::Call:
      collectExprSyms(cast<CallNode>(N)->Callee);
      break;
    case Node::Kind::Jump:
      collectExprSyms(cast<JumpNode>(N)->Callee);
      break;
    case Node::Kind::CutTo:
      collectExprSyms(cast<CutToNode>(N)->Cont);
      break;
    default:
      break;
    }
  }
  Out.NumSlots = static_cast<uint16_t>(Work.SlotSyms.size());
  MaxRegs = Out.NumSlots;
  Out.CopyPlans.reserve(CopyIns, CopyDests);
  Out.SavePlans.reserve(Saves, Saved);
  Out.EntryPlans.reserve(Entries, Conts);
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
    if (std::optional<Value> V = linkTimeConstant(Prog, E))
      return constOperand(*V);
    return std::nullopt;
  case Expr::Kind::Name: {
    const auto *N = cast<NameExpr>(E);
    if (N->Ref == RefKind::Local || N->Ref == RefKind::Continuation) {
      if (!AllowSlot)
        return std::nullopt;
      return slotOf(N->Name);
    }
    if (N->Ref == RefKind::Proc || N->Ref == RefKind::DataLabel ||
        N->Ref == RefKind::Import)
      if (std::optional<Value> V = linkTimeConstant(Prog, E))
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
  // Only the cases that recurse stay in this frame: it is live once per
  // nesting level of the source expression, so the leaves and primitives
  // are compiled out of line.
  switch (E->kind()) {
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
  case Expr::Kind::Prim:
    return compilePrim(cast<PrimExpr>(E));
  default:
    return compileLeaf(E);
  }
}

uint16_t ProcCompiler::compileLeaf(const Expr *E) {
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
    if (std::optional<Value> V = linkTimeConstant(Prog, E)) {
      uint16_t R = newTemp();
      VmInstr &I = emit(Op::LoadConst, E->loc());
      I.A = R;
      I.Imm = constIdx(*V);
      return R;
    }
    return emitWrong(Executor::strLitWithoutAddressReason(), E->loc());
  }
  case Expr::Kind::Name: {
    const auto *N = cast<NameExpr>(E);
    switch (N->Ref) {
    case RefKind::Local:
    case RefKind::Continuation: {
      uint16_t R = newTemp();
      VmInstr &I = emit(Op::LoadLocal, E->loc());
      I.A = R;
      I.B = slotOf(N->Name);
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
      if (std::optional<Value> V = linkTimeConstant(Prog, E)) {
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
    return emitWrong(Executor::unresolvedNameReachedEvaluatorReason(),
                     E->loc());
  }
  default:
    break;
  }
  cmm_unreachable("not a leaf expression");
}

uint16_t ProcCompiler::compilePrim(const PrimExpr *Pr) {
  std::optional<PrimKind> K = lookupPrim(Prog.Names->spelling(Pr->Name));
  if (!K) {
    // The walker rejects the primitive before evaluating its arguments.
    return emitWrong(Executor::unknownPrimitiveReason(), Pr->loc());
  }
  uint16_t Regs[2] = {0, 0};
  unsigned Count = static_cast<unsigned>(Pr->Args.size());
  if (Count == 1) {
    if (std::optional<uint16_t> Enc = leafOperand(Pr->Args[0]))
      Regs[0] = *Enc;
    else
      Regs[0] = compileExpr(Pr->Args[0]);
  } else if (Count == 2) {
    compileOperandPair(Pr->Args[0], Pr->Args[1], Regs[0], Regs[1]);
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
  VmInstr &I = emit(Op::Prim, Pr->loc());
  I.A = R;
  I.B = Regs[0];
  I.C = Regs[1];
  // A count of 3 stands for any count past two: applyPrim rejects it.
  I.Imm = static_cast<uint32_t>(*K) | (std::min(Count, 3u) << 16);
  if (Count > 0)
    noteRvLoc(1, Regs[0], Pr->Args[0]);
  if (Count > 1)
    noteRvLoc(2, Regs[1], Pr->Args[1]);
  return R;
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
    Work.Order.push_back(N);
    N = fallthroughOf(N);
  }
}

void ProcCompiler::layout() {
  Out.PcOfNode.assign(P.Nodes.size(), ~0u);
  placeChain(P.EntryPoint);
  // Chains started from secondary successors, in discovery order.
  for (size_t I = 0; I < Work.Order.size(); ++I) {
    const Node *N = Work.Order[I];
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
  for (const Node *N : P.Nodes)
    placeChain(N);
}

void ProcCompiler::branchTo(Op K, uint16_t CondReg, const Node *Target,
                            SourceLoc Loc) {
  VmInstr &I = emit(K, Loc);
  I.B = CondReg;
  Work.Fixups.emplace_back(static_cast<uint32_t>(Work.Code.size() - 1),
                      Target->Id);
}

void ProcCompiler::emitNode(const Node *N, const Node *LaidOutNext) {
  uint32_t StartPc = static_cast<uint32_t>(Work.Code.size());
  Out.PcOfNode[N->Id] = StartPc;
  resetTemps();

  switch (N->kind()) {
  case Node::Kind::Entry: {
    const auto *E = cast<EntryNode>(N);
    for (const auto &[Name, Target] : E->Conts)
      Out.EntryPlans.Items.push_back({slotOf(Name), Target});
    VmInstr &I = emit(Op::EntryOp, N->Loc);
    I.Imm = Out.EntryPlans.endPlan();
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
    for (Symbol V : C->Vars) {
      CopyDest D;
      if (isLocalBind(V)) {
        D.Slot = slotOf(V);
      } else {
        D.Global = true;
        D.Sym = V;
      }
      Out.CopyPlans.Items.push_back(D);
    }
    VmInstr &I = emit(Op::CopyIn, N->Loc);
    I.Imm = Out.CopyPlans.endPlan();
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
      VmInstr &Last = Work.Code.back();
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
    for (Symbol V : C->Saved)
      Out.SavePlans.Items.push_back(slotOf(V));
    VmInstr &I = emit(Op::CalleeSaves, N->Loc);
    I.Imm = Out.SavePlans.endPlan();
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
    VmInstr &Last = Work.Code.back();
    if (Last.K != Op::Wrong) {
      // Retarget the expression's final (value-producing) instruction at
      // the variable's slot; the walker binds only after the whole
      // expression evaluates, which FlagSetsBound preserves.
      Last.A = slotOf(A->Var);
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
      VmInstr &Last = Work.Code.back();
      if (Last.K == Op::Binary && Last.A == Cond) {
        // Fuse the condition's compare into the branch (the temporary is
        // dead past this node; the BinOp moves to the A field).
        Last.K = Op::BranchCmp;
        Last.A = static_cast<uint16_t>(Last.Imm);
        Work.Fixups.emplace_back(static_cast<uint32_t>(Work.Code.size() - 1),
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

  VmInstr &First = Work.Code[StartPc];
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
  for (size_t I = 0; I < Work.Order.size(); ++I)
    emitNode(Work.Order[I],
             I + 1 < Work.Order.size() ? Work.Order[I + 1] : nullptr);
  for (const auto &[InstrIdx, NodeId] : Work.Fixups)
    Work.Code[InstrIdx].Imm = Out.PcOfNode[NodeId];
  Out.EntryPc = Out.PcOfNode[P.EntryPoint->Id];
  Out.NumRegs = MaxRegs;

  Out.Keys.reserve(Work.Code.size());
  for (const VmInstr &In : Work.Code)
    Out.Keys.push_back(uint8_t(In.K));
  takeExact(Out.Code, Work.Code);
  takeExact(Out.Consts, Work.Consts);
  takeExact(Out.Syms, Work.Syms);
  takeExact(Out.RvSlotLocs, Work.RvSlotLocs);
  for (Symbol S : Work.SlotSyms)
    Work.SlotOf[S.Id] = Scratch::NoSlot;
  takeExact(Out.SlotSyms, Work.SlotSyms);
  Work.Order.clear();
  Work.Fixups.clear();
}

} // namespace

CompiledProgram cmm::compileToBytecode(const IrProgram &Prog) {
  CompiledProgram CP;
  CP.Procs.resize(Prog.Procs.size());
  Scratch Work(Prog);
  for (size_t I = 0; I < Prog.Procs.size(); ++I) {
    CompiledProc &C = CP.Procs[I];
    C.Proc = Prog.Procs[I].get();
    ProcCompiler(Prog, *C.Proc, C, CP.MaxOut, Work).compile();
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
