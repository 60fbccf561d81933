//===- vm/Bytecode.h - Register bytecode for Abstract C-- -------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact register bytecode for the checked IR, executed by vm/Vm.h. One
/// CompiledProc per IrProc: graph nodes are linearized with fall-through,
/// environment symbols become dense frame-slot indices, and everything the
/// tree walker resolves per step (literal values, data addresses, procedure
/// code values, continuation-bundle edges) is resolved once at compile time.
///
/// The instruction encoding and its semantics-preservation argument are
/// documented in docs/BYTECODE.md.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_VM_BYTECODE_H
#define CMM_VM_BYTECODE_H

#include "ir/Ir.h"
#include "sem/Value.h"

#include <algorithm>
#include <span>
#include <string>
#include <vector>

namespace cmm {

/// Fused-operand encoding. Operand fields marked "rv" below hold either a
/// register (bit 15 clear) or a constant-pool index (bit 15 set): leaf
/// expressions — literals, data labels, procedure values, and frame slots —
/// feed consuming instructions directly, with no LoadConst/LoadLocal
/// dispatch. A register operand below NumSlots is a named local and is
/// bound-checked on read (temporaries, at NumSlots and above, are always
/// written before use). Fusion never reorders observable effects: a slot
/// operand is only fused when every sub-expression the walker would
/// evaluate after it is itself a leaf (docs/BYTECODE.md).
enum : uint16_t {
  OperandConst = 0x8000,     ///< rv operand is Consts[operand & mask]
  OperandIndexMask = 0x7fff, ///< const-pool index bits of an rv operand
};

/// Bytecode operations. Value-producing ops write register A; statement and
/// transfer ops use A/B/C/Imm as documented per op in docs/BYTECODE.md.
enum class Op : uint8_t {
  // Value producers (dest = A).
  LoadConst,   ///< A ← Consts[Imm]
  LoadLocal,   ///< A ← slot B; wrong when the slot is unbound
  LoadGlobal,  ///< A ← global Syms[Imm]; wrong when unknown
  LoadNameDyn, ///< A ← global Syms[Imm]; wrong "unresolved name" when absent
  Unary,       ///< A ← unop(Imm = UnOp, rv B)
  Binary,      ///< A ← binop(Imm = BinOp, rv B, rv C)
  Prim,        ///< A ← prim(rv B [, rv C]);
               ///< Imm = PrimKind | min(argcount, 3) << 16
  MemLoad,     ///< A ← load mem[rv B]; Imm = (Width << 1) | isFloat

  // Deferred compile-time-detectable failures: the walker only reports
  // these when the expression is actually evaluated, so dead wrong code
  // must not change behaviour.
  Wrong, ///< goWrong(Msgs[Imm], Loc)

  // Statements.
  SetGlobal,   ///< global Syms[Imm] ← rv B
  MemStore,    ///< store mem[rv A] ← rv B; Imm = (Width << 1) | isFloat
  StageOut,    ///< Staging[Imm] ← rv B
  Commit,      ///< argument area ← Staging[0..Imm)
  CopyIn,      ///< bind argument area per CopyPlans[Imm]
  CalleeSaves, ///< σ ← SavePlans[Imm], counting spills/reloads
  EntryOp,     ///< clear ρ and σ, bind continuations per EntryPlans[Imm]

  // Control transfer.
  Goto,      ///< Pc = Imm
  BranchIf,  ///< if truthy(rv B) Pc = Imm else fall through
  BranchCmp, ///< if truthy(binop(A = BinOp, rv B, rv C)) Pc = Imm
  ExitOp,    ///< return <A/B> through the suspended call site
  CallOp,    ///< call code value in rv B (N is the CallNode)
  JumpOp,    ///< tail call code value in rv B (N is the JumpNode)
  CutToOp,   ///< cut the stack to continuation value in rv B
  YieldOp,   ///< suspend into the run-time system
};

enum : uint8_t {
  /// First instruction of a graph node: one abstract-machine transition
  /// starts here (budget accounting and onStep fire at this boundary).
  FlagStartsNode = 1,
  /// After this instruction succeeds, mark slot A bound (an Assign's
  /// destination: the expression's final instruction is retargeted at the
  /// variable's slot, so no extra move is needed).
  FlagSetsBound = 2,
  /// The value this instruction produces goes to Staging[A], not a
  /// register (a CopyOut expression's final instruction; the staged values
  /// only reach the argument area at the node's Commit).
  FlagStagesOut = 4,
};

/// One instruction. 16-bit register operands, a 32-bit immediate, and the
/// owning graph node for observability and node-payload access.
struct VmInstr {
  Op K;
  uint8_t Flags = 0;
  uint16_t A = 0, B = 0, C = 0;
  uint32_t Imm = 0;
  /// The graph node this instruction belongs to. Set on every FlagStartsNode
  /// instruction (for onStep) and on node-action ops that read node fields
  /// (CallOp → CallNode, ExitOp → ExitNode, ...).
  const Node *N = nullptr;
  SourceLoc Loc;
};

/// A CopyIn destination: a frame slot, or a global register for variables
/// the walker's bindVar routes to the global environment.
struct CopyDest {
  bool Global = false;
  uint16_t Slot = 0;
  Symbol Sym; ///< the global's name when Global
};

/// The variable-length operand lists of one instruction kind (CopyIn,
/// CalleeSaves or Entry), flattened: plan I is Items[Starts[I] ..
/// Starts[I + 1]). A table costs two allocations however many plans it
/// holds, and none when it holds none.
template <typename T> struct PlanTable {
  std::vector<T> Items;
  /// Empty, or size() + 1 offsets starting at 0.
  std::vector<uint32_t> Starts;

  size_t size() const { return Starts.empty() ? 0 : Starts.size() - 1; }
  std::span<const T> operator[](size_t I) const {
    return {Items.data() + Starts[I], Items.data() + Starts[I + 1]};
  }
  void reserve(size_t NumPlans, size_t NumItems) {
    Starts.reserve(NumPlans ? NumPlans + 1 : 0);
    Items.reserve(NumItems);
  }
  /// Ends the plan made of the items pushed since the last endPlan();
  /// returns its index.
  uint32_t endPlan() {
    if (Starts.empty())
      Starts.push_back(0);
    Starts.push_back(static_cast<uint32_t>(Items.size()));
    return static_cast<uint32_t>(Starts.size() - 2);
  }
};

/// A continuation an Entry instruction binds: its frame slot and the
/// continuation's CopyIn node.
struct EntryBinding {
  uint16_t Slot = 0;
  Node *Target = nullptr;
};

/// The source location of a fused named-slot operand, keyed by
/// pc * 4 + field (0 = A, 1 = B, 2 = C).
struct RvSlotLoc {
  uint64_t Key = 0;
  SourceLoc Loc;
};

/// One compiled procedure.
struct CompiledProc {
  const IrProc *Proc = nullptr;
  bool HasBody = false;
  uint32_t EntryPc = 0;
  /// Frame-slot count (named locals and continuations) and total register
  /// count (slots plus expression temporaries).
  uint16_t NumSlots = 0, NumRegs = 0;
  std::vector<VmInstr> Code;
  /// Code's dispatch keys, uint8_t(Code[pc].K) for every pc: the unfused
  /// key stream the dispatch loop runs on the vm backend (the threaded
  /// tier's keys mirror Op over the base range, vm/Fuse.h). Derived when
  /// the procedure is compiled or decoded; never serialized.
  std::vector<uint8_t> Keys;
  /// Node::Id → pc of the node's first instruction. Continuation records
  /// and bundle edges keep Node* targets; control transfers map them to a
  /// pc through this table at transfer time.
  std::vector<uint32_t> PcOfNode;
  std::vector<Value> Consts;
  std::vector<std::string> Msgs;
  std::vector<Symbol> Syms;
  std::vector<Symbol> SlotSyms; ///< slot → symbol, for diagnostics
  PlanTable<CopyDest> CopyPlans;
  PlanTable<uint16_t> SavePlans;
  PlanTable<EntryBinding> EntryPlans;
  /// Source location of each fused named-slot operand, sorted by key.
  /// Consulted only when the slot's bound check fails, so the
  /// unbound-variable diagnostic points at the variable reference itself —
  /// exactly where the walker reports it — rather than at the consuming
  /// expression.
  std::vector<RvSlotLoc> RvSlotLocs;

  /// The recorded location of field \p Field's operand at \p Pc, or
  /// \p Otherwise when none was recorded.
  SourceLoc rvSlotLoc(uint32_t Pc, unsigned Field, SourceLoc Otherwise) const {
    uint64_t Key = uint64_t(Pc) * 4 + Field;
    auto It = std::lower_bound(
        RvSlotLocs.begin(), RvSlotLocs.end(), Key,
        [](const RvSlotLoc &L, uint64_t K) { return L.Key < K; });
    return It != RvSlotLocs.end() && It->Key == Key ? It->Loc : Otherwise;
  }
};

/// A compiled program: one CompiledProc per IrProc, in IrProgram::Procs
/// order (so code-value indices agree with the walker's, and IrProc::Index
/// addresses both).
struct CompiledProgram {
  std::vector<CompiledProc> Procs;
  /// Largest CopyOut arity in the program (sizes the staging area).
  uint32_t MaxOut = 0;

  const CompiledProc &byProc(const IrProc *P) const { return Procs[P->Index]; }
};

/// Compiles every procedure of \p Prog to bytecode.
CompiledProgram compileToBytecode(const IrProgram &Prog);

/// Renders \p C as a human-readable listing (for cmmi --dump-bytecode).
std::string disassemble(const CompiledProc &C, const Interner &Names);

} // namespace cmm

#endif // CMM_VM_BYTECODE_H
