//===- ir/Ir.h - Abstract C-- control-flow graphs ---------------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract C-- (Section 5 of the paper): "a language that resembles the
/// flow-graph representations used in optimizing compilers". A program is a
/// partial map X from names to procedures; a procedure is a control-flow
/// graph formed from exactly the node kinds of Table 2. The range of X
/// includes only nodes of the form `Entry kk p` or `Yield`.
///
/// Expressions are shared with the front end: they are the side-effect-free,
/// Sema-resolved syntax::Expr trees. The optimizer may allocate replacement
/// expressions from a procedure's arena.
///
/// Nodes live in their procedure's arena too. They are trivially
/// destructible and their lists are spans into the same arena, so a graph
/// lives exactly as long as its procedure and freeing the procedure frees
/// the graph: one `free` per arena chunk, no destructor walk.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_IR_IR_H
#define CMM_IR_IR_H

#include "support/Casting.h"
#include "support/Interner.h"
#include "syntax/Ast.h"

#include <memory>
#include <memory_resource>
#include <span>
#include <unordered_map>
#include <vector>

namespace cmm {

class Node;

/// A continuation bundle (Table 2): "encodes the possible outcomes of a
/// procedure call". The quadruple (kp_r, kp_u, kp_c, abort).
struct ContBundle {
  /// Nodes for continuations listed in `also returns to`, plus the node for
  /// normal returns **last** ("the normal return continuation is always the
  /// last", Section 4.2).
  std::span<Node *> ReturnsTo;
  /// Nodes for continuations listed in `also unwinds to`.
  std::span<Node *> UnwindsTo;
  /// Nodes for continuations listed in `also cuts to`.
  std::span<Node *> CutsTo;
  /// True when the call site is annotated `also aborts`.
  bool Abort = false;

  Node *normalReturn() const { return ReturnsTo.back(); }
  /// Number of *alternate* return continuations (the n of return <i/n>).
  unsigned altReturnCount() const {
    return static_cast<unsigned>(ReturnsTo.size()) - 1;
  }
};

/// Base of all Abstract C-- graph nodes. Kinds are exactly those of Table 2
/// (the paper's Assign covers both variable and memory assignment; we give
/// the two forms distinct kinds, Assign and Store). Every node kind is
/// trivially destructible: nodes and their lists live in the owning
/// IrProc's arena and are never destroyed one by one.
class Node {
public:
  enum class Kind : uint8_t {
    Entry,
    Exit,
    CopyIn,
    CopyOut,
    CalleeSaves,
    Assign,
    Store,
    Branch,
    Call,
    Jump,
    CutTo,
    Yield,
  };

  Kind kind() const { return K; }

  /// Dense per-procedure id; index into IrProc::Nodes.
  uint32_t Id = 0;
  SourceLoc Loc;

protected:
  explicit Node(Kind K) : K(K) {}

private:
  Kind K;
};

/// `Entry kk p` — the unique entry node of a procedure with continuations kk
/// and first node p. Binds the procedure's continuations into an empty
/// environment; parameter values are bound later by a CopyIn node.
class EntryNode : public Node {
public:
  /// The continuations declared in the procedure body: (name, node) pairs
  /// where the node is the continuation's CopyIn.
  std::span<std::pair<Symbol, Node *>> Conts;
  Node *Next = nullptr;

  EntryNode() : Node(Kind::Entry) {}
  static bool classof(const Node *N) { return N->kind() == Kind::Entry; }
};

/// `Exit j n` — normal exit from a procedure, returning to return
/// continuation j; the suspended call site must have exactly n alternate
/// return continuations tagged with `also returns to`.
class ExitNode : public Node {
public:
  unsigned ContIndex = 0;
  unsigned AltCount = 0;

  ExitNode() : Node(Kind::Exit) {}
  static bool classof(const Node *N) { return N->kind() == Kind::Exit; }
};

/// `CopyIn kv p` — put results from a call, or parameters to a procedure or
/// continuation, into variables kv; empties the argument-passing area.
class CopyInNode : public Node {
public:
  std::span<Symbol> Vars;
  Node *Next = nullptr;

  CopyInNode() : Node(Kind::CopyIn) {}
  static bool classof(const Node *N) { return N->kind() == Kind::CopyIn; }
};

/// `CopyOut ke p` — make the values of expressions ke the results of a call,
/// or the parameters to a procedure or continuation.
class CopyOutNode : public Node {
public:
  std::span<const Expr *> Exprs;
  Node *Next = nullptr;

  CopyOutNode() : Node(Kind::CopyOut) {}
  static bool classof(const Node *N) { return N->kind() == Kind::CopyOut; }
};

/// `CalleeSaves s p` — make s the set of variables in callee-saves registers
/// (by spilling or reloading). Introduced only by optimizers; not part of
/// the direct translation of any C-- program (Section 5.2).
class CalleeSavesNode : public Node {
public:
  std::span<Symbol> Saved;
  Node *Next = nullptr;

  CalleeSavesNode() : Node(Kind::CalleeSaves) {}
  static bool classof(const Node *N) {
    return N->kind() == Kind::CalleeSaves;
  }
};

/// `Assign v e p` — assign e to variable v (local or global register).
class AssignNode : public Node {
public:
  Symbol Var;
  bool IsGlobal = false;
  const Expr *Value = nullptr;
  Node *Next = nullptr;

  AssignNode() : Node(Kind::Assign) {}
  static bool classof(const Node *N) { return N->kind() == Kind::Assign; }
};

/// `Assign type[a] e p` — store e to memory at address a.
class StoreNode : public Node {
public:
  Type AccessTy;
  const Expr *Addr = nullptr;
  const Expr *Value = nullptr;
  Node *Next = nullptr;

  StoreNode() : Node(Kind::Store) {}
  static bool classof(const Node *N) { return N->kind() == Kind::Store; }
};

/// `Branch c pt pf` — branch to pt or pf when c is true or false.
class BranchNode : public Node {
public:
  const Expr *Cond = nullptr;
  Node *TrueDst = nullptr;
  Node *FalseDst = nullptr;

  BranchNode() : Node(Kind::Branch) {}
  static bool classof(const Node *N) { return N->kind() == Kind::Branch; }
};

/// `Call ef Γ` — call procedure ef, returning to one of the nodes in the
/// continuation bundle Γ. Arguments were placed in the value-passing area by
/// the preceding CopyOut.
class CallNode : public Node {
public:
  const Expr *Callee = nullptr;
  ContBundle Bundle;
  unsigned NumArgs = 0;
  /// Static descriptors deposited by the front end for this call site,
  /// retrievable at run time through GetDescriptor (Section 3.3). Each is a
  /// link-time-constant expression.
  std::span<const Expr *> Descriptors;
  /// Continuation names as written in the source annotations (for printing).
  std::span<Symbol> ReturnsToNames, UnwindsToNames, CutsToNames;

  CallNode() : Node(Kind::Call) {}
  static bool classof(const Node *N) { return N->kind() == Kind::Call; }
};

/// `Jump ef` — tail call; exits the current procedure.
class JumpNode : public Node {
public:
  const Expr *Callee = nullptr;
  unsigned NumArgs = 0;

  JumpNode() : Node(Kind::Jump) {}
  static bool classof(const Node *N) { return N->kind() == Kind::Jump; }
};

/// `CutTo e` — cut the stack to continuation e; exits the current procedure
/// unless the target is named in this statement's own `also cuts to`
/// annotation (Section 4.4).
class CutToNode : public Node {
public:
  const Expr *Cont = nullptr;
  unsigned NumArgs = 0;
  /// CopyIn nodes of same-procedure continuations this cut may target.
  std::span<Node *> AlsoCutsTo;
  std::span<Symbol> AlsoCutsToNames;

  CutToNode() : Node(Kind::CutTo) {}
  static bool classof(const Node *N) { return N->kind() == Kind::CutTo; }
};

/// `Yield` — execute a procedure in the run-time system. The reserved
/// program name "yield" maps directly to this node; it appears in no
/// optimized procedure (Table 3).
class YieldNode : public Node {
public:
  YieldNode() : Node(Kind::Yield) {}
  static bool classof(const Node *N) { return N->kind() == Kind::Yield; }
};

//===----------------------------------------------------------------------===//
// Procedures and programs
//===----------------------------------------------------------------------===//

/// One Abstract C-- procedure: a named control-flow graph.
struct IrProc {
  /// \p Mem backs VarTypes; pass the owning program's Memory. \p ArenaBytes
  /// sizes the arena's first chunk: the translator passes exactly what the
  /// translated graph needs.
  explicit IrProc(std::pmr::memory_resource *Mem, size_t ArenaBytes = 0)
      : VarTypes(Mem), Arena(ArenaBytes) {}

  Symbol Name;
  /// Position in IrProgram::Procs: the procedure's code value.
  uint32_t Index = 0;
  std::vector<Param> Params;
  /// Entry node, or the bare Yield node for the intrinsic "yield" procedure.
  Node *EntryPoint = nullptr;
  /// All nodes, in creation order; Node::Id indexes this vector. The nodes
  /// themselves live in Arena.
  std::vector<Node *> Nodes;
  /// Types of locals and parameters (copied from Sema). Its iteration order
  /// orders the optimizer's dataflow universe.
  std::pmr::unordered_map<Symbol, Type> VarTypes;
  /// Owns the nodes and their lists, and the expressions created after
  /// translation: by the optimizer, the deserializer and the IL text parser
  /// (the translated graph references expressions owned by the source
  /// Module's arena).
  AstArena Arena;

  /// Creates a node of type \p T owned by this procedure. The only way to
  /// create a node.
  template <typename T> T *make() {
    T *N = Arena.make<T>();
    N->Id = static_cast<uint32_t>(Nodes.size());
    Nodes.push_back(N);
    return N;
  }

  /// A list of \p N value-initialized elements owned by this procedure.
  template <typename T> std::span<T> makeList(size_t N) {
    T *Data = Arena.allocArray<T>(N);
    for (size_t I = 0; I < N; ++I)
      new (&Data[I]) T();
    return {Data, N};
  }

  /// Copies \p Items (any sized range of values convertible to \p T) into
  /// a list owned by this procedure.
  template <typename T, typename Range>
  std::span<T> copyList(const Range &Items) {
    T *Data = Arena.allocArray<T>(std::size(Items));
    std::uninitialized_copy(std::begin(Items), std::end(Items), Data);
    return {Data, std::size(Items)};
  }

  bool isYieldIntrinsic() const {
    return EntryPoint && isa<YieldNode>(EntryPoint);
  }
};

/// An initialized data segment plus relocations for symbolic items.
struct DataImage {
  struct Reloc {
    uint64_t Addr;  ///< where to store the pointer
    Symbol Target;  ///< data label or procedure whose address is stored
  };
  uint64_t Base = 0;
  std::vector<uint8_t> Bytes;
  std::vector<Reloc> Relocs;
};

/// A complete linked Abstract C-- program: the partial map X from names to
/// procedures, plus globals and the static data image.
struct IrProgram {
  /// \p VarTableBytes sizes Memory's first buffer: the translator passes
  /// what its variable tables need, so a cached program pins no more.
  explicit IrProgram(size_t VarTableBytes = 1024) : Memory(VarTableBytes) {}

  /// Backs the procedures' VarTypes, so a program's variable tables cost a
  /// few allocations rather than one per variable. Declared first: it must
  /// outlive Procs.
  std::pmr::monotonic_buffer_resource Memory;
  std::shared_ptr<Interner> Names;
  std::vector<std::unique_ptr<IrProc>> Procs;
  std::unordered_map<Symbol, IrProc *> ProcByName;
  /// Global register variables and their types.
  std::unordered_map<Symbol, Type> Globals;
  /// Addresses of data blocks.
  std::unordered_map<Symbol, uint64_t> DataAddrs;
  /// Addresses of string literals appearing in expressions.
  std::unordered_map<const StrLitExpr *, uint64_t> StrAddrs;
  DataImage Image;
  /// One past the highest statically allocated data address; the machine
  /// places dynamic allocations above this.
  uint64_t DataEnd = 0;
  /// The source modules, kept alive because graphs reference their
  /// expression trees.
  std::vector<std::shared_ptr<Module>> SourceModules;

  IrProc *findProc(Symbol Name) const {
    auto It = ProcByName.find(Name);
    return It == ProcByName.end() ? nullptr : It->second;
  }
  IrProc *findProc(std::string_view Name) const {
    Symbol S = Names->lookup(Name);
    return S ? findProc(S) : nullptr;
  }
};

/// Base address of the static data segment.
inline constexpr uint64_t DataBase = 0x10000000;

} // namespace cmm

#endif // CMM_IR_IR_H
