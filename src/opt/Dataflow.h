//===- opt/Dataflow.h - Table 3 dataflow facts ------------------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dataflow rules of Table 3, "in terms of definitions, uses, copies,
/// and kills". The location domain has three kinds: ordinary variables
/// (locals and global registers), the memory pseudo-variable M, and the
/// argument-passing-area slots A[i]. "This information is enough to enable
/// standard optimizations ... the optimizer can perform all the usual
/// rearrangements, provided it respects the dataflow and it doesn't insert
/// code after Exit, Jump, CutTo, or the abort part of a continuation
/// bundle."
///
//===----------------------------------------------------------------------===//

#ifndef CMM_OPT_DATAFLOW_H
#define CMM_OPT_DATAFLOW_H

#include "ir/Succ.h"
#include "support/BitVector.h"

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

namespace cmm {

/// Dense numbering of the dataflow locations of one procedure: its
/// variables (its locals first, then referenced globals and continuation
/// names), then M, then A[0..MaxArgs).
class LocUniverse {
public:
  static LocUniverse forProc(const IrProc &P, const IrProgram &Prog);

  unsigned size() const {
    return static_cast<unsigned>(Vars.size()) + 1 + MaxArgs;
  }
  unsigned memIndex() const { return static_cast<unsigned>(Vars.size()); }
  unsigned argIndex(unsigned I) const { return memIndex() + 1 + I; }
  unsigned maxArgs() const { return MaxArgs; }
  unsigned numVars() const { return static_cast<unsigned>(Vars.size()); }

  std::optional<unsigned> varIndex(Symbol V) const {
    if (V.Id >= IndexBySym.size() || IndexBySym[V.Id] == NoIndex)
      return std::nullopt;
    return IndexBySym[V.Id];
  }
  Symbol varAt(unsigned I) const { return Vars[I]; }
  bool isVar(unsigned I) const { return I < Vars.size(); }
  bool isArg(unsigned I) const { return I > memIndex(); }
  /// True when location \p I is a global register rather than a local of
  /// the procedure. Globals escape: calls may read and write them, and they
  /// are live at every procedure exit.
  bool isGlobalVar(unsigned I) const {
    return I >= NumLocals && I < Vars.size();
  }
  /// The global-register locations, as a set.
  const BitVector &globals() const { return GlobalSet; }
  /// The argument-area locations A[0..MaxArgs), as a set.
  const BitVector &args() const { return ArgSet; }

  /// Human-readable location name for dumps.
  std::string describe(unsigned I, const Interner &Names) const;

private:
  static constexpr unsigned NoIndex = ~0u;
  std::vector<Symbol> Vars;
  /// Location index by Symbol::Id, NoIndex for symbols not in the universe.
  std::vector<unsigned> IndexBySym;
  unsigned NumLocals = 0;
  unsigned MaxArgs = 0;
  BitVector GlobalSet, ArgSet;
};

/// Node-local facts. Edge-located facts (the A[i] definitions along call
/// edges and the callee-saves kills along cut edges) are handled by the
/// solvers, which know the edges.
struct NodeFacts {
  BitVector Use, Def;
  /// dst <- src pairs for CopyIn (v[i] = A[i]) and CopyOut (A[i] = e when e
  /// is a plain variable); used by copy propagation and coalescing.
  std::vector<std::pair<unsigned, unsigned>> Copies;
};

/// Computes the Table 3 facts for \p N.
NodeFacts computeFacts(const Node &N, const LocUniverse &U);

/// computeFacts into the empty sets \p Use and \p Def (a solver's rows),
/// appending the copies to \p Copies when it is not null.
void computeFacts(const Node &N, const LocUniverse &U, BitRow Use,
                  BitRow Def,
                  std::vector<std::pair<unsigned, unsigned>> *Copies = nullptr);

/// Adds the variables free in \p E (including the M pseudo-variable for
/// loads) to \p Out.
void addFreeVars(const Expr *E, const LocUniverse &U, BitRow Out);

/// True when evaluating \p E can make the machine go wrong (the fast-but-
/// dangerous division family); such expressions must not be duplicated or
/// deleted by the optimizer.
bool exprCanFail(const Expr *E, const Interner &Names);

/// The reachable graph of one procedure, flattened for the solvers: its
/// nodes in depth-first preorder, each node's position in that order, on
/// request each position's predecessors, and a worklist over positions.
/// Every array is reused by the next build() or solve.
///
/// All the solvers here are monotone frameworks, so the fixpoint they reach
/// does not depend on the order the worklist hands out nodes; the order
/// only decides how many visits it takes.
class FlowGraph {
public:
  static constexpr unsigned NoPos = ~0u;

  /// Flattens \p P. With \p WithPreds, also lists the predecessors along
  /// the edges \p WithExceptionalEdges selects (for backward problems).
  void build(const IrProc &P, bool WithPreds = false,
             bool WithExceptionalEdges = true);

  const std::vector<Node *> &order() const { return Walk.Order; }
  unsigned size() const { return static_cast<unsigned>(Walk.Order.size()); }
  Node *node(unsigned Pos) const { return Walk.Order[Pos]; }
  /// \p N's position in order(), NoPos when \p N is unreachable.
  unsigned pos(const Node *N) const { return PosOf[N->Id]; }
  /// Size of the procedure's node vector: the row count of per-node sets
  /// indexed by Node::Id.
  unsigned numIds() const { return static_cast<unsigned>(PosOf.size()); }
  /// Predecessor positions of position \p Pos (after build with preds).
  const unsigned *predsBegin(unsigned Pos) const {
    return Preds.data() + PredStart[Pos];
  }
  const unsigned *predsEnd(unsigned Pos) const {
    return Preds.data() + PredStart[Pos + 1];
  }

  /// Starts a solve: every position pending (\p AllPending) or none.
  /// pop() hands out pending positions in sweep order — increasing, or
  /// decreasing when \p Backward — resuming after the last one popped and
  /// wrapping around, so a solve visits nodes as a round-robin sweep would
  /// but skips those whose inputs have not changed.
  void startSolve(bool Backward, bool AllPending);
  void push(unsigned Pos) {
    if (!Pending[Pos]) {
      Pending[Pos] = 1;
      ++NumPending;
    }
  }
  bool pop(unsigned &Pos);

private:
  ReachScratch Walk;
  std::vector<unsigned> PosOf, PredStart, Preds;
  std::vector<uint8_t> Pending;
  unsigned NumPending = 0, Cursor = 0;
  bool Backward = false;
};

/// Forward may-analysis: the variables that *could be* in callee-saves
/// registers (σ) when each node executes, per the CalleeSaves nodes placed
/// by the optimizer. Rows indexed by Node::Id.
BitMatrix computeMaySigma(const IrProc &P, const LocUniverse &U);

/// computeMaySigma over the already-built \p G, into \p In (reusing its
/// storage).
void computeMaySigma(FlowGraph &G, const LocUniverse &U, BitMatrix &In);

/// The forward solve constant and copy propagation share: one lattice cell
/// of type \p CellT per variable and reachable node. The entry's cells all
/// start at the solve's entry cell; every other node is unreached (the
/// lattice's top) until an edge reaches it and hands it that edge's state
/// whole. The pass supplies three functions:
///  - Transfer(N, State): \p N's effect on a state, in place; called only
///    for Entry, CopyIn and Assign nodes, the kinds that have one;
///  - Clobber(N, Kind, State): a call's kills along one outgoing edge;
///  - MeetInto(Cell &, const Cell &): the meet, true when the cell changed.
template <typename CellT> class ForwardStates {
public:
  template <typename TransferFn, typename ClobberFn, typename MeetFn>
  void solve(FlowGraph &G, const IrProc &P, unsigned NumVars, CellT Entry,
             bool WithExceptionalEdges, TransferFn Transfer,
             ClobberFn Clobber, MeetFn MeetInto) {
    NV = NumVars;
    // In-states by position, then two scratch rows: the state out of the
    // node being visited, and that state after one edge's clobbers.
    Cells.assign(size_t(G.size() + 2) * NV, CellT());
    CellT *OutBase = row(G.size()), *EdgeOut = row(G.size() + 1);
    Reached.assign(G.size(), 0);
    unsigned EntryPos = G.pos(P.EntryPoint);
    Reached[EntryPos] = 1;
    std::fill(row(EntryPos), row(EntryPos) + NV, Entry);

    G.startSolve(/*Backward=*/false, /*AllPending=*/false);
    G.push(EntryPos);
    unsigned Pos;
    while (G.pop(Pos)) {
      Node *N = G.node(Pos);
      const CellT *NodeOut = row(Pos);
      if (isa<EntryNode>(N) || isa<CopyInNode>(N) || isa<AssignNode>(N)) {
        std::copy(row(Pos), row(Pos) + NV, OutBase);
        Transfer(N, OutBase);
        NodeOut = OutBase;
      }
      forEachSucc(
          *N,
          [&](Node *S, EdgeKind Kind) {
            const CellT *Out = NodeOut;
            if (isa<CallNode>(N)) {
              std::copy(NodeOut, NodeOut + NV, EdgeOut);
              Clobber(N, Kind, EdgeOut);
              Out = EdgeOut;
            }
            unsigned SPos = G.pos(S);
            CellT *SIn = row(SPos);
            if (!Reached[SPos]) {
              Reached[SPos] = 1;
              std::copy(Out, Out + NV, SIn);
              G.push(SPos);
              return;
            }
            bool Changed = false;
            for (unsigned I = 0; I < NV; ++I)
              Changed |= MeetInto(SIn[I], Out[I]);
            if (Changed)
              G.push(SPos);
          },
          WithExceptionalEdges);
    }
  }

  /// Whether the solve reached position \p Pos, and its in-state if so.
  bool reached(unsigned Pos) const { return Reached[Pos]; }
  const CellT *in(unsigned Pos) const {
    return Cells.data() + size_t(Pos) * NV;
  }

private:
  CellT *row(unsigned Pos) { return Cells.data() + size_t(Pos) * NV; }

  std::vector<CellT> Cells;
  std::vector<uint8_t> Reached;
  unsigned NV = 0;
};

/// Rewires every control-flow edge of \p P that targets \p From to target
/// \p To instead (used to insert or delete nodes).
void replaceAllSuccessorUses(IrProc &P, Node *From, Node *To);

} // namespace cmm

#endif // CMM_OPT_DATAFLOW_H
