//===- opt/Liveness.h - Live-variable analysis ------------------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Backward liveness over Abstract C-- graphs, built on the Table 3 facts.
/// The exceptional edges contributed by the `also` annotations are included
/// by default; WithExceptionalEdges=false gives the unsound approximation
/// whose consequences the Table 3 ablation benchmark measures (compare
/// Hennessy 1981 and Section 6 of the paper).
///
//===----------------------------------------------------------------------===//

#ifndef CMM_OPT_LIVENESS_H
#define CMM_OPT_LIVENESS_H

#include "opt/Dataflow.h"

namespace cmm {

/// Per-node live sets and the Use/Def facts they were solved from, all
/// indexed by Node::Id.
struct Liveness {
  BitMatrix LiveIn, LiveOut;
  BitMatrix Use, Def;
};

/// Solves liveness for \p P.
Liveness computeLiveness(const IrProc &P, const LocUniverse &U,
                         bool WithExceptionalEdges = true);

/// Solves liveness over \p G — built with predecessor lists for the same
/// \p WithExceptionalEdges — into \p L, reusing \p L's storage. A worklist
/// solve, seeded in reverse depth-first order over the predecessor lists.
void computeLiveness(FlowGraph &G, const LocUniverse &U,
                     bool WithExceptionalEdges, Liveness &L);

/// The locations live along the edge from Call node \p C into continuation
/// \p Target: LiveIn(Target) minus the argument-area slots (every outgoing
/// edge of a call redefines A).
BitVector liveIntoContinuation(const Liveness &L, const LocUniverse &U,
                               const Node *Target);

} // namespace cmm

#endif // CMM_OPT_LIVENESS_H
