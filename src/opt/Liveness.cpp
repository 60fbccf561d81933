//===- opt/Liveness.cpp ---------------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "opt/Liveness.h"

using namespace cmm;

void cmm::computeLiveness(FlowGraph &G, const LocUniverse &U,
                          bool WithExceptionalEdges, Liveness &L) {
  L.LiveIn.reset(G.numIds(), U.size());
  L.LiveOut.reset(G.numIds(), U.size());
  L.Use.reset(G.numIds(), U.size());
  L.Def.reset(G.numIds(), U.size());
  for (Node *N : G.order())
    computeFacts(*N, U, L.Use[N->Id], L.Def[N->Id]);

  BitVector In(U.size());
  G.startSolve(/*Backward=*/true, /*AllPending=*/true);
  unsigned Pos;
  while (G.pop(Pos)) {
    Node *N = G.node(Pos);
    BitRow Out = L.LiveOut[N->Id];
    Out.clear();
    forEachSucc(
        *N, [&](Node *S, EdgeKind) { Out.unionWith(L.LiveIn[S->Id]); },
        WithExceptionalEdges);
    // Every outgoing edge of a call redefines the whole argument-passing
    // area (results or continuation parameters).
    if (isa<CallNode>(N))
      Out.subtract(U.args());
    In.assign(Out);
    In.subtract(L.Def[N->Id]);
    In.unionWith(L.Use[N->Id]);
    if (In == L.LiveIn[N->Id])
      continue;
    L.LiveIn[N->Id].assign(In);
    for (const unsigned *P = G.predsBegin(Pos); P != G.predsEnd(Pos); ++P)
      G.push(*P);
  }
}

Liveness cmm::computeLiveness(const IrProc &P, const LocUniverse &U,
                              bool WithExceptionalEdges) {
  FlowGraph G;
  G.build(P, /*WithPreds=*/true, WithExceptionalEdges);
  Liveness L;
  computeLiveness(G, U, WithExceptionalEdges, L);
  return L;
}

BitVector cmm::liveIntoContinuation(const Liveness &L, const LocUniverse &U,
                                    const Node *Target) {
  BitVector Live = L.LiveIn[Target->Id];
  Live.subtract(U.args());
  return Live;
}
