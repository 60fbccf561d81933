//===- opt/DeadCode.cpp ---------------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "opt/DeadCode.h"

using namespace cmm;

DeadCodeReport cmm::eliminateDeadCode(IrProc &P, const IrProgram &Prog,
                                      bool WithExceptionalEdges) {
  DeadCodeReport Report;
  if (P.isYieldIntrinsic())
    return Report;

  // Removing an assignment only unlinks it: it stays in P.Nodes, which is
  // all forProc reads, so one universe serves every sweep.
  LocUniverse U = LocUniverse::forProc(P, Prog);
  FlowGraph G;
  Liveness L;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    G.build(P, /*WithPreds=*/true, WithExceptionalEdges);
    computeLiveness(G, U, WithExceptionalEdges, L);
    for (Node *N : G.order()) {
      auto *A = dyn_cast<AssignNode>(N);
      if (!A)
        continue;
      std::optional<unsigned> I = U.varIndex(A->Var);
      if (!I || L.LiveOut[N->Id].test(*I))
        continue;
      // Evaluating the right-hand side must not be observable: expressions
      // are pure, but the fast-but-dangerous primitives can make the
      // machine go wrong, and that behaviour must be preserved.
      if (exprCanFail(A->Value, *Prog.Names))
        continue;
      replaceAllSuccessorUses(P, A, A->Next);
      ++Report.AssignsRemoved;
      Changed = true;
    }
  }
  return Report;
}
