//===- opt/CalleeSaves.cpp ------------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "opt/CalleeSaves.h"

using namespace cmm;

CalleeSavesReport cmm::placeCalleeSaves(IrProc &P, const IrProgram &Prog,
                                        const CalleeSavesOptions &Opts) {
  CalleeSavesReport Report;
  if (P.isYieldIntrinsic())
    return Report;

  LocUniverse U = LocUniverse::forProc(P, Prog);
  FlowGraph G;
  G.build(P, /*WithPreds=*/true,
          /*WithExceptionalEdges=*/Opts.RespectCutEdges);
  Liveness L;
  computeLiveness(G, U, /*WithExceptionalEdges=*/Opts.RespectCutEdges, L);

  // Snapshot the calls before we start inserting nodes.
  std::vector<CallNode *> Calls;
  for (Node *N : G.order())
    if (auto *C = dyn_cast<CallNode>(N))
      Calls.push_back(C);

  for (CallNode *C : Calls) {
    // Variables whose values must survive into the normal continuation.
    Node *Normal = C->Bundle.normalReturn();
    BitVector LiveAcross = liveIntoContinuation(L, U, Normal);

    // Only the procedure's own variables live in its frame or its
    // callee-saves registers; globals are dedicated machine registers.
    std::vector<unsigned> Candidates;
    LiveAcross.forEach([&](size_t I) {
      if (U.isVar(static_cast<unsigned>(I)) &&
          !U.isGlobalVar(static_cast<unsigned>(I)))
        Candidates.push_back(static_cast<unsigned>(I));
    });
    if (Candidates.empty())
      continue;

    // A value needed by a cut continuation must not be in a callee-saves
    // register across this call: the cut cannot restore it (Section 4.2).
    // Unwind and alternate-return continuations impose no such constraint —
    // those transfers restore callee-saves registers.
    BitVector KilledByCuts(U.size());
    if (Opts.RespectCutEdges)
      for (Node *Cut : C->Bundle.CutsTo)
        KilledByCuts.unionWith(liveIntoContinuation(L, U, Cut));

    std::vector<Symbol> Chosen;
    for (unsigned I : Candidates) {
      if (KilledByCuts.test(I)) {
        ++Report.VarsExcludedByCutEdges;
        continue;
      }
      if (Chosen.size() >= Opts.NumRegisters) {
        ++Report.VarsSpilledForPressure;
        continue;
      }
      Chosen.push_back(U.varAt(I));
    }
    if (Chosen.empty())
      continue;

    auto *CS = P.make<CalleeSavesNode>();
    CS->Loc = C->Loc;
    CS->Saved = P.copyList<Symbol>(Chosen);
    replaceAllSuccessorUses(P, C, CS);
    CS->Next = C;
    ++Report.CallsAnnotated;
    Report.VarsPlaced += static_cast<unsigned>(CS->Saved.size());
  }

  // A CalleeSaves set stays in effect until the next CalleeSaves node, so a
  // call we chose not to annotate can still execute with variables in
  // callee-saves registers, left there by an earlier call's node on the
  // same path. If such a variable is live into one of the call's cut
  // continuations, the cut kills it — the very hazard the exclusion above
  // guards against. Flush: give every such call an empty CalleeSaves node,
  // returning the registers' contents to the frame before the call. Empty
  // sets only shrink the downstream may-Sigma, so one pass suffices.
  if (Opts.RespectCutEdges) {
    G.build(P);
    BitMatrix MaySigma;
    computeMaySigma(G, U, MaySigma);
    std::vector<CallNode *> Hazardous;
    for (Node *N : G.order()) {
      auto *C = dyn_cast<CallNode>(N);
      if (!C || C->Bundle.CutsTo.empty())
        continue;
      BitVector Hazard(U.size());
      for (Node *Cut : C->Bundle.CutsTo)
        Hazard.unionWith(liveIntoContinuation(L, U, Cut));
      Hazard.intersectWith(MaySigma[C->Id]);
      if (Hazard.count() != 0)
        Hazardous.push_back(C);
    }
    for (CallNode *C : Hazardous) {
      auto *CS = P.make<CalleeSavesNode>();
      CS->Loc = C->Loc;
      replaceAllSuccessorUses(P, C, CS);
      CS->Next = C;
      ++Report.CutHazardFlushes;
    }
  }
  return Report;
}

unsigned cmm::countKilledLiveValues(const IrProc &P, const IrProgram &Prog) {
  if (P.isYieldIntrinsic())
    return 0;
  LocUniverse U = LocUniverse::forProc(P, Prog);
  Liveness L = computeLiveness(P, U, /*WithExceptionalEdges=*/true);
  BitMatrix Sigma = computeMaySigma(P, U);

  unsigned Bugs = 0;
  for (Node *N : reachableNodes(P)) {
    const auto *C = dyn_cast<CallNode>(N);
    if (!C)
      continue;
    for (Node *Cut : C->Bundle.CutsTo) {
      BitVector Killed = Sigma[N->Id];
      Killed.intersectWith(liveIntoContinuation(L, U, Cut));
      Bugs += static_cast<unsigned>(Killed.count());
    }
  }
  return Bugs;
}
