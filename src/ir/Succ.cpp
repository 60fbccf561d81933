//===- ir/Succ.cpp --------------------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "ir/Succ.h"

#include <algorithm>

using namespace cmm;

void cmm::reachableNodes(const IrProc &P, ReachScratch &S) {
  S.Order.clear();
  if (!P.EntryPoint)
    return;
  S.Order.reserve(P.Nodes.size());
  S.Seen.assign(P.Nodes.size(), 0);
  S.Stack.assign(1, P.EntryPoint);
  S.Seen[P.EntryPoint->Id] = 1;
  while (!S.Stack.empty()) {
    Node *N = S.Stack.back();
    S.Stack.pop_back();
    S.Order.push_back(N);
    // Push the unseen successors, then reverse them in place so DFS visits
    // them in enumeration order.
    size_t First = S.Stack.size();
    forEachSucc(*N, [&](Node *Succ, EdgeKind) {
      if (!S.Seen[Succ->Id]) {
        S.Seen[Succ->Id] = 1;
        S.Stack.push_back(Succ);
      }
    });
    std::reverse(S.Stack.begin() + First, S.Stack.end());
  }
}

std::vector<Node *> cmm::reachableNodes(const IrProc &P) {
  ReachScratch S;
  reachableNodes(P, S);
  return std::move(S.Order);
}
