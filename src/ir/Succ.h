//===- ir/Succ.h - CFG edge enumeration -------------------------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Successor enumeration for Abstract C-- graphs. The `also` annotations add
/// extra flow edges from call sites to continuations (Section 4.4); these
/// are first-class edges here, with kinds so analyses can distinguish them
/// (the callee-saves kill applies only along cut edges, Table 3) and so the
/// ablation benchmarks can drop them.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_IR_SUCC_H
#define CMM_IR_SUCC_H

#include "ir/Ir.h"

#include <vector>

namespace cmm {

/// Classifies a control-flow edge.
enum class EdgeKind : uint8_t {
  Seq,       ///< ordinary sequential / branch / normal-return edge
  AltReturn, ///< call -> `also returns to` continuation
  Unwind,    ///< call -> `also unwinds to` continuation
  Cut,       ///< call or cut-to -> `also cuts to` continuation
};

/// True for the edges contributed by exception annotations.
inline bool isExceptionalEdge(EdgeKind K) { return K != EdgeKind::Seq; }

/// Invokes \p F(Succ, Kind) for each successor of \p N. When
/// \p IncludeExceptional is false, only Seq edges are visited — this is the
/// unsound approximation the ablation experiments measure.
template <typename Fn>
void forEachSucc(const Node &N, Fn F, bool IncludeExceptional = true) {
  auto Visit = [&](Node *S, EdgeKind K) {
    if (S && (IncludeExceptional || !isExceptionalEdge(K)))
      F(S, K);
  };
  switch (N.kind()) {
  case Node::Kind::Entry:
    Visit(cast<EntryNode>(&N)->Next, EdgeKind::Seq);
    return;
  case Node::Kind::CopyIn:
    Visit(cast<CopyInNode>(&N)->Next, EdgeKind::Seq);
    return;
  case Node::Kind::CopyOut:
    Visit(cast<CopyOutNode>(&N)->Next, EdgeKind::Seq);
    return;
  case Node::Kind::CalleeSaves:
    Visit(cast<CalleeSavesNode>(&N)->Next, EdgeKind::Seq);
    return;
  case Node::Kind::Assign:
    Visit(cast<AssignNode>(&N)->Next, EdgeKind::Seq);
    return;
  case Node::Kind::Store:
    Visit(cast<StoreNode>(&N)->Next, EdgeKind::Seq);
    return;
  case Node::Kind::Branch:
    Visit(cast<BranchNode>(&N)->TrueDst, EdgeKind::Seq);
    Visit(cast<BranchNode>(&N)->FalseDst, EdgeKind::Seq);
    return;
  case Node::Kind::Call: {
    const auto &B = cast<CallNode>(&N)->Bundle;
    // Normal return is the last entry; the others are alternate returns.
    for (size_t I = 0; I + 1 < B.ReturnsTo.size(); ++I)
      Visit(B.ReturnsTo[I], EdgeKind::AltReturn);
    Visit(B.ReturnsTo.back(), EdgeKind::Seq);
    for (Node *U : B.UnwindsTo)
      Visit(U, EdgeKind::Unwind);
    for (Node *C : B.CutsTo)
      Visit(C, EdgeKind::Cut);
    return;
  }
  case Node::Kind::CutTo:
    for (Node *C : cast<CutToNode>(&N)->AlsoCutsTo)
      Visit(C, EdgeKind::Cut);
    return;
  case Node::Kind::Exit:
  case Node::Kind::Jump:
  case Node::Kind::Yield:
    return;
  }
}

/// Nodes reachable from the entry, in depth-first preorder (successors in
/// enumeration order). Exceptional edges included.
std::vector<Node *> reachableNodes(const IrProc &P);

/// Reusable storage for walks of the reachable graph.
struct ReachScratch {
  std::vector<Node *> Order, Stack;
  std::vector<uint8_t> Seen; ///< indexed by Node::Id
};

/// reachableNodes into \p S.Order, reusing \p S's storage: once \p S has
/// seen a procedure this large, the walk allocates nothing.
void reachableNodes(const IrProc &P, ReachScratch &S);

} // namespace cmm

#endif // CMM_IR_SUCC_H
