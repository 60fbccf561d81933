//===- ir/Validate.cpp ----------------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "ir/Validate.h"

#include "ir/Succ.h"

using namespace cmm;

bool cmm::validateProc(const IrProc &P, const Interner &Names,
                       DiagnosticEngine &Diags) {
  ReachScratch Walk;
  return validateProc(P, Names, Diags, Walk);
}

bool cmm::validateProc(const IrProc &P, const Interner &Names,
                       DiagnosticEngine &Diags, ReachScratch &Walk) {
  unsigned Before = Diags.errorCount();
  auto Error = [&](const Node *N, const std::string &Msg) {
    Diags.error(N ? N->Loc : SourceLoc(),
                "invalid graph in '" + std::string(Names.spelling(P.Name)) +
                    "': " + Msg);
  };

  if (!P.EntryPoint) {
    Error(nullptr, "no entry point");
    return false;
  }
  if (P.isYieldIntrinsic())
    return true;
  if (!isa<EntryNode>(P.EntryPoint)) {
    Error(P.EntryPoint, "entry point is not an Entry node");
    return false;
  }

  // A node belongs to P exactly when its id indexes it in P.Nodes.
  auto Owned = [&](const Node *N) {
    return N->Id < P.Nodes.size() && P.Nodes[N->Id] == N;
  };
  for (const Node *N : P.Nodes)
    if (!Owned(N))
      Error(N, "node id does not index the owner vector");

  auto CheckTarget = [&](const Node *From, const Node *To, const char *What) {
    if (!To) {
      Error(From, std::string("null ") + What + " target");
      return;
    }
    if (!Owned(To))
      Error(From, std::string(What) + " target not owned by this procedure");
  };

  reachableNodes(P, Walk);
  for (Node *N : Walk.Order) {
    switch (N->kind()) {
    case Node::Kind::Entry: {
      if (N != P.EntryPoint)
        Error(N, "secondary Entry node");
      const auto *E = cast<EntryNode>(N);
      CheckTarget(N, E->Next, "entry");
      if (E->Next && !isa<CopyInNode>(E->Next))
        Error(N, "entry successor must be the parameter CopyIn");
      for (const auto &[Name, C] : E->Conts) {
        (void)Name;
        CheckTarget(N, C, "continuation");
        if (C && !isa<CopyInNode>(C))
          Error(N, "continuation node must be a CopyIn");
      }
      break;
    }
    case Node::Kind::CopyIn:
      CheckTarget(N, cast<CopyInNode>(N)->Next, "CopyIn successor");
      break;
    case Node::Kind::CopyOut: {
      const auto *C = cast<CopyOutNode>(N);
      CheckTarget(N, C->Next, "CopyOut successor");
      for (const Expr *E : C->Exprs)
        if (!E)
          Error(N, "null expression in CopyOut");
      break;
    }
    case Node::Kind::CalleeSaves:
      CheckTarget(N, cast<CalleeSavesNode>(N)->Next, "CalleeSaves successor");
      break;
    case Node::Kind::Assign: {
      const auto *A = cast<AssignNode>(N);
      CheckTarget(N, A->Next, "Assign successor");
      if (!A->Value)
        Error(N, "null expression in Assign");
      break;
    }
    case Node::Kind::Store: {
      const auto *S = cast<StoreNode>(N);
      CheckTarget(N, S->Next, "Store successor");
      if (!S->Addr || !S->Value)
        Error(N, "null expression in Store");
      break;
    }
    case Node::Kind::Branch: {
      const auto *B = cast<BranchNode>(N);
      CheckTarget(N, B->TrueDst, "branch true");
      CheckTarget(N, B->FalseDst, "branch false");
      if (!B->Cond)
        Error(N, "null branch condition");
      break;
    }
    case Node::Kind::Call: {
      const auto *C = cast<CallNode>(N);
      if (!C->Callee)
        Error(N, "null callee");
      if (C->Bundle.ReturnsTo.empty()) {
        Error(N, "continuation bundle lacks a normal return");
        break;
      }
      auto CheckCont = [&](Node *T, const char *What, bool MustBeCopyIn) {
        CheckTarget(N, T, What);
        if (T && MustBeCopyIn && !isa<CopyInNode>(T))
          Error(N, std::string(What) + " target must be a CopyIn");
      };
      // Alternate returns, unwinds and cuts target declared continuations
      // (always CopyIn); the normal return may be any node.
      for (size_t I = 0; I + 1 < C->Bundle.ReturnsTo.size(); ++I)
        CheckCont(C->Bundle.ReturnsTo[I], "alternate return", true);
      CheckCont(C->Bundle.ReturnsTo.back(), "normal return", false);
      for (Node *U : C->Bundle.UnwindsTo)
        CheckCont(U, "unwind", true);
      for (Node *K : C->Bundle.CutsTo)
        CheckCont(K, "cut", true);
      break;
    }
    case Node::Kind::Jump:
      if (!cast<JumpNode>(N)->Callee)
        Error(N, "null jump callee");
      break;
    case Node::Kind::CutTo: {
      const auto *C = cast<CutToNode>(N);
      if (!C->Cont)
        Error(N, "null cut-to continuation expression");
      for (Node *K : C->AlsoCutsTo) {
        CheckTarget(N, K, "also cuts to");
        if (K && !isa<CopyInNode>(K))
          Error(N, "also cuts to target must be a CopyIn");
      }
      break;
    }
    case Node::Kind::Exit:
      break;
    case Node::Kind::Yield:
      Error(N, "Yield node inside an ordinary procedure; yield must be "
               "called, not inlined");
      break;
    }
  }
  return Diags.errorCount() == Before;
}

bool cmm::validateProgram(const IrProgram &Prog, DiagnosticEngine &Diags) {
  bool Ok = true;
  ReachScratch Walk;
  for (const auto &P : Prog.Procs)
    Ok &= validateProc(*P, *Prog.Names, Diags, Walk);
  return Ok;
}
