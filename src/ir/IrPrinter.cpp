//===- ir/IrPrinter.cpp ---------------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "ir/IrPrinter.h"

#include "ir/Succ.h"
#include "support/Assert.h"
#include "syntax/AstPrinter.h"

using namespace cmm;

namespace {

std::string ref(const Node *N) {
  if (!N)
    return "<null>";
  return "n" + std::to_string(N->Id);
}

std::string symList(std::span<const Symbol> Syms, const Interner &Names) {
  std::string Out;
  for (size_t I = 0; I < Syms.size(); ++I) {
    if (I)
      Out += ", ";
    Out += Names.spelling(Syms[I]);
  }
  return Out;
}

std::string exprList(std::span<const Expr *const> Exprs,
                     const Interner &Names) {
  std::string Out;
  for (size_t I = 0; I < Exprs.size(); ++I) {
    if (I)
      Out += ", ";
    Out += printExpr(*Exprs[I], Names);
  }
  return Out;
}

std::string nodeText(const Node *N, const Interner &Names) {
  switch (N->kind()) {
  case Node::Kind::Entry: {
    const auto *E = cast<EntryNode>(N);
    std::string Out = "Entry [";
    for (size_t I = 0; I < E->Conts.size(); ++I) {
      if (I)
        Out += ", ";
      Out += std::string(Names.spelling(E->Conts[I].first)) + "=" +
             ref(E->Conts[I].second);
    }
    return Out + "] -> " + ref(E->Next);
  }
  case Node::Kind::Exit: {
    const auto *E = cast<ExitNode>(N);
    return "Exit <" + std::to_string(E->ContIndex) + "/" +
           std::to_string(E->AltCount) + ">";
  }
  case Node::Kind::CopyIn: {
    const auto *C = cast<CopyInNode>(N);
    return "CopyIn [" + symList(C->Vars, Names) + "] -> " + ref(C->Next);
  }
  case Node::Kind::CopyOut: {
    const auto *C = cast<CopyOutNode>(N);
    return "CopyOut [" + exprList(C->Exprs, Names) + "] -> " + ref(C->Next);
  }
  case Node::Kind::CalleeSaves: {
    const auto *C = cast<CalleeSavesNode>(N);
    return "CalleeSaves {" + symList(C->Saved, Names) + "} -> " +
           ref(C->Next);
  }
  case Node::Kind::Assign: {
    const auto *A = cast<AssignNode>(N);
    return std::string(Names.spelling(A->Var)) + " := " +
           printExpr(*A->Value, Names) +
           " -> " + ref(A->Next);
  }
  case Node::Kind::Store: {
    const auto *S = cast<StoreNode>(N);
    return S->AccessTy.str() + "[" + printExpr(*S->Addr, Names) +
           "] := " + printExpr(*S->Value, Names) + " -> " + ref(S->Next);
  }
  case Node::Kind::Branch: {
    const auto *B = cast<BranchNode>(N);
    return "Branch " + printExpr(*B->Cond, Names) + " ? " + ref(B->TrueDst) +
           " : " + ref(B->FalseDst);
  }
  case Node::Kind::Call: {
    const auto *C = cast<CallNode>(N);
    std::string Out = "Call " + printExpr(*C->Callee, Names) + "/" +
                      std::to_string(C->NumArgs) + " returns[";
    for (size_t I = 0; I < C->Bundle.ReturnsTo.size(); ++I) {
      if (I)
        Out += ", ";
      Out += ref(C->Bundle.ReturnsTo[I]);
    }
    Out += "]";
    if (!C->Bundle.UnwindsTo.empty()) {
      Out += " unwinds[";
      for (size_t I = 0; I < C->Bundle.UnwindsTo.size(); ++I) {
        if (I)
          Out += ", ";
        Out += ref(C->Bundle.UnwindsTo[I]);
      }
      Out += "]";
    }
    if (!C->Bundle.CutsTo.empty()) {
      Out += " cuts[";
      for (size_t I = 0; I < C->Bundle.CutsTo.size(); ++I) {
        if (I)
          Out += ", ";
        Out += ref(C->Bundle.CutsTo[I]);
      }
      Out += "]";
    }
    if (C->Bundle.Abort)
      Out += " aborts";
    return Out;
  }
  case Node::Kind::Jump: {
    const auto *J = cast<JumpNode>(N);
    return "Jump " + printExpr(*J->Callee, Names) + "/" +
           std::to_string(J->NumArgs);
  }
  case Node::Kind::CutTo: {
    const auto *C = cast<CutToNode>(N);
    std::string Out = "CutTo " + printExpr(*C->Cont, Names) + "/" +
                      std::to_string(C->NumArgs);
    if (!C->AlsoCutsTo.empty()) {
      Out += " cuts[";
      for (size_t I = 0; I < C->AlsoCutsTo.size(); ++I) {
        if (I)
          Out += ", ";
        Out += ref(C->AlsoCutsTo[I]);
      }
      Out += "]";
    }
    return Out;
  }
  case Node::Kind::Yield:
    return "Yield";
  }
  cmm_unreachable("unknown node kind");
}

} // namespace

std::string cmm::printProc(const IrProc &P, const Interner &Names) {
  std::string Out = std::string(Names.spelling(P.Name)) + ":\n";
  for (const Node *N : reachableNodes(P))
    Out += "  n" + std::to_string(N->Id) + ": " + nodeText(N, Names) + "\n";
  return Out;
}

std::string cmm::printProgram(const IrProgram &Prog) {
  std::string Out;
  for (const auto &P : Prog.Procs)
    Out += printProc(*P, *Prog.Names);
  return Out;
}
