//===- sem/Executor.cpp ---------------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
// Backend-shared pieces of the executor interface: link-time constants,
// Code values and the resume-parameter-count query. Each is a pure function
// of state every backend already exposes, so it lives here once.
//
//===----------------------------------------------------------------------===//

#include "sem/Executor.h"

#include "support/Assert.h"
#include "support/Casting.h"

using namespace cmm;

std::optional<Value> cmm::linkTimeConstant(const IrProgram &Prog,
                                           const Expr *E) {
  switch (E->kind()) {
  case Expr::Kind::IntLit:
    return Value::bits(E->Ty.Width, cast<IntLitExpr>(E)->Value);
  case Expr::Kind::StrLit: {
    auto It = Prog.StrAddrs.find(cast<StrLitExpr>(E));
    if (It == Prog.StrAddrs.end())
      return std::nullopt;
    return Value::bits(TargetInfo::nativePointer().Width, It->second);
  }
  case Expr::Kind::Name: {
    const auto *N = cast<NameExpr>(E);
    if (N->Ref == RefKind::DataLabel) {
      auto It = Prog.DataAddrs.find(N->Name);
      if (It == Prog.DataAddrs.end())
        return std::nullopt;
      return Value::bits(TargetInfo::nativePointer().Width, It->second);
    }
    if (N->Ref == RefKind::Proc || N->Ref == RefKind::Import) {
      if (const IrProc *P = Prog.findProc(N->Name))
        return Value::code(P->Index);
      auto It = Prog.DataAddrs.find(N->Name);
      if (It != Prog.DataAddrs.end())
        return Value::bits(TargetInfo::nativePointer().Width, It->second);
      return std::nullopt;
    }
    return std::nullopt;
  }
  default:
    return std::nullopt;
  }
}

Value Executor::codeValue(const IrProc *P) const {
  assert(P->Index < program().Procs.size() &&
         program().Procs[P->Index].get() == P &&
         "procedure not in this program");
  return Value::code(P->Index);
}

std::optional<unsigned>
Executor::resumeParamCount(const ResumeChoice &Choice) const {
  const Node *Target = nullptr;
  switch (Choice.K) {
  case ResumeChoice::Kind::Return: {
    if (stackDepth() == 0)
      return std::nullopt;
    const ContBundle &B = frameCallSite(0)->Bundle;
    if (Choice.Index >= B.ReturnsTo.size())
      return std::nullopt;
    Target = B.ReturnsTo[Choice.Index];
    break;
  }
  case ResumeChoice::Kind::Unwind: {
    if (stackDepth() == 0)
      return std::nullopt;
    const ContBundle &B = frameCallSite(0)->Bundle;
    if (Choice.Index >= B.UnwindsTo.size())
      return std::nullopt;
    Target = B.UnwindsTo[Choice.Index];
    break;
  }
  case ResumeChoice::Kind::Cut: {
    const ContRecord *Rec = decodeCont(Choice.ContValue);
    if (!Rec)
      return std::nullopt;
    Target = Rec->Target;
    break;
  }
  }
  if (const auto *In = dyn_cast<CopyInNode>(Target))
    return static_cast<unsigned>(In->Vars.size());
  return 0;
}
