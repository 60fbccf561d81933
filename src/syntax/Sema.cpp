//===- syntax/Sema.cpp ----------------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "syntax/Sema.h"

#include "support/Assert.h"
#include "support/Casting.h"
#include "syntax/PrimOps.h"

using namespace cmm;

namespace {

class SemaImpl {
public:
  SemaImpl(Module &Mod, DiagnosticEngine &Diags)
      : Mod(Mod), Diags(Diags), Info(Mod.Arena.bytesUsed() / 8),
        Slots(Info.Memory.get()) {
    YieldSym = Mod.Names->intern("yield");
  }

  SemaInfo run();

private:
  /// What a Symbol names, for O(1) resolution: its module-level definition,
  /// and its local meaning in the procedure being checked (valid while
  /// LocalStamp == Stamp). Indexed by Symbol id.
  struct NameSlot {
    enum class TopKind : uint8_t { None, Global, Data, Proc };
    TopKind Top = TopKind::None;
    bool Import = false;
    bool LocalVar = false;
    bool LocalCont = false;
    uint32_t LocalStamp = 0;
    Type GlobalTy, LocalTy;
  };

  std::string spell(Symbol S) { return std::string(Mod.Names->spelling(S)); }
  NameSlot &slot(Symbol S) { return Slots[S.Id]; }
  bool isVar(Symbol S) {
    return slot(S).LocalStamp == Stamp && slot(S).LocalVar;
  }
  bool isCont(Symbol S) {
    return slot(S).LocalStamp == Stamp && slot(S).LocalCont;
  }
  bool isGlobal(Symbol S) { return slot(S).Top == NameSlot::TopKind::Global; }

  void collectModuleNames();
  void collectProcNames(const ProcDecl &P, ProcInfo &PI);
  void collectNames(std::span<Stmt *const> Stmts, ProcInfo &PI,
                    bool TopLevel);
  /// Kept out of line, as is checkStmt: their frames are large, and only
  /// collectNames and checkStmts recurse once per nested if.
  [[gnu::noinline]] void collectStmtNames(const Stmt *S, ProcInfo &PI,
                                          bool TopLevel);

  void checkProc(const ProcDecl &P, ProcInfo &PI);
  void checkStmts(std::span<Stmt *const> Stmts, ProcInfo &PI, bool TopLevel);
  void checkCond(Expr *Cond, ProcInfo &PI);
  [[gnu::noinline]] void checkStmt(Stmt *S, ProcInfo &PI, bool TopLevel);
  void checkAnnotations(Annotations &A, ProcInfo &PI, SourceLoc Loc);
  bool stmtTerminates(const Stmt *S) const;

  /// Resolves \p E; \p Expected is the type the context wants, used to give
  /// integer literals a width. Null means "no expectation".
  void resolveExpr(Expr *E, const Type *Expected, ProcInfo &PI);
  void resolveCallee(Expr *E, ProcInfo &PI);

  Module &Mod;
  DiagnosticEngine &Diags;
  SemaInfo Info;
  std::pmr::vector<NameSlot> Slots;
  /// Identifies the procedure being checked in NameSlot::LocalStamp.
  uint32_t Stamp = 0;
  Symbol YieldSym;
};

SemaInfo SemaImpl::run() {
  // Every name of the module is interned by now: the parser interned them
  // and the constructor interned "yield".
  Slots.resize(Mod.Names->size() + 1);
  collectModuleNames();
  Info.Procs.reserve(Mod.Procs.size());
  for (const ProcDecl &P : Mod.Procs)
    collectProcNames(P, Info.Procs.emplace_back(Info.Memory.get()));
  for (size_t I = 0; I < Mod.Procs.size(); ++I)
    checkProc(Mod.Procs[I], Info.Procs[I]);
  return std::move(Info);
}

void SemaImpl::collectModuleNames() {
  auto DefineTop = [&](Symbol Name, SourceLoc Loc, NameSlot::TopKind K) {
    NameSlot &S = slot(Name);
    if (S.Top != NameSlot::TopKind::None) {
      Diags.error(Loc, "redefinition of '" + spell(Name) + "'");
      return false;
    }
    S.Top = K;
    return true;
  };
  for (const GlobalDecl &G : Mod.Globals)
    if (DefineTop(G.Name, G.Loc, NameSlot::TopKind::Global))
      slot(G.Name).GlobalTy = G.Ty;
  for (const DataDecl &D : Mod.Data)
    DefineTop(D.Name, D.Loc, NameSlot::TopKind::Data);
  for (const ProcDecl &P : Mod.Procs) {
    if (P.Name == YieldSym)
      Diags.error(P.Loc, "'yield' is reserved for the run-time system and "
                         "cannot be defined");
    DefineTop(P.Name, P.Loc, NameSlot::TopKind::Proc);
  }
  for (Symbol S : Mod.Imports) {
    if (slot(S).Top != NameSlot::TopKind::None) {
      Diags.error(SourceLoc(), "import '" + spell(S) +
                                   "' collides with a definition");
    } else {
      Info.ImportNames.insert(S);
      slot(S).Import = true;
    }
  }
}

void SemaImpl::collectProcNames(const ProcDecl &P, ProcInfo &PI) {
  for (const Param &Prm : P.Params) {
    if (!PI.Vars.emplace(Prm.Name, Prm.Ty).second)
      Diags.error(P.Loc, "duplicate parameter '" + spell(Prm.Name) + "'");
  }
  collectNames(P.Body, PI, /*TopLevel=*/true);
}

void SemaImpl::collectNames(std::span<Stmt *const> Stmts, ProcInfo &PI,
                            bool TopLevel) {
  for (const Stmt *S : Stmts) {
    const auto *If = dyn_cast<IfStmt>(S);
    if (!If) {
      collectStmtNames(S, PI, TopLevel);
      continue;
    }
    // An else-if chain is a loop.
    while (true) {
      collectNames(If->Then, PI, /*TopLevel=*/false);
      const IfStmt *Next = If->elseIf();
      if (!Next)
        break;
      If = Next;
    }
    collectNames(If->Else, PI, /*TopLevel=*/false);
  }
}

void SemaImpl::collectStmtNames(const Stmt *S, ProcInfo &PI, bool TopLevel) {
  if (const auto *VD = dyn_cast<VarDeclStmt>(S)) {
    for (Symbol Name : VD->Names) {
      if (PI.Continuations.count(Name)) {
        Diags.error(VD->loc(), "variable '" + spell(Name) +
                                   "' collides with a continuation");
        continue;
      }
      if (!PI.Vars.emplace(Name, VD->DeclTy).second)
        Diags.error(VD->loc(), "redeclaration of variable '" + spell(Name) +
                                   "'");
    }
    return;
  }
  if (const auto *L = dyn_cast<LabelStmt>(S)) {
    if (!PI.Labels.insert(L->Name).second)
      Diags.error(L->loc(), "duplicate label '" + spell(L->Name) + "'");
    return;
  }
  if (const auto *C = dyn_cast<ContinuationStmt>(S)) {
    if (!TopLevel)
      Diags.error(C->loc(), "continuations may be declared only at the top "
                            "level of a procedure body");
    if (PI.Vars.count(C->Name))
      Diags.error(C->loc(), "continuation '" + spell(C->Name) +
                                "' collides with a variable");
    if (!PI.Continuations.emplace(C->Name, C).second)
      Diags.error(C->loc(),
                  "duplicate continuation '" + spell(C->Name) + "'");
    return;
  }
}

bool SemaImpl::stmtTerminates(const Stmt *S) const {
  switch (S->kind()) {
  case Stmt::Kind::Return:
  case Stmt::Kind::Jump:
  case Stmt::Kind::CutTo:
  case Stmt::Kind::Goto:
    return true;
  case Stmt::Kind::If:
    // An else-if chain terminates when every arm does.
    for (const auto *If = cast<IfStmt>(S);;) {
      if (If->Then.empty() || If->Else.empty() ||
          !stmtTerminates(If->Then.back()))
        return false;
      const IfStmt *Next = If->elseIf();
      if (!Next)
        return stmtTerminates(If->Else.back());
      If = Next;
    }
  default:
    return false;
  }
}

void SemaImpl::checkProc(const ProcDecl &P, ProcInfo &PI) {
  ++Stamp;
  for (const auto &[Name, C] : PI.Continuations) {
    NameSlot &S = slot(Name);
    S.LocalStamp = Stamp;
    S.LocalVar = false;
    S.LocalCont = true;
  }
  for (const auto &[Name, Ty] : PI.Vars) {
    NameSlot &S = slot(Name);
    S.LocalCont = S.LocalStamp == Stamp && S.LocalCont;
    S.LocalStamp = Stamp;
    S.LocalVar = true;
    S.LocalTy = Ty;
  }

  // Control must not fall through into a continuation's CopyIn: the argument
  // area would hold stale values. Require the preceding statement to leave.
  const Stmt *Prev = nullptr;
  for (const Stmt *S : P.Body) {
    if (isa<ContinuationStmt>(S)) {
      if (!Prev || !stmtTerminates(Prev))
        Diags.error(S->loc(), "control may fall through into continuation "
                              "'" +
                                  spell(cast<ContinuationStmt>(S)->Name) +
                                  "'");
    }
    if (!isa<VarDeclStmt>(S))
      Prev = S;
  }
  checkStmts(P.Body, PI, /*TopLevel=*/true);
}

void SemaImpl::checkStmts(std::span<Stmt *const> Stmts, ProcInfo &PI,
                          bool TopLevel) {
  for (Stmt *S : Stmts) {
    auto *If = dyn_cast<IfStmt>(S);
    if (!If) {
      checkStmt(S, PI, TopLevel);
      continue;
    }
    // Nested ifs recurse here, not through checkStmt's large frame, and an
    // else-if chain is a loop.
    while (true) {
      checkCond(If->Cond, PI);
      checkStmts(If->Then, PI, /*TopLevel=*/false);
      IfStmt *Next = If->elseIf();
      if (!Next)
        break;
      If = Next;
    }
    checkStmts(If->Else, PI, /*TopLevel=*/false);
  }
}

void SemaImpl::checkCond(Expr *Cond, ProcInfo &PI) {
  resolveExpr(Cond, nullptr, PI);
  if (!Cond->Ty.isBits())
    Diags.error(Cond->loc(), "condition must be a bits value");
}

void SemaImpl::checkAnnotations(Annotations &A, ProcInfo &PI, SourceLoc Loc) {
  auto CheckConts = [&](std::span<const Symbol> Names, const char *What) {
    for (Symbol Name : Names)
      if (!isCont(Name))
        Diags.error(Loc, std::string("'") + spell(Name) + "' in '" + What +
                             "' is not a continuation of this procedure");
  };
  CheckConts(A.CutsTo, "also cuts to");
  CheckConts(A.UnwindsTo, "also unwinds to");
  CheckConts(A.ReturnsTo, "also returns to");
  for (Expr *D : A.Descriptors) {
    resolveExpr(D, nullptr, PI);
    bool Constant = isa<IntLitExpr>(D) || isa<StrLitExpr>(D);
    if (const auto *N = dyn_cast<NameExpr>(D))
      Constant = N->Ref == RefKind::DataLabel || N->Ref == RefKind::Proc ||
                 N->Ref == RefKind::Import;
    if (!Constant)
      Diags.error(D->loc(), "call-site descriptors must be link-time "
                            "constants");
  }
}

void SemaImpl::checkStmt(Stmt *S, ProcInfo &PI, bool TopLevel) {
  switch (S->kind()) {
  case Stmt::Kind::VarDecl:
    return; // collected earlier

  case Stmt::Kind::Assign: {
    auto *A = cast<AssignStmt>(S);
    Type TargetTy;
    if (isVar(A->Target)) {
      TargetTy = slot(A->Target).LocalTy;
    } else {
      if (isGlobal(A->Target)) {
        TargetTy = slot(A->Target).GlobalTy;
      } else {
        Diags.error(A->loc(), "assignment to undeclared variable '" +
                                  spell(A->Target) + "'");
        TargetTy = Type::bits(32);
      }
    }
    resolveExpr(A->Value, &TargetTy, PI);
    if (A->Value->Ty != TargetTy)
      Diags.error(A->loc(), "assigning " + A->Value->Ty.str() + " value to " +
                                TargetTy.str() + " variable '" +
                                spell(A->Target) + "'");
    return;
  }

  case Stmt::Kind::MemAssign: {
    auto *M = cast<MemAssignStmt>(S);
    Type PtrTy = TargetInfo::nativePointer();
    resolveExpr(M->Addr, &PtrTy, PI);
    resolveExpr(M->Value, &M->AccessTy, PI);
    if (M->Addr->Ty != PtrTy)
      Diags.error(M->loc(), "store address must have the native data-pointer "
                            "type " +
                                PtrTy.str());
    if (M->Value->Ty != M->AccessTy)
      Diags.error(M->loc(), "storing " + M->Value->Ty.str() + " value as " +
                                M->AccessTy.str());
    return;
  }

  case Stmt::Kind::If:
    cmm_unreachable("checkStmts checks ifs");

  case Stmt::Kind::Goto: {
    auto *G = cast<GotoStmt>(S);
    if (G->Target && !PI.Labels.count(G->Target))
      Diags.error(G->loc(), "goto target '" + spell(G->Target) +
                                "' is not a label in this procedure");
    return;
  }

  case Stmt::Kind::Label:
    return;

  case Stmt::Kind::Call: {
    auto *C = cast<CallStmt>(S);
    resolveCallee(C->Callee, PI);
    for (Expr *Arg : C->Args)
      resolveExpr(Arg, nullptr, PI);
    for (Symbol R : C->Results)
      if (!isVar(R) && !isGlobal(R))
        Diags.error(C->loc(), "call result '" + spell(R) +
                                  "' is not a declared variable");
    checkAnnotations(C->Annots, PI, C->loc());
    return;
  }

  case Stmt::Kind::Jump: {
    auto *J = cast<JumpStmt>(S);
    resolveCallee(J->Callee, PI);
    for (Expr *Arg : J->Args)
      resolveExpr(Arg, nullptr, PI);
    return;
  }

  case Stmt::Kind::Return: {
    auto *R = cast<ReturnStmt>(S);
    if (R->ContIndex > R->AltCount)
      Diags.error(R->loc(), "return continuation index exceeds count in "
                            "return <i/n>");
    for (Expr *V : R->Values)
      resolveExpr(V, nullptr, PI);
    return;
  }

  case Stmt::Kind::CutTo: {
    auto *C = cast<CutToStmt>(S);
    Type PtrTy = TargetInfo::nativePointer();
    resolveExpr(C->Cont, &PtrTy, PI);
    for (Expr *Arg : C->Args)
      resolveExpr(Arg, nullptr, PI);
    for (Symbol K : C->AlsoCutsTo)
      if (!isCont(K))
        Diags.error(C->loc(), "'" + spell(K) + "' in 'also cuts to' is not "
                                                "a continuation of this "
                                                "procedure");
    return;
  }

  case Stmt::Kind::Continuation: {
    auto *C = cast<ContinuationStmt>(S);
    (void)TopLevel; // nesting reported during collection
    for (Symbol Prm : C->Params)
      if (!isVar(Prm))
        Diags.error(C->loc(),
                    "continuation parameter '" + spell(Prm) +
                        "' must be a variable of the enclosing procedure");
    return;
  }
  }
  cmm_unreachable("unknown statement kind");
}

void SemaImpl::resolveCallee(Expr *E, ProcInfo &PI) {
  auto *N = dyn_cast<NameExpr>(E);
  if (!N) {
    Diags.error(E->loc(), "call target must be a name");
    return;
  }
  if (N->Name == YieldSym) {
    N->Ref = RefKind::Proc;
    N->Ty = TargetInfo::nativeCode();
    return;
  }
  if (Mod.Names->spelling(N->Name).starts_with("%%") &&
      slot(N->Name).Top != NameSlot::TopKind::Proc) {
    // Slow-but-solid primitives are supplied by the standard library; treat
    // unresolved uses as imports bound at link time.
    Info.ImportNames.insert(N->Name);
    slot(N->Name).Import = true;
    N->Ref = RefKind::Import;
    N->Ty = TargetInfo::nativeCode();
    return;
  }
  resolveExpr(E, nullptr, PI);
}

void SemaImpl::resolveExpr(Expr *E, const Type *Expected, ProcInfo &PI) {
  switch (E->kind()) {
  case Expr::Kind::IntLit:
    E->Ty = (Expected && Expected->isBits()) ? *Expected : Type::bits(32);
    return;
  case Expr::Kind::FloatLit:
    E->Ty = (Expected && Expected->isFloat()) ? *Expected : Type::flt(64);
    return;
  case Expr::Kind::StrLit:
    E->Ty = TargetInfo::nativePointer();
    return;

  case Expr::Kind::Name: {
    auto *N = cast<NameExpr>(E);
    const NameSlot &Slot = slot(N->Name);
    if (isVar(N->Name)) {
      N->Ref = RefKind::Local;
      N->Ty = Slot.LocalTy;
      return;
    }
    if (isCont(N->Name)) {
      N->Ref = RefKind::Continuation;
      N->Ty = TargetInfo::nativePointer();
      return;
    }
    if (Slot.Top == NameSlot::TopKind::Global) {
      N->Ref = RefKind::Global;
      N->Ty = Slot.GlobalTy;
      return;
    }
    if (Slot.Top == NameSlot::TopKind::Data) {
      N->Ref = RefKind::DataLabel;
      N->Ty = TargetInfo::nativePointer();
      return;
    }
    if (Slot.Top == NameSlot::TopKind::Proc || N->Name == YieldSym) {
      N->Ref = RefKind::Proc;
      N->Ty = TargetInfo::nativeCode();
      return;
    }
    if (Slot.Import) {
      N->Ref = RefKind::Import;
      N->Ty = TargetInfo::nativePointer();
      return;
    }
    Diags.error(N->loc(), "use of undeclared name '" + spell(N->Name) + "'");
    N->Ty = Type::bits(32);
    return;
  }

  case Expr::Kind::Load: {
    auto *L = cast<LoadExpr>(E);
    Type PtrTy = TargetInfo::nativePointer();
    resolveExpr(L->Addr, &PtrTy, PI);
    if (L->Addr->Ty != PtrTy)
      Diags.error(L->loc(), "load address must have the native data-pointer "
                            "type " +
                                PtrTy.str());
    L->Ty = L->AccessTy;
    return;
  }

  case Expr::Kind::Unary: {
    auto *U = cast<UnaryExpr>(E);
    resolveExpr(U->Operand, Expected, PI);
    switch (U->Op) {
    case UnOp::Neg:
      U->Ty = U->Operand->Ty;
      return;
    case UnOp::Com:
      if (!U->Operand->Ty.isBits())
        Diags.error(U->loc(), "bitwise complement requires a bits operand");
      U->Ty = U->Operand->Ty;
      return;
    case UnOp::Not:
      if (!U->Operand->Ty.isBits())
        Diags.error(U->loc(), "logical not requires a bits operand");
      U->Ty = Type::bits(32);
      return;
    }
    cmm_unreachable("unknown unary operator");
  }

  case Expr::Kind::Binary: {
    auto *B = cast<BinaryExpr>(E);
    bool IsCompare = B->Op >= BinOp::Eq;
    const Type *OperandExpect = IsCompare ? nullptr : Expected;
    resolveExpr(B->Lhs, OperandExpect, PI);
    // Let a literal on the left adopt the width of a resolved right side.
    resolveExpr(B->Rhs, &B->Lhs->Ty, PI);
    if (isa<IntLitExpr>(B->Lhs) && !isa<IntLitExpr>(B->Rhs))
      B->Lhs->Ty = B->Rhs->Ty;
    if (B->Lhs->Ty != B->Rhs->Ty)
      Diags.error(B->loc(), "operand types differ: " + B->Lhs->Ty.str() +
                                " vs " + B->Rhs->Ty.str());
    bool BitsOnly = B->Op == BinOp::Mod || B->Op == BinOp::And ||
                    B->Op == BinOp::Or || B->Op == BinOp::Xor ||
                    B->Op == BinOp::Shl || B->Op == BinOp::Shr;
    if (BitsOnly && !B->Lhs->Ty.isBits())
      Diags.error(B->loc(), "operator requires bits operands");
    B->Ty = IsCompare ? Type::bits(32) : B->Lhs->Ty;
    return;
  }

  case Expr::Kind::Prim: {
    auto *P = cast<PrimExpr>(E);
    std::optional<PrimKind> K = lookupPrim(Mod.Names->spelling(P->Name));
    if (!K) {
      Diags.error(P->loc(), "unknown primitive '" + spell(P->Name) + "'");
      P->Ty = Type::bits(32);
      return;
    }
    // Primitives take at most a few operands; more is an error below.
    constexpr size_t MaxTys = 4;
    Type ArgTys[MaxTys];
    for (size_t I = 0; I < P->Args.size(); ++I) {
      const Type *ArgExpect = I == 0 ? nullptr : &ArgTys[0];
      resolveExpr(P->Args[I], ArgExpect, PI);
      if (I < MaxTys)
        ArgTys[I] = P->Args[I]->Ty;
    }
    if (P->Args.size() > MaxTys ||
        !primOperandsOk(*K, ArgTys, static_cast<unsigned>(P->Args.size())))
      Diags.error(P->loc(),
                  "bad operands for primitive '" + spell(P->Name) + "'");
    P->Ty = P->Args.empty() ? Type::bits(32) : primResultType(*K, ArgTys[0]);
    return;
  }

  case Expr::Kind::Sizeof: {
    auto *Sz = cast<SizeofExpr>(E);
    Sz->Ty = Type::bits(32);
    if (isVar(Sz->Name)) {
      Sz->SizeInBytes = slot(Sz->Name).LocalTy.sizeInBytes();
      return;
    }
    if (isCont(Sz->Name)) {
      // A continuation value is one native data pointer (Section 5.4).
      Sz->SizeInBytes = TargetInfo::pointerBytes();
      return;
    }
    if (isGlobal(Sz->Name)) {
      Sz->SizeInBytes = slot(Sz->Name).GlobalTy.sizeInBytes();
      return;
    }
    Diags.error(Sz->loc(), "sizeof of unknown name '" + spell(Sz->Name) +
                               "'");
    Sz->SizeInBytes = TargetInfo::pointerBytes();
    return;
  }
  }
  cmm_unreachable("unknown expression kind");
}

} // namespace

SemaInfo cmm::analyze(Module &Mod, DiagnosticEngine &Diags) {
  return SemaImpl(Mod, Diags).run();
}
