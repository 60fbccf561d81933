//===- ir/Translate.cpp ---------------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "ir/Translate.h"

#include "support/Assert.h"
#include "support/Casting.h"
#include "syntax/Parser.h"

using namespace cmm;

namespace {

//===----------------------------------------------------------------------===//
// Per-procedure translation (Section 5.3)
//===----------------------------------------------------------------------===//

/// Per-procedure working state, kept across the procedures of one program
/// so its vectors are allocated once per program, not once per procedure.
struct Scratch {
  /// Where control currently flows: unfilled successor slots plus labels
  /// whose head is the next node to be emitted.
  std::vector<Node **> OpenSlots;
  std::vector<Symbol> OpenLabels;
  /// The open ends of the `then` arms of the enclosing ifs, stacked while
  /// their `else` arms are translated.
  std::vector<Node **> SavedSlots;
  std::vector<Symbol> SavedLabels;
  std::vector<std::pair<Symbol, CopyInNode *>> ContNodes;
  std::vector<std::pair<Symbol, Node *>> LabelHeads;
  std::vector<std::pair<Symbol, Node **>> PendingLabelRefs;
  std::vector<BranchNode *> GotoBranches;
  /// Indexed by Node::Id: which nodes are goto branches, and the stamp of
  /// the last threading walk that passed each.
  std::vector<uint8_t> IsGoto;
  std::vector<uint32_t> SeenStamp;

  /// Enough for the procedures of typical programs, so the vectors rarely
  /// grow.
  static constexpr size_t InitialCapacity = 32;

  Scratch() {
    for (auto *V : {&OpenSlots, &SavedSlots})
      V->reserve(InitialCapacity);
    for (auto *V : {&OpenLabels, &SavedLabels})
      V->reserve(InitialCapacity);
    ContNodes.reserve(InitialCapacity);
    LabelHeads.reserve(InitialCapacity);
    PendingLabelRefs.reserve(InitialCapacity);
    GotoBranches.reserve(InitialCapacity);
  }

  void clear() {
    OpenSlots.clear();
    OpenLabels.clear();
    ContNodes.clear();
    LabelHeads.clear();
    PendingLabelRefs.clear();
    GotoBranches.clear();
  }
};

template <typename V>
auto findSym(std::vector<std::pair<Symbol, V>> &Map, Symbol S) {
  for (auto &[Key, Val] : Map)
    if (Key == S)
      return &Val;
  return static_cast<V *>(nullptr);
}

/// What translating a procedure creates in its arena: the node count and
/// the bytes of the nodes and their lists, so the arena's first chunk holds
/// the whole graph.
struct GraphSize {
  size_t Nodes = 0, Bytes = 0;

  /// Each allocation is counted as if rounded up to 8 bytes, the largest
  /// alignment among nodes and lists, so the count bounds the arena's
  /// padding as well.
  template <typename T> void node() {
    ++Nodes;
    list<T>(1);
  }
  template <typename T> void list(size_t N) {
    static_assert(alignof(T) <= 8, "larger alignments pad more");
    Bytes += (N * sizeof(T) + 7) & ~size_t(7);
  }
  void copyOut(size_t NumExprs) {
    node<CopyOutNode>();
    list<const Expr *>(NumExprs);
  }

  void add(std::span<Stmt *const> Stmts);
};

void GraphSize::add(std::span<Stmt *const> Stmts) {
  for (const Stmt *S : Stmts) {
    switch (S->kind()) {
    case Stmt::Kind::Assign:
      node<AssignNode>();
      break;
    case Stmt::Kind::MemAssign:
      node<StoreNode>();
      break;
    case Stmt::Kind::Goto:
      node<BranchNode>();
      break;
    case Stmt::Kind::If:
      for (const auto *If = cast<IfStmt>(S);;) {
        node<BranchNode>();
        add(If->Then);
        const IfStmt *Next = If->elseIf();
        if (!Next) {
          add(If->Else);
          break;
        }
        If = Next;
      }
      break;
    case Stmt::Kind::Call: {
      const auto *C = cast<CallStmt>(S);
      const Annotations &A = C->Annots;
      copyOut(C->Args.size());
      node<CallNode>();
      list<Node *>(A.ReturnsTo.size() + 1);
      list<Node *>(A.UnwindsTo.size());
      list<Node *>(A.CutsTo.size());
      list<const Expr *>(A.Descriptors.size());
      list<Symbol>(A.ReturnsTo.size());
      list<Symbol>(A.UnwindsTo.size());
      list<Symbol>(A.CutsTo.size());
      if (!C->Results.empty()) {
        node<CopyInNode>();
        list<Symbol>(C->Results.size());
      }
      break;
    }
    case Stmt::Kind::Jump:
      copyOut(cast<JumpStmt>(S)->Args.size());
      node<JumpNode>();
      break;
    case Stmt::Kind::Return:
      copyOut(cast<ReturnStmt>(S)->Values.size());
      node<ExitNode>();
      break;
    case Stmt::Kind::CutTo: {
      const auto *C = cast<CutToStmt>(S);
      copyOut(C->Args.size());
      node<CutToNode>();
      list<Node *>(C->AlsoCutsTo.size());
      list<Symbol>(C->AlsoCutsTo.size());
      break;
    }
    case Stmt::Kind::Continuation:
      node<CopyInNode>();
      list<Symbol>(cast<ContinuationStmt>(S)->Params.size());
      break;
    case Stmt::Kind::VarDecl:
    case Stmt::Kind::Label:
      break;
    }
  }
}

/// The graph translating \p Decl creates: the body's nodes plus the Entry
/// (with its continuation list), the parameters' CopyIn, and an implicit
/// return's CopyOut and Exit.
GraphSize graphSize(const ProcDecl &Decl) {
  GraphSize G;
  size_t Conts = 0;
  for (const Stmt *St : Decl.Body)
    Conts += isa<ContinuationStmt>(St);
  G.node<EntryNode>();
  G.list<std::pair<Symbol, Node *>>(Conts);
  G.node<CopyInNode>();
  G.list<Symbol>(Decl.Params.size());
  G.add(Decl.Body);
  G.copyOut(0);
  G.node<ExitNode>();
  return G;
}

class ProcTranslator {
public:
  ProcTranslator(IrProgram &Prog, IrProc &P, const ProcDecl &Decl,
                 const ProcInfo &Info, AstArena &Arena, bool HasStrLits,
                 Scratch &S, DiagnosticEngine &Diags)
      : Prog(Prog), P(P), Decl(Decl), Info(Info), Arena(Arena), S(S),
        Diags(Diags), HasStrLits(HasStrLits) {
    S.clear();
  }

  void run();

private:
  void emit(Node *N, Node **NextSlot);
  void translateList(std::span<Stmt *const> Stmts);
  /// Kept out of line: its frame is large, and only translateList and
  /// translateIf recurse once per nested if.
  [[gnu::noinline]] void translateStmt(const Stmt *St);
  void translateIf(const IfStmt *If);
  void translateGoto(const GotoStmt *G);
  void translateCall(const CallStmt *C);
  CopyOutNode *emitCopyOut(std::span<Expr *const> Exprs, SourceLoc Loc);
  void collectStrings(const Expr *E);
  const Expr *constExpr(uint64_t Value, SourceLoc Loc);
  CopyInNode *contNode(Symbol K) { return *findSym(S.ContNodes, K); }
  /// The continuations \p Ks name, as a list with \p Extra empty slots
  /// after them.
  std::span<Node *> contNodes(std::span<const Symbol> Ks, size_t Extra = 0) {
    std::span<Node *> L = P.makeList<Node *>(Ks.size() + Extra);
    for (size_t I = 0; I < Ks.size(); ++I)
      L[I] = contNode(Ks[I]);
    return L;
  }
  void threadGotoBranches();

  IrProgram &Prog;
  IrProc &P;
  const ProcDecl &Decl;
  const ProcInfo &Info;
  /// The source module's arena, which owns the expressions the translation
  /// adds (the constant conditions of goto branches).
  AstArena &Arena;
  Scratch &S;
  DiagnosticEngine &Diags;
  /// False when the module has no string literals to lay out.
  bool HasStrLits;
};

void ProcTranslator::run() {
  auto *Entry = P.make<EntryNode>();
  Entry->Loc = Decl.Loc;
  P.EntryPoint = Entry;

  // Pre-create each continuation's CopyIn so call-site bundles and cut
  // annotations can reference it before its body is reached.
  size_t NumConts = 0;
  for (const Stmt *St : Decl.Body)
    NumConts += isa<ContinuationStmt>(St);
  Entry->Conts = P.makeList<std::pair<Symbol, Node *>>(NumConts);
  size_t ContIdx = 0;
  for (const Stmt *St : Decl.Body) {
    const auto *C = dyn_cast<ContinuationStmt>(St);
    if (!C)
      continue;
    auto *In = P.make<CopyInNode>();
    In->Loc = C->loc();
    In->Vars = P.copyList<Symbol>(C->Params);
    if (!findSym(S.ContNodes, C->Name))
      S.ContNodes.emplace_back(C->Name, In);
    Entry->Conts[ContIdx++] = {C->Name, In};
  }

  // Entry -> CopyIn(params): "the values of parameters are bound later by a
  // CopyIn node" (Section 5.2).
  auto *ParamsIn = P.make<CopyInNode>();
  ParamsIn->Loc = Decl.Loc;
  ParamsIn->Vars = P.makeList<Symbol>(Decl.Params.size());
  for (size_t I = 0; I < Decl.Params.size(); ++I)
    ParamsIn->Vars[I] = Decl.Params[I].Name;
  Entry->Next = ParamsIn;
  S.OpenSlots.push_back(&ParamsIn->Next);

  translateList(Decl.Body);

  // Falling off the end of the body is an implicit "return <0/0> ();".
  if (!S.OpenSlots.empty() || !S.OpenLabels.empty()) {
    CopyOutNode *Out = emitCopyOut({}, Decl.Loc);
    auto *Exit = P.make<ExitNode>();
    Exit->Loc = Decl.Loc;
    Out->Next = Exit;
  }

  for (const auto &[Label, Ref] : S.PendingLabelRefs)
    if (Ref)
      Diags.error(Decl.Loc, "internal: unresolved label '" +
                                std::string(Prog.Names->spelling(Label)) +
                                "' after translation");
  threadGotoBranches();
}

void ProcTranslator::emit(Node *N, Node **NextSlot) {
  for (Node **Slot : S.OpenSlots)
    *Slot = N;
  for (Symbol L : S.OpenLabels) {
    if (Node **Head = findSym(S.LabelHeads, L))
      *Head = N;
    else
      S.LabelHeads.emplace_back(L, N);
    for (auto &[Label, Ref] : S.PendingLabelRefs)
      if (Label == L && Ref) {
        *Ref = N;
        Ref = nullptr;
      }
  }
  S.OpenSlots.clear();
  S.OpenLabels.clear();
  if (NextSlot)
    S.OpenSlots.push_back(NextSlot);
}

void ProcTranslator::translateList(std::span<Stmt *const> Stmts) {
  // Nested ifs recurse here, not through translateStmt's large frame.
  for (const Stmt *St : Stmts) {
    if (const auto *If = dyn_cast<IfStmt>(St))
      translateIf(If);
    else
      translateStmt(St);
  }
}

void ProcTranslator::translateIf(const IfStmt *If) {
  // An else-if chain is a loop. Each then-arm's open ends wait on the saved
  // stacks while the later arms are translated, then all join the chain's
  // exit (emit patches every open end alike, so their order is immaterial).
  size_t SlotMark = S.SavedSlots.size(), LabelMark = S.SavedLabels.size();
  while (true) {
    collectStrings(If->Cond);
    auto *B = P.make<BranchNode>();
    B->Loc = If->loc();
    B->Cond = If->Cond;
    emit(B, nullptr);
    S.OpenSlots.push_back(&B->TrueDst);
    translateList(If->Then);
    S.SavedSlots.insert(S.SavedSlots.end(), S.OpenSlots.begin(),
                        S.OpenSlots.end());
    S.SavedLabels.insert(S.SavedLabels.end(), S.OpenLabels.begin(),
                         S.OpenLabels.end());
    S.OpenSlots.clear();
    S.OpenLabels.clear();
    S.OpenSlots.push_back(&B->FalseDst);
    const IfStmt *Next = If->elseIf();
    if (!Next)
      break;
    If = Next;
  }
  translateList(If->Else);
  S.OpenSlots.insert(S.OpenSlots.end(), S.SavedSlots.begin() + SlotMark,
                     S.SavedSlots.end());
  S.OpenLabels.insert(S.OpenLabels.end(), S.SavedLabels.begin() + LabelMark,
                      S.SavedLabels.end());
  S.SavedSlots.resize(SlotMark);
  S.SavedLabels.resize(LabelMark);
}

CopyOutNode *ProcTranslator::emitCopyOut(std::span<Expr *const> Exprs,
                                         SourceLoc Loc) {
  auto *Out = P.make<CopyOutNode>();
  Out->Loc = Loc;
  Out->Exprs = P.copyList<const Expr *>(Exprs);
  for (const Expr *E : Exprs)
    collectStrings(E);
  emit(Out, &Out->Next);
  return Out;
}

void ProcTranslator::collectStrings(const Expr *E) {
  if (!HasStrLits)
    return;
  switch (E->kind()) {
  case Expr::Kind::StrLit: {
    const auto *Str = cast<StrLitExpr>(E);
    if (Prog.StrAddrs.count(Str))
      return;
    // Lay the bytes (NUL-terminated) into the data image.
    uint64_t Addr = Prog.DataEnd;
    Prog.StrAddrs.emplace(Str, Addr);
    for (char C : Str->Value)
      Prog.Image.Bytes.push_back(static_cast<uint8_t>(C));
    Prog.Image.Bytes.push_back(0);
    Prog.DataEnd = Prog.Image.Base + Prog.Image.Bytes.size();
    // Keep subsequent blocks pointer-aligned.
    while (Prog.DataEnd % 8 != 0) {
      Prog.Image.Bytes.push_back(0);
      ++Prog.DataEnd;
    }
    return;
  }
  case Expr::Kind::Load:
    collectStrings(cast<LoadExpr>(E)->Addr);
    return;
  case Expr::Kind::Unary:
    collectStrings(cast<UnaryExpr>(E)->Operand);
    return;
  case Expr::Kind::Binary:
    collectStrings(cast<BinaryExpr>(E)->Lhs);
    collectStrings(cast<BinaryExpr>(E)->Rhs);
    return;
  case Expr::Kind::Prim:
    for (const Expr *A : cast<PrimExpr>(E)->Args)
      collectStrings(A);
    return;
  default:
    return;
  }
}

const Expr *ProcTranslator::constExpr(uint64_t Value, SourceLoc Loc) {
  auto *E = Arena.make<IntLitExpr>(Loc, Value);
  E->Ty = Type::bits(32);
  return E;
}

void ProcTranslator::translateGoto(const GotoStmt *G) {
  // A goto becomes a constant branch; threadGotoBranches removes it again.
  auto *B = P.make<BranchNode>();
  B->Loc = G->loc();
  B->Cond = constExpr(1, G->loc());
  emit(B, nullptr);
  S.GotoBranches.push_back(B);
  if (Node **Head = findSym(S.LabelHeads, G->Target)) {
    B->TrueDst = B->FalseDst = *Head;
  } else {
    S.PendingLabelRefs.emplace_back(G->Target, &B->TrueDst);
    S.PendingLabelRefs.emplace_back(G->Target, &B->FalseDst);
  }
}

void ProcTranslator::translateCall(const CallStmt *C) {
  collectStrings(C->Callee);
  for (const Expr *D : C->Annots.Descriptors)
    collectStrings(D);
  emitCopyOut(C->Args, C->loc());

  const Annotations &A = C->Annots;
  auto *Call = P.make<CallNode>();
  Call->Loc = C->loc();
  Call->Callee = C->Callee;
  Call->NumArgs = static_cast<unsigned>(C->Args.size());
  Call->Bundle.Abort = A.Aborts;
  // The normal return's slot, last in ReturnsTo, is filled below.
  Call->Bundle.ReturnsTo = contNodes(A.ReturnsTo, 1);
  Call->Bundle.UnwindsTo = contNodes(A.UnwindsTo);
  Call->Bundle.CutsTo = contNodes(A.CutsTo);
  Call->Descriptors = P.copyList<const Expr *>(A.Descriptors);
  Call->ReturnsToNames = P.copyList<Symbol>(A.ReturnsTo);
  Call->UnwindsToNames = P.copyList<Symbol>(A.UnwindsTo);
  Call->CutsToNames = P.copyList<Symbol>(A.CutsTo);

  // Normal return continuation, always last in the bundle.
  if (C->Results.empty()) {
    emit(Call, &Call->Bundle.ReturnsTo.back());
    return;
  }
  auto *ResultsIn = P.make<CopyInNode>();
  ResultsIn->Loc = C->loc();
  ResultsIn->Vars = P.copyList<Symbol>(C->Results);
  Call->Bundle.ReturnsTo.back() = ResultsIn;
  emit(Call, nullptr);
  S.OpenSlots.push_back(&ResultsIn->Next);
}

void ProcTranslator::translateStmt(const Stmt *St) {
  switch (St->kind()) {
  case Stmt::Kind::VarDecl:
    return;

  case Stmt::Kind::Assign: {
    const auto *A = cast<AssignStmt>(St);
    collectStrings(A->Value);
    auto *N = P.make<AssignNode>();
    N->Loc = A->loc();
    N->Var = A->Target;
    N->IsGlobal = !Info.Vars.count(A->Target);
    N->Value = A->Value;
    emit(N, &N->Next);
    return;
  }

  case Stmt::Kind::MemAssign: {
    const auto *M = cast<MemAssignStmt>(St);
    collectStrings(M->Addr);
    collectStrings(M->Value);
    auto *N = P.make<StoreNode>();
    N->Loc = M->loc();
    N->AccessTy = M->AccessTy;
    N->Addr = M->Addr;
    N->Value = M->Value;
    emit(N, &N->Next);
    return;
  }

  case Stmt::Kind::If:
    cmm_unreachable("translateList translates ifs");

  case Stmt::Kind::Goto:
    translateGoto(cast<GotoStmt>(St));
    return;

  case Stmt::Kind::Label:
    S.OpenLabels.push_back(cast<LabelStmt>(St)->Name);
    return;

  case Stmt::Kind::Call:
    translateCall(cast<CallStmt>(St));
    return;

  case Stmt::Kind::Jump: {
    const auto *J = cast<JumpStmt>(St);
    collectStrings(J->Callee);
    emitCopyOut(J->Args, J->loc());
    auto *N = P.make<JumpNode>();
    N->Loc = J->loc();
    N->Callee = J->Callee;
    N->NumArgs = static_cast<unsigned>(J->Args.size());
    emit(N, nullptr);
    return;
  }

  case Stmt::Kind::Return: {
    const auto *R = cast<ReturnStmt>(St);
    emitCopyOut(R->Values, R->loc());
    auto *N = P.make<ExitNode>();
    N->Loc = R->loc();
    N->ContIndex = R->ContIndex;
    N->AltCount = R->AltCount;
    emit(N, nullptr);
    return;
  }

  case Stmt::Kind::CutTo: {
    const auto *C = cast<CutToStmt>(St);
    collectStrings(C->Cont);
    emitCopyOut(C->Args, C->loc());
    auto *N = P.make<CutToNode>();
    N->Loc = C->loc();
    N->Cont = C->Cont;
    N->NumArgs = static_cast<unsigned>(C->Args.size());
    N->AlsoCutsTo = contNodes(C->AlsoCutsTo);
    N->AlsoCutsToNames = P.copyList<Symbol>(C->AlsoCutsTo);
    emit(N, nullptr);
    return;
  }

  case Stmt::Kind::Continuation: {
    const auto *C = cast<ContinuationStmt>(St);
    CopyInNode *In = contNode(C->Name);
    // Sema rejects fallthrough into a continuation, but be safe: bind any
    // open ends to the CopyIn so the graph stays connected.
    emit(In, &In->Next);
    return;
  }
  }
  cmm_unreachable("unknown statement kind");
}

/// Rewrites every edge that targets a goto-branch (constant condition, both
/// destinations equal) to target its destination, then leaves the dead
/// branch nodes unreachable.
void ProcTranslator::threadGotoBranches() {
  if (S.GotoBranches.empty())
    return;
  S.IsGoto.assign(P.Nodes.size(), 0);
  S.SeenStamp.assign(P.Nodes.size(), 0);
  for (const BranchNode *B : S.GotoBranches)
    S.IsGoto[B->Id] = 1;
  uint32_t Stamp = 0;
  // Follows a chain of gotos to its end, or to the first node seen twice
  // when the chain is a cycle.
  auto Thread = [&](Node *N) -> Node * {
    ++Stamp;
    while (N && S.IsGoto[N->Id] && S.SeenStamp[N->Id] != Stamp) {
      S.SeenStamp[N->Id] = Stamp;
      N = cast<BranchNode>(N)->TrueDst;
    }
    return N;
  };
  for (Node *N : P.Nodes) {
    switch (N->kind()) {
    case Node::Kind::Entry: {
      auto *E = cast<EntryNode>(N);
      E->Next = Thread(E->Next);
      break;
    }
    case Node::Kind::CopyIn:
      cast<CopyInNode>(N)->Next = Thread(cast<CopyInNode>(N)->Next);
      break;
    case Node::Kind::CopyOut:
      cast<CopyOutNode>(N)->Next = Thread(cast<CopyOutNode>(N)->Next);
      break;
    case Node::Kind::CalleeSaves:
      cast<CalleeSavesNode>(N)->Next = Thread(cast<CalleeSavesNode>(N)->Next);
      break;
    case Node::Kind::Assign:
      cast<AssignNode>(N)->Next = Thread(cast<AssignNode>(N)->Next);
      break;
    case Node::Kind::Store:
      cast<StoreNode>(N)->Next = Thread(cast<StoreNode>(N)->Next);
      break;
    case Node::Kind::Branch: {
      auto *B = cast<BranchNode>(N);
      B->TrueDst = Thread(B->TrueDst);
      B->FalseDst = Thread(B->FalseDst);
      break;
    }
    case Node::Kind::Call: {
      auto *C = cast<CallNode>(N);
      for (Node *&T : C->Bundle.ReturnsTo)
        T = Thread(T);
      break;
    }
    default:
      break;
    }
  }
}

//===----------------------------------------------------------------------===//
// Linking
//===----------------------------------------------------------------------===//

/// The static data segment's size limit: far above any real program, low
/// enough that a hostile reservation is an error, not an allocation.
constexpr uint64_t MaxDataBytes = uint64_t(1) << 28;

class Linker {
public:
  Linker(std::vector<AnalyzedModule> Mods, DiagnosticEngine &Diags)
      : Mods(std::move(Mods)), Diags(Diags) {}

  std::unique_ptr<IrProgram> run();

private:
  void layoutData(const DataDecl &D);
  void checkImports();

  std::vector<AnalyzedModule> Mods;
  DiagnosticEngine &Diags;
  std::unique_ptr<IrProgram> Prog;
  Scratch Work;
};

std::unique_ptr<IrProgram> Linker::run() {
  if (Mods.empty()) {
    Diags.error(SourceLoc(), "no modules to link");
    return nullptr;
  }
  // Memory for the VarTypes tables: a hash node per variable and a bucket
  // array per procedure (reserved, so no rehash leaves garbage behind).
  size_t NumVars = 0, NumProcs = 1;
  for (const AnalyzedModule &AM : Mods)
    for (const ProcInfo &PI : AM.Info.Procs) {
      NumVars += PI.Vars.size() + PI.Continuations.size();
      ++NumProcs;
    }
  Prog = std::make_unique<IrProgram>(32 * NumVars + 32 * NumProcs + 64);
  Prog->Names = Mods.front().Mod->Names;
  Prog->Image.Base = DataBase;
  Prog->DataEnd = DataBase;

  for (AnalyzedModule &AM : Mods) {
    if (AM.Mod->Names != Prog->Names) {
      Diags.error(SourceLoc(), "modules of one program must share an "
                               "interner");
      return nullptr;
    }
  }

  Prog->Procs.reserve(NumProcs);
  Prog->ProcByName.reserve(NumProcs);

  // Install the intrinsic yield procedure: X(yield) is a bare Yield node.
  {
    auto YieldProc =
        std::make_unique<IrProc>(&Prog->Memory, sizeof(YieldNode));
    YieldProc->Name = Prog->Names->intern("yield");
    YieldProc->EntryPoint = YieldProc->make<YieldNode>();
    Prog->ProcByName.emplace(YieldProc->Name, YieldProc.get());
    Prog->Procs.push_back(std::move(YieldProc));
  }

  // Module-level namespace is program-wide: collect globals and data first
  // (procedures reference data addresses only at run time).
  for (AnalyzedModule &AM : Mods) {
    for (const GlobalDecl &G : AM.Mod->Globals) {
      if (!Prog->Globals.emplace(G.Name, G.Ty).second)
        Diags.error(G.Loc, "global '" +
                               std::string(Prog->Names->spelling(G.Name)) +
                               "' defined in more than one module");
    }
    for (const DataDecl &D : AM.Mod->Data) {
      if (Prog->DataAddrs.count(D.Name)) {
        Diags.error(D.Loc, "data block '" +
                               std::string(Prog->Names->spelling(D.Name)) +
                               "' defined in more than one module");
        continue;
      }
      layoutData(D);
    }
  }

  // Translate procedures.
  for (AnalyzedModule &AM : Mods) {
    for (size_t I = 0; I < AM.Mod->Procs.size(); ++I) {
      const ProcDecl &Decl = AM.Mod->Procs[I];
      if (Prog->ProcByName.count(Decl.Name)) {
        Diags.error(Decl.Loc,
                    "procedure '" +
                        std::string(Prog->Names->spelling(Decl.Name)) +
                        "' defined in more than one module");
        continue;
      }
      GraphSize G = graphSize(Decl);
      auto P = std::make_unique<IrProc>(&Prog->Memory, G.Bytes);
      P->Name = Decl.Name;
      P->Index = static_cast<uint32_t>(Prog->Procs.size());
      P->Nodes.reserve(G.Nodes);
      P->Params.assign(Decl.Params.begin(), Decl.Params.end());
      const ProcInfo &PI = AM.Info.Procs[I];
      P->VarTypes.reserve(PI.Vars.size() + PI.Continuations.size());
      for (const auto &[Name, Ty] : PI.Vars)
        P->VarTypes.emplace(Name, Ty);
      // Continuation names denote per-activation values bound at Entry;
      // for dataflow purposes they are locals of the native pointer type.
      for (const auto &[Name, C] : PI.Continuations) {
        (void)C;
        P->VarTypes.emplace(Name, TargetInfo::nativePointer());
      }
      ProcTranslator(*Prog, *P, Decl, PI, AM.Mod->Arena,
                     AM.Mod->HasStrLits, Work, Diags)
          .run();
      Prog->ProcByName.emplace(P->Name, P.get());
      Prog->Procs.push_back(std::move(P));
    }
  }

  checkImports();
  if (Diags.hasErrors())
    return nullptr;

  // The program co-owns the modules: graphs reference their expressions.
  for (AnalyzedModule &AM : Mods)
    Prog->SourceModules.push_back(std::move(AM.Mod));
  return std::move(Prog);
}

void Linker::layoutData(const DataDecl &D) {
  // Align each block to 8 bytes.
  while ((Prog->Image.Base + Prog->Image.Bytes.size()) % 8 != 0)
    Prog->Image.Bytes.push_back(0);
  uint64_t Addr = Prog->Image.Base + Prog->Image.Bytes.size();
  Prog->DataAddrs.emplace(D.Name, Addr);

  uint64_t Size = 0;
  bool Overflow = false;
  for (const DataItem &Item : D.Items) {
    uint64_t ItemBytes = 0;
    switch (Item.K) {
    case DataItem::Kind::Int:
      ItemBytes = Item.Ty.sizeInBytes();
      break;
    case DataItem::Kind::Str:
      ItemBytes = Item.StrValue.size() + 1;
      break;
    case DataItem::Kind::Name:
      ItemBytes = TargetInfo::pointerBytes();
      break;
    case DataItem::Kind::Reserve:
      Overflow |= __builtin_mul_overflow(Item.ReserveCount,
                                         uint64_t(Item.Ty.sizeInBytes()),
                                         &ItemBytes);
      break;
    }
    Overflow |= __builtin_add_overflow(Size, ItemBytes, &Size);
  }
  if (Overflow || Prog->Image.Bytes.size() + Size > MaxDataBytes) {
    Diags.error(D.Loc, "data block '" +
                           std::string(Prog->Names->spelling(D.Name)) +
                           "' does not fit in the static data segment");
    return;
  }
  Prog->Image.Bytes.reserve(Prog->Image.Bytes.size() + Size);

  auto PutInt = [&](uint64_t V, unsigned Bytes) {
    for (unsigned I = 0; I < Bytes; ++I)
      Prog->Image.Bytes.push_back(static_cast<uint8_t>(V >> (8 * I)));
  };
  for (const DataItem &Item : D.Items) {
    switch (Item.K) {
    case DataItem::Kind::Int:
      PutInt(Item.IntValue, Item.Ty.sizeInBytes());
      break;
    case DataItem::Kind::Str:
      for (char C : Item.StrValue)
        Prog->Image.Bytes.push_back(static_cast<uint8_t>(C));
      Prog->Image.Bytes.push_back(0);
      break;
    case DataItem::Kind::Name: {
      uint64_t At = Prog->Image.Base + Prog->Image.Bytes.size();
      Prog->Image.Relocs.push_back({At, Item.NameValue});
      PutInt(0, TargetInfo::pointerBytes());
      break;
    }
    case DataItem::Kind::Reserve:
      Prog->Image.Bytes.resize(Prog->Image.Bytes.size() +
                               Item.ReserveCount * Item.Ty.sizeInBytes());
      break;
    }
  }
  Prog->DataEnd = Prog->Image.Base + Prog->Image.Bytes.size();
}

void Linker::checkImports() {
  for (AnalyzedModule &AM : Mods) {
    for (Symbol S : AM.Mod->Imports) {
      if (Prog->ProcByName.count(S) || Prog->DataAddrs.count(S) ||
          Prog->Globals.count(S))
        continue;
      Diags.error(SourceLoc(), "unresolved import '" +
                                   std::string(Prog->Names->spelling(S)) +
                                   "'");
    }
  }
  // Unresolved %%name references recorded as implicit imports by Sema.
  for (AnalyzedModule &AM : Mods) {
    for (Symbol S : AM.Info.ImportNames) {
      if (Prog->ProcByName.count(S) || Prog->DataAddrs.count(S) ||
          Prog->Globals.count(S))
        continue;
      Diags.error(SourceLoc(), "unresolved reference to '" +
                                   std::string(Prog->Names->spelling(S)) +
                                   "'");
    }
  }
}

} // namespace

std::unique_ptr<IrProgram>
cmm::translateProgram(std::vector<AnalyzedModule> Mods,
                      DiagnosticEngine &Diags) {
  return Linker(std::move(Mods), Diags).run();
}

const char *cmm::stdLibSource() {
  return R"(/* cmmex standard library: slow-but-solid primitives (Section 4.3).
   Each maps failure into a yield; the front-end run-time system is expected
   to unwind or cut the stack past the faulting activation. */
export %%divu, %%divs, %%modu, %%mods;

%%divu(bits32 p, bits32 q) {
  if q == 0 { yield(53744) also aborts; }
  return (%divu(p, q));
}

%%divs(bits32 p, bits32 q) {
  if q == 0 { yield(53744) also aborts; }
  return (%divs(p, q));
}

%%modu(bits32 p, bits32 q) {
  if q == 0 { yield(53744) also aborts; }
  return (%modu(p, q));
}

%%mods(bits32 p, bits32 q) {
  if q == 0 { yield(53744) also aborts; }
  return (%mods(p, q));
}
)";
}

/// The standard library is comment-heavy: its tree (2,704 bytes) is about
/// half what the parser's per-source-byte guess reserves, and every cached
/// program keeps it, so its arena is sized from the measured tree.
static constexpr size_t StdLibArenaBytes = 2816;

std::unique_ptr<IrProgram>
cmm::compileProgram(const std::vector<std::string> &Sources,
                    DiagnosticEngine &Diags, bool IncludeStdLib) {
  auto Names = std::make_shared<Interner>();
  std::vector<AnalyzedModule> Mods;
  Mods.reserve(Sources.size() + 1);
  auto AddSource = [&](std::string_view Src, size_t ArenaBytes) {
    Parser P(Src, Diags, Names, ArenaBytes);
    auto Mod = std::make_shared<Module>(P.parseModule());
    SemaInfo Info = analyze(*Mod, Diags);
    Mods.push_back({std::move(Mod), std::move(Info)});
  };
  for (const std::string &Src : Sources)
    AddSource(Src, 0);
  if (IncludeStdLib)
    AddSource(stdLibSource(), StdLibArenaBytes);
  if (Diags.hasErrors())
    return nullptr;
  return translateProgram(std::move(Mods), Diags);
}
