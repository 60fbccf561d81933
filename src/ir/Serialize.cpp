//===- ir/Serialize.cpp - Binary IR serialization -------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
//
// Layout (all integers little-endian, docs/ENGINE.md § "Persistent cache"):
//
//   u32 IrFormatVersion
//   symbol table: u64 count, count length-prefixed spellings
//     (symbol references below are u32 indices; 0 = the invalid symbol,
//     i >= 1 names the i-th spelling)
//   globals:    u64 count, (sym, type) sorted by spelling
//   data addrs: u64 count, (sym, u64) sorted by spelling
//   image:      u64 base, u64 byte count + raw bytes,
//               u64 reloc count, (u64 addr, sym) in image order
//   u64 data end
//   procs:      u64 count, then per proc (in IrProgram::Procs order):
//     sym name, params, var types (sorted by spelling),
//     expr table (children strictly before parents; node payloads refer to
//       exprs by u32 table index, 0xffffffff = null),
//     string-literal addresses: (expr index, u64 addr) in table order,
//     node kinds (u8 each, so the reader can build all shells before any
//       payload resolves a forward node reference),
//     node payloads in Node::Id order (node refs are u32 id+1, 0 = null),
//     entry-point node ref
//
// Canonical form: the symbol table is in first-use order of the traversal
// above and expression ids are in first-visit DFS order, both pure
// functions of program content, which is what makes re-serializing a
// deserialized program byte-identical.
//
//===----------------------------------------------------------------------===//

#include "ir/Serialize.h"

#include <algorithm>
#include <unordered_map>

using namespace cmm;

namespace {

constexpr uint32_t NullExpr = 0xffffffffu;

//===----------------------------------------------------------------------===//
// Writing
//===----------------------------------------------------------------------===//

/// Dense first-use symbol numbering for one serialization.
struct SymTable {
  const Interner &Names;
  std::unordered_map<uint32_t, uint32_t> Map;
  std::vector<std::string_view> Spellings;

  explicit SymTable(const Interner &Names) : Names(Names) {}

  uint32_t id(Symbol S) {
    if (!S.isValid())
      return 0;
    auto It = Map.find(S.Id);
    if (It != Map.end())
      return It->second;
    uint32_t New = uint32_t(Map.size()) + 1;
    Map.emplace(S.Id, New);
    Spellings.push_back(Names.spelling(S));
    return New;
  }
};

/// Entries of a map keyed by Symbol, sorted by spelling (a content-
/// determined order, unlike the unordered_map's).
template <typename MapT>
std::vector<std::pair<Symbol, typename MapT::mapped_type>>
sortedBySpelling(const MapT &M, const Interner &Names) {
  std::vector<std::pair<Symbol, typename MapT::mapped_type>> V(M.begin(),
                                                               M.end());
  std::sort(V.begin(), V.end(), [&](const auto &A, const auto &B) {
    return Names.spelling(A.first) < Names.spelling(B.first);
  });
  return V;
}

struct IrWriter {
  const IrProgram &P;
  SymTable Syms;
  ByteWriter Body; ///< assembled after the symbol table is complete

  explicit IrWriter(const IrProgram &P) : P(P), Syms(*P.Names) {}

  void sym(Symbol S) { Body.u32(Syms.id(S)); }
  void type(Type T) {
    Body.u8(uint8_t(T.K));
    Body.u8(T.Width);
  }
  void loc(SourceLoc L) {
    Body.u32(L.Line);
    Body.u32(L.Col);
  }
  void nodeRef(const Node *N) { Body.u32(N ? N->Id + 1 : 0); }

  //===--------------------------------------------------------------------===//
  // Expressions
  //===--------------------------------------------------------------------===//

  std::unordered_map<const Expr *, uint32_t> ExprId;
  std::vector<const Expr *> ExprList;

  /// Assigns \p E (and, first, its children) the next table ids.
  uint32_t visitExpr(const Expr *E) {
    if (!E)
      return NullExpr;
    auto It = ExprId.find(E);
    if (It != ExprId.end())
      return It->second;
    switch (E->kind()) {
    case Expr::Kind::IntLit:
    case Expr::Kind::FloatLit:
    case Expr::Kind::StrLit:
    case Expr::Kind::Name:
    case Expr::Kind::Sizeof:
      break;
    case Expr::Kind::Load:
      visitExpr(static_cast<const LoadExpr *>(E)->Addr);
      break;
    case Expr::Kind::Unary:
      visitExpr(static_cast<const UnaryExpr *>(E)->Operand);
      break;
    case Expr::Kind::Binary:
      visitExpr(static_cast<const BinaryExpr *>(E)->Lhs);
      visitExpr(static_cast<const BinaryExpr *>(E)->Rhs);
      break;
    case Expr::Kind::Prim:
      for (const Expr *A : static_cast<const PrimExpr *>(E)->Args)
        visitExpr(A);
      break;
    }
    uint32_t Id = uint32_t(ExprList.size());
    ExprId.emplace(E, Id);
    ExprList.push_back(E);
    return Id;
  }

  /// Every expression field of \p N, in declaration order.
  void visitNodeExprs(const Node &N) {
    switch (N.kind()) {
    case Node::Kind::CopyOut:
      for (const Expr *E : static_cast<const CopyOutNode &>(N).Exprs)
        visitExpr(E);
      break;
    case Node::Kind::Assign:
      visitExpr(static_cast<const AssignNode &>(N).Value);
      break;
    case Node::Kind::Store:
      visitExpr(static_cast<const StoreNode &>(N).Addr);
      visitExpr(static_cast<const StoreNode &>(N).Value);
      break;
    case Node::Kind::Branch:
      visitExpr(static_cast<const BranchNode &>(N).Cond);
      break;
    case Node::Kind::Call: {
      const auto &C = static_cast<const CallNode &>(N);
      visitExpr(C.Callee);
      for (const Expr *E : C.Descriptors)
        visitExpr(E);
      break;
    }
    case Node::Kind::Jump:
      visitExpr(static_cast<const JumpNode &>(N).Callee);
      break;
    case Node::Kind::CutTo:
      visitExpr(static_cast<const CutToNode &>(N).Cont);
      break;
    default:
      break;
    }
  }

  void expr(const Expr *E) { Body.u32(E ? ExprId.at(E) : NullExpr); }

  void writeExprEntry(const Expr *E) {
    Body.u8(uint8_t(E->kind()));
    type(E->Ty);
    loc(E->loc());
    switch (E->kind()) {
    case Expr::Kind::IntLit:
      Body.u64(static_cast<const IntLitExpr *>(E)->Value);
      break;
    case Expr::Kind::FloatLit:
      Body.f64(static_cast<const FloatLitExpr *>(E)->Value);
      break;
    case Expr::Kind::StrLit:
      Body.str(static_cast<const StrLitExpr *>(E)->Value);
      break;
    case Expr::Kind::Name: {
      const auto *NE = static_cast<const NameExpr *>(E);
      sym(NE->Name);
      Body.u8(uint8_t(NE->Ref));
      break;
    }
    case Expr::Kind::Load: {
      const auto *L = static_cast<const LoadExpr *>(E);
      type(L->AccessTy);
      expr(L->Addr);
      break;
    }
    case Expr::Kind::Unary: {
      const auto *U = static_cast<const UnaryExpr *>(E);
      Body.u8(uint8_t(U->Op));
      expr(U->Operand);
      break;
    }
    case Expr::Kind::Binary: {
      const auto *B = static_cast<const BinaryExpr *>(E);
      Body.u8(uint8_t(B->Op));
      expr(B->Lhs);
      expr(B->Rhs);
      break;
    }
    case Expr::Kind::Prim: {
      const auto *Pr = static_cast<const PrimExpr *>(E);
      sym(Pr->Name);
      Body.u64(Pr->Args.size());
      for (const Expr *A : Pr->Args)
        expr(A);
      break;
    }
    case Expr::Kind::Sizeof: {
      const auto *S = static_cast<const SizeofExpr *>(E);
      sym(S->Name);
      Body.u32(S->SizeInBytes);
      break;
    }
    }
  }

  //===--------------------------------------------------------------------===//
  // Nodes
  //===--------------------------------------------------------------------===//

  void writeNodePayload(const Node &N) {
    loc(N.Loc);
    switch (N.kind()) {
    case Node::Kind::Entry: {
      const auto &E = static_cast<const EntryNode &>(N);
      Body.u64(E.Conts.size());
      for (const auto &[S, Target] : E.Conts) {
        sym(S);
        nodeRef(Target);
      }
      nodeRef(E.Next);
      break;
    }
    case Node::Kind::Exit: {
      const auto &E = static_cast<const ExitNode &>(N);
      Body.u32(E.ContIndex);
      Body.u32(E.AltCount);
      break;
    }
    case Node::Kind::CopyIn: {
      const auto &C = static_cast<const CopyInNode &>(N);
      Body.u64(C.Vars.size());
      for (Symbol V : C.Vars)
        sym(V);
      nodeRef(C.Next);
      break;
    }
    case Node::Kind::CopyOut: {
      const auto &C = static_cast<const CopyOutNode &>(N);
      Body.u64(C.Exprs.size());
      for (const Expr *E : C.Exprs)
        expr(E);
      nodeRef(C.Next);
      break;
    }
    case Node::Kind::CalleeSaves: {
      const auto &C = static_cast<const CalleeSavesNode &>(N);
      Body.u64(C.Saved.size());
      for (Symbol V : C.Saved)
        sym(V);
      nodeRef(C.Next);
      break;
    }
    case Node::Kind::Assign: {
      const auto &A = static_cast<const AssignNode &>(N);
      sym(A.Var);
      Body.u8(A.IsGlobal);
      expr(A.Value);
      nodeRef(A.Next);
      break;
    }
    case Node::Kind::Store: {
      const auto &S = static_cast<const StoreNode &>(N);
      type(S.AccessTy);
      expr(S.Addr);
      expr(S.Value);
      nodeRef(S.Next);
      break;
    }
    case Node::Kind::Branch: {
      const auto &B = static_cast<const BranchNode &>(N);
      expr(B.Cond);
      nodeRef(B.TrueDst);
      nodeRef(B.FalseDst);
      break;
    }
    case Node::Kind::Call: {
      const auto &C = static_cast<const CallNode &>(N);
      expr(C.Callee);
      auto Refs = [&](std::span<Node *const> V) {
        Body.u64(V.size());
        for (const Node *T : V)
          nodeRef(T);
      };
      Refs(C.Bundle.ReturnsTo);
      Refs(C.Bundle.UnwindsTo);
      Refs(C.Bundle.CutsTo);
      Body.u8(C.Bundle.Abort);
      Body.u32(C.NumArgs);
      Body.u64(C.Descriptors.size());
      for (const Expr *E : C.Descriptors)
        expr(E);
      auto Names = [&](std::span<const Symbol> V) {
        Body.u64(V.size());
        for (Symbol S : V)
          sym(S);
      };
      Names(C.ReturnsToNames);
      Names(C.UnwindsToNames);
      Names(C.CutsToNames);
      break;
    }
    case Node::Kind::Jump: {
      const auto &J = static_cast<const JumpNode &>(N);
      expr(J.Callee);
      Body.u32(J.NumArgs);
      break;
    }
    case Node::Kind::CutTo: {
      const auto &C = static_cast<const CutToNode &>(N);
      expr(C.Cont);
      Body.u32(C.NumArgs);
      Body.u64(C.AlsoCutsTo.size());
      for (const Node *T : C.AlsoCutsTo)
        nodeRef(T);
      Body.u64(C.AlsoCutsToNames.size());
      for (Symbol S : C.AlsoCutsToNames)
        sym(S);
      break;
    }
    case Node::Kind::Yield:
      break;
    }
  }

  void writeProc(const IrProc &Proc) {
    sym(Proc.Name);
    Body.u64(Proc.Params.size());
    for (const Param &Pa : Proc.Params) {
      type(Pa.Ty);
      sym(Pa.Name);
    }
    auto Vars = sortedBySpelling(Proc.VarTypes, *P.Names);
    Body.u64(Vars.size());
    for (const auto &[S, T] : Vars) {
      sym(S);
      type(T);
    }

    // Expression table: first-visit order over the nodes.
    ExprId.clear();
    ExprList.clear();
    for (const auto &N : Proc.Nodes)
      visitNodeExprs(*N);
    Body.u64(ExprList.size());
    for (const Expr *E : ExprList)
      writeExprEntry(E);

    // String-literal addresses for table entries this program assigned one.
    std::vector<std::pair<uint32_t, uint64_t>> SAddrs;
    for (uint32_t I = 0; I < ExprList.size(); ++I)
      if (const auto *S = dyn_cast<StrLitExpr>(ExprList[I])) {
        auto It = P.StrAddrs.find(S);
        if (It != P.StrAddrs.end())
          SAddrs.emplace_back(I, It->second);
      }
    Body.u64(SAddrs.size());
    for (const auto &[I, Addr] : SAddrs) {
      Body.u32(I);
      Body.u64(Addr);
    }

    Body.u64(Proc.Nodes.size());
    for (const auto &N : Proc.Nodes)
      Body.u8(uint8_t(N->kind()));
    for (const auto &N : Proc.Nodes)
      writeNodePayload(*N);
    nodeRef(Proc.EntryPoint);
  }

  void writeProgram() {
    auto Globals = sortedBySpelling(P.Globals, *P.Names);
    Body.u64(Globals.size());
    for (const auto &[S, T] : Globals) {
      sym(S);
      type(T);
    }
    auto DataAddrs = sortedBySpelling(P.DataAddrs, *P.Names);
    Body.u64(DataAddrs.size());
    for (const auto &[S, A] : DataAddrs) {
      sym(S);
      Body.u64(A);
    }
    Body.u64(P.Image.Base);
    Body.u64(P.Image.Bytes.size());
    Body.bytes(P.Image.Bytes.data(), P.Image.Bytes.size());
    Body.u64(P.Image.Relocs.size());
    for (const DataImage::Reloc &R : P.Image.Relocs) {
      Body.u64(R.Addr);
      sym(R.Target);
    }
    Body.u64(P.DataEnd);
    Body.u64(P.Procs.size());
    for (const auto &Proc : P.Procs)
      writeProc(*Proc);
  }
};

//===----------------------------------------------------------------------===//
// Reading
//===----------------------------------------------------------------------===//

struct IrReader {
  ByteReader &R;
  IrProgram &P;
  std::vector<Symbol> SymOf; ///< table index -> interned symbol

  // Per-proc expression table: every entry, and whether a parent expression
  // has adopted it yet. The entries live in the proc's arena.
  std::vector<Expr *> Exprs;
  std::vector<uint8_t> Adopted;
  AstArena *Pool = nullptr;

  IrReader(ByteReader &R, IrProgram &P) : R(R), P(P) {}

  Symbol sym() {
    uint32_t I = R.u32();
    if (I >= SymOf.size())
      return R.fail(), Symbol();
    return SymOf[I];
  }
  Type type() {
    uint8_t K = R.u8(), W = R.u8();
    if (K > uint8_t(Type::Kind::Float))
      R.fail();
    return Type(Type::Kind(K), W);
  }
  SourceLoc loc() {
    uint32_t Line = R.u32(), Col = R.u32();
    return SourceLoc(Line, Col);
  }
  Node *nodeRef(IrProc &Proc) {
    uint32_t I = R.u32();
    if (I == 0)
      return nullptr;
    if (I > Proc.Nodes.size())
      return R.fail(), nullptr;
    return Proc.Nodes[I - 1];
  }

  /// Counted lists, read into \p Proc's arena. R.count bounds each count by
  /// the bytes left, so a hostile count cannot reserve more than the input.
  std::span<Node *> nodeRefs(IrProc &Proc) {
    std::span<Node *> L = Proc.makeList<Node *>(R.count(4));
    for (Node *&N : L)
      N = nodeRef(Proc);
    return L;
  }
  std::span<Symbol> syms(IrProc &Proc) {
    std::span<Symbol> L = Proc.makeList<Symbol>(R.count(4));
    for (Symbol &S : L)
      S = sym();
    return L;
  }
  std::span<const Expr *> exprs(IrProc &Proc, uint32_t Limit) {
    std::span<const Expr *> L = Proc.makeList<const Expr *>(R.count(4));
    for (const Expr *&E : L)
      E = expr(Limit);
    return L;
  }

  /// A previously materialized expression, by table index (never forward).
  Expr *expr(uint32_t Limit) {
    uint32_t I = R.u32();
    if (I == NullExpr)
      return nullptr;
    if (I >= Limit)
      return R.fail(), nullptr;
    return Exprs[I];
  }
  /// As expr(), for a parent adopting a child: the tables encode trees, so
  /// a second adoption of the same entry means corrupt input.
  Expr *adopt(uint32_t Limit) {
    uint32_t I = R.u32();
    if (I == NullExpr)
      return nullptr;
    if (I >= Limit || Adopted[I])
      return R.fail(), nullptr;
    Adopted[I] = 1;
    return Exprs[I];
  }

  void readExprEntry(uint32_t Index) {
    uint8_t KindByte = R.u8();
    if (KindByte > uint8_t(Expr::Kind::Sizeof)) {
      R.fail();
      return;
    }
    Type Ty = type();
    SourceLoc Loc = loc();
    Expr *E = nullptr;
    switch (Expr::Kind(KindByte)) {
    case Expr::Kind::IntLit:
      E = Pool->make<IntLitExpr>(Loc, R.u64());
      break;
    case Expr::Kind::FloatLit:
      E = Pool->make<FloatLitExpr>(Loc, R.f64());
      break;
    case Expr::Kind::StrLit:
      E = Pool->make<StrLitExpr>(Loc, Pool->copy(R.str()));
      break;
    case Expr::Kind::Name: {
      Symbol S = sym();
      uint8_t Ref = R.u8();
      if (Ref > uint8_t(RefKind::Import))
        R.fail();
      auto *NE = Pool->make<NameExpr>(Loc, S);
      NE->Ref = RefKind(Ref);
      E = NE;
      break;
    }
    case Expr::Kind::Load: {
      Type AccessTy = type();
      E = Pool->make<LoadExpr>(Loc, AccessTy, adopt(Index));
      break;
    }
    case Expr::Kind::Unary: {
      uint8_t Op = R.u8();
      if (Op > uint8_t(UnOp::Not))
        R.fail();
      E = Pool->make<UnaryExpr>(Loc, UnOp(Op), adopt(Index));
      break;
    }
    case Expr::Kind::Binary: {
      uint8_t Op = R.u8();
      if (Op > uint8_t(BinOp::GeS))
        R.fail();
      Expr *Lhs = adopt(Index);
      Expr *Rhs = adopt(Index);
      E = Pool->make<BinaryExpr>(Loc, BinOp(Op), Lhs, Rhs);
      break;
    }
    case Expr::Kind::Prim: {
      Symbol S = sym();
      size_t N = R.count(4);
      Expr **Args = Pool->allocArray<Expr *>(N);
      for (size_t I = 0; I < N; ++I)
        Args[I] = adopt(Index);
      E = Pool->make<PrimExpr>(Loc, S, std::span<Expr *>(Args, N));
      break;
    }
    case Expr::Kind::Sizeof: {
      Symbol S = sym();
      auto *SE = Pool->make<SizeofExpr>(Loc, S);
      SE->SizeInBytes = R.u32();
      E = SE;
      break;
    }
    }
    E->Ty = Ty;
    Exprs[Index] = E;
  }

  void readNodePayload(IrProc &Proc, Node &N, uint32_t ExprCount) {
    N.Loc = loc();
    switch (N.kind()) {
    case Node::Kind::Entry: {
      auto &E = static_cast<EntryNode &>(N);
      E.Conts = Proc.makeList<std::pair<Symbol, Node *>>(R.count(8));
      for (auto &[S, T] : E.Conts) {
        S = sym();
        T = nodeRef(Proc);
      }
      E.Next = nodeRef(Proc);
      break;
    }
    case Node::Kind::Exit: {
      auto &E = static_cast<ExitNode &>(N);
      E.ContIndex = R.u32();
      E.AltCount = R.u32();
      break;
    }
    case Node::Kind::CopyIn: {
      auto &C = static_cast<CopyInNode &>(N);
      C.Vars = syms(Proc);
      C.Next = nodeRef(Proc);
      break;
    }
    case Node::Kind::CopyOut: {
      auto &C = static_cast<CopyOutNode &>(N);
      C.Exprs = exprs(Proc, ExprCount);
      C.Next = nodeRef(Proc);
      break;
    }
    case Node::Kind::CalleeSaves: {
      auto &C = static_cast<CalleeSavesNode &>(N);
      C.Saved = syms(Proc);
      C.Next = nodeRef(Proc);
      break;
    }
    case Node::Kind::Assign: {
      auto &A = static_cast<AssignNode &>(N);
      A.Var = sym();
      A.IsGlobal = R.u8() != 0;
      A.Value = expr(ExprCount);
      A.Next = nodeRef(Proc);
      break;
    }
    case Node::Kind::Store: {
      auto &S = static_cast<StoreNode &>(N);
      S.AccessTy = type();
      S.Addr = expr(ExprCount);
      S.Value = expr(ExprCount);
      S.Next = nodeRef(Proc);
      break;
    }
    case Node::Kind::Branch: {
      auto &B = static_cast<BranchNode &>(N);
      B.Cond = expr(ExprCount);
      B.TrueDst = nodeRef(Proc);
      B.FalseDst = nodeRef(Proc);
      break;
    }
    case Node::Kind::Call: {
      auto &C = static_cast<CallNode &>(N);
      C.Callee = expr(ExprCount);
      C.Bundle.ReturnsTo = nodeRefs(Proc);
      C.Bundle.UnwindsTo = nodeRefs(Proc);
      C.Bundle.CutsTo = nodeRefs(Proc);
      C.Bundle.Abort = R.u8() != 0;
      C.NumArgs = R.u32();
      C.Descriptors = exprs(Proc, ExprCount);
      C.ReturnsToNames = syms(Proc);
      C.UnwindsToNames = syms(Proc);
      C.CutsToNames = syms(Proc);
      // Every checked program has a normal-return continuation; an empty
      // ReturnsTo would make normalReturn() read past the front.
      if (C.Bundle.ReturnsTo.empty())
        R.fail();
      break;
    }
    case Node::Kind::Jump: {
      auto &J = static_cast<JumpNode &>(N);
      J.Callee = expr(ExprCount);
      J.NumArgs = R.u32();
      break;
    }
    case Node::Kind::CutTo: {
      auto &C = static_cast<CutToNode &>(N);
      C.Cont = expr(ExprCount);
      C.NumArgs = R.u32();
      C.AlsoCutsTo = nodeRefs(Proc);
      C.AlsoCutsToNames = syms(Proc);
      break;
    }
    case Node::Kind::Yield:
      break;
    }
  }

  bool readProc(IrProc &Proc) {
    Proc.Name = sym();
    size_t NParams = R.count(4);
    Proc.Params.reserve(NParams);
    for (size_t I = 0; I < NParams; ++I) {
      Type T = type();
      Symbol S = sym();
      Proc.Params.push_back(Param{T, S});
    }
    size_t NVars = R.count(4);
    for (size_t I = 0; I < NVars; ++I) {
      Symbol S = sym();
      Type T = type();
      if (R.ok())
        Proc.VarTypes.emplace(S, T);
    }

    size_t NExprs = R.count(4);
    Exprs.assign(NExprs, nullptr);
    Adopted.assign(NExprs, 0);
    Pool = &Proc.Arena;
    for (uint32_t I = 0; I < NExprs && R.ok(); ++I)
      readExprEntry(I);
    if (!R.ok())
      return false;

    size_t NAddrs = R.count(8);
    for (size_t I = 0; I < NAddrs; ++I) {
      uint32_t EI = R.u32();
      uint64_t Addr = R.u64();
      if (EI >= NExprs) {
        R.fail();
        return false;
      }
      const auto *S = dyn_cast<StrLitExpr>(Exprs[EI]);
      if (!S) {
        R.fail();
        return false;
      }
      P.StrAddrs.emplace(S, Addr);
    }

    size_t NNodes = R.count(1);
    for (size_t I = 0; I < NNodes && R.ok(); ++I) {
      uint8_t K = R.u8();
      switch (Node::Kind(K)) {
      case Node::Kind::Entry:
        Proc.make<EntryNode>();
        break;
      case Node::Kind::Exit:
        Proc.make<ExitNode>();
        break;
      case Node::Kind::CopyIn:
        Proc.make<CopyInNode>();
        break;
      case Node::Kind::CopyOut:
        Proc.make<CopyOutNode>();
        break;
      case Node::Kind::CalleeSaves:
        Proc.make<CalleeSavesNode>();
        break;
      case Node::Kind::Assign:
        Proc.make<AssignNode>();
        break;
      case Node::Kind::Store:
        Proc.make<StoreNode>();
        break;
      case Node::Kind::Branch:
        Proc.make<BranchNode>();
        break;
      case Node::Kind::Call:
        Proc.make<CallNode>();
        break;
      case Node::Kind::Jump:
        Proc.make<JumpNode>();
        break;
      case Node::Kind::CutTo:
        Proc.make<CutToNode>();
        break;
      case Node::Kind::Yield:
        Proc.make<YieldNode>();
        break;
      default:
        R.fail();
      }
    }
    if (!R.ok())
      return false;
    for (size_t I = 0; I < NNodes && R.ok(); ++I)
      readNodePayload(Proc, *Proc.Nodes[I], uint32_t(NExprs));
    Proc.EntryPoint = nodeRef(Proc);
    return R.ok();
  }

  bool readProgram() {
    size_t NGlobals = R.count(6);
    for (size_t I = 0; I < NGlobals; ++I) {
      Symbol S = sym();
      Type T = type();
      if (R.ok())
        P.Globals.emplace(S, T);
    }
    size_t NAddrs = R.count(12);
    for (size_t I = 0; I < NAddrs; ++I) {
      Symbol S = sym();
      uint64_t A = R.u64();
      if (R.ok())
        P.DataAddrs.emplace(S, A);
    }
    P.Image.Base = R.u64();
    size_t NBytes = R.count(1);
    R.bytes(P.Image.Bytes, NBytes);
    size_t NRelocs = R.count(12);
    P.Image.Relocs.reserve(NRelocs);
    for (size_t I = 0; I < NRelocs; ++I) {
      uint64_t A = R.u64();
      Symbol S = sym();
      if (R.ok())
        P.Image.Relocs.push_back(DataImage::Reloc{A, S});
    }
    P.DataEnd = R.u64();
    size_t NProcs = R.count(8);
    for (size_t I = 0; I < NProcs && R.ok(); ++I) {
      auto Proc = std::make_unique<IrProc>(&P.Memory);
      Proc->Index = static_cast<uint32_t>(P.Procs.size());
      if (!readProc(*Proc))
        return false;
      P.ProcByName.emplace(Proc->Name, Proc.get());
      P.Procs.push_back(std::move(Proc));
    }
    return R.ok();
  }
};

} // namespace

void cmm::serializeIr(const IrProgram &P, ByteWriter &W) {
  IrWriter IW(P);
  IW.writeProgram();
  W.u32(IrFormatVersion);
  W.u64(IW.Syms.Spellings.size());
  for (std::string_view S : IW.Syms.Spellings)
    W.str(S);
  W.bytes(IW.Body.buffer().data(), IW.Body.size());
}

std::unique_ptr<IrProgram> cmm::deserializeIr(ByteReader &R,
                                              std::string *Err) {
  auto Fail = [&](const char *Why) -> std::unique_ptr<IrProgram> {
    if (Err)
      *Err = Why;
    return nullptr;
  };
  uint32_t Version = R.u32();
  if (!R.ok())
    return Fail("truncated IR blob");
  if (Version != IrFormatVersion)
    return Fail("IR format version mismatch");

  auto P = std::make_unique<IrProgram>();
  P->Names = std::make_shared<Interner>();

  IrReader IR(R, *P);
  size_t NSyms = R.count(8);
  IR.SymOf.reserve(NSyms + 1);
  IR.SymOf.push_back(Symbol()); // index 0 = invalid
  for (size_t I = 0; I < NSyms && R.ok(); ++I)
    IR.SymOf.push_back(P->Names->intern(R.str()));
  if (!R.ok())
    return Fail("malformed IR symbol table");

  if (!IR.readProgram())
    return Fail("malformed IR body");
  return P;
}
