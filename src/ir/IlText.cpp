//===- ir/IlText.cpp - Textual IL round-trip format -----------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
//
// Line-oriented, token-positional grammar (every count is explicit, so the
// parser is a plain token stream walk):
//
//   cmmex-il v2
//   global <sym> <type>
//   dataaddr <sym> <addr>
//   image <base> <hexbytes|->
//   reloc <addr> <sym>
//   dataend <n>
//   proc <sym>
//     param <type> <sym>
//     var <sym> <type>
//     expr <i> int <u64> <type> <loc>
//     expr <i> flt <hexbits> <type> <loc>
//     expr <i> str <"quoted"> <type> <loc>
//     expr <i> name <sym> <refkind> <type> <loc>
//     expr <i> load <type> #a <type> <loc>
//     expr <i> un <op> #a <type> <loc>
//     expr <i> bin <op> #a #b <type> <loc>
//     expr <i> prim <sym> <n> #a... <type> <loc>
//     expr <i> sizeof <sym> <bytes> <type> <loc>
//     straddr <i> <addr>
//     node <i> <kind> <payload...> <loc>
//     entry ^r
//   endproc
//
// Symbols print as their raw spelling (identifiers and %prim names contain
// no whitespace); the invalid symbol prints as "!". Node references are
// "^id" ("^-" = null), expression references "#index" ("#-" = null), types
// ":bits32", locations "@line.col". Maps print sorted by spelling and
// expression tables in first-visit order — the same canonical orders as the
// binary encoding — which is what makes print∘parse∘print a fixed point.
//
//===----------------------------------------------------------------------===//

#include "ir/IlText.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

using namespace cmm;

namespace {

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

const char *refKindName(RefKind K) {
  switch (K) {
  case RefKind::Unresolved:
    return "unresolved";
  case RefKind::Local:
    return "local";
  case RefKind::Global:
    return "global";
  case RefKind::Proc:
    return "proc";
  case RefKind::Continuation:
    return "cont";
  case RefKind::DataLabel:
    return "data";
  case RefKind::Import:
    return "import";
  }
  return "unresolved";
}

const char *unOpName(UnOp O) {
  switch (O) {
  case UnOp::Neg:
    return "neg";
  case UnOp::Com:
    return "com";
  case UnOp::Not:
    return "not";
  }
  return "neg";
}

const char *binOpName(BinOp O) {
  static const char *Names[] = {"add", "sub", "mul", "div", "mod", "and",
                                "or",  "xor", "shl", "shr", "eq",  "ne",
                                "lts", "les", "gts", "ges"};
  return Names[size_t(O)];
}

std::string quoted(std::string_view S) {
  std::string Out = "\"";
  for (unsigned char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += char(C);
    } else if (C >= 0x20 && C < 0x7f) {
      Out += char(C);
    } else {
      char Buf[8];
      std::snprintf(Buf, sizeof Buf, "\\x%02x", C);
      Out += Buf;
    }
  }
  Out += '"';
  return Out;
}

struct IlPrinter {
  const IrProgram &P;
  std::string Out;

  explicit IlPrinter(const IrProgram &P) : P(P) {}

  void f(const char *Fmt, ...) __attribute__((format(printf, 2, 3))) {
    char Buf[256];
    va_list Ap;
    va_start(Ap, Fmt);
    std::vsnprintf(Buf, sizeof Buf, Fmt, Ap);
    va_end(Ap);
    Out += Buf;
  }
  void sym(Symbol S) {
    Out += ' ';
    Out += S.isValid() ? P.Names->spelling(S) : "!";
  }
  void type(Type T) { f(" :%s%u", T.isBits() ? "bits" : "float", T.Width); }
  void loc(SourceLoc L) { f(" @%u.%u", L.Line, L.Col); }
  void nodeRef(const Node *N) {
    if (N)
      f(" ^%u", N->Id);
    else
      Out += " ^-";
  }

  std::unordered_map<const Expr *, uint32_t> ExprId;
  std::vector<const Expr *> ExprList;

  uint32_t visitExpr(const Expr *E) {
    if (!E)
      return ~0u;
    auto It = ExprId.find(E);
    if (It != ExprId.end())
      return It->second;
    switch (E->kind()) {
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
    default:
      break;
    }
    uint32_t Id = uint32_t(ExprList.size());
    ExprId.emplace(E, Id);
    ExprList.push_back(E);
    return Id;
  }

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

  void expr(const Expr *E) {
    if (E)
      f(" #%u", ExprId.at(E));
    else
      Out += " #-";
  }

  void printExprEntry(uint32_t I, const Expr *E) {
    f("  expr %u", I);
    switch (E->kind()) {
    case Expr::Kind::IntLit:
      f(" int %" PRIu64, static_cast<const IntLitExpr *>(E)->Value);
      break;
    case Expr::Kind::FloatLit: {
      uint64_t Bits;
      double V = static_cast<const FloatLitExpr *>(E)->Value;
      std::memcpy(&Bits, &V, sizeof Bits);
      f(" flt 0x%016" PRIx64, Bits);
      break;
    }
    case Expr::Kind::StrLit:
      Out += " str ";
      Out += quoted(static_cast<const StrLitExpr *>(E)->Value);
      break;
    case Expr::Kind::Name: {
      const auto *NE = static_cast<const NameExpr *>(E);
      Out += " name";
      sym(NE->Name);
      f(" %s", refKindName(NE->Ref));
      break;
    }
    case Expr::Kind::Load: {
      const auto *L = static_cast<const LoadExpr *>(E);
      f(" load %s", L->AccessTy.str().c_str());
      expr(L->Addr);
      break;
    }
    case Expr::Kind::Unary: {
      const auto *U = static_cast<const UnaryExpr *>(E);
      f(" un %s", unOpName(U->Op));
      expr(U->Operand);
      break;
    }
    case Expr::Kind::Binary: {
      const auto *B = static_cast<const BinaryExpr *>(E);
      f(" bin %s", binOpName(B->Op));
      expr(B->Lhs);
      expr(B->Rhs);
      break;
    }
    case Expr::Kind::Prim: {
      const auto *Pr = static_cast<const PrimExpr *>(E);
      Out += " prim";
      sym(Pr->Name);
      f(" %zu", Pr->Args.size());
      for (const Expr *A : Pr->Args)
        expr(A);
      break;
    }
    case Expr::Kind::Sizeof: {
      const auto *S = static_cast<const SizeofExpr *>(E);
      Out += " sizeof";
      sym(S->Name);
      f(" %u", S->SizeInBytes);
      break;
    }
    }
    type(E->Ty);
    loc(E->loc());
    Out += '\n';
  }

  void printNode(const Node &N) {
    f("  node %u", N.Id);
    switch (N.kind()) {
    case Node::Kind::Entry: {
      const auto &E = static_cast<const EntryNode &>(N);
      f(" entry %zu", E.Conts.size());
      for (const auto &[S, T] : E.Conts) {
        sym(S);
        nodeRef(T);
      }
      nodeRef(E.Next);
      break;
    }
    case Node::Kind::Exit: {
      const auto &E = static_cast<const ExitNode &>(N);
      f(" exit %u %u", E.ContIndex, E.AltCount);
      break;
    }
    case Node::Kind::CopyIn: {
      const auto &C = static_cast<const CopyInNode &>(N);
      f(" copyin %zu", C.Vars.size());
      for (Symbol V : C.Vars)
        sym(V);
      nodeRef(C.Next);
      break;
    }
    case Node::Kind::CopyOut: {
      const auto &C = static_cast<const CopyOutNode &>(N);
      f(" copyout %zu", C.Exprs.size());
      for (const Expr *E : C.Exprs)
        expr(E);
      nodeRef(C.Next);
      break;
    }
    case Node::Kind::CalleeSaves: {
      const auto &C = static_cast<const CalleeSavesNode &>(N);
      f(" calleesaves %zu", C.Saved.size());
      for (Symbol V : C.Saved)
        sym(V);
      nodeRef(C.Next);
      break;
    }
    case Node::Kind::Assign: {
      const auto &A = static_cast<const AssignNode &>(N);
      Out += " assign";
      sym(A.Var);
      f(" %u", A.IsGlobal ? 1 : 0);
      expr(A.Value);
      nodeRef(A.Next);
      break;
    }
    case Node::Kind::Store: {
      const auto &S = static_cast<const StoreNode &>(N);
      f(" store %s", S.AccessTy.str().c_str());
      expr(S.Addr);
      expr(S.Value);
      nodeRef(S.Next);
      break;
    }
    case Node::Kind::Branch: {
      const auto &B = static_cast<const BranchNode &>(N);
      Out += " branch";
      expr(B.Cond);
      nodeRef(B.TrueDst);
      nodeRef(B.FalseDst);
      break;
    }
    case Node::Kind::Call: {
      const auto &C = static_cast<const CallNode &>(N);
      Out += " call";
      expr(C.Callee);
      auto Refs = [&](std::span<Node *const> V) {
        f(" %zu", V.size());
        for (const Node *T : V)
          nodeRef(T);
      };
      Refs(C.Bundle.ReturnsTo);
      Refs(C.Bundle.UnwindsTo);
      Refs(C.Bundle.CutsTo);
      f(" %u %u", C.Bundle.Abort ? 1 : 0, C.NumArgs);
      f(" %zu", C.Descriptors.size());
      for (const Expr *E : C.Descriptors)
        expr(E);
      auto Names = [&](std::span<const Symbol> V) {
        f(" %zu", V.size());
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
      Out += " jump";
      expr(J.Callee);
      f(" %u", J.NumArgs);
      break;
    }
    case Node::Kind::CutTo: {
      const auto &C = static_cast<const CutToNode &>(N);
      Out += " cutto";
      expr(C.Cont);
      f(" %u %zu", C.NumArgs, C.AlsoCutsTo.size());
      for (const Node *T : C.AlsoCutsTo)
        nodeRef(T);
      f(" %zu", C.AlsoCutsToNames.size());
      for (Symbol S : C.AlsoCutsToNames)
        sym(S);
      break;
    }
    case Node::Kind::Yield:
      Out += " yield";
      break;
    }
    loc(N.Loc);
    Out += '\n';
  }

  template <typename MapT>
  std::vector<std::pair<Symbol, typename MapT::mapped_type>>
  sorted(const MapT &M) {
    std::vector<std::pair<Symbol, typename MapT::mapped_type>> V(M.begin(),
                                                                 M.end());
    std::sort(V.begin(), V.end(), [&](const auto &A, const auto &B) {
      return P.Names->spelling(A.first) < P.Names->spelling(B.first);
    });
    return V;
  }

  std::string print() {
    Out += "cmmex-il v2\n";
    for (const auto &[S, T] : sorted(P.Globals)) {
      Out += "global";
      sym(S);
      f(" %s\n", T.str().c_str());
    }
    for (const auto &[S, A] : sorted(P.DataAddrs)) {
      Out += "dataaddr";
      sym(S);
      f(" %" PRIu64 "\n", A);
    }
    f("image %" PRIu64 " ", P.Image.Base);
    if (P.Image.Bytes.empty()) {
      Out += '-';
    } else {
      for (uint8_t B : P.Image.Bytes)
        f("%02x", B);
    }
    Out += '\n';
    for (const DataImage::Reloc &R : P.Image.Relocs) {
      f("reloc %" PRIu64, R.Addr);
      sym(R.Target);
      Out += '\n';
    }
    f("dataend %" PRIu64 "\n", P.DataEnd);
    for (const auto &ProcPtr : P.Procs) {
      const IrProc &Proc = *ProcPtr;
      Out += "proc";
      sym(Proc.Name);
      Out += '\n';
      for (const Param &Pa : Proc.Params) {
        f("  param %s", Pa.Ty.str().c_str());
        sym(Pa.Name);
        Out += '\n';
      }
      for (const auto &[S, T] : sorted(Proc.VarTypes)) {
        Out += "  var";
        sym(S);
        f(" %s\n", T.str().c_str());
      }
      ExprId.clear();
      ExprList.clear();
      for (const auto &N : Proc.Nodes)
        visitNodeExprs(*N);
      for (uint32_t I = 0; I < ExprList.size(); ++I)
        printExprEntry(I, ExprList[I]);
      for (uint32_t I = 0; I < ExprList.size(); ++I)
        if (const auto *S = dyn_cast<StrLitExpr>(ExprList[I])) {
          auto It = P.StrAddrs.find(S);
          if (It != P.StrAddrs.end())
            f("  straddr %u %" PRIu64 "\n", I, It->second);
        }
      for (const auto &N : Proc.Nodes)
        printNode(*N);
      Out += "  entry";
      nodeRef(Proc.EntryPoint);
      Out += '\n';
      Out += "endproc\n";
    }
    return std::move(Out);
  }
};

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

/// Whitespace-separated tokens with double-quoted string literals; sticky
/// failure like ByteReader.
struct Tokens {
  std::vector<std::string> Toks;
  size_t Pos = 0;
  bool Ok = true;
  std::string Error;

  void fail(const std::string &Why) {
    if (Ok) {
      Ok = false;
      Error = Why;
    }
  }

  static bool tokenize(std::string_view Text, Tokens &T) {
    size_t I = 0;
    while (I < Text.size()) {
      char C = Text[I];
      if (C == ' ' || C == '\t' || C == '\n' || C == '\r') {
        ++I;
        continue;
      }
      if (C == '"') {
        std::string S = "\"";
        ++I;
        while (I < Text.size() && Text[I] != '"') {
          if (Text[I] == '\\' && I + 1 < Text.size()) {
            S += Text[I];
            S += Text[I + 1];
            I += 2;
          } else {
            S += Text[I++];
          }
        }
        if (I >= Text.size())
          return false; // unterminated string
        S += '"';
        ++I;
        T.Toks.push_back(std::move(S));
        continue;
      }
      size_t Start = I;
      while (I < Text.size() && Text[I] != ' ' && Text[I] != '\t' &&
             Text[I] != '\n' && Text[I] != '\r')
        ++I;
      T.Toks.emplace_back(Text.substr(Start, I - Start));
    }
    return true;
  }

  bool atEnd() const { return Pos >= Toks.size(); }
  const std::string &peek() {
    static const std::string Empty;
    if (atEnd())
      return Empty;
    return Toks[Pos];
  }
  std::string next() {
    if (atEnd()) {
      fail("unexpected end of input");
      return std::string();
    }
    return Toks[Pos++];
  }
  /// Consumes \p Word or fails.
  void expect(const char *Word) {
    std::string T = next();
    if (Ok && T != Word)
      fail(std::string("expected '") + Word + "', got '" + T + "'");
  }
  /// True (and consumes) when the next token is \p Word.
  bool accept(const char *Word) {
    if (!Ok || atEnd() || Toks[Pos] != Word)
      return false;
    ++Pos;
    return true;
  }
  uint64_t u64() {
    std::string T = next();
    if (!Ok)
      return 0;
    char *End = nullptr;
    uint64_t V = std::strtoull(T.c_str(), &End, 0);
    if (End != T.c_str() + T.size() || T.empty())
      fail("expected a number, got '" + T + "'");
    return V;
  }
};

struct IlParser {
  Tokens &T;
  IrProgram &P;

  // Per-proc state.
  std::vector<Expr *> Exprs;
  std::vector<uint8_t> Adopted;
  /// The current proc's arena, which owns its expressions.
  AstArena *Pool = nullptr;
  std::vector<std::pair<uint32_t, uint64_t>> PendingStrAddrs;

  IlParser(Tokens &T, IrProgram &P) : T(T), P(P) {}

  Symbol sym() {
    std::string S = T.next();
    if (!T.Ok)
      return Symbol();
    if (S == "!")
      return Symbol();
    return P.Names->intern(S);
  }
  Type type() {
    std::string S = T.next();
    if (!T.Ok)
      return Type();
    // ":bits32" in expr positions, "bits32" in decl positions.
    std::string_view V = S;
    if (!V.empty() && V[0] == ':')
      V.remove_prefix(1);
    Type::Kind K;
    if (V.substr(0, 4) == "bits") {
      K = Type::Kind::Bits;
      V.remove_prefix(4);
    } else if (V.substr(0, 5) == "float") {
      K = Type::Kind::Float;
      V.remove_prefix(5);
    } else {
      T.fail("expected a type, got '" + S + "'");
      return Type();
    }
    return Type(K, uint8_t(std::strtoul(std::string(V).c_str(), nullptr, 10)));
  }
  SourceLoc loc() {
    std::string S = T.next();
    if (!T.Ok)
      return SourceLoc();
    if (S.empty() || S[0] != '@') {
      T.fail("expected a @line.col location, got '" + S + "'");
      return SourceLoc();
    }
    char *End = nullptr;
    uint32_t Line = uint32_t(std::strtoul(S.c_str() + 1, &End, 10));
    uint32_t Col = *End == '.' ? uint32_t(std::strtoul(End + 1, nullptr, 10))
                               : (T.fail("bad location '" + S + "'"), 0);
    return SourceLoc(Line, Col);
  }
  Node *nodeRef(IrProc &Proc) {
    std::string S = T.next();
    if (!T.Ok)
      return nullptr;
    if (S == "^-")
      return nullptr;
    if (S.size() < 2 || S[0] != '^') {
      T.fail("expected a ^node reference, got '" + S + "'");
      return nullptr;
    }
    uint64_t I = std::strtoull(S.c_str() + 1, nullptr, 10);
    if (I >= Proc.Nodes.size()) {
      T.fail("node reference out of range: " + S);
      return nullptr;
    }
    return Proc.Nodes[size_t(I)];
  }
  uint32_t exprIndex() {
    std::string S = T.next();
    if (!T.Ok)
      return ~0u;
    if (S == "#-")
      return ~0u;
    if (S.size() < 2 || S[0] != '#') {
      T.fail("expected a #expr reference, got '" + S + "'");
      return ~0u;
    }
    uint64_t I = std::strtoull(S.c_str() + 1, nullptr, 10);
    if (I >= Exprs.size() || !Exprs[size_t(I)]) {
      T.fail("expr reference out of range: " + S);
      return ~0u;
    }
    return uint32_t(I);
  }
  Expr *expr() {
    uint32_t I = exprIndex();
    return I == ~0u ? nullptr : Exprs[I];
  }
  /// Counted lists, built in \p Proc's arena as they parse: the count is
  /// untrusted text, so nothing is reserved from it.
  std::span<Node *> nodeRefs(IrProc &Proc) {
    uint64_t K = T.u64();
    ArenaListBuilder<Node *> L(Proc.Arena);
    for (uint64_t I = 0; I < K && T.Ok; ++I)
      L.push_back(nodeRef(Proc));
    return L.finish();
  }
  std::span<Symbol> syms(IrProc &Proc) {
    uint64_t K = T.u64();
    ArenaListBuilder<Symbol> L(Proc.Arena);
    for (uint64_t I = 0; I < K && T.Ok; ++I)
      L.push_back(sym());
    return L.finish();
  }
  std::span<const Expr *> exprs(IrProc &Proc) {
    uint64_t K = T.u64();
    ArenaListBuilder<const Expr *> L(Proc.Arena);
    for (uint64_t I = 0; I < K && T.Ok; ++I)
      L.push_back(expr());
    return L.finish();
  }
  Expr *adopt() {
    uint32_t I = exprIndex();
    if (I == ~0u)
      return nullptr;
    if (Adopted[I]) {
      T.fail("expr adopted twice: #" + std::to_string(I));
      return nullptr;
    }
    Adopted[I] = 1;
    return Exprs[I];
  }

  std::string unquote(const std::string &S) {
    if (S.size() < 2 || S.front() != '"' || S.back() != '"') {
      T.fail("expected a quoted string, got '" + S + "'");
      return std::string();
    }
    std::string Out;
    for (size_t I = 1; I + 1 < S.size(); ++I) {
      if (S[I] != '\\') {
        Out += S[I];
        continue;
      }
      ++I;
      if (I + 1 >= S.size()) {
        T.fail("bad escape in string literal");
        return std::string();
      }
      if (S[I] == 'x' && I + 2 < S.size()) {
        char Hex[3] = {S[I + 1], S[I + 2], 0};
        Out += char(std::strtoul(Hex, nullptr, 16));
        I += 2;
      } else {
        Out += S[I];
      }
    }
    return Out;
  }

  void parseExprLine() {
    uint64_t Index = T.u64();
    if (Index != Exprs.size()) {
      T.fail("expression table indices must be dense and in order");
      return;
    }
    std::string Kind = T.next();
    Expr *E = nullptr;
    if (Kind == "int") {
      uint64_t V = T.u64();
      Type Ty = type();
      SourceLoc L = loc();
      E = Pool->make<IntLitExpr>(L, V);
      E->Ty = Ty;
    } else if (Kind == "flt") {
      uint64_t Bits = T.u64();
      double V;
      std::memcpy(&V, &Bits, sizeof V);
      Type Ty = type();
      SourceLoc L = loc();
      E = Pool->make<FloatLitExpr>(L, V);
      E->Ty = Ty;
    } else if (Kind == "str") {
      std::string V = unquote(T.next());
      Type Ty = type();
      SourceLoc L = loc();
      E = Pool->make<StrLitExpr>(L, Pool->copy(V));
      E->Ty = Ty;
    } else if (Kind == "name") {
      Symbol S = sym();
      std::string RefName = T.next();
      RefKind Ref = RefKind::Unresolved;
      if (RefName == "local")
        Ref = RefKind::Local;
      else if (RefName == "global")
        Ref = RefKind::Global;
      else if (RefName == "proc")
        Ref = RefKind::Proc;
      else if (RefName == "cont")
        Ref = RefKind::Continuation;
      else if (RefName == "data")
        Ref = RefKind::DataLabel;
      else if (RefName == "import")
        Ref = RefKind::Import;
      else if (RefName != "unresolved")
        T.fail("unknown refkind '" + RefName + "'");
      Type Ty = type();
      SourceLoc L = loc();
      auto *NE = Pool->make<NameExpr>(L, S);
      NE->Ref = Ref;
      NE->Ty = Ty;
      E = NE;
    } else if (Kind == "load") {
      Type AccessTy = type();
      Expr *Addr = adopt();
      Type Ty = type();
      SourceLoc L = loc();
      E = Pool->make<LoadExpr>(L, AccessTy, Addr);
      E->Ty = Ty;
    } else if (Kind == "un") {
      std::string OpName = T.next();
      UnOp Op = UnOp::Neg;
      if (OpName == "com")
        Op = UnOp::Com;
      else if (OpName == "not")
        Op = UnOp::Not;
      else if (OpName != "neg")
        T.fail("unknown unary op '" + OpName + "'");
      Expr *Operand = adopt();
      Type Ty = type();
      SourceLoc L = loc();
      E = Pool->make<UnaryExpr>(L, Op, Operand);
      E->Ty = Ty;
    } else if (Kind == "bin") {
      std::string OpName = T.next();
      static const char *Names[] = {"add", "sub", "mul", "div", "mod", "and",
                                    "or",  "xor", "shl", "shr", "eq",  "ne",
                                    "lts", "les", "gts", "ges"};
      size_t OpIdx = 0;
      for (; OpIdx < std::size(Names); ++OpIdx)
        if (OpName == Names[OpIdx])
          break;
      if (OpIdx == std::size(Names))
        T.fail("unknown binary op '" + OpName + "'");
      Expr *Lhs = adopt();
      Expr *Rhs = adopt();
      Type Ty = type();
      SourceLoc L = loc();
      E = Pool->make<BinaryExpr>(L, BinOp(OpIdx), Lhs, Rhs);
      E->Ty = Ty;
    } else if (Kind == "prim") {
      Symbol S = sym();
      uint64_t N = T.u64();
      ArenaListBuilder<Expr *> Args(*Pool);
      for (uint64_t I = 0; I < N && T.Ok; ++I)
        Args.push_back(adopt());
      Type Ty = type();
      SourceLoc L = loc();
      E = Pool->make<PrimExpr>(L, S, Args.finish());
      E->Ty = Ty;
    } else if (Kind == "sizeof") {
      Symbol S = sym();
      uint64_t Bytes = T.u64();
      Type Ty = type();
      SourceLoc L = loc();
      auto *SE = Pool->make<SizeofExpr>(L, S);
      SE->SizeInBytes = unsigned(Bytes);
      SE->Ty = Ty;
      E = SE;
    } else {
      T.fail("unknown expr kind '" + Kind + "'");
      return;
    }
    if (!T.Ok)
      return;
    Exprs.push_back(E);
    Adopted.push_back(0);
  }

  /// Consumes exactly one node payload (plus its location) without
  /// resolving anything: the shell pass, which must walk every record
  /// before forward ^references can resolve. Driven by the same explicit
  /// counts as parseNodePayload, so a symbol spelled like a keyword can
  /// never derail it.
  void skipNodePayload(const std::string &Kind) {
    auto Skip = [&](size_t N) {
      for (size_t I = 0; I < N && T.Ok; ++I)
        T.next();
    };
    auto SkipCounted = [&] { Skip(size_t(T.u64())); };
    if (Kind == "entry") {
      size_t C = size_t(T.u64());
      Skip(2 * C + 1);
    } else if (Kind == "exit") {
      Skip(2);
    } else if (Kind == "copyin" || Kind == "copyout" ||
               Kind == "calleesaves") {
      SkipCounted();
      Skip(1);
    } else if (Kind == "assign") {
      Skip(4);
    } else if (Kind == "store") {
      Skip(4);
    } else if (Kind == "branch") {
      Skip(3);
    } else if (Kind == "call") {
      Skip(1); // callee
      SkipCounted();
      SkipCounted();
      SkipCounted(); // bundle edges
      Skip(2);       // abort, numargs
      SkipCounted(); // descriptors
      SkipCounted();
      SkipCounted();
      SkipCounted(); // name vectors
    } else if (Kind == "jump") {
      Skip(2);
    } else if (Kind == "cutto") {
      Skip(2);
      SkipCounted();
      SkipCounted();
    } else if (Kind == "yield") {
      // no payload
    } else {
      T.fail("unknown node kind '" + Kind + "'");
    }
    Skip(1); // location
  }

  void parseNodePayload(IrProc &Proc, Node &N) {
    switch (N.kind()) {
    case Node::Kind::Entry: {
      auto &E = static_cast<EntryNode &>(N);
      uint64_t C = T.u64();
      ArenaListBuilder<std::pair<Symbol, Node *>> Conts(Proc.Arena);
      for (uint64_t I = 0; I < C && T.Ok; ++I) {
        Symbol S = sym();
        Node *Tgt = nodeRef(Proc);
        Conts.push_back({S, Tgt});
      }
      E.Conts = Conts.finish();
      E.Next = nodeRef(Proc);
      break;
    }
    case Node::Kind::Exit: {
      auto &E = static_cast<ExitNode &>(N);
      E.ContIndex = unsigned(T.u64());
      E.AltCount = unsigned(T.u64());
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
      C.Exprs = exprs(Proc);
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
      A.IsGlobal = T.u64() != 0;
      A.Value = expr();
      A.Next = nodeRef(Proc);
      break;
    }
    case Node::Kind::Store: {
      auto &S = static_cast<StoreNode &>(N);
      S.AccessTy = type();
      S.Addr = expr();
      S.Value = expr();
      S.Next = nodeRef(Proc);
      break;
    }
    case Node::Kind::Branch: {
      auto &B = static_cast<BranchNode &>(N);
      B.Cond = expr();
      B.TrueDst = nodeRef(Proc);
      B.FalseDst = nodeRef(Proc);
      break;
    }
    case Node::Kind::Call: {
      auto &C = static_cast<CallNode &>(N);
      C.Callee = expr();
      C.Bundle.ReturnsTo = nodeRefs(Proc);
      C.Bundle.UnwindsTo = nodeRefs(Proc);
      C.Bundle.CutsTo = nodeRefs(Proc);
      C.Bundle.Abort = T.u64() != 0;
      C.NumArgs = unsigned(T.u64());
      C.Descriptors = exprs(Proc);
      C.ReturnsToNames = syms(Proc);
      C.UnwindsToNames = syms(Proc);
      C.CutsToNames = syms(Proc);
      if (T.Ok && C.Bundle.ReturnsTo.empty())
        T.fail("call bundle with no normal-return continuation");
      break;
    }
    case Node::Kind::Jump: {
      auto &J = static_cast<JumpNode &>(N);
      J.Callee = expr();
      J.NumArgs = unsigned(T.u64());
      break;
    }
    case Node::Kind::CutTo: {
      auto &C = static_cast<CutToNode &>(N);
      C.Cont = expr();
      C.NumArgs = unsigned(T.u64());
      C.AlsoCutsTo = nodeRefs(Proc);
      C.AlsoCutsToNames = syms(Proc);
      break;
    }
    case Node::Kind::Yield:
      break;
    }
    N.Loc = loc();
  }

  Node *makeNodeOfKind(IrProc &Proc, const std::string &Kind) {
    if (Kind == "entry")
      return Proc.make<EntryNode>();
    if (Kind == "exit")
      return Proc.make<ExitNode>();
    if (Kind == "copyin")
      return Proc.make<CopyInNode>();
    if (Kind == "copyout")
      return Proc.make<CopyOutNode>();
    if (Kind == "calleesaves")
      return Proc.make<CalleeSavesNode>();
    if (Kind == "assign")
      return Proc.make<AssignNode>();
    if (Kind == "store")
      return Proc.make<StoreNode>();
    if (Kind == "branch")
      return Proc.make<BranchNode>();
    if (Kind == "call")
      return Proc.make<CallNode>();
    if (Kind == "jump")
      return Proc.make<JumpNode>();
    if (Kind == "cutto")
      return Proc.make<CutToNode>();
    if (Kind == "yield")
      return Proc.make<YieldNode>();
    T.fail("unknown node kind '" + Kind + "'");
    return nullptr;
  }

  bool parseProc() {
    auto Proc = std::make_unique<IrProc>(&P.Memory);
    Proc->Index = static_cast<uint32_t>(P.Procs.size());
    Proc->Name = sym();
    while (T.accept("param")) {
      Type Ty = type();
      Symbol S = sym();
      Proc->Params.push_back(Param{Ty, S});
    }
    while (T.accept("var")) {
      Symbol S = sym();
      Type Ty = type();
      if (T.Ok)
        Proc->VarTypes.emplace(S, Ty);
    }
    Exprs.clear();
    Adopted.clear();
    Pool = &Proc->Arena;
    PendingStrAddrs.clear();
    while (T.accept("expr"))
      parseExprLine();
    while (T.accept("straddr")) {
      uint32_t I = uint32_t(T.u64());
      uint64_t Addr = T.u64();
      if (!T.Ok)
        break;
      if (I >= Exprs.size() || !isa<StrLitExpr>(Exprs[I])) {
        T.fail("straddr does not name a string literal");
        break;
      }
      PendingStrAddrs.emplace_back(I, Addr);
    }
    // Node shells first: walk every record consuming its counted payload,
    // then rewind and fill the payloads so forward ^references resolve.
    size_t NodesStart = T.Pos;
    std::vector<std::string> Kinds;
    while (T.accept("node")) {
      T.u64(); // id (dense, by construction order)
      std::string Kind = T.next();
      skipNodePayload(Kind);
      Kinds.push_back(std::move(Kind));
    }
    if (!T.Ok)
      return false;
    for (const std::string &K : Kinds)
      if (!makeNodeOfKind(*Proc, K))
        return false;
    size_t AfterNodes = T.Pos;
    T.Pos = NodesStart;
    for (size_t I = 0; I < Kinds.size() && T.Ok; ++I) {
      T.expect("node");
      uint64_t Id = T.u64();
      if (T.Ok && Id != I) {
        T.fail("node ids must be dense and in order");
        return false;
      }
      T.next(); // kind, already consumed structurally
      parseNodePayload(*Proc, *Proc->Nodes[I]);
    }
    if (T.Ok && T.Pos != AfterNodes) {
      T.fail("node payload token count mismatch");
      return false;
    }
    T.expect("entry");
    Proc->EntryPoint = nodeRef(*Proc);
    T.expect("endproc");
    if (!T.Ok)
      return false;

    for (const auto &[I, Addr] : PendingStrAddrs)
      P.StrAddrs.emplace(static_cast<const StrLitExpr *>(Exprs[I]), Addr);
    P.ProcByName.emplace(Proc->Name, Proc.get());
    P.Procs.push_back(std::move(Proc));
    return true;
  }

  bool parse() {
    T.expect("cmmex-il");
    T.expect("v2");
    while (T.accept("global")) {
      Symbol S = sym();
      Type Ty = type();
      if (T.Ok)
        P.Globals.emplace(S, Ty);
    }
    while (T.accept("dataaddr")) {
      Symbol S = sym();
      uint64_t A = T.u64();
      if (T.Ok)
        P.DataAddrs.emplace(S, A);
    }
    T.expect("image");
    P.Image.Base = T.u64();
    {
      std::string Hex = T.next();
      if (T.Ok && Hex != "-") {
        if (Hex.size() % 2 != 0) {
          T.fail("image bytes must be whole hex pairs");
          return false;
        }
        P.Image.Bytes.reserve(Hex.size() / 2);
        for (size_t I = 0; I < Hex.size(); I += 2) {
          char Buf[3] = {Hex[I], Hex[I + 1], 0};
          char *End = nullptr;
          P.Image.Bytes.push_back(uint8_t(std::strtoul(Buf, &End, 16)));
          if (End != Buf + 2) {
            T.fail("bad hex in image bytes");
            return false;
          }
        }
      }
    }
    while (T.accept("reloc")) {
      uint64_t A = T.u64();
      Symbol S = sym();
      if (T.Ok)
        P.Image.Relocs.push_back(DataImage::Reloc{A, S});
    }
    T.expect("dataend");
    P.DataEnd = T.u64();
    while (T.accept("proc"))
      if (!parseProc())
        return false;
    if (T.Ok && !T.atEnd())
      T.fail("trailing tokens after the last proc: '" + T.peek() + "'");
    return T.Ok;
  }
};

} // namespace

std::string cmm::printIl(const IrProgram &P) { return IlPrinter(P).print(); }

std::unique_ptr<IrProgram> cmm::parseIl(std::string_view Text,
                                        std::string *Err) {
  Tokens T;
  if (!Tokens::tokenize(Text, T)) {
    if (Err)
      *Err = "unterminated string literal";
    return nullptr;
  }
  auto P = std::make_unique<IrProgram>();
  P->Names = std::make_shared<Interner>();
  IlParser Parser(T, *P);
  if (!Parser.parse()) {
    if (Err)
      *Err = T.Error.empty() ? "parse error" : T.Error;
    return nullptr;
  }
  return P;
}
