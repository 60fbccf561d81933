//===- syntax/AstPrinter.cpp ----------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "syntax/AstPrinter.h"

#include "support/Assert.h"
#include "support/Casting.h"

using namespace cmm;

namespace {

class PrinterImpl {
public:
  explicit PrinterImpl(const Module &Mod) : Mod(&Mod), Names(*Mod.Names) {}
  explicit PrinterImpl(const Interner &Names) : Mod(nullptr), Names(Names) {}

  std::string run();

  void expr(const Expr &E, unsigned ParentPrec) {
    Out += exprStr(E, ParentPrec);
  }

  std::string Out;

private:
  void line(const std::string &Text) {
    Out.append(Indent * 2, ' ');
    Out += Text;
    Out += '\n';
  }
  std::string name(Symbol S) { return std::string(Names.spelling(S)); }
  void stmts(std::span<Stmt *const> Body);
  /// Kept out of line: its frame is large, and only stmts recurses once per
  /// nested if.
  [[gnu::noinline]] void stmt(const Stmt &S);
  std::string exprStr(const Expr &E, unsigned ParentPrec = 0);
  std::string argList(std::span<Expr *const> Args);
  std::string annots(const Annotations &A);
  std::string quote(std::string_view S);

  const Module *Mod;
  const Interner &Names;
  unsigned Indent = 0;
};

std::string PrinterImpl::quote(std::string_view S) {
  std::string Q = "\"";
  for (char C : S) {
    switch (C) {
    case '\n': Q += "\\n"; break;
    case '\t': Q += "\\t"; break;
    case '\0': Q += "\\0"; break;
    case '\\': Q += "\\\\"; break;
    case '"': Q += "\\\""; break;
    default: Q += C;
    }
  }
  Q += '"';
  return Q;
}

std::string PrinterImpl::run() {
  for (Symbol S : Mod->Exports)
    line("export " + name(S) + ";");
  for (Symbol S : Mod->Imports)
    line("import " + name(S) + ";");
  for (const GlobalDecl &G : Mod->Globals)
    line("global " + G.Ty.str() + " " + name(G.Name) + ";");
  for (const DataDecl &D : Mod->Data) {
    line("data " + name(D.Name) + " {");
    ++Indent;
    for (const DataItem &Item : D.Items) {
      switch (Item.K) {
      case DataItem::Kind::Int:
        line(Item.Ty.str() + " " + std::to_string(Item.IntValue) + ";");
        break;
      case DataItem::Kind::Str:
        line(Item.Ty.str() + " " + quote(Item.StrValue) + ";");
        break;
      case DataItem::Kind::Name:
        line(Item.Ty.str() + " " + name(Item.NameValue) + ";");
        break;
      case DataItem::Kind::Reserve:
        line(Item.Ty.str() + "[" + std::to_string(Item.ReserveCount) + "];");
        break;
      }
    }
    --Indent;
    line("}");
  }
  for (const ProcDecl &P : Mod->Procs) {
    std::string Header = name(P.Name) + "(";
    for (size_t I = 0; I < P.Params.size(); ++I) {
      if (I)
        Header += ", ";
      Header += P.Params[I].Ty.str() + " " + name(P.Params[I].Name);
    }
    Header += ") {";
    line(Header);
    ++Indent;
    stmts(P.Body);
    --Indent;
    line("}");
  }
  return std::move(Out);
}

void PrinterImpl::stmts(std::span<Stmt *const> Body) {
  for (const Stmt *S : Body) {
    const auto *If = dyn_cast<IfStmt>(S);
    if (!If) {
      stmt(*S);
      continue;
    }
    // Nested ifs recurse here, not through stmt's large frame, and an
    // else-if chain prints as one, in a loop.
    line("if " + exprStr(*If->Cond) + " {");
    while (true) {
      ++Indent;
      stmts(If->Then);
      --Indent;
      const IfStmt *Next = If->elseIf();
      if (!Next)
        break;
      If = Next;
      line("} else if " + exprStr(*If->Cond) + " {");
    }
    if (!If->Else.empty()) {
      line("} else {");
      ++Indent;
      stmts(If->Else);
      --Indent;
    }
    line("}");
  }
}

std::string PrinterImpl::argList(std::span<Expr *const> Args) {
  std::string Out;
  for (size_t I = 0; I < Args.size(); ++I) {
    if (I)
      Out += ", ";
    Out += exprStr(*Args[I]);
  }
  return Out;
}

std::string PrinterImpl::annots(const Annotations &A) {
  std::string Out;
  auto List = [&](std::span<const Symbol> Names, const char *What) {
    if (Names.empty())
      return;
    Out += std::string(" also ") + What + " ";
    for (size_t I = 0; I < Names.size(); ++I) {
      if (I)
        Out += ", ";
      Out += name(Names[I]);
    }
  };
  List(A.CutsTo, "cuts to");
  List(A.UnwindsTo, "unwinds to");
  List(A.ReturnsTo, "returns to");
  if (A.Aborts)
    Out += " also aborts";
  if (!A.Descriptors.empty()) {
    Out += " descriptors ";
    for (size_t I = 0; I < A.Descriptors.size(); ++I) {
      if (I)
        Out += ", ";
      Out += exprStr(*A.Descriptors[I]);
    }
  }
  return Out;
}

void PrinterImpl::stmt(const Stmt &S) {
  switch (S.kind()) {
  case Stmt::Kind::VarDecl: {
    const auto &V = *cast<VarDeclStmt>(&S);
    std::string Text = V.DeclTy.str() + " ";
    for (size_t I = 0; I < V.Names.size(); ++I) {
      if (I)
        Text += ", ";
      Text += name(V.Names[I]);
    }
    line(Text + ";");
    return;
  }
  case Stmt::Kind::Assign: {
    const auto &A = *cast<AssignStmt>(&S);
    line(name(A.Target) + " = " + exprStr(*A.Value) + ";");
    return;
  }
  case Stmt::Kind::MemAssign: {
    const auto &M = *cast<MemAssignStmt>(&S);
    line(M.AccessTy.str() + "[" + exprStr(*M.Addr) + "] = " +
         exprStr(*M.Value) + ";");
    return;
  }
  case Stmt::Kind::If:
    cmm_unreachable("stmts prints ifs");
  case Stmt::Kind::Goto:
    line("goto " + name(cast<GotoStmt>(&S)->Target) + ";");
    return;
  case Stmt::Kind::Label:
    line(name(cast<LabelStmt>(&S)->Name) + ":");
    return;
  case Stmt::Kind::Call: {
    const auto &C = *cast<CallStmt>(&S);
    std::string Text;
    for (size_t I = 0; I < C.Results.size(); ++I) {
      if (I)
        Text += ", ";
      Text += name(C.Results[I]);
    }
    if (!C.Results.empty())
      Text += " = ";
    Text += exprStr(*C.Callee) + "(" + argList(C.Args) + ")" +
            annots(C.Annots) + ";";
    line(Text);
    return;
  }
  case Stmt::Kind::Jump: {
    const auto &J = *cast<JumpStmt>(&S);
    line("jump " + exprStr(*J.Callee) + "(" + argList(J.Args) + ");");
    return;
  }
  case Stmt::Kind::Return: {
    const auto &R = *cast<ReturnStmt>(&S);
    std::string Text = "return";
    if (R.AltCount != 0 || R.ContIndex != 0)
      Text += " <" + std::to_string(R.ContIndex) + "/" +
              std::to_string(R.AltCount) + ">";
    if (!R.Values.empty())
      Text += " (" + argList(R.Values) + ")";
    line(Text + ";");
    return;
  }
  case Stmt::Kind::CutTo: {
    const auto &C = *cast<CutToStmt>(&S);
    std::string Text =
        "cut to " + exprStr(*C.Cont) + "(" + argList(C.Args) + ")";
    if (!C.AlsoCutsTo.empty()) {
      Text += " also cuts to ";
      for (size_t I = 0; I < C.AlsoCutsTo.size(); ++I) {
        if (I)
          Text += ", ";
        Text += name(C.AlsoCutsTo[I]);
      }
    }
    line(Text + ";");
    return;
  }
  case Stmt::Kind::Continuation: {
    const auto &C = *cast<ContinuationStmt>(&S);
    std::string Text = "continuation " + name(C.Name) + "(";
    for (size_t I = 0; I < C.Params.size(); ++I) {
      if (I)
        Text += ", ";
      Text += name(C.Params[I]);
    }
    line(Text + "):");
    return;
  }
  }
  cmm_unreachable("unknown statement kind");
}

/// Precedence table mirroring the parser's.
unsigned opPrec(BinOp Op) {
  switch (Op) {
  case BinOp::Mul:
  case BinOp::Div:
  case BinOp::Mod:
    return 10;
  case BinOp::Add:
  case BinOp::Sub:
    return 9;
  case BinOp::Shl:
  case BinOp::Shr:
    return 8;
  case BinOp::LtS:
  case BinOp::LeS:
  case BinOp::GtS:
  case BinOp::GeS:
    return 7;
  case BinOp::Eq:
  case BinOp::Ne:
    return 6;
  case BinOp::And:
    return 5;
  case BinOp::Xor:
    return 4;
  case BinOp::Or:
    return 3;
  }
  cmm_unreachable("unknown binary operator");
}

std::string PrinterImpl::exprStr(const Expr &E, unsigned ParentPrec) {
  switch (E.kind()) {
  case Expr::Kind::IntLit:
    return std::to_string(cast<IntLitExpr>(&E)->Value);
  case Expr::Kind::FloatLit: {
    std::string S = std::to_string(cast<FloatLitExpr>(&E)->Value);
    return S;
  }
  case Expr::Kind::StrLit:
    return quote(cast<StrLitExpr>(&E)->Value);
  case Expr::Kind::Name:
    return name(cast<NameExpr>(&E)->Name);
  case Expr::Kind::Load: {
    const auto &L = *cast<LoadExpr>(&E);
    return L.AccessTy.str() + "[" + exprStr(*L.Addr) + "]";
  }
  case Expr::Kind::Unary: {
    const auto &U = *cast<UnaryExpr>(&E);
    const char *Op = U.Op == UnOp::Neg ? "-" : U.Op == UnOp::Com ? "~" : "!";
    return std::string(Op) + exprStr(*U.Operand, 11);
  }
  case Expr::Kind::Binary: {
    const auto &B = *cast<BinaryExpr>(&E);
    unsigned Prec = opPrec(B.Op);
    std::string S = exprStr(*B.Lhs, Prec) + " " + binOpSpelling(B.Op) + " " +
                    exprStr(*B.Rhs, Prec + 1);
    if (Prec < ParentPrec)
      return "(" + S + ")";
    return S;
  }
  case Expr::Kind::Prim: {
    const auto &P = *cast<PrimExpr>(&E);
    return name(P.Name) + "(" + argList(P.Args) + ")";
  }
  case Expr::Kind::Sizeof:
    return "sizeof(" + name(cast<SizeofExpr>(&E)->Name) + ")";
  }
  cmm_unreachable("unknown expression kind");
}

} // namespace

std::string cmm::printModule(const Module &Mod) {
  return PrinterImpl(Mod).run();
}

std::string cmm::printExpr(const Expr &E, const Interner &Names) {
  PrinterImpl P(Names);
  P.expr(E, 0);
  return std::move(P.Out);
}

const char *cmm::binOpSpelling(BinOp Op) {
  switch (Op) {
  case BinOp::Add: return "+";
  case BinOp::Sub: return "-";
  case BinOp::Mul: return "*";
  case BinOp::Div: return "/";
  case BinOp::Mod: return "%";
  case BinOp::And: return "&";
  case BinOp::Or: return "|";
  case BinOp::Xor: return "^";
  case BinOp::Shl: return "<<";
  case BinOp::Shr: return ">>";
  case BinOp::Eq: return "==";
  case BinOp::Ne: return "!=";
  case BinOp::LtS: return "<";
  case BinOp::LeS: return "<=";
  case BinOp::GtS: return ">";
  case BinOp::GeS: return ">=";
  }
  cmm_unreachable("unknown binary operator");
}
