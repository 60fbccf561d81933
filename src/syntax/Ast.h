//===- syntax/Ast.h - C-- abstract syntax -----------------------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract syntax for the concrete C-- language of the paper (Section 3):
/// modules of procedures, globals and data; statements including calls with
/// `also` annotations, `jump` tail calls, `cut to`, multi-valued `return
/// <i/n>`, and `continuation k(x):` declarations; side-effect-free
/// expressions.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_SYNTAX_AST_H
#define CMM_SYNTAX_AST_H

#include "support/Casting.h"
#include "support/Interner.h"
#include "support/SourceLoc.h"
#include "syntax/Type.h"

#include <memory>
#include <type_traits>
#include <vector>

namespace cmm {

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

/// Base of all C-- expressions. Expressions are pure: "they are evaluated
/// without side effects, which occur only as the result of assignments or
/// calls" (Section 4.3).
class Expr {
public:
  enum class Kind : uint8_t {
    IntLit,
    FloatLit,
    StrLit,
    Name,
    Load,
    Unary,
    Binary,
    Prim,
    Sizeof,
  };

  virtual ~Expr() = default;
  Expr(const Expr &) = delete;
  Expr &operator=(const Expr &) = delete;

  Kind kind() const { return K; }
  SourceLoc loc() const { return Loc; }

  /// The value type, filled in by Sema.
  Type Ty;

protected:
  Expr(Kind K, SourceLoc Loc) : K(K), Loc(Loc) {}

private:
  Kind K;
  SourceLoc Loc;
};

using ExprPtr = std::unique_ptr<Expr>;
static_assert(std::has_virtual_destructor_v<Expr>,
              "ExprPtr deletes derived expressions through the base");

/// Integer literal. Its width is inferred from context by Sema (default:
/// the native word).
class IntLitExpr : public Expr {
public:
  uint64_t Value;

  IntLitExpr(SourceLoc Loc, uint64_t Value)
      : Expr(Kind::IntLit, Loc), Value(Value) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::IntLit; }
};

/// Floating-point literal; always float64.
class FloatLitExpr : public Expr {
public:
  double Value;

  FloatLitExpr(SourceLoc Loc, double Value)
      : Expr(Kind::FloatLit, Loc), Value(Value) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::FloatLit; }
};

/// String literal. Denotes the address of an anonymous NUL-terminated data
/// block; its type is the native data-pointer type.
class StrLitExpr : public Expr {
public:
  std::string Value;

  StrLitExpr(SourceLoc Loc, std::string Value)
      : Expr(Kind::StrLit, Loc), Value(std::move(Value)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::StrLit; }
};

/// What a name in an expression refers to, resolved by Sema.
enum class RefKind : uint8_t {
  Unresolved,
  Local,        ///< local variable or parameter
  Global,       ///< global register variable
  Proc,         ///< procedure name: immutable native code-pointer value
  Continuation, ///< continuation of the enclosing procedure: a value
  DataLabel,    ///< address of a data block: native data-pointer value
  Import,       ///< imported name, bound at link time
};

/// A name used as an expression.
class NameExpr : public Expr {
public:
  Symbol Name;
  RefKind Ref = RefKind::Unresolved;

  NameExpr(SourceLoc Loc, Symbol Name) : Expr(Kind::Name, Loc), Name(Name) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Name; }
};

/// Memory load "type[addr]". All memory access is explicit (Section 3.1).
class LoadExpr : public Expr {
public:
  Type AccessTy;
  ExprPtr Addr;

  LoadExpr(SourceLoc Loc, Type AccessTy, ExprPtr Addr)
      : Expr(Kind::Load, Loc), AccessTy(AccessTy), Addr(std::move(Addr)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Load; }
};

/// Unary operators.
enum class UnOp : uint8_t { Neg, Com, Not };

class UnaryExpr : public Expr {
public:
  UnOp Op;
  ExprPtr Operand;

  UnaryExpr(SourceLoc Loc, UnOp Op, ExprPtr Operand)
      : Expr(Kind::Unary, Loc), Op(Op), Operand(std::move(Operand)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Unary; }
};

/// Binary operators. Division and modulus are the fast-but-dangerous signed
/// variants (Section 4.3); shifts are logical; comparisons are signed and
/// yield bits32 0/1. Unsigned comparisons are the %ltu-family primitives.
enum class BinOp : uint8_t {
  Add, Sub, Mul, Div, Mod,
  And, Or, Xor, Shl, Shr,
  Eq, Ne, LtS, LeS, GtS, GeS,
};

class BinaryExpr : public Expr {
public:
  BinOp Op;
  ExprPtr Lhs, Rhs;

  BinaryExpr(SourceLoc Loc, BinOp Op, ExprPtr Lhs, ExprPtr Rhs)
      : Expr(Kind::Binary, Loc), Op(Op), Lhs(std::move(Lhs)),
        Rhs(std::move(Rhs)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Binary; }
};

/// Primitive operations that can fail, and pure machine-level conversions:
/// %divu(x, y) etc. The %%name slow-but-solid variants are *calls*, not
/// expressions (Section 4.3), and are rejected here by Sema.
class PrimExpr : public Expr {
public:
  Symbol Name; ///< interned spelling including the '%'
  std::vector<ExprPtr> Args;

  PrimExpr(SourceLoc Loc, Symbol Name, std::vector<ExprPtr> Args)
      : Expr(Kind::Prim, Loc), Name(Name), Args(std::move(Args)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Prim; }
};

/// sizeof(name): the size in bytes of the named variable's type; used by the
/// Figure 10 stack-cutting idiom `exn_top = exn_top + sizeof(k)`.
class SizeofExpr : public Expr {
public:
  Symbol Name;
  unsigned SizeInBytes = 0; ///< filled by Sema

  SizeofExpr(SourceLoc Loc, Symbol Name)
      : Expr(Kind::Sizeof, Loc), Name(Name) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Sizeof; }
};

//===----------------------------------------------------------------------===//
// Call-site annotations (Section 4.4)
//===----------------------------------------------------------------------===//

/// The complete set of `also` annotations attachable to a call site, plus
/// the call-site descriptors of Section 3.3. Names must denote continuations
/// declared in the same procedure as the call site.
struct Annotations {
  std::vector<Symbol> CutsTo;
  std::vector<Symbol> UnwindsTo;
  std::vector<Symbol> ReturnsTo;
  bool Aborts = false;
  /// Static descriptor expressions (link-time constants) retrievable at run
  /// time through GetDescriptor.
  std::vector<ExprPtr> Descriptors;

  bool empty() const {
    return CutsTo.empty() && UnwindsTo.empty() && ReturnsTo.empty() &&
           !Aborts && Descriptors.empty();
  }
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

class Stmt {
public:
  enum class Kind : uint8_t {
    VarDecl,
    Assign,
    MemAssign,
    If,
    Goto,
    Label,
    Call,
    Jump,
    Return,
    CutTo,
    Continuation,
  };

  virtual ~Stmt() = default;
  Stmt(const Stmt &) = delete;
  Stmt &operator=(const Stmt &) = delete;

  Kind kind() const { return K; }
  SourceLoc loc() const { return Loc; }

protected:
  Stmt(Kind K, SourceLoc Loc) : K(K), Loc(Loc) {}

private:
  Kind K;
  SourceLoc Loc;
};

using StmtPtr = std::unique_ptr<Stmt>;
static_assert(std::has_virtual_destructor_v<Stmt>,
              "StmtPtr deletes derived statements through the base");

/// Local variable declaration "bits32 s, p;".
class VarDeclStmt : public Stmt {
public:
  Type DeclTy;
  std::vector<Symbol> Names;

  VarDeclStmt(SourceLoc Loc, Type DeclTy, std::vector<Symbol> Names)
      : Stmt(Kind::VarDecl, Loc), DeclTy(DeclTy), Names(std::move(Names)) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::VarDecl; }
};

/// Variable assignment "v = e;".
class AssignStmt : public Stmt {
public:
  Symbol Target;
  ExprPtr Value;

  AssignStmt(SourceLoc Loc, Symbol Target, ExprPtr Value)
      : Stmt(Kind::Assign, Loc), Target(Target), Value(std::move(Value)) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Assign; }
};

/// Memory store "type[addr] = e;".
class MemAssignStmt : public Stmt {
public:
  Type AccessTy;
  ExprPtr Addr;
  ExprPtr Value;

  MemAssignStmt(SourceLoc Loc, Type AccessTy, ExprPtr Addr, ExprPtr Value)
      : Stmt(Kind::MemAssign, Loc), AccessTy(AccessTy), Addr(std::move(Addr)),
        Value(std::move(Value)) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::MemAssign; }
};

/// Conditional "if e { ... } else { ... }".
class IfStmt : public Stmt {
public:
  ExprPtr Cond;
  std::vector<StmtPtr> Then;
  std::vector<StmtPtr> Else;

  IfStmt(SourceLoc Loc, ExprPtr Cond, std::vector<StmtPtr> Then,
         std::vector<StmtPtr> Else)
      : Stmt(Kind::If, Loc), Cond(std::move(Cond)), Then(std::move(Then)),
        Else(std::move(Else)) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::If; }
};

/// "goto L;". The target must be a label in the same procedure (Section 3.2).
class GotoStmt : public Stmt {
public:
  Symbol Target;

  GotoStmt(SourceLoc Loc, Symbol Target)
      : Stmt(Kind::Goto, Loc), Target(Target) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Goto; }
};

/// A label "L:". Names a node in the control-flow graph.
class LabelStmt : public Stmt {
public:
  Symbol Name;

  LabelStmt(SourceLoc Loc, Symbol Name) : Stmt(Kind::Label, Loc), Name(Name) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Label; }
};

/// A procedure call statement, possibly with results:
///   "r, s = g(x) also cuts to k1 also unwinds to k2, k3 also aborts;"
/// Calling the reserved name `yield` suspends the thread into the front-end
/// run-time system (Sections 3.3 and 5.2).
class CallStmt : public Stmt {
public:
  std::vector<Symbol> Results; ///< left-hand-side variables; may be empty
  ExprPtr Callee;
  std::vector<ExprPtr> Args;
  Annotations Annots;

  CallStmt(SourceLoc Loc, std::vector<Symbol> Results, ExprPtr Callee,
           std::vector<ExprPtr> Args, Annotations Annots)
      : Stmt(Kind::Call, Loc), Results(std::move(Results)),
        Callee(std::move(Callee)), Args(std::move(Args)),
        Annots(std::move(Annots)) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Call; }
};

/// Tail call "jump f(args);". Deallocates the caller's activation before the
/// call (Section 3.1).
class JumpStmt : public Stmt {
public:
  ExprPtr Callee;
  std::vector<ExprPtr> Args;

  JumpStmt(SourceLoc Loc, ExprPtr Callee, std::vector<ExprPtr> Args)
      : Stmt(Kind::Jump, Loc), Callee(std::move(Callee)),
        Args(std::move(Args)) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Jump; }
};

/// "return (v...)", "return <i/n> (v...)". An unannotated return is
/// return <0/0>; the normal return continuation is always index n.
class ReturnStmt : public Stmt {
public:
  unsigned ContIndex = 0; ///< i in return <i/n>
  unsigned AltCount = 0;  ///< n in return <i/n>
  std::vector<ExprPtr> Values;

  ReturnStmt(SourceLoc Loc, unsigned ContIndex, unsigned AltCount,
             std::vector<ExprPtr> Values)
      : Stmt(Kind::Return, Loc), ContIndex(ContIndex), AltCount(AltCount),
        Values(std::move(Values)) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Return; }
};

/// "cut to k(args) also cuts to k1;". Truncates the stack to k's activation
/// in constant time without restoring callee-saves registers (Section 4.2).
class CutToStmt : public Stmt {
public:
  ExprPtr Cont;
  std::vector<ExprPtr> Args;
  /// Continuations in the *same* procedure this cut may target; an
  /// unannotated cut to simply exits the current procedure (Section 4.4).
  std::vector<Symbol> AlsoCutsTo;

  CutToStmt(SourceLoc Loc, ExprPtr Cont, std::vector<ExprPtr> Args,
            std::vector<Symbol> AlsoCutsTo)
      : Stmt(Kind::CutTo, Loc), Cont(std::move(Cont)), Args(std::move(Args)),
        AlsoCutsTo(std::move(AlsoCutsTo)) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::CutTo; }
};

/// "continuation k(x, y):" — a label-with-parameters. The parameters are
/// variables of the enclosing procedure, not binding occurrences
/// (Section 4.1). The continuation denotes a value encapsulating a stack
/// pointer and a program counter.
class ContinuationStmt : public Stmt {
public:
  Symbol Name;
  std::vector<Symbol> Params;

  ContinuationStmt(SourceLoc Loc, Symbol Name, std::vector<Symbol> Params)
      : Stmt(Kind::Continuation, Loc), Name(Name), Params(std::move(Params)) {}
  static bool classof(const Stmt *S) {
    return S->kind() == Kind::Continuation;
  }
};

//===----------------------------------------------------------------------===//
// Top-level declarations
//===----------------------------------------------------------------------===//

/// One formal parameter.
struct Param {
  Type Ty;
  Symbol Name;
};

/// A procedure definition.
struct ProcDecl {
  SourceLoc Loc;
  Symbol Name;
  std::vector<Param> Params;
  std::vector<StmtPtr> Body;
};

/// One item of a data block.
struct DataItem {
  enum class Kind : uint8_t { Int, Str, Name, Reserve };
  Kind K = Kind::Int;
  Type Ty = Type::bits(32);
  uint64_t IntValue = 0;   ///< for Int
  std::string StrValue;    ///< for Str (emitted with trailing NUL)
  Symbol NameValue;        ///< for Name (a data label or procedure address)
  uint64_t ReserveCount = 0; ///< for Reserve: number of zeroed cells of Ty
};

/// "data name { ... }" — a statically allocated, initialized memory block.
/// The name denotes the block's address (an immutable native data pointer).
struct DataDecl {
  SourceLoc Loc;
  Symbol Name;
  std::vector<DataItem> Items;
};

/// "global bits32 name;" (or "register ..."): a global register variable.
/// Globals model machine registers, not memory locations (Section 3.1).
struct GlobalDecl {
  SourceLoc Loc;
  Type Ty;
  Symbol Name;
};

/// A C-- compilation unit.
struct Module {
  std::shared_ptr<Interner> Names = std::make_shared<Interner>();
  std::vector<Symbol> Exports;
  std::vector<Symbol> Imports;
  std::vector<GlobalDecl> Globals;
  std::vector<DataDecl> Data;
  std::vector<ProcDecl> Procs;

  /// Finds a procedure by name, or null.
  const ProcDecl *findProc(Symbol Name) const {
    for (const ProcDecl &P : Procs)
      if (P.Name == Name)
        return &P;
    return nullptr;
  }
};

} // namespace cmm

#endif // CMM_SYNTAX_AST_H
