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
/// Every node lives in an AstArena (syntax/Arena.h) and is trivially
/// destructible: child lists are spans and spellings are string_views into
/// the same arena, or Symbols into the module's Interner.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_SYNTAX_AST_H
#define CMM_SYNTAX_AST_H

#include "support/Casting.h"
#include "support/Interner.h"
#include "support/SourceLoc.h"
#include "syntax/Arena.h"
#include "syntax/Type.h"

#include <memory>
#include <span>
#include <string_view>

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
/// block; its type is the native data-pointer type. Value is the decoded
/// bytes, owned by the arena that owns the expression.
class StrLitExpr : public Expr {
public:
  std::string_view Value;

  StrLitExpr(SourceLoc Loc, std::string_view Value)
      : Expr(Kind::StrLit, Loc), Value(Value) {}
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
  Expr *Addr;

  LoadExpr(SourceLoc Loc, Type AccessTy, Expr *Addr)
      : Expr(Kind::Load, Loc), AccessTy(AccessTy), Addr(Addr) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Load; }
};

/// Unary operators.
enum class UnOp : uint8_t { Neg, Com, Not };

class UnaryExpr : public Expr {
public:
  UnOp Op;
  Expr *Operand;

  UnaryExpr(SourceLoc Loc, UnOp Op, Expr *Operand)
      : Expr(Kind::Unary, Loc), Op(Op), Operand(Operand) {}
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
  Expr *Lhs, *Rhs;

  BinaryExpr(SourceLoc Loc, BinOp Op, Expr *Lhs, Expr *Rhs)
      : Expr(Kind::Binary, Loc), Op(Op), Lhs(Lhs), Rhs(Rhs) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Binary; }
};

/// Primitive operations that can fail, and pure machine-level conversions:
/// %divu(x, y) etc. The %%name slow-but-solid variants are *calls*, not
/// expressions (Section 4.3), and are rejected here by Sema.
class PrimExpr : public Expr {
public:
  Symbol Name; ///< interned spelling including the '%'
  std::span<Expr *> Args;

  PrimExpr(SourceLoc Loc, Symbol Name, std::span<Expr *> Args)
      : Expr(Kind::Prim, Loc), Name(Name), Args(Args) {}
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
  std::span<Symbol> CutsTo;
  std::span<Symbol> UnwindsTo;
  std::span<Symbol> ReturnsTo;
  bool Aborts = false;
  /// Static descriptor expressions (link-time constants) retrievable at run
  /// time through GetDescriptor.
  std::span<Expr *> Descriptors;

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

/// Local variable declaration "bits32 s, p;".
class VarDeclStmt : public Stmt {
public:
  Type DeclTy;
  std::span<Symbol> Names;

  VarDeclStmt(SourceLoc Loc, Type DeclTy, std::span<Symbol> Names)
      : Stmt(Kind::VarDecl, Loc), DeclTy(DeclTy), Names(Names) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::VarDecl; }
};

/// Variable assignment "v = e;".
class AssignStmt : public Stmt {
public:
  Symbol Target;
  Expr *Value;

  AssignStmt(SourceLoc Loc, Symbol Target, Expr *Value)
      : Stmt(Kind::Assign, Loc), Target(Target), Value(Value) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Assign; }
};

/// Memory store "type[addr] = e;".
class MemAssignStmt : public Stmt {
public:
  Type AccessTy;
  Expr *Addr;
  Expr *Value;

  MemAssignStmt(SourceLoc Loc, Type AccessTy, Expr *Addr, Expr *Value)
      : Stmt(Kind::MemAssign, Loc), AccessTy(AccessTy), Addr(Addr),
        Value(Value) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::MemAssign; }
};

/// Conditional "if e { ... } else { ... }".
class IfStmt : public Stmt {
public:
  Expr *Cond;
  std::span<Stmt *> Then;
  std::span<Stmt *> Else;

  IfStmt(SourceLoc Loc, Expr *Cond, std::span<Stmt *> Then,
         std::span<Stmt *> Else)
      : Stmt(Kind::If, Loc), Cond(Cond), Then(Then), Else(Else) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::If; }

  /// The next arm of an else-if chain: the else list's only statement when
  /// that is an `if`, else null. An else-if chain is as deep in the tree as
  /// it is long, so recursive walks step along it in a loop instead.
  IfStmt *elseIf() const {
    if (Else.size() != 1 || Else[0]->kind() != Kind::If)
      return nullptr;
    return static_cast<IfStmt *>(Else[0]);
  }
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
  std::span<Symbol> Results; ///< left-hand-side variables; may be empty
  Expr *Callee;
  std::span<Expr *> Args;
  Annotations Annots;

  CallStmt(SourceLoc Loc, std::span<Symbol> Results, Expr *Callee,
           std::span<Expr *> Args, Annotations Annots)
      : Stmt(Kind::Call, Loc), Results(Results), Callee(Callee), Args(Args),
        Annots(Annots) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Call; }
};

/// Tail call "jump f(args);". Deallocates the caller's activation before the
/// call (Section 3.1).
class JumpStmt : public Stmt {
public:
  Expr *Callee;
  std::span<Expr *> Args;

  JumpStmt(SourceLoc Loc, Expr *Callee, std::span<Expr *> Args)
      : Stmt(Kind::Jump, Loc), Callee(Callee), Args(Args) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Jump; }
};

/// "return (v...)", "return <i/n> (v...)". An unannotated return is
/// return <0/0>; the normal return continuation is always index n.
class ReturnStmt : public Stmt {
public:
  unsigned ContIndex = 0; ///< i in return <i/n>
  unsigned AltCount = 0;  ///< n in return <i/n>
  std::span<Expr *> Values;

  ReturnStmt(SourceLoc Loc, unsigned ContIndex, unsigned AltCount,
             std::span<Expr *> Values)
      : Stmt(Kind::Return, Loc), ContIndex(ContIndex), AltCount(AltCount),
        Values(Values) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Return; }
};

/// "cut to k(args) also cuts to k1;". Truncates the stack to k's activation
/// in constant time without restoring callee-saves registers (Section 4.2).
class CutToStmt : public Stmt {
public:
  Expr *Cont;
  std::span<Expr *> Args;
  /// Continuations in the *same* procedure this cut may target; an
  /// unannotated cut to simply exits the current procedure (Section 4.4).
  std::span<Symbol> AlsoCutsTo;

  CutToStmt(SourceLoc Loc, Expr *Cont, std::span<Expr *> Args,
            std::span<Symbol> AlsoCutsTo)
      : Stmt(Kind::CutTo, Loc), Cont(Cont), Args(Args),
        AlsoCutsTo(AlsoCutsTo) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::CutTo; }
};

/// "continuation k(x, y):" — a label-with-parameters. The parameters are
/// variables of the enclosing procedure, not binding occurrences
/// (Section 4.1). The continuation denotes a value encapsulating a stack
/// pointer and a program counter.
class ContinuationStmt : public Stmt {
public:
  Symbol Name;
  std::span<Symbol> Params;

  ContinuationStmt(SourceLoc Loc, Symbol Name, std::span<Symbol> Params)
      : Stmt(Kind::Continuation, Loc), Name(Name), Params(Params) {}
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
  std::span<Param> Params;
  std::span<Stmt *> Body;
};

/// One item of a data block.
struct DataItem {
  enum class Kind : uint8_t { Int, Str, Name, Reserve };
  Kind K = Kind::Int;
  Type Ty = Type::bits(32);
  uint64_t IntValue = 0;   ///< for Int
  std::string_view StrValue; ///< for Str (emitted with trailing NUL)
  Symbol NameValue;        ///< for Name (a data label or procedure address)
  uint64_t ReserveCount = 0; ///< for Reserve: number of zeroed cells of Ty
};

/// "data name { ... }" — a statically allocated, initialized memory block.
/// The name denotes the block's address (an immutable native data pointer).
struct DataDecl {
  SourceLoc Loc;
  Symbol Name;
  std::span<DataItem> Items;
};

/// "global bits32 name;" (or "register ..."): a global register variable.
/// Globals model machine registers, not memory locations (Section 3.1).
struct GlobalDecl {
  SourceLoc Loc;
  Type Ty;
  Symbol Name;
};

/// A C-- compilation unit. Its lists and every node they reach live in
/// Arena, so the module owns its whole tree.
struct Module {
  std::shared_ptr<Interner> Names;
  AstArena Arena;
  std::span<Symbol> Exports;
  std::span<Symbol> Imports;
  std::span<GlobalDecl> Globals;
  std::span<DataDecl> Data;
  std::span<ProcDecl> Procs;
  /// Whether any expression is a string literal (translation lays them
  /// into the data image).
  bool HasStrLits = false;

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
