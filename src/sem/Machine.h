//===- sem/Machine.h - The Abstract C-- machine -----------------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The operational semantics of Section 5.2 as an executable machine. The
/// mutable state has the paper's seven components:
///
///   ⟨ p, ρ, σ, uid, M, A, S ⟩
///
///   p    the control (current node)            — Control
///   ρ    the local environment                 — Rho
///   σ    variables in callee-saves registers   — Sigma
///   uid  unique id of the current activation   — Uid
///   M    memory                                — Mem
///   A    the argument-passing area             — A
///   S    the stack of suspended activations    — Stack
///
/// The machine "goes wrong" exactly where the paper says an execution has no
/// permitted transition: invoking a dead continuation (uid check), cutting
/// past a call site without `also aborts`, cutting to a continuation not
/// listed in the call site's `also cuts to`, a return <i/n> arity mismatch,
/// or an unspecified primitive failure such as %divu(x, 0).
///
/// The underspecified Yield transitions are exposed as the rtUnwindTop /
/// rtResume operations, on which src/rts builds the Table 1 run-time
/// interface; every run-time-system action is validated against the formal
/// Yield rules, so no front-end runtime can express an unsound transition.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_SEM_MACHINE_H
#define CMM_SEM_MACHINE_H

#include "ir/Ir.h"
#include "sem/Env.h"
#include "sem/Executor.h"
#include "sem/Memory.h"
#include "sem/Stats.h"
#include "sem/Value.h"

#include <optional>
#include <string>
#include <vector>

namespace cmm {

/// One suspended activation on the abstract stack: (Γ, ρ, σ, uid) plus the
/// procedure it belongs to. Γ is the continuation bundle of the call site at
/// which the activation is suspended.
struct Frame {
  const CallNode *CallSite = nullptr;
  const IrProc *Proc = nullptr;
  Env SavedEnv;
  std::vector<Symbol> SavedSigma;
  uint64_t Uid = 0;
};

/// The executable abstract machine: the reference tree-walking executor.
/// One Machine is one C-- thread.
class Machine final : public Executor {
public:
  explicit Machine(const IrProgram &Prog);

  std::string_view backendName() const override { return "walk"; }

  /// Initializes memory from the program image and enters \p ProcName with
  /// \p Args in the argument-passing area.
  void start(std::string_view ProcName, std::vector<Value> Args = {}) override;
  void start(Symbol ProcName, std::vector<Value> Args = {});

  MachineStatus status() const override { return St; }

  /// Performs one transition. Returns false when the machine is not
  /// Running (suspended machines must be resumed through rtResume).
  bool step() override { return Obs ? stepImpl<true>() : stepImpl<false>(); }

  /// Steps until the machine stops running or \p MaxSteps transitions have
  /// executed; returns the final status (Running on step-limit).
  MachineStatus run(uint64_t MaxSteps = ~uint64_t(0)) override;

  /// The argument-passing area A: procedure results after Halted, the
  /// arguments of the yield(...) call while Suspended.
  const std::vector<Value> &argArea() const override { return A; }

  /// Why the machine went wrong (valid after status() == Wrong).
  const std::string &wrongReason() const override { return WrongReason; }
  SourceLoc wrongLoc() const override { return WrongLoc; }

  const Stats &stats() const override { return S; }
  void resetStats() override { S.reset(); }

  /// Attaches \p O (null detaches). The machine does not own the observer;
  /// it must outlive the run. With no observer attached every event site
  /// costs exactly one branch-on-pointer, and behaviour is identical to an
  /// unobserved machine.
  void setObserver(MachineObserver *O) override { Obs = O; }
  MachineObserver *observer() const override { return Obs; }

  Memory &memory() override { return Mem; }
  const Memory &memory() const override { return Mem; }
  const IrProgram &program() const override { return Prog; }

  /// Global register access (globals model machine registers shared by all
  /// activations; they are never callee-saves and unaffected by cuts).
  std::optional<Value> getGlobal(std::string_view Name) const override;
  void setGlobal(std::string_view Name, const Value &V) override;

  /// Decodes a value as a continuation; null when it is not one.
  const ContRecord *decodeCont(const Value &V) const override;

  //===--------------------------------------------------------------------===//
  // Substrate for the run-time system (Table 1 lives in src/rts)
  //===--------------------------------------------------------------------===//

  size_t stackDepth() const override { return Stack.size(); }
  /// \p I = 0 is the topmost suspended activation.
  const Frame &frameFromTop(size_t I) const {
    return Stack[Stack.size() - 1 - I];
  }
  const CallNode *frameCallSite(size_t I) const override {
    return frameFromTop(I).CallSite;
  }
  const IrProc *frameProc(size_t I) const override {
    return frameFromTop(I).Proc;
  }
  const IrProc *currentProc() const override { return CurProc; }
  const Node *control() const { return Control; }

  /// Yield unwind rule: pops \p Count frames; every popped frame's call site
  /// must be annotated `also aborts`, else the machine goes wrong. Only
  /// legal while Suspended.
  bool rtUnwindTop(size_t Count) override;

  /// Yield resume rules: pops the top frame and transfers control to the
  /// chosen continuation of its bundle (or cuts the stack for Kind::Cut),
  /// passing \p Params through the argument area. Only legal while
  /// Suspended. Returns false (machine Wrong) on any rule violation.
  bool rtResume(const ResumeChoice &Choice, std::vector<Value> Params) override;

private:
  /// The transition engine. Observed instantiates the event-emission sites;
  /// the unobserved instantiation carries zero extra branches, so an
  /// uninstrumented run pays nothing per step (the run() hot loop picks the
  /// instantiation once, outside the loop).
  template <bool Observed> bool stepImpl();

  void goWrong(std::string Reason, SourceLoc Loc);
  void pushFrame(const CallNode *Site);
  void enterProc(const IrProc *P, SourceLoc Loc);
  bool doCutTo(const Value &ContVal, const CutToNode *FromNode);
  const ContRecord *requireCont(const Value &V, SourceLoc Loc);
  uint64_t newCont(Node *Target, uint64_t Uid, const IrProc *Proc);
  void bindVar(Symbol V, const Value &Val);

  std::optional<Value> evalExpr(const Expr *E);
  std::optional<Value> evalName(const NameExpr *N);
  std::optional<Value> evalBinary(const BinaryExpr *B);
  std::optional<Value> evalUnary(const UnaryExpr *U);
  std::optional<Value> evalPrim(const PrimExpr *P);

  const IrProgram &Prog;

  // The seven state components.
  const Node *Control = nullptr;
  Env Rho;
  std::vector<Symbol> Sigma;
  uint64_t Uid = 0;
  Memory Mem;
  std::vector<Value> A;
  std::vector<Frame> Stack;

  // Bookkeeping beyond the formal state.
  const IrProc *CurProc = nullptr;
  Env GlobalEnv;
  uint64_t NextUid = 1;
  std::vector<ContRecord> ContTable;
  MachineStatus St = MachineStatus::Idle;
  std::string WrongReason;
  SourceLoc WrongLoc;
  Stats S;
  MachineObserver *Obs = nullptr;
};

} // namespace cmm

#endif // CMM_SEM_MACHINE_H
