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
/// Those rules, the cut rule and start are written once for every backend
/// in sem/ExecutorImpl.h; uid, M and A live in Executor.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_SEM_MACHINE_H
#define CMM_SEM_MACHINE_H

#include "ir/Ir.h"
#include "sem/Env.h"
#include "sem/ExecutorImpl.h"
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
class Machine final : public ExecutorImpl<Machine, Frame> {
public:
  explicit Machine(const IrProgram &Prog) : ExecutorImpl(Prog) {}

  std::string_view backendName() const override { return "walk"; }

  /// Performs one transition. Returns false when the machine is not
  /// Running (suspended machines must be resumed through rtResume).
  bool step() override { return Obs ? stepImpl<true>() : stepImpl<false>(); }

  /// Steps until the machine stops running or \p MaxSteps transitions have
  /// executed; returns the final status (Running on step-limit).
  MachineStatus run(uint64_t MaxSteps = ~uint64_t(0)) override;

private:
  friend class ExecutorImpl<Machine, Frame>;

  /// The transition engine. Observed instantiates the event-emission sites;
  /// the unobserved instantiation carries zero extra branches, so an
  /// uninstrumented run pays nothing per step (the run() hot loop picks the
  /// instantiation once, outside the loop).
  template <bool Observed> bool stepImpl();

  // The hooks of sem/ExecutorImpl.h.
  void enterProc(const IrProc *P, SourceLoc Loc);
  void dropFrame(Frame &) {}
  void restoreFrame(Frame &F) {
    Rho = std::move(F.SavedEnv);
    Sigma = std::move(F.SavedSigma);
    Uid = F.Uid;
    CurProc = F.Proc;
  }
  void killSigma() {
    Rho.erase(Sigma);
    Sigma.clear();
  }
  void setControl(const Node *N) { Control = N; }

  void pushFrame(const CallNode *Site);
  void bindVar(Symbol V, const Value &Val);

  std::optional<Value> evalExpr(const Expr *E);
  std::optional<Value> evalName(const NameExpr *N);
  std::optional<Value> evalBinary(const BinaryExpr *B);
  std::optional<Value> evalUnary(const UnaryExpr *U);
  std::optional<Value> evalPrim(const PrimExpr *P);

  // The walker's own state components: p, ρ and σ (uid, M and A are
  // Executor's, S is ExecutorImpl's).
  const Node *Control = nullptr;
  Env Rho;
  std::vector<Symbol> Sigma;
};

extern template class ExecutorImpl<Machine, Frame>;

} // namespace cmm

#endif // CMM_SEM_MACHINE_H
