//===- sem/Executor.h - Abstract C-- executor interface ---------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The backend-neutral interface to an Abstract C-- executor. Three
/// backends implement it:
///
///   - "walk" (sem/Machine.h): the reference tree walker, a direct
///     transcription of the Section 5.2 operational semantics;
///   - "vm" (vm/Vm.h): a bytecode VM that compiles the checked IR to a
///     compact register bytecode and runs it in a dispatch loop
///     (docs/BYTECODE.md);
///   - "threaded" (vm/Threaded.h): the same VM over the fused
///     superinstruction key stream.
///
/// Each backend still owns its own copy of the shared state (program,
/// status, argument area, memory, globals, continuation table, stats,
/// observer); moving it into Executor is open work (ROADMAP).
///
/// All three preserve the same observable semantics: the seven-component
/// state, every goes-wrong rule (identical reasons and source locations),
/// the Suspended status at Yield nodes, and the Table 1 run-time substrate
/// (rtUnwindTop / rtResume / resumeParamCount), so the run-time systems in
/// src/rts drive any backend unchanged. The differential harness
/// (costmodel/DiffHarness.h) cross-checks them on every seed.
///
/// The hot loops stay non-virtual: each backend's run() is a concrete
/// member; only the (cold) run-time-system substrate and introspection go
/// through this interface.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_SEM_EXECUTOR_H
#define CMM_SEM_EXECUTOR_H

#include "ir/Ir.h"
#include "sem/Memory.h"
#include "sem/Stats.h"
#include "sem/Value.h"

#include <optional>
#include <string>
#include <vector>

namespace cmm {

class MachineObserver; // sem/Observer.h

/// Lifecycle of an executor.
enum class MachineStatus : uint8_t {
  Idle,      ///< constructed, not started
  Running,   ///< transitions available
  Suspended, ///< at a Yield node: the run-time system has control
  Halted,    ///< normal termination: Exit <0/0> with an empty stack
  Wrong,     ///< no permitted transition ("the program has gone wrong")
};

/// Decoded continuation value: Cont(p, u) of Section 5.1. Shared by both
/// backends: the target is an IR node; the bytecode VM maps it to a program
/// counter only at the moment control is transferred.
struct ContRecord {
  Node *Target = nullptr;
  uint64_t Uid = 0;
  const IrProc *Proc = nullptr;
};

/// How the run-time system resumes a suspended executor (the Yield rules).
struct ResumeChoice {
  enum class Kind : uint8_t { Return, Unwind, Cut };
  Kind K = Kind::Return;
  /// For Return: index into the bundle's returns list (normal return is the
  /// last). For Unwind: index into the `also unwinds to` list.
  unsigned Index = 0;
  /// For Cut: the continuation value to cut to.
  Value ContValue;

  static ResumeChoice ret(unsigned Index) {
    return {Kind::Return, Index, Value()};
  }
  static ResumeChoice unwind(unsigned Index) {
    return {Kind::Unwind, Index, Value()};
  }
  static ResumeChoice cut(Value V) { return {Kind::Cut, 0, V}; }
};

/// The value of the link-time-constant expression \p E in \p Prog: an
/// integer literal, a string literal's address, a data label, or a
/// procedure's Code value. nullopt for any other expression. The executors
/// and the bytecode compiler resolve constants through this one function.
std::optional<Value> linkTimeConstant(const IrProgram &Prog, const Expr *E);

/// The backend-neutral executor interface. One Executor is one C-- thread.
class Executor {
public:
  virtual ~Executor() = default;

  /// A short stable name for diagnostics and tools ("walk", "vm").
  virtual std::string_view backendName() const = 0;

  /// Initializes memory from the program image and enters \p ProcName with
  /// \p Args in the argument-passing area.
  virtual void start(std::string_view ProcName,
                     std::vector<Value> Args = {}) = 0;

  virtual MachineStatus status() const = 0;

  /// Performs one transition. Returns false when not Running (suspended
  /// executors must be resumed through rtResume).
  virtual bool step() = 0;

  /// Steps until the executor stops running or \p MaxSteps transitions have
  /// executed; returns the final status (Running on step-limit). A resumed
  /// run continues exactly where the budgeted run stopped.
  virtual MachineStatus run(uint64_t MaxSteps = ~uint64_t(0)) = 0;

  /// The argument-passing area A: procedure results after Halted, the
  /// arguments of the yield(...) call while Suspended.
  virtual const std::vector<Value> &argArea() const = 0;

  /// Why the executor went wrong (valid after status() == Wrong).
  virtual const std::string &wrongReason() const = 0;
  virtual SourceLoc wrongLoc() const = 0;

  virtual const Stats &stats() const = 0;
  virtual void resetStats() = 0;

  /// Attaches \p O (null detaches). The executor does not own the observer;
  /// it must outlive the run. With no observer attached every event site
  /// costs at most one branch, and behaviour is identical to an unobserved
  /// run.
  virtual void setObserver(MachineObserver *O) = 0;
  virtual MachineObserver *observer() const = 0;

  virtual Memory &memory() = 0;
  virtual const Memory &memory() const = 0;
  virtual const IrProgram &program() const = 0;

  /// Global register access (globals model machine registers shared by all
  /// activations; they are never callee-saves and unaffected by cuts).
  virtual std::optional<Value> getGlobal(std::string_view Name) const = 0;
  virtual void setGlobal(std::string_view Name, const Value &V) = 0;

  /// The Code value denoting \p P.
  Value codeValue(const IrProc *P) const;

  /// Decodes a value as a continuation; null when it is not one.
  virtual const ContRecord *decodeCont(const Value &V) const = 0;

  /// Evaluates a link-time-constant expression (descriptors). Returns
  /// nullopt for non-constant expressions.
  std::optional<Value> evalConstExpr(const Expr *E) const {
    return linkTimeConstant(program(), E);
  }

  //===--------------------------------------------------------------------===//
  // Substrate for the run-time system (Table 1 lives in src/rts)
  //===--------------------------------------------------------------------===//

  virtual size_t stackDepth() const = 0;
  /// Call site at which the \p I'th-from-top suspended activation waits
  /// (0 is the topmost). Precondition: I < stackDepth().
  virtual const CallNode *frameCallSite(size_t I) const = 0;
  /// Procedure owning the \p I'th-from-top suspended activation.
  virtual const IrProc *frameProc(size_t I) const = 0;
  virtual const IrProc *currentProc() const = 0;

  /// Yield unwind rule: pops \p Count frames; every popped frame's call site
  /// must be annotated `also aborts`, else the executor goes wrong. Only
  /// legal while Suspended.
  virtual bool rtUnwindTop(size_t Count) = 0;

  /// Yield resume rules: pops the top frame and transfers control to the
  /// chosen continuation of its bundle (or cuts the stack for Kind::Cut),
  /// passing \p Params through the argument area. Only legal while
  /// Suspended. Returns false (executor Wrong) on any rule violation.
  virtual bool rtResume(const ResumeChoice &Choice,
                        std::vector<Value> Params) = 0;

  /// Number of parameters the chosen continuation expects; nullopt when the
  /// choice is invalid. Used by FindContParam and by every backend's
  /// rtResume.
  std::optional<unsigned> resumeParamCount(const ResumeChoice &Choice) const;
};

} // namespace cmm

#endif // CMM_SEM_EXECUTOR_H
