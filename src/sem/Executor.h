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
/// Executor owns the state the three share (program, status, argument
/// area, memory, globals, continuation table, stats, observer) and the
/// rules over it; sem/ExecutorImpl.h writes the cut and Yield rules once
/// over each backend's frames. A backend adds only its own representation
/// of control, ρ, σ and the stack, and its step loop.
///
/// All three preserve the same observable semantics: the seven-component
/// state, every goes-wrong rule (identical reasons and source locations),
/// the Suspended status at Yield nodes, and the Table 1 run-time substrate
/// (rtUnwindTop / rtResume / resumeParamCount), so the run-time systems in
/// src/rts drive any backend unchanged. The differential harness
/// (costmodel/DiffHarness.h) cross-checks them on every seed.
///
/// The hot loops stay non-virtual: each backend's run() is a concrete
/// member, and every accessor is a plain member of Executor; only start,
/// stepping and the (cold) run-time-system substrate are virtual.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_SEM_EXECUTOR_H
#define CMM_SEM_EXECUTOR_H

#include "ir/Ir.h"
#include "sem/Env.h"
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
///
/// Executor owns the state every backend shares: the program, the status,
/// the argument area A, memory M, the global registers, the continuation
/// table, the activation uid, the current procedure, the goes-wrong state,
/// the Stats counters and the observer. It also writes once the rules that
/// read only that state, and every transition's goes-wrong reason. What a
/// backend keeps of its own is the control, ρ, σ and the frame
/// representation; sem/ExecutorImpl.h writes the cut and Yield rules over
/// that representation once for all of them.
class Executor {
public:
  virtual ~Executor() = default;

  /// A short stable name for diagnostics and tools ("walk", "vm").
  virtual std::string_view backendName() const = 0;

  /// Initializes memory from the program image and enters \p ProcName with
  /// \p Args in the argument-passing area.
  virtual void start(std::string_view ProcName,
                     std::vector<Value> Args = {}) = 0;

  MachineStatus status() const { return St; }

  /// Performs one transition. Returns false when not Running (suspended
  /// executors must be resumed through rtResume).
  virtual bool step() = 0;

  /// Steps until the executor stops running or \p MaxSteps transitions have
  /// executed; returns the final status (Running on step-limit). A resumed
  /// run continues exactly where the budgeted run stopped.
  virtual MachineStatus run(uint64_t MaxSteps = ~uint64_t(0)) = 0;

  /// The argument-passing area A: procedure results after Halted, the
  /// arguments of the yield(...) call while Suspended.
  const std::vector<Value> &argArea() const { return A; }

  /// Why the executor went wrong (valid after status() == Wrong).
  const std::string &wrongReason() const { return WrongReason; }
  SourceLoc wrongLoc() const { return WrongLoc; }

  const Stats &stats() const { return S; }
  void resetStats() { S.reset(); }

  /// Attaches \p O (null detaches). The executor does not own the observer;
  /// it must outlive the run. With no observer attached every event site
  /// costs at most one branch, and behaviour is identical to an unobserved
  /// run.
  void setObserver(MachineObserver *O) { Obs = O; }
  MachineObserver *observer() const { return Obs; }

  Memory &memory() { return Mem; }
  const Memory &memory() const { return Mem; }
  const IrProgram &program() const { return Prog; }

  /// Global register access (globals model machine registers shared by all
  /// activations; they are never callee-saves and unaffected by cuts).
  std::optional<Value> getGlobal(std::string_view Name) const;
  void setGlobal(std::string_view Name, const Value &V);

  /// The Code value denoting \p P.
  Value codeValue(const IrProc *P) const;

  /// Decodes a value as a continuation; null when it is not one.
  const ContRecord *decodeCont(const Value &V) const;

  /// Evaluates a link-time-constant expression (descriptors). Returns
  /// nullopt for non-constant expressions.
  std::optional<Value> evalConstExpr(const Expr *E) const {
    return linkTimeConstant(Prog, E);
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
  const IrProc *currentProc() const { return CurProc; }

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
  /// choice is invalid. Used by FindContParam and by rtResume.
  std::optional<unsigned> resumeParamCount(const ResumeChoice &Choice) const;

  //===--------------------------------------------------------------------===//
  // Reasons the bytecode compiler decides statically (it compiles each to a
  // Wrong instruction); the walker reports the same ones at run time.
  //===--------------------------------------------------------------------===//

  static const char *strLitWithoutAddressReason();
  static const char *unknownPrimitiveReason();
  static const char *unresolvedNameReachedEvaluatorReason();

protected:
  explicit Executor(const IrProgram &Prog) : Prog(Prog) {}

  /// Enters the Wrong state, keeping the first reason.
  void goWrong(std::string Reason, SourceLoc Loc);

  /// start()'s common step once \p ProcName is known to be a name of the
  /// program: resets the shared state, loads the data image and its
  /// relocations, zeroes the global registers, and finds the start
  /// procedure. Null after going wrong.
  const IrProc *loadForStart(Symbol ProcName);

  /// The index in IrProgram::Procs of the procedure \p V denotes as a code
  /// value; -1 when it denotes none. The bytecode's CompiledProgram::Procs
  /// shares that order, so one index addresses both.
  int64_t decodeCodeIdx(const Value &V) const {
    if (!(V.isCode() || V.isBits()) || !Value::rawIsCode(V.Raw))
      return -1;
    if ((V.Raw - CodeBase) % CodeStride != 0)
      return -1;
    uint64_t Idx = V.codeIndex();
    if (Idx >= Prog.Procs.size())
      return -1;
    return int64_t(Idx);
  }

  /// Binds a continuation of the current activation; its handle.
  uint64_t newCont(Node *Target) {
    ContTable.push_back({Target, Uid, CurProc});
    ++S.ContsBound;
    return ContTable.size() - 1;
  }

  //===--------------------------------------------------------------------===//
  // The transitions' stuck states, one cold function each (sem/Executor.cpp
  // spells every reason once). Each goes wrong at \p Loc.
  //===--------------------------------------------------------------------===//

  void wrongUnknownStart(std::string_view ProcName);
  void wrongUnresolvedReloc(Symbol Target);
  void wrongNoBody(const IrProc *P, SourceLoc Loc);
  void wrongUnbound(Symbol Var, SourceLoc Loc);
  void wrongUnknownGlobal(Symbol Name, SourceLoc Loc);
  void wrongUnresolvedName(Symbol Name, SourceLoc Loc);
  /// A call (\p IsJump false) or jump to \p Callee, which is not code.
  void wrongNotCode(bool IsJump, const Value &Callee, SourceLoc Loc);
  void wrongAbnormalReturnEmptyStack(SourceLoc Loc);
  /// return <\p ContIndex / \p AltCount> at a site with \p Alternates.
  void wrongReturnArity(unsigned ContIndex, unsigned AltCount,
                        size_t Alternates, SourceLoc Loc);
  void wrongReturnIndex(SourceLoc Loc);
  void wrongTooFewValues(size_t Need, size_t Have, SourceLoc Loc);
  // The cut rules (sem/ExecutorImpl.h).
  void wrongCutToNonCont(const Value &V, SourceLoc Loc);
  void wrongSameActivationCutUnlisted(SourceLoc Loc);
  void wrongCutPastNonAborting(SourceLoc Loc);
  void wrongCutToDeadCont(SourceLoc Loc);
  void wrongCutToUnlisted(SourceLoc Loc);
  // The Yield rules' preconditions (sem/ExecutorImpl.h).
  void wrongUnwindNotSuspended();
  void wrongUnwindPastBottom();
  void wrongUnwindPastNonAborting(SourceLoc Loc);
  void wrongResumeNotSuspended();
  void wrongInvalidResumption();
  void wrongResumeParamCount(size_t Passed, unsigned Expected);

  const IrProgram &Prog;

  // The shared components of the seven-component state ⟨p, ρ, σ, uid, M, A,
  // S⟩: p, ρ, σ and S are the backend's own representation.
  uint64_t Uid = 0;
  Memory Mem;
  std::vector<Value> A;

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

#endif // CMM_SEM_EXECUTOR_H
