//===- rts/RuntimeInterface.h - The Table 1 interface -----------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The C-- run-time interface of Table 1. "The main service provided by the
/// C-- run-time interface is to present the state of a suspended C--
/// computation ('thread') as a stack of abstract activations. Operations are
/// provided to walk down the stack; to get information from an activation;
/// to make a particular activation become the topmost one; and to change the
/// resumption point of the topmost activation."
///
/// Every mutation is validated against the formal Yield transitions of
/// Section 5.2, so a front-end runtime cannot drive the machine into a state
/// the semantics forbids — attempting to do so makes the machine go wrong
/// with a diagnostic instead.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_RTS_RUNTIMEINTERFACE_H
#define CMM_RTS_RUNTIMEINTERFACE_H

#include "sem/Continuation.h"
#include "sem/Executor.h"

#include <optional>
#include <utility>

namespace cmm {

/// An activation handle, initialized by FirstActivation and advanced by
/// NextActivation.
struct Activation {
  size_t IndexFromTop = 0;
  bool Valid = false;
};

/// Cost counters for the run-time interface itself (the interpretive stack
/// walk of the unwinding technique).
struct RtStats {
  uint64_t ActivationsVisited = 0;
  uint64_t DescriptorReads = 0;
  uint64_t Resumes = 0;
};

/// One front-end runtime's view of one suspended thread.
///
/// Typical use, mirroring the paper's dispatcher (Figure 9):
/// \code
///   CmmRuntime Rt(M);
///   Activation A;
///   Rt.firstActivation(A);
///   do {
///     if (/* descriptor of A handles the exception */) {
///       Rt.setActivation(A);
///       Rt.setUnwindCont(ContNum);
///       *Rt.findContParam(0) = Arg;
///       Rt.resume();
///       break;
///     }
///   } while (Rt.nextActivation(A));
/// \endcode
class CmmRuntime {
public:
  explicit CmmRuntime(Executor &T) : T(T) {}

  /// FirstActivation(t, &a): sets \p A to the "currently executing"
  /// activation of the thread — the activation suspended at the call to
  /// yield. Returns false when the thread is not suspended.
  bool firstActivation(Activation &A);

  /// NextActivation(&a): mutates \p A to point to the activation to which
  /// \p A will return (normally its caller). The walk restores callee-saves
  /// values automatically (each frame carries its saved environment).
  /// Returns false at the bottom of the stack.
  bool nextActivation(Activation &A);

  /// GetDescriptor(a, n): the n'th static descriptor associated with the
  /// call site at which \p A is suspended, or nullopt when absent.
  std::optional<Value> getDescriptor(const Activation &A, unsigned N);

  /// SetActivation(t, a): arranges for the thread to resume execution with
  /// activation \p A (activations above it will be unwound at Resume; each
  /// must be suspended at a call annotated `also aborts`).
  bool setActivation(const Activation &A);

  /// SetUnwindCont(t, n): arranges to resume by unwinding to the n'th
  /// continuation in the `also unwinds to` list of the call site of the
  /// activation with which the thread is set to resume.
  bool setUnwindCont(unsigned N);

  /// SetCutToCont(t, k): arranges to resume by cutting the stack to
  /// continuation value \p K.
  bool setCutToCont(Value K);

  /// FindContParam(t, n): a pointer to the location in which the n'th
  /// parameter of the currently-set continuation will be passed, or null
  /// when no continuation with that many parameters is set.
  Value *findContParam(unsigned N);

  /// Resume(t): performs the staged transition. On success the machine is
  /// Running again. On a rule violation the machine goes wrong and this
  /// returns false.
  bool resume();

  /// The number of frames on the abstract stack (for tests and stats).
  size_t stackDepth() const { return T.stackDepth(); }

  /// The procedure owning activation \p A (for diagnostics).
  const IrProc *activationProc(const Activation &A) const;

  /// The call site at which \p A is suspended.
  const CallNode *activationCallSite(const Activation &A) const;

  const RtStats &stats() const { return S; }
  Executor &thread() { return T; }

private:
  /// Call site of the frame the thread is currently staged to resume with.
  const CallNode *targetCallSite() const;
  /// Recomputes the parameter staging area for the current choice.
  void refreshParams();

  Executor &T;
  RtStats S;

  size_t TargetIndex = 0;       ///< frames above this are unwound at resume
  ResumeChoice Choice = ResumeChoice::ret(0); ///< recomputed lazily
  bool ChoiceIsCut = false;
  bool ChoiceIsUnwind = false;
  unsigned ChoiceIndex = 0;
  Value CutValue;
  std::vector<Value> Params;
};

/// Runs \p M until it halts, goes wrong, or yields with no willing handler.
/// \p Handler services each suspension (a front-end runtime); returning
/// false declines, which stops execution with the machine left suspended.
/// \p MaxSteps is the fuel of each resume segment. The budgeted loop of
/// sem/Continuation.h with only fuel armed.
template <typename HandlerFn>
MachineStatus runWithRuntime(Executor &M, HandlerFn Handler,
                             uint64_t MaxSteps = ~uint64_t(0)) {
  ResumeOutcome Out;
  uint64_t Cycles = 0;
  return detail::runBudgeted(M, std::move(Handler), ResumeBudget{MaxSteps},
                             Out, Cycles);
}

} // namespace cmm

#endif // CMM_RTS_RUNTIMEINTERFACE_H
