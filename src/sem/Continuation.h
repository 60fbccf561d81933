//===- sem/Continuation.h - First-class continuation handles ----*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Continuation is the first-class handle to a paused C-- thread: the
/// one-shot capability to continue a suspended (or fuel-stopped) executor
/// and run it to its next stopping point under a budget. It packages the
/// Table 1 suspend/resume substrate (Executor::rtResume / rtUnwindTop) plus
/// the budgeted run loop that every consumer used to re-implement — the
/// engine's job runner, its parked sessions, the service's resume-over-wire
/// path, and the green-thread scheduler (src/sched) all ride this type now.
///
/// Semantics, mirroring the paper's one-shot continuations:
///
///   - capture(M) takes the handle for M's current pause: Suspended (at a
///     Yield, resumable through a ResumeChoice) or Paused (stopped on fuel /
///     deadline / memory while Running, resumable by just continuing).
///   - resume(...) consumes the handle (state() becomes Spent) and runs the
///     executor until it halts, goes wrong, suspends again, or exhausts the
///     attached ResumeBudget. A thread that suspends again yields a fresh
///     handle via another capture — exactly the paper's discipline that
///     every continuation is cut to / returned through at most once.
///   - The handle is move-only and does not own the executor; like the
///     executor itself it must be driven by one host thread at a time,
///     though capture and resume may happen on different threads (the
///     scheduler migrates parked threads across pool workers this way).
///
/// The budget types and the budgeted run loop live here (not in engine/) so
/// that anything holding an Executor can use them.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_SEM_CONTINUATION_H
#define CMM_SEM_CONTINUATION_H

#include "sem/Executor.h"
#include "sem/Memory.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace cmm {

/// Budgets for one resume segment (resume-to-next-stop). Zero / all-ones
/// fields disable their check.
struct ResumeBudget {
  /// Abstract-machine transitions for this segment. Exhaustion leaves the
  /// executor Running (a Paused continuation can be captured from it).
  uint64_t MaxSteps = ~uint64_t(0);
  /// Wall-clock deadline in milliseconds from segment start; 0 disables.
  double DeadlineMillis = 0;
  /// Memory quota in bytes (page-granular: an executor's footprint is its
  /// page count times Memory::PageSize); 0 disables.
  uint64_t MaxMemoryBytes = 0;
};

/// How a budgeted segment stopped early (all false when it ran to a
/// terminal status or out of fuel).
struct ResumeOutcome {
  bool TimedOut = false;    ///< DeadlineMillis exceeded
  bool MemExceeded = false; ///< MaxMemoryBytes exceeded
};

namespace detail {

inline double millisSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

inline uint64_t memoryBytesOf(const Executor &M) {
  return uint64_t(M.memory().pageCount()) * Memory::PageSize;
}

/// The budgeted suspend/resume loop: run \p M under \p B, slicing execution
/// into \p SliceSteps-transition chunks whenever a deadline or memory quota
/// is armed (so enforcement granularity is one slice), and consulting the
/// budgets between suspend/resume cycles as well (a yield-heavy program
/// whose handler always resumes never completes a Running slice). \p
/// Handler services one suspension and returns true when the executor was
/// resumed. Increments \p ResumeCycles once per serviced yield.
template <typename HandlerFn>
MachineStatus runBudgeted(Executor &M, HandlerFn Handler, const ResumeBudget &B,
                          uint64_t SliceSteps, ResumeOutcome &Out,
                          uint64_t &ResumeCycles) {
  auto T0 = std::chrono::steady_clock::now();
  const bool Sliced = B.DeadlineMillis > 0 || B.MaxMemoryBytes > 0;
  auto overBudget = [&] {
    if (B.DeadlineMillis > 0 && millisSince(T0) >= B.DeadlineMillis) {
      Out.TimedOut = true;
      return true;
    }
    if (B.MaxMemoryBytes > 0 && memoryBytesOf(M) > B.MaxMemoryBytes) {
      Out.MemExceeded = true;
      return true;
    }
    return false;
  };
  for (;;) {
    // Checked here as well as inside the slice loop: the suspend/resume
    // cycle itself must consult the budgets.
    if (overBudget())
      return MachineStatus::Running;
    uint64_t Remaining = B.MaxSteps;
    MachineStatus St;
    for (;;) {
      uint64_t Slice = Remaining;
      if (Sliced)
        Slice = std::min<uint64_t>(Slice, SliceSteps);
      St = M.run(Slice);
      if (St != MachineStatus::Running)
        break;
      Remaining -= Slice;
      if (Remaining == 0)
        return MachineStatus::Running; // fuel exhausted
      if (overBudget())
        return MachineStatus::Running;
    }
    if (St != MachineStatus::Suspended)
      return St;
    if (!Handler(M))
      return MachineStatus::Suspended; // unhandled yield
    if (M.status() == MachineStatus::Suspended)
      return MachineStatus::Suspended; // handler did not actually resume
    ++ResumeCycles; // one serviced yield, machine running again
  }
}

} // namespace detail

/// The one-shot handle to a paused executor. See the file comment for the
/// capture/resume discipline.
class Continuation {
public:
  enum class State : uint8_t {
    Empty,     ///< default-constructed or moved-from
    Suspended, ///< captured at a Yield; resume via a ResumeChoice
    Paused,    ///< captured mid-run (fuel/deadline/memory); resume continues
    Spent,     ///< already resumed; this capability is used up
  };

  /// What one resume produced: where the executor now stands, plus the
  /// budget-stop flags for a Running status.
  struct Result {
    MachineStatus Status = MachineStatus::Idle;
    ResumeOutcome Outcome;
    /// True when the control transfer itself happened (the executor ran
    /// again). False when the handle was not resumable or the Table 1
    /// resume was refused as a rule violation (executor Wrong, no
    /// transition executed).
    bool Transferred = false;
  };

  /// Deadline/memory enforcement granularity of the budgeted loop, shared
  /// with Engine::DeadlineSliceSteps.
  static constexpr uint64_t SliceSteps = 1 << 16;

  Continuation() = default;
  Continuation(Continuation &&O) noexcept : M(O.M), St(O.St), B(O.B) {
    O.M = nullptr;
    O.St = State::Empty;
  }
  Continuation &operator=(Continuation &&O) noexcept {
    M = O.M;
    St = O.St;
    B = O.B;
    O.M = nullptr;
    O.St = State::Empty;
    return *this;
  }
  Continuation(const Continuation &) = delete;
  Continuation &operator=(const Continuation &) = delete;

  /// Captures the handle for \p M's current pause: a Suspended handle at a
  /// Yield, a Paused handle for a fuel/deadline/memory stop (status
  /// Running). Any other status yields an Empty handle.
  static Continuation capture(Executor &M) {
    Continuation C;
    switch (M.status()) {
    case MachineStatus::Suspended:
      C.M = &M;
      C.St = State::Suspended;
      break;
    case MachineStatus::Running:
      C.M = &M;
      C.St = State::Paused;
      break;
    default:
      break;
    }
    return C;
  }

  State state() const { return St; }
  /// True when the handle can still be resumed.
  explicit operator bool() const {
    return St == State::Suspended || St == State::Paused;
  }

  /// The underlying executor (argArea() carries the yield request while the
  /// handle is Suspended); null when Empty.
  Executor *executor() const { return M; }

  /// Attaches the budget every subsequent resume runs under (the default
  /// budget is unlimited).
  void setBudget(const ResumeBudget &Budget) { B = Budget; }
  const ResumeBudget &budget() const { return B; }

  /// Resumes with no values: a Suspended handle returns through the normal
  /// return continuation of the suspended call site with zero parameters; a
  /// Paused handle simply continues. Consumes the handle.
  Result resume() {
    if (St == State::Paused) {
      St = State::Spent;
      Result R = runOut();
      R.Transferred = true;
      return R;
    }
    return resume(normalReturn(), {});
  }

  /// Resumes a Suspended handle through the normal return continuation,
  /// passing one value (the shape of `r = yield(...)`). Consumes the handle.
  Result resume(Value V) { return resume(normalReturn(), {V}); }

  /// Resumes a Suspended handle through an explicit Table 1 choice
  /// (return / also-unwinds / cut) with \p Params. Consumes the handle. A
  /// rule violation leaves the executor Wrong with a precise reason, which
  /// is the result. Resuming a non-resumable handle returns its executor's
  /// current status (Idle for Empty) without touching anything.
  Result resume(const ResumeChoice &Choice, std::vector<Value> Params) {
    if (St != State::Suspended)
      return {M ? M->status() : MachineStatus::Idle, {}, false};
    St = State::Spent;
    if (!M->rtResume(Choice, std::move(Params)))
      return {M->status(), {}, false};
    Result R = runOut();
    R.Transferred = true;
    return R;
  }

  /// The Table 1 stack-walk primitive: pops \p Count suspended activations
  /// without executing a transition. The executor stays Suspended on
  /// success — the handle remains usable (unwinding narrows the capture, it
  /// does not consume it). On an un-abortable call site the executor goes
  /// Wrong and the handle is Spent. Only legal on a Suspended handle.
  bool unwindTop(size_t Count) {
    if (St != State::Suspended)
      return false;
    if (!M->rtUnwindTop(Count)) {
      St = State::Spent;
      return false;
    }
    return true;
  }

private:
  ResumeChoice normalReturn() const {
    // The normal return continuation is always the last entry of the
    // suspended call site's returns list (ir/Ir.h).
    unsigned Index = 0;
    if (St == State::Suspended && M->stackDepth() > 0)
      Index = unsigned(M->frameCallSite(0)->Bundle.ReturnsTo.size()) - 1;
    return ResumeChoice::ret(Index);
  }

  Result runOut() {
    Result R;
    uint64_t Cycles = 0; // no handler, so never incremented
    R.Status = detail::runBudgeted(
        *M, [](Executor &) { return false; }, B, SliceSteps, R.Outcome, Cycles);
    return R;
  }

  Executor *M = nullptr;
  State St = State::Empty;
  ResumeBudget B;
};

} // namespace cmm

#endif // CMM_SEM_CONTINUATION_H
