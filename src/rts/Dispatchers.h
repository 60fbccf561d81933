//===- rts/Dispatchers.h - Front-end exception dispatchers ------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Front-end run-time systems built on the Table 1 interface. These are the
/// "(probably large) front-end run-time system" of Section 3.3, here written
/// in C++ as the paper's examples are written in C:
///
///  - UnwindingDispatcher is the Figure 9 dispatcher: it walks the stack one
///    activation at a time, consults each activation's static descriptor,
///    and unwinds to the first matching handler (run-time stack unwinding:
///    zero cost to enter a handler scope, O(depth) to raise).
///
///  - CuttingDispatcher implements the SetCutToCont column of Figure 2: the
///    program keeps a stack of handler continuations in memory (pointed to
///    by a global register); raising pops the topmost and cuts to it in
///    constant time.
///
///  - DispatcherHolder picks between them by DispatcherKind. Every host
///    (engine jobs and sessions, the scheduler, the differential harness,
///    the Modula-3 driver) dispatches through it.
///
/// Yield convention shared with the generated code and the standard library:
/// the arguments of the yield(...) call are (tag) or (tag, argument), where
/// the tag identifies the source-language exception. The %%div family yields
/// tag DivZeroYieldTag.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_RTS_DISPATCHERS_H
#define CMM_RTS_DISPATCHERS_H

#include "rts/ExnFormat.h"
#include "rts/RuntimeInterface.h"

#include <optional>
#include <string>
#include <string_view>

namespace cmm {

/// Outcome of one dispatch attempt.
enum class DispatchResult : uint8_t {
  Handled,   ///< a handler was found and the thread resumed
  Unhandled, ///< no activation handles this exception
  NotAnExn,  ///< the yield was not an exception request
};

/// The Figure 9 exception dispatcher (run-time stack unwinding).
class UnwindingDispatcher {
public:
  explicit UnwindingDispatcher(Executor &T) : T(T) {}

  /// Services the current suspension: reads (tag, arg?) from the argument
  /// area, walks the stack, and resumes at the matching handler.
  DispatchResult dispatch();

  /// Cumulative walk statistics over every dispatch this object serviced.
  const RtStats &walkStats() const { return Walk; }
  uint64_t dispatches() const { return Dispatches; }

private:
  void accumulate(const RtStats &S) {
    Walk.ActivationsVisited += S.ActivationsVisited;
    Walk.DescriptorReads += S.DescriptorReads;
    Walk.Resumes += S.Resumes;
  }

  Executor &T;
  RtStats Walk;
  uint64_t Dispatches = 0;
};

/// A constant-time dispatcher using SetCutToCont (Figure 2, bottom-left).
/// The generated code maintains a stack of handler continuation values in
/// memory; the global register `exn_top` holds the address of the topmost
/// slot (0 when no handler is active). Raising pops that continuation and
/// cuts to it, passing (tag, arg).
class CuttingDispatcher {
public:
  explicit CuttingDispatcher(Executor &T) : T(T) {}

  DispatchResult dispatch();

  uint64_t dispatches() const { return Dispatches; }

private:
  Executor &T;
  uint64_t Dispatches = 0;
};

/// Which front-end run-time system services exception yields.
enum class DispatcherKind : uint8_t { None, Unwind, Cut };

/// Parses the CLI spelling of a DispatcherKind: none, unwind, or cut.
std::optional<DispatcherKind> parseDispatcherKind(std::string_view Name);

/// Services yields with the dispatcher a DispatcherKind names. Each kind is
/// built on first use and kept, so statistics span every dispatch of one
/// thread.
class DispatcherHolder {
public:
  explicit DispatcherHolder(Executor &T,
                            DispatcherKind Default = DispatcherKind::None)
      : T(T), Default(Default) {}

  /// Services the current suspension with the \p K dispatcher (None
  /// declines: Unhandled, nothing built).
  DispatchResult dispatch(DispatcherKind K);

  /// Adapter for runWithRuntime: dispatches with the default kind.
  bool operator()(Executor &) {
    return dispatch(Default) == DispatchResult::Handled;
  }

  /// The unwinding dispatcher's cumulative walk (zero if it never ran).
  RtStats walkStats() const { return Unw ? Unw->walkStats() : RtStats{}; }
  /// Dispatches serviced across both kinds.
  uint64_t dispatches() const {
    return (Unw ? Unw->dispatches() : 0) + (Cut ? Cut->dispatches() : 0);
  }

private:
  Executor &T;
  DispatcherKind Default;
  std::optional<UnwindingDispatcher> Unw;
  std::optional<CuttingDispatcher> Cut;
};

/// Decodes the yield arguments under the shared convention.
struct YieldRequest {
  uint64_t Tag = 0;
  Value Arg;     ///< meaningful only when HasArg
  bool HasArg = false;
  bool Valid = false;
};

/// Reads the yield request of a suspended machine.
YieldRequest readYieldRequest(const Executor &T);

} // namespace cmm

#endif // CMM_RTS_DISPATCHERS_H
