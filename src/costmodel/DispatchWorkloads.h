//===- costmodel/DispatchWorkloads.h - Figure 2 workloads -------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One workload, five implementations — the design space of Figure 2 plus
/// continuation-passing style:
///
///                       | execute in generated code | in run-time system
///   no stack walk (cut) | CutGenerated (cut to)     | CutRuntime
///                       |                           |   (SetCutToCont)
///   stack walk (unwind) | UnwindGenerated           | UnwindRuntime
///                       |   (return <i/n>)          |   (SetActivation +
///                       |                           |    SetUnwindCont)
///   ------------------- + ------------------------- + ------------------
///   continuation-passing style: Cps (explicit closures + jump)
///
/// The workload: `bench(depth, do_raise)` descends `depth` activations,
/// optionally raises, and the handler (established at the top) observes the
/// payload. Every variant computes the same result so cost differences are
/// attributable to the dispatch technique alone.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_COSTMODEL_DISPATCHWORKLOADS_H
#define CMM_COSTMODEL_DISPATCHWORKLOADS_H

#include "rts/Dispatchers.h"

#include <string>

namespace cmm {

/// The five implementation techniques.
enum class DispatchTechnique : int {
  CutGenerated,    ///< Figure 10: cut to in generated code
  CutRuntime,      ///< SetCutToCont through the run-time system
  UnwindGenerated, ///< return <i/n> abnormal returns (branch-table method)
  UnwindRuntime,   ///< the Figure 9 dispatcher
  Cps,             ///< explicit closures + jump (SML/NJ style)
};

inline constexpr DispatchTechnique AllDispatchTechniques[] = {
    DispatchTechnique::CutGenerated, DispatchTechnique::CutRuntime,
    DispatchTechnique::UnwindGenerated, DispatchTechnique::UnwindRuntime,
    DispatchTechnique::Cps};

const char *dispatchTechniqueName(DispatchTechnique T);

/// The dispatcher that services \p T's yields: None exactly when raising
/// under \p T does not involve the run-time system (no yield).
DispatcherKind runtimeDispatcher(DispatchTechnique T);

/// C-- source exporting `bench(bits32 depth, bits32 do_raise)`, which
/// returns 1 on the normal path and 1099 via the handler (tag 99 + 1000).
/// The CutRuntime and UnwindRuntime variants expect the CuttingDispatcher /
/// UnwindingDispatcher respectively to service their yields.
std::string dispatchWorkloadSource(DispatchTechnique T);

/// C-- source exporting `sweep(bits32 iters, bits32 period, bits32 depth)`:
/// `iters` handler-scope entries, raising on every `period`-th iteration —
/// the workload for locating the Figure 2 cost crossover. Returns the sum
/// of iteration results. Only techniques with a per-scope-entry cost vs a
/// per-raise cost differ here; provided for CutGenerated, UnwindGenerated
/// and UnwindRuntime.
std::string sweepWorkloadSource(DispatchTechnique T);

} // namespace cmm

#endif // CMM_COSTMODEL_DISPATCHWORKLOADS_H
