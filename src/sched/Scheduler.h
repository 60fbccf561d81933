//===- sched/Scheduler.h - M:N green-thread scheduler -----------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The green-threads runtime (docs/SCHEDULER.md): M guest C-- threads —
/// each one an Executor whose pauses are held as first-class Continuation
/// handles (sem/Continuation.h) — cooperatively multiplexed over N host
/// drivers. Guests request scheduling operations through the yield-tag
/// vocabulary of rts/SchedFormat.h: spawn, cooperative yield, virtual-time
/// sleep, bounded channels (send/recv park the green thread when full/
/// empty), join, and self.
///
/// Execution model — driver participation. run() submits up to Drivers-1
/// driver tasks through the caller-supplied submit hook (the engine passes
/// its work-stealing ThreadPool) and then drives the schedule on the
/// calling thread too. Every driver loops: pop a runnable thread, run one
/// fuel-bounded slice outside the scheduler lock, service the resulting
/// suspension under it, repeat. This shape never blocks a pool worker on a
/// task that has not started (the pool's contract, engine/ThreadPool.h):
/// the calling driver alone can always finish the schedule, and a driver
/// task that starts late — even after run() returned — finds the schedule
/// finished and exits without touching anything but the shared core. A
/// parked thread woken by one driver may run its next slice on any other:
/// cross-thread resume is the normal case, not a special one.
///
/// Invariants (tests/SchedTest.cpp pins these):
///   - A schedule completes when every green thread has Halted; the main
///     thread's results are the schedule's results.
///   - Any thread going Wrong fails the whole schedule with that thread's
///     reason — exactly the observable a direct (unscheduled) run of the
///     same computation produces, which is what cmmdiff's scheduled-vs-
///     direct oracle checks.
///   - No runnable thread, no running slice, no armed timer, but live
///     threads parked => deadlock, reported loudly (never a hang).
///   - Timers use virtual time: when the schedule quiesces with armed
///     timers, the clock jumps to the earliest deadline. Sleeps are
///     deterministic and cost zero wall-clock.
///   - Channel values are plain machine values; channels are the only
///     communication between green threads (each has its own isolated
///     Memory, so there is no shared guest state to race on).
///
/// Fuel: each slice runs at most SliceFuel transitions (through the
/// continuation's ResumeBudget); a thread that exceeds MaxStepsPerThread
/// fails the schedule as fuel-exhausted, mirroring the engine's per-job
/// fuel outcome.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_SCHED_SCHEDULER_H
#define CMM_SCHED_SCHEDULER_H

#include "obs/Metrics.h"
#include "rts/Dispatchers.h"
#include "sem/Continuation.h"
#include "sem/Executor.h"
#include "sem/Stats.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace cmm::sched {

struct SchedOptions {
  /// Abstract-machine transitions per run slice (the cooperative quantum).
  uint64_t SliceFuel = 1 << 14;
  /// Host drivers, including the calling thread; extra drivers run on the
  /// submit hook. Clamped to at least 1. More drivers than runnable
  /// threads is wasted but harmless.
  unsigned Drivers = 1;
  /// Spawn guard: a spawn beyond this many live threads fails the
  /// schedule (a runaway spawner must be loud, not an OOM).
  uint64_t MaxThreads = 1 << 20;
  /// Per-green-thread fuel (lifetime transitions); ~0 disables. Mirrors
  /// Job::MaxSteps of a direct run.
  uint64_t MaxStepsPerThread = ~uint64_t(0);
  /// Fallback dispatcher for non-scheduler yields (exception requests), so
  /// exception-strategy renderings run unchanged under the scheduler.
  DispatcherKind Exn = DispatcherKind::None;
};

/// Everything one schedule produced.
struct SchedResult {
  /// Halted: every thread halted. Wrong: some thread went wrong (reason /
  /// loc below). Running: fuel-exhausted or deadlocked (flags below).
  MachineStatus Status = MachineStatus::Idle;
  std::vector<Value> Results; ///< main thread's argArea after Halted
  std::string WrongReason;
  SourceLoc WrongLoc;
  bool Deadlocked = false;
  bool FuelExhausted = false;
  uint64_t ThreadsSpawned = 0;  ///< including the main thread
  uint64_t ContextSwitches = 0; ///< slices dispatched to drivers
  uint64_t StepsTotal = 0;      ///< transitions across all threads
  uint64_t ChanSends = 0;
  uint64_t ChanRecvs = 0;
  uint64_t TimerWaits = 0;
  /// Machine counters summed over every terminated thread.
  Stats MachineStats;

  bool ok() const { return Status == MachineStatus::Halted; }
};

/// One M:N scheduler instance. Construct, run() once (or repeatedly —
/// each run is an independent schedule), destroy. The object itself is
/// driven by one thread; the schedule inside a run is multi-driver.
class Scheduler {
public:
  /// Makes one fresh executor per green thread (the engine passes
  /// ProgramArtifact::newExecutor; tests pass makeExecutor over a shared
  /// program). Must be callable from any driver concurrently.
  using ExecutorFactory = std::function<std::unique_ptr<Executor>()>;
  /// Hands a driver task to the host's pool. Must never block; the task
  /// may run at any later time, or only after run() returns. Empty means
  /// single-driver regardless of SchedOptions::Drivers.
  using SubmitFn = std::function<void(std::function<void()>)>;

  /// Metrics land in \p Reg when given (the engine passes its registry),
  /// in MetricsRegistry::null() otherwise — the sched.* catalog
  /// (docs/OBSERVABILITY.md): threads_spawned, threads_live, runnable,
  /// parked, context_switches, chan_sends, chan_recvs, timer_waits,
  /// joins, deadlocks, runs, run_slice_micros.
  Scheduler(ExecutorFactory Factory, SchedOptions Opts = {},
            SubmitFn Submit = {}, MetricsRegistry *Reg = nullptr);

  /// Runs Entry(Args) as green thread 1 and drives the schedule to
  /// completion on the calling thread (plus up to Drivers-1 submitted
  /// drivers). Returns when the schedule finished; stragglers among the
  /// submitted driver tasks are self-cleaning no-ops.
  SchedResult run(std::string_view Entry, std::vector<Value> Args = {});

private:
  struct Core;
  struct Green;
  struct Channel;
  /// Wired metric handles, copied into the core by value so a late driver
  /// task never reaches through a destroyed Scheduler.
  struct Metrics {
    Counter *Spawned, *Switches, *Sends, *Recvs, *TimerWaits, *Joins,
        *Deadlocks, *Runs;
    Gauge *Live, *Runnable, *Parked;
    Histogram *SliceMicros;
  };

  static void driverLoop(const std::shared_ptr<Core> &C);
  static void runSlice(Core &C, Green &G);
  /// Services one decoded scheduler request (under the core lock).
  /// Returns true when \p G should keep running in the current slice
  /// (resume-in-place with \p Params), false when it parked / requeued /
  /// the schedule failed.
  static bool handleRequest(Core &C, Green &G, std::vector<Value> &Params);

  ExecutorFactory Factory;
  SchedOptions Opts;
  SubmitFn Submit;
  Metrics M;
};

} // namespace cmm::sched

#endif // CMM_SCHED_SCHEDULER_H
