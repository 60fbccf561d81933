//===- engine/Session.h - Parked suspended jobs -----------------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A JobSession is a job whose executor outlives its first run segment:
/// Engine::startSession runs a Job exactly like Engine::runJob, but when
/// the program yields and no in-process dispatcher services the suspension,
/// the live executor is parked here instead of discarded. The caller then
/// plays the role of the front-end run-time system — one Table 1 operation
/// at a time, possibly from another thread, possibly across a protocol
/// boundary (src/svc resumes sessions over the wire; docs/SERVICE.md
/// § "Sessions").
///
/// A session advances in segments. Each segment call takes a ResumeBudget
/// (fuel / deadline / memory quota, sem/Continuation.h) and returns a
/// JobResult describing where the job now stands:
///
///   - resumeRaw: one Table 1 resume (return / also-unwinds / cut), then
///     run until the next suspension, a terminal status, or the budget.
///   - unwindTop: the Table 1 stack-walk primitive — pops activations while
///     staying suspended (no execution).
///   - dispatchOnce: service the current yield with one of the engine's
///     built-in dispatchers (rts/Dispatchers.h), then run to the next
///     suspension. Driving every yield through dispatchOnce produces
///     byte-identical observables to Engine::runJob with the same
///     DispatcherKind — the wire-parity contract tests/ServiceTest.cpp
///     pins. The dispatcher object persists across segments, so its
///     cumulative walk statistics match the in-process run too.
///   - continueRun: no resume, just more budget (a segment that stopped on
///     fuel/deadline/memory picks up where it left off).
///
/// Sessions are NOT thread-safe: like the executor they wrap, a session is
/// one C-- thread and must be driven by one host thread at a time (the
/// service layer serializes per-session access). A session must not
/// outlive its Engine. Metrics: a session counts one engine.jobs at start
/// and exactly one outcome counter when it finishes — at its terminal
/// segment, or at destruction for sessions abandoned mid-flight.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_ENGINE_SESSION_H
#define CMM_ENGINE_SESSION_H

#include "engine/Engine.h"
#include "rts/Dispatchers.h"
#include "sem/Continuation.h"

#include <memory>

namespace cmm::engine {

class JobSession {
public:
  ~JobSession();
  JobSession(const JobSession &) = delete;
  JobSession &operator=(const JobSession &) = delete;

  /// The engine-wide job id (same id space as submitted jobs).
  uint64_t id() const { return Id; }
  Backend backend() const { return B; }

  /// True once the job reached Halted or Wrong; no further segment may run.
  bool done() const { return Done; }
  MachineStatus status() const { return Exec->status(); }

  /// The live executor (argArea() carries the pending yield request while
  /// Suspended). Callers must respect the one-thread-at-a-time contract.
  Executor &exec() { return *Exec; }
  const Executor &exec() const { return *Exec; }

  /// Serviced yields so far (across all segments).
  uint64_t resumeCycles() const { return Cycles; }
  /// Current memory footprint in bytes (page-granular).
  uint64_t memoryBytes() const { return cmm::detail::memoryBytesOf(*Exec); }

  /// Whether the last dispatchOnce found a handler. A false value with the
  /// session still Suspended means the yield is not serviceable by that
  /// dispatcher — resuming again with the same kind cannot make progress.
  bool lastDispatchHandled() const { return LastHandled; }

  /// One raw Table 1 resume, then run under \p Budget. Precondition:
  /// status() == Suspended (violations leave the executor untouched and
  /// return the current state).
  JobResult resumeRaw(const ResumeChoice &Choice, std::vector<Value> Params,
                      const ResumeBudget &Budget);

  /// Pops \p Count suspended activations (rtUnwindTop); every popped call
  /// site must be annotated `also aborts`, else the executor goes Wrong.
  /// Does not execute any transition. Precondition: status() == Suspended.
  JobResult unwindTop(size_t Count, const ResumeBudget &Budget);

  /// Services the current yield with the engine dispatcher for \p K (None
  /// is invalid), then runs under \p Budget. Precondition: status() ==
  /// Suspended.
  JobResult dispatchOnce(DispatcherKind K, const ResumeBudget &Budget);

  /// Runs under \p Budget without resuming anything — continues a segment
  /// that stopped on fuel, deadline, or memory. Precondition: status() ==
  /// Running.
  JobResult continueRun(const ResumeBudget &Budget);

private:
  friend class Engine;
  JobSession(Engine &Eng, uint64_t Id, Backend B,
             std::shared_ptr<const ProgramArtifact> Art,
             std::shared_ptr<const IrProgram> Prog,
             std::unique_ptr<Executor> Exec, uint64_t StartMicros);

  /// First segment: start(Entry, Args) and run with the job's own
  /// dispatcher (persisted for later dispatchOnce calls).
  JobResult startSegment(const Job &J);
  /// Runs the budgeted loop with no handler and wraps up the segment.
  JobResult runSegment(const ResumeBudget &Budget);
  /// Builds the segment result and, on a terminal status, counts the job's
  /// outcome exactly once.
  JobResult finishSegment(MachineStatus St, const ResumeOutcome &Out,
                          double RunMillis);
  /// Counts the final outcome into the engine's job metrics (idempotent).
  void countOutcome(MachineStatus St, const ResumeOutcome &Out);

  Engine &Eng;
  uint64_t Id = 0;
  Backend B = Backend::Walk;
  /// Keep-alives: the artifact (cache-interned path) or the caller's
  /// program (Job::Program path) must outlive the executor.
  std::shared_ptr<const ProgramArtifact> Art;
  std::shared_ptr<const IrProgram> Prog;
  std::unique_ptr<Executor> Exec;
  /// Persistent dispatchers, created on first use so their cumulative
  /// statistics span the whole job like Engine::runJob's locals do.
  std::unique_ptr<UnwindingDispatcher> Unw;
  std::unique_ptr<CuttingDispatcher> Cut;
  uint64_t Cycles = 0;
  uint64_t StartMicros = 0;
  bool Done = false;
  bool Counted = false;
  bool LastHandled = true;
  /// Last segment's stop condition, for the destructor's final accounting
  /// of abandoned sessions.
  MachineStatus LastStatus = MachineStatus::Idle;
  ResumeOutcome LastOutcome;
};

} // namespace cmm::engine

#endif // CMM_ENGINE_SESSION_H
