//===- engine/Session.h - Parked suspended jobs -----------------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A JobSession is one job's executor with everything that runs it: its
/// artifact, per-job observers, dispatcher holder (rts/Dispatchers.h), and
/// outcome accounting. It is the engine's one job path: Engine::runJob
/// runs a session's first segment and finishes the job where it stopped;
/// Engine::startSession runs the same first segment and, when the job is
/// left suspended or out of budget, hands the session over. The caller then
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
///   - dispatchOnce: service the current yield with one of the built-in
///     dispatchers, then run to the next suspension. The dispatcher holder
///     persists across segments and is the same object the first segment
///     dispatched through, so driving every yield through dispatchOnce
///     matches Engine::runJob with the same DispatcherKind by construction
///     (tests/ServiceTest.cpp pins the wire parity).
///   - continueRun: no resume, just more budget (a segment that stopped on
///     fuel/deadline/memory picks up where it left off).
///
/// Sessions are NOT thread-safe: like the executor they wrap, a session is
/// one C-- thread and must be driven by one host thread at a time (the
/// service layer serializes per-session access). A session must not
/// outlive its Engine, nor the streams and observer its Job named.
/// Metrics: a job counts one engine.jobs when it starts and exactly one
/// outcome counter when it finishes — at its terminal segment, when
/// runJob returns, or at destruction for sessions abandoned mid-flight.
/// engine.sessions and engine.sessions_open count only sessions handed to
/// a caller.
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

  /// True once the job reached Halted or Wrong; no further segment may run.
  bool done() const { return Done; }

  /// Whether the last dispatchOnce found a handler. A false value with the
  /// session still Suspended means the yield is not serviceable by that
  /// dispatcher — resuming again with the same kind cannot make progress.
  bool lastDispatchHandled() const { return LastHandled; }

  /// One raw Table 1 resume, then run under \p Budget. Precondition: the
  /// job is Suspended (violations leave the executor untouched and return
  /// the current state).
  JobResult resumeRaw(const ResumeChoice &Choice, std::vector<Value> Params,
                      const ResumeBudget &Budget);

  /// Pops \p Count suspended activations (rtUnwindTop); every popped call
  /// site must be annotated `also aborts`, else the executor goes Wrong.
  /// Does not execute any transition. Precondition: Suspended.
  JobResult unwindTop(size_t Count, const ResumeBudget &Budget);

  /// Services the current yield with the \p K dispatcher (None is
  /// invalid), then runs under \p Budget. Precondition: Suspended.
  JobResult dispatchOnce(DispatcherKind K, const ResumeBudget &Budget);

  /// Runs under \p Budget without resuming anything — continues a segment
  /// that stopped on fuel, deadline, or memory. Precondition: Running.
  JobResult continueRun(const ResumeBudget &Budget);

private:
  friend class Engine;
  struct Observers;

  /// Builds the executor over \p Art and attaches \p J's observers.
  JobSession(Engine &Eng, const Job &J, uint64_t Id,
             std::shared_ptr<const ProgramArtifact> Art, uint64_t StartMicros);

  /// First segment: start(Entry, Args) and run with the job's dispatcher.
  /// Fills the run fields of \p R, which already carries the compile ones.
  void startSegment(const Job &J, JobResult &R);
  /// Times one executing segment: \p Run drives the executor and returns
  /// where it stopped; the result goes through finishSegment.
  template <typename RunFn> void runTimed(JobResult &R, RunFn Run);
  /// A segment that could not run: reports where the job stands.
  JobResult current(MachineStatus St, const ResumeOutcome &Out);
  /// Fills \p R from the executor and, on a terminal status, finishes the
  /// job.
  void finishSegment(JobResult &R, MachineStatus St, const ResumeOutcome &Out,
                     double RunMillis);
  /// Ends the job (idempotent): counts its outcome, closes its trace, and
  /// puts its profile into \p R.
  void finish(JobResult &R);

  Engine &Eng;
  uint64_t Id = 0;
  /// Keep-alive: the artifact must outlive the executor.
  std::shared_ptr<const ProgramArtifact> Art;
  std::unique_ptr<Executor> Exec;
  /// Built on first use of each kind, so its cumulative statistics span the
  /// whole job.
  DispatcherHolder Disp;
  /// Per-job trace sinks and profiler; null when the job asked for none.
  std::unique_ptr<Observers> Obs;
  uint64_t Cycles = 0;
  uint64_t StartMicros = 0;
  bool Done = false;
  bool Finished = false;
  /// Returned by Engine::startSession (counted in engine.sessions_open).
  bool Handed = false;
  bool LastHandled = true;
  /// Last segment's stop condition, for the outcome of a job that finishes
  /// without reaching a terminal status.
  MachineStatus LastStatus = MachineStatus::Idle;
  ResumeOutcome LastOutcome;
};

} // namespace cmm::engine

#endif // CMM_ENGINE_SESSION_H
