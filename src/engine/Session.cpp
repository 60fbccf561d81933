//===- engine/Session.cpp -------------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "engine/Session.h"

#include "obs/Json.h"
#include "obs/Profiler.h"
#include "sem/Continuation.h"

#include <functional>
#include <optional>
#include <sstream>

using namespace cmm;
using namespace cmm::engine;
using cmm::detail::millisSince;
using cmm::detail::runBudgeted;

//===----------------------------------------------------------------------===//
// The job path: Engine::openJob / runJob / startSession
//===----------------------------------------------------------------------===//

std::unique_ptr<JobSession> Engine::openJob(const Job &J, uint64_t Id,
                                            JobResult &R) {
  R = JobResult{};
  R.Id = Id;
  unsigned Tid = unsigned(ThreadPool::currentWorker() + 1); // 0 = off-pool
  JM.Jobs.add(1);
  (J.B == Backend::Walk   ? JM.BackendWalk
   : J.B == Backend::Vm   ? JM.BackendVm
                          : JM.BackendThreaded)
      .add(1);
  JM.Running.add(1);
  uint64_t JobT0 = nowMicros();

  // Resolve the program: a pre-interned artifact, or a request compiled
  // through the cache.
  std::shared_ptr<const ProgramArtifact> Art = J.Artifact;
  if (Art) {
    R.CacheHit = true; // the caller interned it; no compile ran here
  } else {
    auto C0 = std::chrono::steady_clock::now();
    Art = compile(J.Request, &R.CacheHit);
    R.CompileMillis = millisSince(C0);
    // Per-job artifact-resolution latency: near-zero on a hit, a real
    // compile on a miss, the owner's compile time on a single-flight
    // join. cache.compile_micros holds actual compiles only.
    uint64_t CompileUs = uint64_t(R.CompileMillis * 1000.0);
    JM.CompileMicros.record(CompileUs);
    emitEngineSpan("compile", Id, Tid, JobT0, CompileUs);
  }
  if (!Art->ok()) {
    R.CompileError = Art->error();
    JM.CompileErrors.add(1);
    JM.Running.sub(1);
    JM.JobMicros.record(nowMicros() - JobT0);
    return nullptr;
  }

  if (J.Sched.Enabled) {
    runScheduled(J, Art, R);
    uint64_t RunUs = uint64_t(R.RunMillis * 1000.0);
    JM.RunMicros.record(RunUs);
    JM.JobMicros.record(nowMicros() - JobT0);
    JM.Running.sub(1);
    emitEngineSpan("run", Id, Tid, JobT0, RunUs);
    return nullptr;
  }

  std::unique_ptr<JobSession> S(
      new JobSession(*this, J, Id, std::move(Art), JobT0));
  JM.Running.sub(1); // the segment counts itself
  S->startSegment(J, R);
  return S;
}

JobResult Engine::runJob(const Job &J, uint64_t Id) {
  // Synchronous callers pass Id 0; give the job a real id anyway when the
  // merged trace is on, so its spans are distinguishable (and samplable).
  if (Id == 0 && EngTrace)
    Id = NextId.fetch_add(1, std::memory_order_relaxed);
  JobResult R;
  if (std::unique_ptr<JobSession> S = openJob(J, Id, R))
    S->finish(R); // the job ends where its first segment stopped
  return R;
}

std::unique_ptr<JobSession> Engine::startSession(const Job &J, JobResult &R) {
  std::unique_ptr<JobSession> S =
      openJob(J, NextId.fetch_add(1, std::memory_order_relaxed), R);
  if (!S || S->done())
    return nullptr; // terminal first segment: already finished
  S->Handed = true;
  JM.Sessions.add(1);
  JM.SessionsOpen.add(1);
  return S;
}

//===----------------------------------------------------------------------===//
// JobSession
//===----------------------------------------------------------------------===//

/// The per-job event streams: a trace sink on Job::TraceTo, the merged
/// trace's sample buffer, and the profiler, fanned in with the caller's
/// observer.
struct JobSession::Observers {
  std::unique_ptr<TraceSink> Trace;
  /// Sampled jobs buffer their machine events (bare Chrome lines,
  /// wall-clock timestamps, their own pid) for splicing into the merged
  /// engine trace when the job finishes.
  std::ostringstream SampleBuf;
  std::unique_ptr<TraceSink> Sample;
  std::optional<Profiler> Prof;
  MultiObserver Multi;
};

JobSession::JobSession(Engine &Eng, const Job &J, uint64_t Id,
                       std::shared_ptr<const ProgramArtifact> ArtIn,
                       uint64_t StartMicros)
    : Eng(Eng), Id(Id), Art(std::move(ArtIn)), Exec(Art->newExecutor(J.B)),
      Disp(*Exec, J.Dispatcher),
      StartMicros(StartMicros) {
  bool Sampled = Eng.sampledForTrace(Id);
  if (!J.TraceTo && !Sampled && !J.CollectProfile) {
    if (J.Obs)
      Exec->setObserver(J.Obs);
    return;
  }
  // Every event stream is tagged with the job id.
  Obs = std::make_unique<Observers>();
  if (J.TraceTo) {
    TraceOptions TO = J.Trace;
    TO.JobId = Id;
    Obs->Trace = std::make_unique<TraceSink>(*J.TraceTo, TO);
    Obs->Multi.add(Obs->Trace.get());
  }
  if (Sampled) {
    TraceOptions TO;
    TO.Fmt = TraceOptions::Format::Chrome;
    TO.WallClock = true;
    TO.Epoch = Eng.Epoch;
    TO.Pid = Id;
    TO.JobId = Id;
    TO.BareLines = true;
    Obs->Sample = std::make_unique<TraceSink>(Obs->SampleBuf, TO);
    Obs->Multi.add(Obs->Sample.get());
  }
  if (J.CollectProfile) {
    Obs->Prof.emplace();
    Obs->Prof->JobId = Id;
    Obs->Multi.add(&*Obs->Prof);
  }
  Obs->Multi.add(J.Obs);
  Exec->setObserver(Obs->Multi.size() == 1 ? Obs->Multi.front()
                                           : &Obs->Multi);
}

JobSession::~JobSession() {
  // Abandoned mid-flight (client went away, TTL eviction, shutdown): the
  // job still finishes in exactly one outcome bucket.
  JobResult Discard;
  finish(Discard);
  if (Handed)
    Eng.JM.SessionsOpen.sub(1);
}

void JobSession::finish(JobResult &R) {
  if (Finished)
    return;
  Finished = true;
  Eng.JM.countOutcome(LastStatus, LastOutcome);
  Eng.JM.ResumeCycles.add(Cycles);
  Eng.JM.ResumeCyclesPerJob.record(Cycles);
  Eng.JM.JobMicros.record(Eng.nowMicros() - StartMicros);
  if (!Obs)
    return;
  if (Obs->Trace)
    Obs->Trace->finish();
  if (Obs->Prof) {
    JsonWriter W;
    Obs->Prof->writeJson(W);
    R.ProfileJson = W.take();
  }
  if (Obs->Sample) {
    Obs->Sample->finish();
    Eng.spliceMachineEvents(Id, Obs->SampleBuf.str());
  }
}

void JobSession::finishSegment(JobResult &R, MachineStatus St,
                               const ResumeOutcome &Out, double RunMillis) {
  LastStatus = St;
  LastOutcome = Out;
  R.Id = Id;
  R.Status = St;
  R.TimedOut = Out.TimedOut;
  R.MemExceeded = Out.MemExceeded;
  R.RunMillis = RunMillis;
  R.ResumeCycles = Cycles;
  R.MachineStats = Exec->stats();
  if (St == MachineStatus::Halted || St == MachineStatus::Suspended)
    R.Results = Exec->argArea();
  if (St == MachineStatus::Wrong) {
    R.WrongReason = Exec->wrongReason();
    R.WrongLoc = Exec->wrongLoc();
  }
  R.RtWalk = Disp.walkStats();
  R.RtDispatches = Disp.dispatches();
  if (St == MachineStatus::Halted || St == MachineStatus::Wrong)
    Done = true;
}

template <typename RunFn> void JobSession::runTimed(JobResult &R, RunFn Run) {
  unsigned Tid = unsigned(ThreadPool::currentWorker() + 1);
  auto R0 = std::chrono::steady_clock::now();
  uint64_t RunT0 = Eng.nowMicros();
  Eng.JM.Running.add(1);
  ResumeOutcome Out;
  MachineStatus St = Run(Out);
  Eng.JM.Running.sub(1);
  finishSegment(R, St, Out, millisSince(R0));
  uint64_t RunUs = uint64_t(R.RunMillis * 1000.0);
  Eng.JM.RunMicros.record(RunUs);
  Eng.emitEngineSpan("run", Id, Tid, RunT0, RunUs);
  if (Done)
    finish(R);
}

JobResult JobSession::current(MachineStatus St, const ResumeOutcome &Out) {
  JobResult R;
  finishSegment(R, St, Out, 0);
  Eng.JM.RunMicros.record(0);
  if (Done)
    finish(R);
  return R;
}

void JobSession::startSegment(const Job &J, JobResult &R) {
  runTimed(R, [&](ResumeOutcome &Out) {
    Exec->start(J.Entry, J.Args);
    ResumeBudget Budget{J.MaxSteps, J.DeadlineMillis, J.MaxMemoryBytes};
    return runBudgeted(*Exec, std::ref(Disp), Budget, Out, Cycles);
  });
}

JobResult JobSession::resumeRaw(const ResumeChoice &Choice,
                                std::vector<Value> Params,
                                const ResumeBudget &Budget) {
  // One first-class Continuation per wire resume (sem/Continuation.h): the
  // capture refuses anything but a Suspended executor, the resume consumes
  // the handle, and the budgeted run is the handle's own.
  Continuation C = Continuation::capture(*Exec);
  if (Done || C.state() != Continuation::State::Suspended)
    return current(Exec->status(), LastOutcome);
  Eng.JM.SessionResumes.add(1);
  C.setBudget(Budget);
  JobResult R;
  runTimed(R, [&](ResumeOutcome &Out) {
    Continuation::Result Res = C.resume(Choice, std::move(Params));
    if (Res.Transferred)
      // A refused transfer (rule violation, executor Wrong before any
      // transition) is not a serviced yield; everything else is one cycle.
      ++Cycles;
    Out = Res.Outcome;
    return Res.Status;
  });
  return R;
}

JobResult JobSession::unwindTop(size_t Count, const ResumeBudget &) {
  Continuation C = Continuation::capture(*Exec);
  if (Done || C.state() != Continuation::State::Suspended)
    return current(Exec->status(), LastOutcome);
  Eng.JM.SessionResumes.add(1);
  C.unwindTop(Count);
  // Still suspended on success; Wrong on an un-abortable call site.
  return current(Exec->status(), ResumeOutcome{});
}

JobResult JobSession::dispatchOnce(DispatcherKind K,
                                   const ResumeBudget &Budget) {
  if (Done || Exec->status() != MachineStatus::Suspended ||
      K == DispatcherKind::None)
    return current(Exec->status(), LastOutcome);
  Eng.JM.SessionResumes.add(1);
  LastHandled = Disp.dispatch(K) == DispatchResult::Handled;
  if (!LastHandled || Exec->status() == MachineStatus::Suspended)
    // Unhandled (or the dispatcher went wrong): report where we stand.
    return current(Exec->status(), ResumeOutcome{});
  ++Cycles;
  return continueRun(Budget);
}

JobResult JobSession::continueRun(const ResumeBudget &Budget) {
  // A fuel/deadline/memory stop (or a yield a dispatcher just resumed)
  // captures as a Paused continuation; resuming it is "just more budget".
  Continuation C = Continuation::capture(*Exec);
  if (Done || C.state() != Continuation::State::Paused)
    return current(Exec->status(), LastOutcome);
  C.setBudget(Budget);
  JobResult R;
  runTimed(R, [&](ResumeOutcome &Out) {
    Continuation::Result Res = C.resume();
    Out = Res.Outcome;
    return Res.Status;
  });
  return R;
}
