//===- engine/Session.cpp -------------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "engine/Session.h"

#include "sem/Continuation.h"

using namespace cmm;
using namespace cmm::engine;
using cmm::detail::millisSince;
using cmm::detail::runBudgeted;

//===----------------------------------------------------------------------===//
// Engine::startSession
//===----------------------------------------------------------------------===//

std::unique_ptr<JobSession> Engine::startSession(const Job &J, JobResult &R) {
  uint64_t Id = NextId.fetch_add(1, std::memory_order_relaxed);
  R = JobResult{};
  R.Id = Id;
  unsigned Tid = unsigned(ThreadPool::currentWorker() + 1);
  JM.Jobs.add(1);
  (J.B == Backend::Walk   ? JM.BackendWalk
   : J.B == Backend::Vm   ? JM.BackendVm
                          : JM.BackendThreaded)
      .add(1);
  uint64_t JobT0 = nowMicros();

  std::shared_ptr<const ProgramArtifact> Art;
  const IrProgram *Prog = resolveProgram(J, Id, Tid, JobT0, R, Art);
  if (!Prog) {
    JM.JobMicros.record(nowMicros() - JobT0);
    return nullptr;
  }

  std::unique_ptr<Executor> Exec =
      Art ? Art->newExecutor(J.B) : makeExecutor(J.B, *Prog);
  std::unique_ptr<JobSession> S(new JobSession(
      *this, Id, J.B, std::move(Art), J.Program, std::move(Exec), JobT0));
  JM.Sessions.add(1);
  JM.SessionsOpen.add(1);
  R = S->startSegment(J);
  if (S->done())
    S.reset(); // outcome already counted by finishSegment
  return S;
}

//===----------------------------------------------------------------------===//
// JobSession
//===----------------------------------------------------------------------===//

JobSession::JobSession(Engine &Eng, uint64_t Id, Backend B,
                       std::shared_ptr<const ProgramArtifact> Art,
                       std::shared_ptr<const IrProgram> Prog,
                       std::unique_ptr<Executor> Exec, uint64_t StartMicros)
    : Eng(Eng), Id(Id), B(B), Art(std::move(Art)), Prog(std::move(Prog)),
      Exec(std::move(Exec)), StartMicros(StartMicros) {}

JobSession::~JobSession() {
  // Abandoned mid-flight (client went away, TTL eviction, shutdown): the
  // job still finishes in exactly one outcome bucket.
  countOutcome(LastStatus == MachineStatus::Idle ? MachineStatus::Suspended
                                                 : LastStatus,
               LastOutcome);
  Eng.JM.SessionsOpen.sub(1);
}

void JobSession::countOutcome(MachineStatus St, const ResumeOutcome &Out) {
  if (Counted)
    return;
  Counted = true;
  switch (St) {
  case MachineStatus::Halted:
    Eng.JM.Halted.add(1);
    break;
  case MachineStatus::Wrong:
    Eng.JM.Wrong.add(1);
    break;
  case MachineStatus::Running:
    (Out.TimedOut      ? Eng.JM.Timeouts
     : Out.MemExceeded ? Eng.JM.MemExceeded
                       : Eng.JM.FuelExhausted)
        .add(1);
    break;
  default:
    Eng.JM.Suspended.add(1);
    break;
  }
  Eng.JM.ResumeCycles.add(Cycles);
  Eng.JM.ResumeCyclesPerJob.record(Cycles);
  Eng.JM.JobMicros.record(Eng.nowMicros() - StartMicros);
}

JobResult JobSession::finishSegment(MachineStatus St, const ResumeOutcome &Out,
                                    double RunMillis) {
  LastStatus = St;
  LastOutcome = Out;
  JobResult R;
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
  if (Unw) {
    R.RtWalk = Unw->walkStats();
    R.RtDispatches += Unw->dispatches();
  }
  if (Cut)
    R.RtDispatches += Cut->dispatches();
  if (St == MachineStatus::Halted || St == MachineStatus::Wrong) {
    Done = true;
    countOutcome(St, Out);
  }
  uint64_t RunUs = uint64_t(RunMillis * 1000.0);
  Eng.JM.RunMicros.record(RunUs);
  return R;
}

JobResult JobSession::startSegment(const Job &J) {
  auto R0 = std::chrono::steady_clock::now();
  Eng.JM.Running.add(1);
  Exec->start(J.Entry, J.Args);
  ResumeBudget Budget{J.MaxSteps, J.DeadlineMillis, J.MaxMemoryBytes};
  ResumeOutcome Out;
  MachineStatus St;
  switch (J.Dispatcher) {
  case DispatcherKind::Unwind:
    Unw = std::make_unique<UnwindingDispatcher>(*Exec);
    St = runBudgeted(
        *Exec,
        [&](Executor &) { return Unw->dispatch() == DispatchResult::Handled; },
        Budget, Engine::DeadlineSliceSteps, Out, Cycles);
    break;
  case DispatcherKind::Cut:
    Cut = std::make_unique<CuttingDispatcher>(*Exec);
    St = runBudgeted(
        *Exec,
        [&](Executor &) { return Cut->dispatch() == DispatchResult::Handled; },
        Budget, Engine::DeadlineSliceSteps, Out, Cycles);
    break;
  case DispatcherKind::None:
  default:
    St = runBudgeted(*Exec, [](Executor &) { return false; }, Budget,
                     Engine::DeadlineSliceSteps, Out, Cycles);
    break;
  }
  Eng.JM.Running.sub(1);
  return finishSegment(St, Out, millisSince(R0));
}

JobResult JobSession::runSegment(const ResumeBudget &Budget) {
  auto R0 = std::chrono::steady_clock::now();
  Eng.JM.Running.add(1);
  ResumeOutcome Out;
  MachineStatus St =
      runBudgeted(*Exec, [](Executor &) { return false; }, Budget,
                  Engine::DeadlineSliceSteps, Out, Cycles);
  Eng.JM.Running.sub(1);
  return finishSegment(St, Out, millisSince(R0));
}

JobResult JobSession::resumeRaw(const ResumeChoice &Choice,
                                std::vector<Value> Params,
                                const ResumeBudget &Budget) {
  // One first-class Continuation per wire resume (sem/Continuation.h): the
  // capture refuses anything but a Suspended executor, the resume consumes
  // the handle, and the budgeted run is the handle's own.
  Continuation C = Continuation::capture(*Exec);
  if (Done || C.state() != Continuation::State::Suspended)
    return finishSegment(Exec->status(), LastOutcome, 0);
  Eng.JM.SessionResumes.add(1);
  C.setBudget(Budget);
  auto R0 = std::chrono::steady_clock::now();
  Eng.JM.Running.add(1);
  Continuation::Result Res = C.resume(Choice, std::move(Params));
  Eng.JM.Running.sub(1);
  if (Res.Transferred)
    // A refused transfer (rule violation, executor Wrong before any
    // transition) is not a serviced yield; everything else is one cycle.
    ++Cycles;
  return finishSegment(Res.Status, Res.Outcome, millisSince(R0));
}

JobResult JobSession::unwindTop(size_t Count, const ResumeBudget &) {
  Continuation C = Continuation::capture(*Exec);
  if (Done || C.state() != Continuation::State::Suspended)
    return finishSegment(Exec->status(), LastOutcome, 0);
  Eng.JM.SessionResumes.add(1);
  C.unwindTop(Count);
  // Still suspended on success; Wrong on an un-abortable call site.
  return finishSegment(Exec->status(), ResumeOutcome{}, 0);
}

JobResult JobSession::dispatchOnce(DispatcherKind K,
                                    const ResumeBudget &Budget) {
  if (Done || Exec->status() != MachineStatus::Suspended ||
      K == DispatcherKind::None)
    return finishSegment(Exec->status(), LastOutcome, 0);
  Eng.JM.SessionResumes.add(1);
  DispatchResult D;
  if (K == DispatcherKind::Unwind) {
    if (!Unw)
      Unw = std::make_unique<UnwindingDispatcher>(*Exec);
    D = Unw->dispatch();
  } else {
    if (!Cut)
      Cut = std::make_unique<CuttingDispatcher>(*Exec);
    D = Cut->dispatch();
  }
  LastHandled = D == DispatchResult::Handled;
  if (!LastHandled || Exec->status() == MachineStatus::Suspended)
    // Unhandled (or the dispatcher went wrong): report where we stand.
    return finishSegment(Exec->status(), ResumeOutcome{}, 0);
  ++Cycles;
  return runSegment(Budget);
}

JobResult JobSession::continueRun(const ResumeBudget &Budget) {
  // A fuel/deadline/memory stop captures as a Paused continuation; resuming
  // it is "just more budget".
  Continuation C = Continuation::capture(*Exec);
  if (Done || C.state() != Continuation::State::Paused)
    return finishSegment(Exec->status(), LastOutcome, 0);
  C.setBudget(Budget);
  auto R0 = std::chrono::steady_clock::now();
  Eng.JM.Running.add(1);
  Continuation::Result Res = C.resume();
  Eng.JM.Running.sub(1);
  return finishSegment(Res.Status, Res.Outcome, millisSince(R0));
}
