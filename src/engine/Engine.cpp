//===- engine/Engine.cpp --------------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "engine/Cache.h"
#include "engine/Session.h"
#include "obs/Json.h"
#include "obs/Profiler.h"
#include "rts/Dispatchers.h"
#include "rts/RuntimeInterface.h"
#include "sched/Scheduler.h"
#include "sem/Continuation.h"
#include "sem/Machine.h"
#include "vm/Threaded.h"
#include "vm/Vm.h"

#include <chrono>
#include <sstream>

using namespace cmm;
using namespace cmm::engine;

//===----------------------------------------------------------------------===//
// Backends
//===----------------------------------------------------------------------===//

std::string_view cmm::engine::backendName(Backend B) {
  switch (B) {
  case Backend::Vm:
    return "vm";
  case Backend::Threaded:
    return "threaded";
  case Backend::Walk:
    break;
  }
  return "walk";
}

std::optional<Backend> cmm::engine::parseBackend(std::string_view Name) {
  if (Name == "walk")
    return Backend::Walk;
  if (Name == "vm")
    return Backend::Vm;
  if (Name == "threaded")
    return Backend::Threaded;
  return std::nullopt;
}

std::unique_ptr<Executor> cmm::engine::makeExecutor(Backend B,
                                                    const IrProgram &Prog) {
  return makeExecutor(B, Prog, nullptr);
}

std::unique_ptr<Executor>
cmm::engine::makeExecutor(Backend B, const IrProgram &Prog,
                          std::shared_ptr<const CompiledProgram> Bytecode,
                          std::shared_ptr<const ThreadedProgram> Threaded) {
  switch (B) {
  case Backend::Walk:
    return std::make_unique<Machine>(Prog);
  case Backend::Vm:
    if (Bytecode)
      return std::make_unique<VmMachine>(Prog, std::move(Bytecode));
    return std::make_unique<VmMachine>(Prog);
  case Backend::Threaded:
    if (Threaded)
      return std::make_unique<ThreadedMachine>(Prog, std::move(Threaded));
    if (Bytecode)
      return std::make_unique<ThreadedMachine>(Prog,
                                               fuseProgram(std::move(Bytecode)));
    return std::make_unique<ThreadedMachine>(Prog);
  }
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Engine
//===----------------------------------------------------------------------===//

Engine::Engine(EngineOptions OptsIn)
    : Opts(OptsIn), JM(Registry),
      Cache(Opts.EnableCache
                ? std::make_unique<ModuleCache>(Opts.CacheCapacity, &Registry,
                                                Opts.CacheDir)
                : nullptr),
      Epoch(std::chrono::steady_clock::now()), Pool(Opts.Threads, &Registry) {
  if (Opts.TraceTo) {
    // The merged trace: one Chrome document on one wall-clock timeline.
    // Job lifecycle spans live in pid 0 (one tid per pool worker); sampled
    // jobs splice their machine events in under their own pid.
    TraceOptions TO;
    TO.Fmt = TraceOptions::Format::Chrome;
    TO.WallClock = true;
    TO.Epoch = Epoch;
    TO.Pid = 0;
    EngTrace = std::make_unique<TraceSink>(*Opts.TraceTo, TO);
    // Name the tracks up front (Chrome metadata events).
    auto Meta = [&](uint64_t Tid, std::string_view Name) {
      JsonWriter W;
      W.beginObject();
      W.field("name", "thread_name");
      W.field("ph", "M");
      W.field("pid", uint64_t(0));
      W.field("tid", Tid);
      W.key("args");
      W.beginObject();
      W.field("name", Name);
      W.endObject();
      W.endObject();
      EngTrace->emitRaw(W.take());
    };
    {
      JsonWriter W;
      W.beginObject();
      W.field("name", "process_name");
      W.field("ph", "M");
      W.field("pid", uint64_t(0));
      W.key("args");
      W.beginObject();
      W.field("name", "cmmex engine");
      W.endObject();
      W.endObject();
      EngTrace->emitRaw(W.take());
    }
    Meta(0, "caller");
    for (unsigned I = 0; I < Pool.threadCount(); ++I)
      Meta(I + 1, "worker-" + std::to_string(I));
  }
  if (Opts.SnapshotTo)
    Exporter = std::make_unique<MetricsExporter>(Registry, *Opts.SnapshotTo,
                                                 Opts.SnapshotIntervalMillis);
}

// Destruction order (reverse declaration): the pool joins first, so no job
// is in flight when the exporter writes its final snapshot and the merged
// trace closes its JSON document; the registry goes last.
Engine::~Engine() = default;

uint64_t Engine::nowMicros() const {
  return uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - Epoch)
                      .count());
}

bool Engine::sampledForTrace(uint64_t Id) const {
  return EngTrace && Opts.TraceMachineSample != 0 && Id != 0 &&
         Id % Opts.TraceMachineSample == 0;
}

void Engine::emitEngineEvent(std::string Line) {
  if (!EngTrace)
    return;
  std::lock_guard<std::mutex> Lock(TraceMu);
  EngTrace->emitRaw(std::move(Line));
}

void Engine::emitEngineSpan(std::string_view Name, uint64_t JobId,
                            unsigned Tid, uint64_t TsMicros,
                            uint64_t DurMicros) {
  if (!EngTrace)
    return;
  JsonWriter W;
  W.beginObject();
  W.field("name", Name);
  W.field("cat", "engine");
  W.field("ph", "X");
  W.field("ts", TsMicros);
  W.field("dur", DurMicros);
  W.field("pid", uint64_t(0));
  W.field("tid", uint64_t(Tid));
  W.key("args");
  W.beginObject();
  W.field("job", JobId);
  W.endObject();
  W.endObject();
  emitEngineEvent(W.take());
}

std::shared_ptr<const ProgramArtifact>
Engine::compile(const CompileRequest &Req) {
  if (Cache)
    return Cache->getOrCompile(Req);
  return compileArtifact(Req);
}

CacheStats Engine::cacheStats() const {
  return Cache ? Cache->stats() : CacheStats{};
}

using cmm::detail::millisSince;

const IrProgram *
Engine::resolveProgram(const Job &J, uint64_t Id, unsigned Tid,
                       uint64_t JobT0, JobResult &R,
                       std::shared_ptr<const ProgramArtifact> &Art) {
  if (J.Program)
    return J.Program.get();
  auto C0 = std::chrono::steady_clock::now();
  Art = J.Artifact;
  if (Art) {
    R.CacheHit = true; // the caller interned it; no compile ran here
  } else {
    if (Cache)
      Art = Cache->getOrCompile(J.Request, &R.CacheHit);
    else
      Art = compileArtifact(J.Request);
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
    return nullptr;
  }
  return Art->program();
}

JobResult Engine::runScheduled(const Job &J,
                               const std::shared_ptr<const ProgramArtifact> &Art,
                               JobResult R) {
  sched::SchedOptions SO;
  SO.SliceFuel = J.Sched.SliceFuel;
  SO.Drivers = J.Sched.Drivers;
  SO.MaxThreads = J.Sched.MaxThreads;
  SO.MaxStepsPerThread = J.MaxSteps;
  SO.Exn = J.Dispatcher == DispatcherKind::Unwind ? sched::ExnDispatch::Unwind
           : J.Dispatcher == DispatcherKind::Cut  ? sched::ExnDispatch::Cut
                                                  : sched::ExnDispatch::None;
  // The factory co-owns the program so a schedule's executors stay valid
  // even if the caller drops its reference mid-run.
  Backend B = J.B;
  sched::Scheduler::ExecutorFactory F;
  if (Art)
    F = [Art, B] { return Art->newExecutor(B); };
  else {
    std::shared_ptr<const IrProgram> Prog = J.Program;
    F = [Prog, B] { return makeExecutor(B, *Prog); };
  }
  sched::Scheduler S(
      std::move(F), SO,
      [this](std::function<void()> T) { Pool.submit(std::move(T)); },
      &Registry);

  auto R0 = std::chrono::steady_clock::now();
  sched::SchedResult SR = S.run(J.Entry, J.Args);
  R.RunMillis = millisSince(R0);
  R.Status = SR.Status;
  R.Results = SR.Results;
  R.WrongReason = SR.WrongReason;
  R.WrongLoc = SR.WrongLoc;
  R.Deadlocked = SR.Deadlocked;
  R.MachineStats = SR.MachineStats;
  R.SchedThreads = SR.ThreadsSpawned;
  R.SchedSwitches = SR.ContextSwitches;
  switch (R.Status) {
  case MachineStatus::Halted:
    JM.Halted.add(1);
    break;
  case MachineStatus::Wrong:
    JM.Wrong.add(1);
    break;
  case MachineStatus::Suspended:
    JM.Suspended.add(1);
    break;
  case MachineStatus::Running:
    // Deadlocks land here too (sched.deadlocks disambiguates).
    JM.FuelExhausted.add(1);
    break;
  default:
    break;
  }
  return R;
}

JobResult Engine::runJob(const Job &J, uint64_t Id) {
  // Synchronous callers pass Id 0; give the job a real id anyway when the
  // merged trace is on, so its spans are distinguishable (and samplable).
  if (Id == 0 && EngTrace)
    Id = NextId.fetch_add(1, std::memory_order_relaxed);
  JobResult R;
  R.Id = Id;
  unsigned Tid = unsigned(ThreadPool::currentWorker() + 1); // 0 = off-pool
  JM.Jobs.add(1);
  (J.B == Backend::Walk   ? JM.BackendWalk
   : J.B == Backend::Vm   ? JM.BackendVm
                          : JM.BackendThreaded)
      .add(1);
  JM.Running.add(1);
  uint64_t JobT0 = nowMicros();

  // Resolve the program: caller-compiled IR, pre-interned artifact, or a
  // request compiled through the cache.
  std::shared_ptr<const ProgramArtifact> Art;
  const IrProgram *Prog = resolveProgram(J, Id, Tid, JobT0, R, Art);
  if (!Prog) {
    JM.Running.sub(1);
    JM.JobMicros.record(nowMicros() - JobT0);
    return R;
  }

  if (J.Sched.Enabled) {
    JobResult SR = runScheduled(J, Art, R);
    JM.RunMicros.record(uint64_t(SR.RunMillis * 1000.0));
    JM.JobMicros.record(nowMicros() - JobT0);
    JM.Running.sub(1);
    if (EngTrace)
      emitEngineSpan("run", Id, Tid, JobT0, uint64_t(SR.RunMillis * 1000.0));
    return SR;
  }

  std::unique_ptr<Executor> Exec =
      Art ? Art->newExecutor(J.B) : makeExecutor(J.B, *Prog);
  Executor &M = *Exec;

  // Per-job observability: every event stream is tagged with the job id.
  std::unique_ptr<TraceSink> Trace;
  if (J.TraceTo) {
    TraceOptions TO = J.Trace;
    TO.JobId = Id;
    Trace = std::make_unique<TraceSink>(*J.TraceTo, TO);
  }
  // Sampled jobs additionally buffer their machine events (bare Chrome
  // lines, wall-clock timestamps, their own pid) for splicing into the
  // merged engine trace when the job completes.
  std::ostringstream SampleBuf;
  std::unique_ptr<TraceSink> Sample;
  if (sampledForTrace(Id)) {
    TraceOptions TO;
    TO.Fmt = TraceOptions::Format::Chrome;
    TO.WallClock = true;
    TO.Epoch = Epoch;
    TO.Pid = Id;
    TO.JobId = Id;
    TO.BareLines = true;
    Sample = std::make_unique<TraceSink>(SampleBuf, TO);
  }
  Profiler Prof;
  Prof.JobId = Id;
  MultiObserver Multi;
  if (Trace)
    Multi.add(Trace.get());
  if (Sample)
    Multi.add(Sample.get());
  if (J.CollectProfile)
    Multi.add(&Prof);
  Multi.add(J.Obs);
  if (Multi.size() == 1)
    M.setObserver(Multi.front());
  else if (!Multi.empty())
    M.setObserver(&Multi);

  auto R0 = std::chrono::steady_clock::now();
  uint64_t RunT0 = nowMicros();
  M.start(J.Entry, J.Args);

  ResumeBudget Budget{J.MaxSteps, J.DeadlineMillis, J.MaxMemoryBytes};
  ResumeOutcome Out;
  MachineStatus St;
  switch (J.Dispatcher) {
  case DispatcherKind::Unwind: {
    UnwindingDispatcher D(M);
    St = detail::runBudgeted(
        M, [&](Executor &) { return D.dispatch() == DispatchResult::Handled; },
        Budget, DeadlineSliceSteps, Out, R.ResumeCycles);
    R.RtWalk = D.walkStats();
    R.RtDispatches = D.dispatches();
    break;
  }
  case DispatcherKind::Cut: {
    CuttingDispatcher D(M);
    St = detail::runBudgeted(
        M, [&](Executor &) { return D.dispatch() == DispatchResult::Handled; },
        Budget, DeadlineSliceSteps, Out, R.ResumeCycles);
    R.RtDispatches = D.dispatches();
    break;
  }
  case DispatcherKind::None:
  default:
    St = detail::runBudgeted(M, [](Executor &) { return false; }, Budget,
                             DeadlineSliceSteps, Out, R.ResumeCycles);
    break;
  }
  R.TimedOut = Out.TimedOut;
  R.MemExceeded = Out.MemExceeded;
  R.RunMillis = millisSince(R0);

  R.Status = St;
  R.MachineStats = M.stats();
  if (St == MachineStatus::Halted || St == MachineStatus::Suspended)
    R.Results = M.argArea();
  if (St == MachineStatus::Wrong) {
    R.WrongReason = M.wrongReason();
    R.WrongLoc = M.wrongLoc();
  }
  if (Trace)
    Trace->finish();
  if (J.CollectProfile) {
    JsonWriter W;
    Prof.writeJson(W);
    R.ProfileJson = W.take();
  }

  // Lifecycle accounting.
  switch (St) {
  case MachineStatus::Halted:
    JM.Halted.add(1);
    break;
  case MachineStatus::Wrong:
    JM.Wrong.add(1);
    break;
  case MachineStatus::Suspended:
    JM.Suspended.add(1);
    break;
  case MachineStatus::Running:
    (R.TimedOut      ? JM.Timeouts
     : R.MemExceeded ? JM.MemExceeded
                     : JM.FuelExhausted)
        .add(1);
    break;
  default:
    break;
  }
  JM.ResumeCycles.add(R.ResumeCycles);
  JM.ResumeCyclesPerJob.record(R.ResumeCycles);
  uint64_t RunUs = uint64_t(R.RunMillis * 1000.0);
  JM.RunMicros.record(RunUs);
  JM.JobMicros.record(nowMicros() - JobT0);
  JM.Running.sub(1);

  // Merged trace: the run span, then the buffered machine events (under
  // one lock so a job's events stay contiguous in the file).
  if (EngTrace) {
    emitEngineSpan("run", Id, Tid, RunT0, RunUs);
    if (Sample) {
      Sample->finish();
      std::lock_guard<std::mutex> Lock(TraceMu);
      {
        JsonWriter W;
        W.beginObject();
        W.field("name", "process_name");
        W.field("ph", "M");
        W.field("pid", Id);
        W.key("args");
        W.beginObject();
        W.field("name", "job " + std::to_string(Id) + " machine");
        W.endObject();
        W.endObject();
        EngTrace->emitRaw(W.take());
      }
      std::string Buf = SampleBuf.str();
      size_t Pos = 0;
      while (Pos < Buf.size()) {
        size_t Nl = Buf.find('\n', Pos);
        if (Nl == std::string::npos)
          Nl = Buf.size();
        if (Nl > Pos)
          EngTrace->emitRaw(Buf.substr(Pos, Nl - Pos));
        Pos = Nl + 1;
      }
    }
  }
  return R;
}

uint64_t Engine::submit(Job J) {
  uint64_t Id = NextId.fetch_add(1, std::memory_order_relaxed);
  auto Shared = std::make_shared<Job>(std::move(J));
  JM.Queued.add(1);
  auto SubmitT = std::chrono::steady_clock::now();
  uint64_t SubmitUs = nowMicros();
  Pool.submit([this, Shared, Id, SubmitT, SubmitUs] {
    JM.Queued.sub(1);
    double QueueMs = millisSince(SubmitT);
    uint64_t QueueUs = uint64_t(QueueMs * 1000.0);
    JM.QueueMicros.record(QueueUs);
    emitEngineSpan("queue", Id,
                   unsigned(ThreadPool::currentWorker() + 1), SubmitUs,
                   QueueUs);
    JobResult R = runJob(*Shared, Id);
    R.QueueMillis = QueueMs;
    {
      std::lock_guard<std::mutex> Lock(ResMu);
      Results.emplace(Id, std::move(R));
    }
    ResCv.notify_all();
  });
  return Id;
}

JobResult Engine::wait(uint64_t Id) {
  std::unique_lock<std::mutex> Lock(ResMu);
  ResCv.wait(Lock, [&] { return Results.count(Id) != 0; });
  auto It = Results.find(Id);
  JobResult R = std::move(It->second);
  Results.erase(It);
  return R;
}

std::vector<JobResult> Engine::run(std::vector<Job> Jobs) {
  std::vector<uint64_t> Ids;
  Ids.reserve(Jobs.size());
  for (Job &J : Jobs)
    Ids.push_back(submit(std::move(J)));
  std::vector<JobResult> Out;
  Out.reserve(Ids.size());
  for (uint64_t Id : Ids)
    Out.push_back(wait(Id));
  return Out;
}
