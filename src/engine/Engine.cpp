//===- engine/Engine.cpp --------------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "engine/Cache.h"
#include "obs/Json.h"
#include "sched/Scheduler.h"
#include "sem/Machine.h"
#include "vm/Threaded.h"
#include "vm/Vm.h"

#include <chrono>

using namespace cmm;
using namespace cmm::engine;
using cmm::detail::millisSince;

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
  switch (B) {
  case Backend::Vm:
    return std::make_unique<VmMachine>(Prog);
  case Backend::Threaded:
    return std::make_unique<ThreadedMachine>(Prog);
  case Backend::Walk:
    break;
  }
  return std::make_unique<Machine>(Prog);
}

//===----------------------------------------------------------------------===//
// Engine
//===----------------------------------------------------------------------===//

namespace {
/// A Chrome metadata event: \p What ("process_name" / "thread_name") of
/// process \p Pid, or of its thread \p Tid when given.
std::string chromeName(std::string_view What, uint64_t Pid,
                       std::optional<uint64_t> Tid, std::string_view Name) {
  JsonWriter W;
  W.beginObject();
  W.field("name", What);
  W.field("ph", "M");
  W.field("pid", Pid);
  if (Tid)
    W.field("tid", *Tid);
  W.key("args");
  W.beginObject();
  W.field("name", Name);
  W.endObject();
  W.endObject();
  return W.take();
}
} // namespace

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
    EngTrace->emitRaw(chromeName("process_name", 0, {}, "cmmex engine"));
    EngTrace->emitRaw(chromeName("thread_name", 0, 0, "caller"));
    for (unsigned I = 0; I < Pool.threadCount(); ++I)
      EngTrace->emitRaw(chromeName("thread_name", 0, I + 1,
                                   "worker-" + std::to_string(I)));
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
  std::lock_guard<std::mutex> Lock(TraceMu);
  EngTrace->emitRaw(W.take());
}

std::shared_ptr<const ProgramArtifact>
Engine::compile(const CompileRequest &Req, bool *WasHit) {
  if (Cache)
    return Cache->getOrCompile(Req, WasHit);
  if (WasHit)
    *WasHit = false;
  return compileArtifact(Req);
}

CacheStats Engine::cacheStats() const {
  return Cache ? Cache->stats() : CacheStats{};
}

void Engine::JobMetrics::countOutcome(MachineStatus St,
                                      const ResumeOutcome &Out) {
  switch (St) {
  case MachineStatus::Halted:
    Halted.add(1);
    break;
  case MachineStatus::Wrong:
    Wrong.add(1);
    break;
  case MachineStatus::Running:
    // Deadlocked schedules land in fuel_exhausted too (sched.deadlocks
    // disambiguates).
    (Out.TimedOut      ? Timeouts
     : Out.MemExceeded ? MemExceeded
                       : FuelExhausted)
        .add(1);
    break;
  default:
    Suspended.add(1);
    break;
  }
}

void Engine::runScheduled(const Job &J,
                          const std::shared_ptr<const ProgramArtifact> &Art,
                          JobResult &R) {
  sched::SchedOptions SO;
  SO.SliceFuel = J.Sched.SliceFuel;
  SO.Drivers = J.Sched.Drivers;
  SO.MaxThreads = J.Sched.MaxThreads;
  SO.MaxStepsPerThread = J.MaxSteps;
  SO.Exn = J.Dispatcher;
  // The factory co-owns the artifact so a schedule's executors stay valid
  // even if the caller drops its reference mid-run.
  Backend B = J.B;
  sched::Scheduler S(
      [Art, B] { return Art->newExecutor(B); }, SO,
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
  JM.countOutcome(R.Status, ResumeOutcome{});
}

void Engine::spliceMachineEvents(uint64_t JobId, const std::string &Lines) {
  std::lock_guard<std::mutex> Lock(TraceMu);
  EngTrace->emitRaw(chromeName("process_name", JobId, {},
                               "job " + std::to_string(JobId) + " machine"));
  size_t Pos = 0;
  while (Pos < Lines.size()) {
    size_t Nl = Lines.find('\n', Pos);
    if (Nl == std::string::npos)
      Nl = Lines.size();
    if (Nl > Pos)
      EngTrace->emitRaw(Lines.substr(Pos, Nl - Pos));
    Pos = Nl + 1;
  }
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
