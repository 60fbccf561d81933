//===- tests/EngineTest.cpp - The batch execution engine ------------------===//
//
// Part of cmmex (see DESIGN.md). Pins the engine subsystem's contracts:
// the work-stealing pool covers every index exactly once; the content-hash
// cache keys on sources AND optimizer configuration, single-flights
// concurrent compiles of one key, and never changes results (only
// throughput); jobs are isolated — compile errors, goes-wrong states, fuel
// exhaustion, and deadlines all travel through JobResult without
// disturbing the batch; and per-job observability tags every event stream
// with the job id.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "costmodel/DispatchWorkloads.h"
#include "engine/ArtifactStore.h"
#include "engine/Engine.h"
#include "engine/Session.h"
#include "support/MiniJson.h"

#include <atomic>
#include <fstream>
#include <sstream>

using namespace cmm;
using namespace cmm::engine;
using cmm::test::b32;

namespace {

const char *addOneSource() {
  return "export main;\n"
         "main(bits32 n) { return (n + 1); }\n";
}

const char *loopForeverSource() {
  return "export main;\n"
         "main(bits32 n) {\n"
         "loop:\n"
         "  n = n + 1;\n"
         "  goto loop;\n"
         "}\n";
}

const char *goesWrongSource() {
  // Reads an unbound local on the n != 0 path.
  return "export main;\n"
         "main(bits32 n) {\n"
         "  bits32 x, y;\n"
         "  if n == 0 { x = 1; }\n"
         "  y = x + 1;\n"
         "  return (y);\n"
         "}\n";
}

CompileRequest requestFor(const char *Src) {
  CompileRequest Req;
  Req.Sources = {Src};
  return Req;
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  constexpr uint64_t N = 10'000;
  std::vector<std::atomic<uint32_t>> Seen(N);
  Pool.parallelFor(0, N, [&](uint64_t I) {
    Seen[I].fetch_add(1, std::memory_order_relaxed);
  });
  for (uint64_t I = 0; I < N; ++I)
    ASSERT_EQ(Seen[I].load(), 1u) << "index " << I;
}

TEST(ThreadPool, ParallelForHandlesEmptyAndTinyRanges) {
  ThreadPool Pool(8);
  std::atomic<uint64_t> Count{0};
  Pool.parallelFor(5, 5, [&](uint64_t) { Count.fetch_add(1); });
  EXPECT_EQ(Count.load(), 0u);
  Pool.parallelFor(7, 8, [&](uint64_t I) {
    EXPECT_EQ(I, 7u);
    Count.fetch_add(1);
  });
  EXPECT_EQ(Count.load(), 1u);
}

TEST(ThreadPool, SubmittedTasksAllRun) {
  ThreadPool Pool(4);
  constexpr unsigned N = 500;
  std::atomic<unsigned> Ran{0};
  std::mutex Mu;
  std::condition_variable Cv;
  for (unsigned I = 0; I < N; ++I)
    Pool.submit([&] {
      if (Ran.fetch_add(1) + 1 == N) {
        std::lock_guard<std::mutex> Lock(Mu);
        Cv.notify_all();
      }
    });
  std::unique_lock<std::mutex> Lock(Mu);
  Cv.wait(Lock, [&] { return Ran.load() == N; });
  EXPECT_GE(Pool.tasksExecuted(), uint64_t(N));
}

TEST(ThreadPool, EverySubmitWakesTheSleepingWorker) {
  // One worker, one task per round, waiting for each before the next: the
  // worker drains its queue and blocks every round, so every submit lands
  // in the check-to-block window a lost wakeup would hang.
  ThreadPool Pool(1);
  std::mutex Mu;
  std::condition_variable Cv;
  unsigned Done = 0;
  for (unsigned I = 0; I < 2000; ++I) {
    Pool.submit([&] {
      std::lock_guard<std::mutex> Lock(Mu);
      ++Done;
      Cv.notify_all();
    });
    std::unique_lock<std::mutex> Lock(Mu);
    Cv.wait(Lock, [&] { return Done == I + 1; });
  }
  EXPECT_EQ(Done, 2000u);
}

//===----------------------------------------------------------------------===//
// Cache keys
//===----------------------------------------------------------------------===//

TEST(EngineCache, KeyDependsOnOptimizerConfiguration) {
  CompileRequest Plain = requestFor(addOneSource());
  CompileRequest Optimized = Plain;
  Optimized.Optimize = true;
  CompileRequest Ablated = Optimized;
  Ablated.Opt.WithExceptionalEdges = false;
  EXPECT_FALSE(cacheKeyFor(Plain) == cacheKeyFor(Optimized));
  EXPECT_FALSE(cacheKeyFor(Optimized) == cacheKeyFor(Ablated));
  EXPECT_TRUE(cacheKeyFor(Plain) == cacheKeyFor(requestFor(addOneSource())));
}

TEST(EngineCache, KeyIsLengthPrefixedAcrossSourceBoundaries) {
  CompileRequest A, B;
  A.Sources = {"ab", "c"};
  B.Sources = {"a", "bc"};
  EXPECT_FALSE(cacheKeyFor(A) == cacheKeyFor(B));
}

TEST(EngineCache, SameSourceDifferentConfigMisses) {
  Engine Eng({.Threads = 1});
  CompileRequest Plain = requestFor(addOneSource());
  CompileRequest Optimized = Plain;
  Optimized.Optimize = true;
  auto A1 = Eng.compile(Plain);
  auto A2 = Eng.compile(Optimized);
  ASSERT_TRUE(A1->ok());
  ASSERT_TRUE(A2->ok());
  EXPECT_NE(A1.get(), A2.get());
  CacheStats CS = Eng.cacheStats();
  EXPECT_EQ(CS.IrCompiles, 2u);
  EXPECT_EQ(CS.Hits, 0u);
}

TEST(EngineCache, RepeatedRequestHitsAndSharesTheArtifact) {
  Engine Eng({.Threads = 1});
  auto A1 = Eng.compile(requestFor(addOneSource()));
  auto A2 = Eng.compile(requestFor(addOneSource()));
  EXPECT_EQ(A1.get(), A2.get());
  CacheStats CS = Eng.cacheStats();
  EXPECT_EQ(CS.IrCompiles, 1u);
  EXPECT_EQ(CS.Hits, 1u);
  EXPECT_EQ(CS.Lookups, 2u);
}

TEST(EngineCache, ConcurrentSameKeyCompilesExactlyOnce) {
  Engine Eng({.Threads = 8});
  constexpr uint64_t N = 64;
  std::vector<std::shared_ptr<const ProgramArtifact>> Arts(N);
  Eng.pool().parallelFor(0, N, [&](uint64_t I) {
    Arts[I] = Eng.compile(requestFor(addOneSource()));
  });
  for (uint64_t I = 0; I < N; ++I) {
    ASSERT_TRUE(Arts[I] != nullptr);
    EXPECT_EQ(Arts[I].get(), Arts[0].get());
  }
  CacheStats CS = Eng.cacheStats();
  EXPECT_EQ(CS.IrCompiles, 1u);
  EXPECT_EQ(CS.Lookups, N);
  EXPECT_EQ(CS.Hits, N - 1);
}

TEST(EngineCache, BytecodeCompilesOncePerArtifact) {
  Engine Eng({.Threads = 4});
  std::vector<Job> Jobs;
  for (unsigned I = 0; I < 8; ++I) {
    Job J;
    J.Request = requestFor(addOneSource());
    J.B = Backend::Vm;
    J.Args = {b32(I)};
    Jobs.push_back(std::move(J));
  }
  std::vector<JobResult> Res = Eng.run(std::move(Jobs));
  for (const JobResult &R : Res)
    ASSERT_TRUE(R.ok()) << R.CompileError;
  CacheStats CS = Eng.cacheStats();
  EXPECT_EQ(CS.IrCompiles, 1u);
  EXPECT_EQ(CS.BytecodeCompiles, 1u);
}

TEST(EngineCache, EvictionRecompilesColdKeys) {
  Engine Eng({.Threads = 1, .EnableCache = true, .CacheCapacity = 1});
  CompileRequest A = requestFor(addOneSource());
  CompileRequest B = requestFor(goesWrongSource());
  Eng.compile(A);
  Eng.compile(B); // evicts A (capacity 1)
  Eng.compile(A); // must recompile
  CacheStats CS = Eng.cacheStats();
  EXPECT_EQ(CS.IrCompiles, 3u);
  EXPECT_GE(CS.Evictions, 1u);
}

TEST(EngineCache, DisabledCacheIsResultIdenticalToWarmCache) {
  auto RunAll = [](bool EnableCache) {
    EngineOptions EO;
    EO.Threads = 2;
    EO.EnableCache = EnableCache;
    Engine Eng(EO);
    std::vector<Job> Jobs;
    for (const char *Src :
         {addOneSource(), goesWrongSource(), addOneSource()}) {
      Job J;
      J.Request = requestFor(Src);
      J.Args = {b32(6)};
      Jobs.push_back(std::move(J));
    }
    return Eng.run(std::move(Jobs));
  };
  std::vector<JobResult> Cold = RunAll(false);
  std::vector<JobResult> Warm = RunAll(true);
  ASSERT_EQ(Cold.size(), Warm.size());
  for (size_t I = 0; I < Cold.size(); ++I) {
    EXPECT_EQ(Cold[I].Status, Warm[I].Status);
    EXPECT_TRUE(Cold[I].Results == Warm[I].Results);
    EXPECT_EQ(Cold[I].WrongReason, Warm[I].WrongReason);
    EXPECT_EQ(Cold[I].MachineStats.Steps, Warm[I].MachineStats.Steps);
  }
}

TEST(EngineCache, CacheHitFlagTravelsThroughTheResult) {
  Engine Eng({.Threads = 1});
  Job J;
  J.Request = requestFor(addOneSource());
  J.Args = {b32(1)};
  JobResult First = Eng.wait(Eng.submit(J));
  JobResult Second = Eng.wait(Eng.submit(J));
  EXPECT_FALSE(First.CacheHit);
  EXPECT_TRUE(Second.CacheHit);
  EXPECT_TRUE(First.Results == Second.Results);
}

//===----------------------------------------------------------------------===//
// Jobs
//===----------------------------------------------------------------------===//

TEST(EngineJobs, SubmitWaitRoundTrip) {
  Engine Eng({.Threads = 2});
  Job J;
  J.Request = requestFor(addOneSource());
  J.Args = {b32(41)};
  JobResult R = Eng.wait(Eng.submit(std::move(J)));
  ASSERT_TRUE(R.ok()) << R.CompileError;
  ASSERT_EQ(R.Results.size(), 1u);
  EXPECT_EQ(R.Results[0], b32(42));
  EXPECT_GT(R.MachineStats.Steps, 0u);
}

TEST(EngineJobs, AllBackendsAgreeThroughTheEngine) {
  Engine Eng({.Threads = 2});
  std::vector<JobResult> Res;
  for (Backend B : AllBackends) {
    Job J;
    J.Request = requestFor(addOneSource());
    J.B = B;
    J.Args = {b32(9)};
    Res.push_back(Eng.wait(Eng.submit(std::move(J))));
  }
  ASSERT_EQ(Res.size(), std::size(AllBackends));
  for (size_t I = 1; I < Res.size(); ++I) {
    EXPECT_TRUE(Res[0].Results == Res[I].Results);
    EXPECT_EQ(Res[0].MachineStats.Steps, Res[I].MachineStats.Steps);
  }
}

TEST(EngineJobs, FailuresAreIsolatedWithinABatch) {
  Engine Eng({.Threads = 4});
  std::vector<Job> Jobs;
  {
    Job J; // compile error
    J.Request = requestFor("main( { not c-- at all");
    Jobs.push_back(std::move(J));
  }
  {
    Job J; // goes wrong, with a location
    J.Request = requestFor(goesWrongSource());
    J.Args = {b32(5)};
    Jobs.push_back(std::move(J));
  }
  {
    Job J; // halts
    J.Request = requestFor(addOneSource());
    J.Args = {b32(1)};
    Jobs.push_back(std::move(J));
  }
  std::vector<JobResult> Res = Eng.run(std::move(Jobs));
  ASSERT_EQ(Res.size(), 3u);
  EXPECT_NE(Res[0].CompileError.find("compile failed"), std::string::npos)
      << Res[0].CompileError;
  EXPECT_EQ(Res[1].Status, MachineStatus::Wrong);
  EXPECT_NE(Res[1].WrongReason.find("unbound"), std::string::npos)
      << Res[1].WrongReason;
  EXPECT_FALSE(Res[1].WrongLoc.str().empty());
  ASSERT_EQ(Res[2].Status, MachineStatus::Halted);
  EXPECT_EQ(Res[2].Results[0], b32(2));
}

TEST(EngineJobs, FuelExhaustionLeavesRunningWithoutTimeout) {
  Engine Eng({.Threads = 1});
  Job J;
  J.Request = requestFor(loopForeverSource());
  J.Args = {b32(0)};
  J.MaxSteps = 1'000;
  JobResult R = Eng.wait(Eng.submit(std::move(J)));
  EXPECT_EQ(R.Status, MachineStatus::Running);
  EXPECT_FALSE(R.TimedOut);
  EXPECT_LE(R.MachineStats.Steps, 1'000u);
}

TEST(EngineJobs, DeadlineStopsARunawayJob) {
  Engine Eng({.Threads = 1});
  Job J;
  J.Request = requestFor(loopForeverSource());
  J.Args = {b32(0)};
  J.DeadlineMillis = 25;
  JobResult R = Eng.wait(Eng.submit(std::move(J)));
  EXPECT_EQ(R.Status, MachineStatus::Running);
  EXPECT_TRUE(R.TimedOut);
  // It ran at least one deadline slice before the check could fire.
  EXPECT_GE(R.MachineStats.Steps, Continuation::SliceSteps);
}

TEST(EngineJobs, DeadlineStopsAYieldHeavyJob) {
  // Period 1: every iteration raises through the run-time system, so the
  // machine suspends long before a deadline slice completes. The deadline
  // must be enforced across suspend/resume cycles, not only inside slices
  // that finish Running.
  Engine Eng({.Threads = 1});
  Job J;
  J.Request.Sources = {sweepWorkloadSource(DispatchTechnique::UnwindRuntime)};
  J.Entry = "sweep";
  J.Args = {b32(0x7fffffff), b32(1), b32(8)};
  J.Dispatcher = DispatcherKind::Unwind;
  J.DeadlineMillis = 25;
  JobResult R = Eng.wait(Eng.submit(std::move(J)));
  ASSERT_TRUE(R.CompileError.empty()) << R.CompileError;
  EXPECT_EQ(R.Status, MachineStatus::Running);
  EXPECT_TRUE(R.TimedOut);
}

TEST(EngineJobs, DispatchedJobsServiceYields) {
  Engine Eng({.Threads = 2});
  for (auto [T, D] :
       {std::pair{DispatchTechnique::UnwindRuntime, DispatcherKind::Unwind},
        std::pair{DispatchTechnique::CutRuntime, DispatcherKind::Cut}}) {
    Job J;
    J.Request.Sources = {dispatchWorkloadSource(T)};
    J.Entry = "bench";
    J.Args = {b32(12), b32(1)};
    J.Dispatcher = D;
    JobResult R = Eng.wait(Eng.submit(std::move(J)));
    EXPECT_TRUE(R.ok()) << "technique " << dispatchTechniqueName(T) << ": "
                        << R.CompileError << " status "
                        << static_cast<int>(R.Status);
  }
}

TEST(EngineCache, ArtifactOutlivesItsEngine) {
  // Artifacts are handed to embedders as shared_ptr and survive eviction —
  // including the whole Engine going away. The first bytecode() compile
  // after that must not touch cache-owned state (the compile counter is
  // shared, not borrowed).
  std::shared_ptr<const ProgramArtifact> Art;
  {
    Engine Eng({.Threads = 1});
    Art = Eng.compile(requestFor(addOneSource()));
    ASSERT_TRUE(Art->ok());
  }
  std::unique_ptr<Executor> Exec = Art->newExecutor(Backend::Vm);
  Exec->start("main", {b32(41)});
  ASSERT_EQ(Exec->run(), MachineStatus::Halted);
  EXPECT_EQ(Exec->argArea()[0], b32(42));
}

TEST(EngineJobs, PreInternedArtifactSkipsCompilation) {
  Engine Eng({.Threads = 2});
  std::shared_ptr<const ProgramArtifact> Art =
      compileArtifact(requestFor(addOneSource()));
  ASSERT_TRUE(Art->ok());
  Job J;
  J.Artifact = Art;
  J.Args = {b32(10)};
  JobResult R = Eng.wait(Eng.submit(std::move(J)));
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Results[0], b32(11));
  EXPECT_EQ(Eng.cacheStats().IrCompiles, 0u);
}

//===----------------------------------------------------------------------===//
// Per-job observability
//===----------------------------------------------------------------------===//

TEST(EngineObservability, TraceEventsCarryTheJobId) {
  Engine Eng({.Threads = 1});
  std::ostringstream TraceOut;
  Job J;
  J.Request = requestFor(addOneSource());
  J.Args = {b32(3)};
  J.TraceTo = &TraceOut;
  uint64_t Id = Eng.submit(std::move(J));
  JobResult R = Eng.wait(Id);
  ASSERT_TRUE(R.ok());
  std::string Expect = "\"job\":" + std::to_string(Id);
  EXPECT_NE(TraceOut.str().find(Expect), std::string::npos)
      << TraceOut.str().substr(0, 400);
}

TEST(EngineObservability, ProfileJsonIsTaggedAndReturned) {
  Engine Eng({.Threads = 1});
  Job J;
  J.Request = requestFor(addOneSource());
  J.Args = {b32(3)};
  J.CollectProfile = true;
  uint64_t Id = Eng.submit(std::move(J));
  JobResult R = Eng.wait(Id);
  ASSERT_TRUE(R.ok());
  ASSERT_FALSE(R.ProfileJson.empty());
  EXPECT_NE(R.ProfileJson.find("\"job\""), std::string::npos) << R.ProfileJson;
  EXPECT_NE(R.ProfileJson.find(std::to_string(Id)), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Backend facade
//===----------------------------------------------------------------------===//

TEST(EngineFacade, BackendNamesRoundTrip) {
  for (Backend B : AllBackends)
    EXPECT_EQ(parseBackend(backendName(B)), B);
  EXPECT_FALSE(parseBackend("bogus").has_value());
}

TEST(EngineFacade, ArtifactErrorsKeepHarnessPhasePrefixes) {
  auto Bad = compileArtifact(requestFor("not a program"));
  EXPECT_FALSE(Bad->ok());
  EXPECT_EQ(Bad->error().rfind("compile failed: ", 0), 0u) << Bad->error();
  EXPECT_EQ(Bad->program(), nullptr);
}

//===----------------------------------------------------------------------===//
// Metrics reconciliation
//===----------------------------------------------------------------------===//

TEST(EngineMetrics, CacheCountersReconcileWithCompiles) {
  EngineOptions EO;
  EO.Threads = 2;
  Engine Eng(EO);
  // Three distinct sources, each requested twice: 6 lookups, 3 compiles,
  // 3 hits — and the identity lookups == hits + ir_compiles must hold.
  std::vector<std::string> Variants;
  for (int K = 0; K < 3; ++K)
    Variants.push_back("export main;\nmain(bits32 n) { return (n + " +
                       std::to_string(K) + "); }\n");
  std::vector<Job> Batch;
  for (int Round = 0; Round < 2; ++Round)
    for (const std::string &Src : Variants) {
      Job J;
      J.Request.Sources = {Src};
      J.Args = {b32(1)};
      Batch.push_back(std::move(J));
    }
  std::vector<JobResult> Res = Eng.run(std::move(Batch));
  for (const JobResult &R : Res)
    ASSERT_TRUE(R.ok()) << R.CompileError;

  MetricsRegistry &M = Eng.metrics();
  uint64_t Lookups = M.counter("cache.lookups").value();
  uint64_t Hits = M.counter("cache.hits").value();
  uint64_t Misses = M.counter("cache.misses").value();
  uint64_t Compiles = M.counter("cache.ir_compiles").value();
  EXPECT_EQ(Lookups, 6u);
  EXPECT_EQ(Compiles, 3u);
  EXPECT_EQ(Lookups, Hits + Misses);
  // Every miss owned its slot and compiled (no cache dir here, so no disk
  // hits). A single-flight join found the slot already present: it is a
  // hit that waited for the owner's compile.
  EXPECT_EQ(Misses, Compiles + M.counter("cache.disk_hits").value());
  EXPECT_LE(M.counter("cache.singleflight_joins").value(), Hits);
  // The registry view and the legacy CacheStats view must agree.
  CacheStats CS = Eng.cacheStats();
  EXPECT_EQ(CS.Lookups, Lookups);
  EXPECT_EQ(CS.Hits, Hits);
  EXPECT_EQ(CS.IrCompiles, Compiles);
  // The compile-latency histogram saw exactly the actual compiles.
  EXPECT_EQ(M.histogram("cache.compile_micros").count(), Compiles);
}

TEST(EngineMetrics, JobAndPoolGaugesSettleAfterDrain) {
  EngineOptions EO;
  EO.Threads = 3;
  Engine Eng(EO);
  std::vector<Job> Batch;
  for (int I = 0; I < 24; ++I) {
    Job J;
    J.Request = requestFor(addOneSource());
    J.Args = {b32(uint64_t(I))};
    Batch.push_back(std::move(J));
  }
  std::vector<JobResult> Res = Eng.run(std::move(Batch));
  ASSERT_EQ(Res.size(), 24u);

  MetricsRegistry &M = Eng.metrics();
  EXPECT_EQ(M.counter("engine.jobs").value(), 24u);
  EXPECT_EQ(M.counter("engine.jobs_halted").value(), 24u);
  EXPECT_EQ(M.histogram("engine.job_micros").count(), 24u);
  // Every level must be back to zero once the batch has drained.
  EXPECT_EQ(M.gauge("engine.jobs_queued").value(), 0);
  EXPECT_EQ(M.gauge("engine.jobs_running").value(), 0);
  EXPECT_EQ(M.gauge("pool.queued").value(), 0);
  EXPECT_EQ(Eng.pool().queuedApprox(), 0u);
  // Each job rode exactly one pool task.
  EXPECT_EQ(Eng.pool().tasksExecuted(), 24u);
  EXPECT_EQ(M.counter("pool.tasks_executed").value(), 24u);
}

TEST(EngineMetrics, EveryPathCountsExactlyOneOutcomePerJob) {
  Engine Eng({.Threads = 2});
  auto Sweep = [] {
    Job J;
    J.Request.Sources = {sweepWorkloadSource(DispatchTechnique::UnwindRuntime)};
    J.Entry = "sweep";
    J.Args = {b32(6), b32(2), b32(4)};
    return J;
  };
  auto Loop = [](auto Set) {
    Job J;
    J.Request = requestFor(loopForeverSource());
    J.Args = {b32(0)};
    Set(J);
    return J;
  };

  // runJob: halted, wrong, and an unhandled yield.
  Job Ok;
  Ok.Request = requestFor(addOneSource());
  Ok.Args = {b32(1)};
  EXPECT_EQ(Eng.runJob(Ok).Status, MachineStatus::Halted);
  Job Wrong;
  Wrong.Request = requestFor(goesWrongSource());
  Wrong.Args = {b32(1)};
  EXPECT_EQ(Eng.runJob(Wrong).Status, MachineStatus::Wrong);
  EXPECT_EQ(Eng.runJob(Sweep()).Status, MachineStatus::Suspended);
  // submit/wait.
  EXPECT_TRUE(Eng.wait(Eng.submit(Ok)).ok());
  // A compile error.
  Job Bad;
  Bad.Request = requestFor("export main;\nmain(bits32 n) { return (q); }\n");
  EXPECT_FALSE(Eng.runJob(Bad).CompileError.empty());
  // Deadline, memory, and fuel stops.
  EXPECT_TRUE(
      Eng.runJob(Loop([](Job &J) { J.DeadlineMillis = 5; })).TimedOut);
  Job Hog;
  Hog.Request = requestFor("export main;\n"
                           "main(bits32 n) {\n"
                           "  bits32 a;\n"
                           "  a = 0;\n"
                           "loop:\n"
                           "  bits32[a] = n;\n"
                           "  a = a + 4096;\n"
                           "  goto loop;\n"
                           "}\n");
  Hog.Args = {b32(7)};
  Hog.MaxMemoryBytes = 64 * 4096;
  EXPECT_TRUE(Eng.runJob(Hog).MemExceeded);
  EXPECT_EQ(Eng.runJob(Loop([](Job &J) { J.MaxSteps = 1000; })).Status,
            MachineStatus::Running);
  // A scheduled job.
  Job Sched = Ok;
  Sched.Sched.Enabled = true;
  EXPECT_TRUE(Eng.runJob(Sched).ok());

  // Sessions: parked then resumed to halt, parked then abandoned,
  // fuel-stopped then abandoned, and one that finishes in its first
  // segment (never handed out).
  JobResult R;
  std::unique_ptr<JobSession> S = Eng.startSession(Sweep(), R);
  ASSERT_TRUE(S);
  for (int I = 0; I < 100 && !S->done(); ++I)
    R = S->dispatchOnce(DispatcherKind::Unwind, {});
  EXPECT_EQ(R.Status, MachineStatus::Halted);
  S.reset();
  S = Eng.startSession(Sweep(), R);
  ASSERT_TRUE(S);
  S.reset();
  S = Eng.startSession(Loop([](Job &J) { J.MaxSteps = 1000; }), R);
  ASSERT_TRUE(S);
  EXPECT_EQ(Eng.metrics().gauge("engine.sessions_open").value(), 1);
  S.reset();
  EXPECT_FALSE(Eng.startSession(Ok, R));
  EXPECT_EQ(R.Status, MachineStatus::Halted);

  MetricsRegistry &M = Eng.metrics();
  uint64_t Outcomes = 0;
  for (const char *Name :
       {"engine.jobs_halted", "engine.jobs_wrong", "engine.jobs_suspended",
        "engine.jobs_compile_error", "engine.jobs_timeout",
        "engine.jobs_fuel_exhausted", "engine.jobs_mem_exceeded"}) {
    EXPECT_GE(M.counter(Name).value(), 1u) << Name;
    Outcomes += M.counter(Name).value();
  }
  EXPECT_EQ(M.counter("engine.jobs").value(), 13u);
  EXPECT_EQ(Outcomes, M.counter("engine.jobs").value());
  EXPECT_EQ(M.counter("engine.sessions").value(), 3u);
  EXPECT_EQ(M.gauge("engine.jobs_running").value(), 0);
  EXPECT_EQ(M.gauge("engine.jobs_queued").value(), 0);
  EXPECT_EQ(M.gauge("engine.sessions_open").value(), 0);
}

//===----------------------------------------------------------------------===//
// Cache-key stability
//===----------------------------------------------------------------------===//

TEST(EngineCache, KeyBytesArePinnedAndHostIndependent) {
  // Golden values for the v2 key derivation (explicit little-endian
  // absorption, position-salted second lane). These must never change
  // silently: on-disk artifacts are addressed by them, so any intentional
  // change to the hash must come with a tag bump — and a revert to the old
  // degenerate two-basis scheme (both lanes hashing the identical stream,
  // leaving ~64 bits of entropy) changes them too and fails here.
  CompileRequest A = requestFor(addOneSource());
  CacheKey KA = cacheKeyFor(A);
  EXPECT_EQ(KA.Hi, 0x8b760f908466a1ebull);
  EXPECT_EQ(KA.Lo, 0x04a6f4c064ddac89ull);
  // str() is the on-disk address: 32 zero-padded hex digits.
  EXPECT_EQ(KA.str(), "8b760f908466a1eb04a6f4c064ddac89");
  EXPECT_EQ(KA.str().size(), 32u);

  CompileRequest B = A;
  B.Optimize = true;
  CacheKey KB = cacheKeyFor(B);
  EXPECT_EQ(KB.Hi, 0xe34e23b72b354662ull);
  EXPECT_EQ(KB.Lo, 0x03ae0a9ddac2692dull);

  CompileRequest C;
  C.Sources = {"", "x"};
  CacheKey KC = cacheKeyFor(C);
  EXPECT_EQ(KC.Hi, 0x6843f28fcf6e0be8ull);
  EXPECT_EQ(KC.Lo, 0x61623c71e0717f7cull);
}

TEST(EngineCache, KeyLanesDiffer) {
  // With genuinely independent lanes the halves never coincide on real
  // inputs (with the degenerate scheme they never coincided either, but
  // they carried no independent information; the pinned bytes above are
  // the real regression gate — this is a cheap sanity sweep).
  for (int I = 0; I < 64; ++I) {
    CompileRequest R;
    R.Sources = {std::string(size_t(I), 'a')};
    CacheKey K = cacheKeyFor(R);
    EXPECT_NE(K.Hi, K.Lo) << "length " << I;
  }
}

//===----------------------------------------------------------------------===//
// Failed compiles are never cached
//===----------------------------------------------------------------------===//

TEST(EngineCache, FailedCompilesAreNotCached) {
  Engine Eng({.Threads = 1});
  CompileRequest Bad = requestFor("main( {");
  auto A1 = Eng.compile(Bad);
  ASSERT_FALSE(A1->ok());
  EXPECT_FALSE(A1->error().empty());
  auto A2 = Eng.compile(Bad);
  ASSERT_FALSE(A2->ok());
  CacheStats CS = Eng.cacheStats();
  // The second request recompiled: the errored artifact was evicted after
  // waking the first flight's waiters, not served from the index.
  EXPECT_EQ(CS.IrCompiles, 2u);
  EXPECT_EQ(CS.Hits, 0u);
  EXPECT_EQ(CS.Misses, 2u);
  // A good request on the same engine is unaffected.
  auto OK = Eng.compile(requestFor(addOneSource()));
  EXPECT_TRUE(OK->ok());
}

TEST(EngineCache, StatsCountMisses) {
  Engine Eng({.Threads = 1});
  (void)Eng.compile(requestFor(addOneSource()));   // miss
  (void)Eng.compile(requestFor(addOneSource()));   // hit
  (void)Eng.compile(requestFor(goesWrongSource())); // miss
  CacheStats CS = Eng.cacheStats();
  EXPECT_EQ(CS.Lookups, 3u);
  EXPECT_EQ(CS.Hits, 1u);
  EXPECT_EQ(CS.Misses, 2u);
  EXPECT_EQ(CS.Lookups, CS.Hits + CS.Misses);
}

TEST(EngineCacheDeathTest, ErroredArtifactFailsLoudlyInsteadOfUB) {
  auto A = compileArtifact(requestFor("main( {"));
  ASSERT_FALSE(A->ok());
  // Asking an errored artifact to produce code must abort with a message,
  // not dereference the null program.
  EXPECT_DEATH((void)A->bytecode(), "errored artifact");
  EXPECT_DEATH((void)A->threaded(), "errored artifact");
  EXPECT_DEATH((void)A->newExecutor(Backend::Walk), "errored artifact");
}

//===----------------------------------------------------------------------===//
// The persistent tier
//===----------------------------------------------------------------------===//

TEST(PersistentCache, SecondEngineStartsDiskWarmWithZeroCompiles) {
  test::ScratchDir Dir("diskwarm");
  const char *Corpus[] = {addOneSource(), goesWrongSource(),
                          loopForeverSource()};

  std::vector<Value> FirstResults;
  {
    Engine Eng({.Threads = 1, .CacheDir = Dir.str()});
    for (const char *Src : Corpus)
      ASSERT_TRUE(Eng.compile(requestFor(Src))->ok());
    Job J;
    J.Request = requestFor(addOneSource());
    J.Args = {b32(41)};
    FirstResults = Eng.runJob(J).Results;
    CacheStats CS = Eng.cacheStats();
    EXPECT_EQ(CS.IrCompiles, 3u);
    EXPECT_EQ(CS.DiskWrites, 3u);
    EXPECT_EQ(CS.DiskHits, 0u);
  }

  // A second engine over the same directory performs zero IR compiles and
  // zero bytecode compiles on the corpus the first one compiled.
  Engine Eng2({.Threads = 1, .CacheDir = Dir.str()});
  for (const char *Src : Corpus)
    ASSERT_TRUE(Eng2.compile(requestFor(Src))->ok());
  Job J;
  J.Request = requestFor(addOneSource());
  J.B = Backend::Vm;
  J.Args = {b32(41)};
  JobResult R = Eng2.runJob(J);
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(R.Results == FirstResults);
  CacheStats CS = Eng2.cacheStats();
  EXPECT_EQ(CS.IrCompiles, 0u);
  EXPECT_EQ(CS.BytecodeCompiles, 0u) << "bytecode ships inside the artifact";
  EXPECT_EQ(CS.DiskHits, 3u);
  EXPECT_EQ(CS.DiskWrites, 0u);
}

TEST(PersistentCache, CorruptFileFallsBackToCompileAndIsRewritten) {
  test::ScratchDir Dir("corrupt");
  CompileRequest Req = requestFor(addOneSource());
  std::string Path =
      ArtifactStore::filePath(Dir.str(), cacheKeyFor(Req));
  {
    std::ofstream F(Path, std::ios::binary);
    F << "this is not an artifact";
  }
  Engine Eng({.Threads = 1, .CacheDir = Dir.str()});
  auto A = Eng.compile(Req);
  ASSERT_TRUE(A->ok());
  CacheStats CS = Eng.cacheStats();
  EXPECT_EQ(CS.DiskErrors, 1u);
  EXPECT_EQ(CS.IrCompiles, 1u);
  EXPECT_EQ(CS.DiskWrites, 1u) << "good artifact replaces the corrupt file";

  // The rewritten file is valid: a fresh engine disk-hits it.
  Engine Eng2({.Threads = 1, .CacheDir = Dir.str()});
  ASSERT_TRUE(Eng2.compile(Req)->ok());
  EXPECT_EQ(Eng2.cacheStats().DiskHits, 1u);
  EXPECT_EQ(Eng2.cacheStats().IrCompiles, 0u);
}

TEST(PersistentCache, ErroredCompilesAreNeverWrittenToDisk) {
  test::ScratchDir Dir("errored");
  Engine Eng({.Threads = 1, .CacheDir = Dir.str()});
  CompileRequest Bad = requestFor("main( {");
  ASSERT_FALSE(Eng.compile(Bad)->ok());
  EXPECT_EQ(Eng.cacheStats().DiskWrites, 0u);
  EXPECT_FALSE(std::filesystem::exists(
      ArtifactStore::filePath(Dir.str(), cacheKeyFor(Bad))));
}

TEST(PersistentCache, ConcurrentRequestsShareOneDiskLoad) {
  test::ScratchDir Dir("concurrent");
  {
    Engine Warm({.Threads = 1, .CacheDir = Dir.str()});
    ASSERT_TRUE(Warm.compile(requestFor(addOneSource()))->ok());
  }
  // Many threads race one key on a disk-warm directory: the single-flight
  // slot covers the disk tier too, so exactly one load happens (and TSan
  // sees the concurrent access pattern).
  Engine Eng({.Threads = 8, .CacheDir = Dir.str()});
  std::vector<Job> Jobs(24);
  for (Job &J : Jobs) {
    J.Request = requestFor(addOneSource());
    J.Args = {b32(1)};
  }
  std::vector<JobResult> Results = Eng.run(std::move(Jobs));
  for (const JobResult &R : Results)
    ASSERT_TRUE(R.ok());
  CacheStats CS = Eng.cacheStats();
  EXPECT_EQ(CS.IrCompiles, 0u);
  EXPECT_EQ(CS.DiskHits, 1u);
}

TEST(EngineMetrics, MetricsJsonParsesWithMiniJson) {
  EngineOptions EO;
  EO.Threads = 1;
  Engine Eng(EO);
  Job J;
  J.Request = requestFor(addOneSource());
  J.Args = {b32(41)};
  ASSERT_TRUE(Eng.runJob(J).ok());

  std::string Err;
  std::optional<JsonValue> Doc = parseJson(Eng.metricsJson(), &Err);
  ASSERT_TRUE(Doc) << Err;
  EXPECT_EQ(Doc->get("counters")->numberAt("engine.jobs"), 1);
  EXPECT_EQ(Doc->get("counters")->numberAt("engine.jobs_halted"), 1);
  // Probes surface among the counters.
  EXPECT_EQ(Doc->get("counters")->numberAt("cache.bytecode_compiles"), 0);
  const JsonValue *H = Doc->get("histograms")->get("engine.job_micros");
  ASSERT_TRUE(H);
  EXPECT_EQ(H->numberAt("count"), 1);
}

} // namespace
