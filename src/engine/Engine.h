//===- engine/Engine.h - Batch execution engine -----------------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The embedding API of cmmex (docs/ENGINE.md): one facade over everything a
/// host needs to compile and run Abstract C-- programs at scale.
///
///  - makeExecutor(Backend, Prog): the one way to construct an executor.
///    Every consumer — cmmi, cmmdiff, the differential harness, the test
///    suites, the benches — goes through it instead of naming Machine or
///    VmMachine directly, so adding a backend is a one-line change here.
///
///  - ProgramArtifact: an immutable compiled unit (checked IR plus lazily
///    compiled VM bytecode, or a structured compile error). Artifacts are
///    interned by a content-hash cache with single-flight compilation: when
///    N threads request the same (sources, options) key, exactly one
///    compiles and the rest wait for its result.
///
///  - Engine: a thread-sharded batch runner. submit(Job) enqueues one run
///    (program + backend + entry + args + dispatcher + fuel/deadline) on a
///    work-stealing pool; wait(id) returns its JobResult. Jobs are
///    isolated: each gets a fresh executor, and a job that fails to
///    compile, goes wrong, or exhausts its fuel reports that in its result
///    without disturbing the rest of the batch. Every job — submitted,
///    synchronous, or a parked session — runs through one path
///    (engine/Session.h).
///
/// Thread-safety: Engine, its cache, and ProgramArtifact are thread-safe.
/// Executors are not — one executor is one C-- thread and must be driven by
/// one host thread at a time (see sem/Memory.h); the engine enforces this
/// by construction, giving every job its own executor.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_ENGINE_ENGINE_H
#define CMM_ENGINE_ENGINE_H

#include "engine/ThreadPool.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "opt/PassManager.h"
#include "rts/Dispatchers.h"
#include "rts/RuntimeInterface.h"
#include "sem/Continuation.h"
#include "sem/Executor.h"
#include "vm/Bytecode.h"
#include "vm/Fuse.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace cmm::engine {

class JobSession;
class ModuleCache;

//===----------------------------------------------------------------------===//
// Backends
//===----------------------------------------------------------------------===//

/// The executor backends (sem/Executor.h lists their contracts).
enum class Backend : uint8_t { Walk, Vm, Threaded };

inline constexpr Backend AllBackends[] = {Backend::Walk, Backend::Vm,
                                          Backend::Threaded};

std::string_view backendName(Backend B);
std::optional<Backend> parseBackend(std::string_view Name);

/// Constructs an executor for \p Prog (over an artifact, use
/// ProgramArtifact::newExecutor, which reuses its compiled streams).
std::unique_ptr<Executor> makeExecutor(Backend B, const IrProgram &Prog);

//===----------------------------------------------------------------------===//
// Compilation artifacts and the content-hash cache
//===----------------------------------------------------------------------===//

/// Everything that determines a compiled artifact. Two requests with equal
/// cacheKeyFor() are interchangeable.
struct CompileRequest {
  std::vector<std::string> Sources;
  bool IncludeStdLib = true;
  bool Optimize = false;
  /// Optimizer configuration; only read when Optimize is set, but hashed
  /// unconditionally (the key is a pure function of the struct).
  OptOptions Opt;
};

/// 128-bit content hash identifying a CompileRequest (docs/ENGINE.md
/// documents the exact key definition).
struct CacheKey {
  uint64_t Hi = 0, Lo = 0;
  bool operator==(const CacheKey &O) const { return Hi == O.Hi && Lo == O.Lo; }
  std::string str() const;
};

struct CacheKeyHash {
  size_t operator()(const CacheKey &K) const {
    return static_cast<size_t>(K.Hi ^ (K.Lo * 0x9e3779b97f4a7c15ull));
  }
};

/// The content hash of \p Req: every source text, the stdlib flag, and the
/// full optimizer configuration.
CacheKey cacheKeyFor(const CompileRequest &Req);

/// Threaded-tier compile accounting, shared between a cache and the
/// artifacts it interned. Same ownership story as the artifact's bytecode
/// counter: artifacts are handed to embedders and may outlive their Engine,
/// so the cache's metric probes co-own this block instead of artifacts
/// holding registry references.
struct ThreadedCounters {
  std::atomic<uint64_t> Compiles{0};     ///< actual fusion-pass runs
  std::atomic<uint64_t> FusionHits{0};   ///< fused sites, summed over runs
  std::atomic<uint64_t> FusionMisses{0}; ///< unfused candidate sites
  std::atomic<uint64_t> Micros{0};       ///< cumulative fusion-pass time
};

/// One compiled unit: checked (and possibly optimized) IR, or a structured
/// compile error. Immutable once published, so any number of threads may
/// run executors over it concurrently; the VM bytecode and the threaded
/// tier's fused stream are each compiled on first use, once, under their
/// own single-flight locks.
class ProgramArtifact {
public:
  ProgramArtifact() = default;

  /// Null exactly when error() is non-empty.
  const IrProgram *program() const { return Prog.get(); }
  /// Compile / optimizer-validation failure, in the phase-prefixed form the
  /// differential harness reports ("compile failed: ...").
  const std::string &error() const { return Error; }
  bool ok() const { return Prog != nullptr; }
  const CacheKey &key() const { return Key; }

  /// The VM bytecode for program(), compiled at most once per artifact.
  /// Precondition: ok().
  std::shared_ptr<const CompiledProgram> bytecode() const;

  /// The threaded tier's fused stream over bytecode(), built at most once
  /// per artifact. Precondition: ok().
  std::shared_ptr<const ThreadedProgram> threaded() const;

  /// Fresh executor over this artifact; the VM backend shares bytecode(),
  /// the threaded backend shares threaded(). Precondition: ok().
  std::unique_ptr<Executor> newExecutor(Backend B) const;

  /// The optimizer's per-pass report from this artifact's compile (empty
  /// when the request did not optimize, or when the artifact was loaded
  /// from disk rather than compiled in this process).
  const OptReport &optReport() const { return Opt; }

private:
  friend void
  populateArtifact(ProgramArtifact &A, const CompileRequest &Req,
                   std::shared_ptr<std::atomic<uint64_t>> BcCounter,
                   std::shared_ptr<ThreadedCounters> TCounters);
  /// The persistent tier deserializes directly into the private fields
  /// (Key, Prog, and a pre-compiled Bc), bypassing the front end.
  friend class ArtifactStore;
  /// Reports a precondition violation — bytecode()/threaded()/newExecutor()
  /// on an artifact whose compile failed — and aborts with the compile
  /// error instead of dereferencing the null program.
  [[noreturn]] void failErrored(const char *What) const;
  CacheKey Key;
  std::shared_ptr<const IrProgram> Prog;
  std::string Error;
  OptReport Opt;
  mutable std::mutex BcMu;
  mutable std::shared_ptr<const CompiledProgram> Bc;
  mutable std::mutex TMu;
  mutable std::shared_ptr<const ThreadedProgram> Tp;
  /// Bytecode-compile counter, shared with the cache that interned this
  /// artifact (null outside a cache). Shared ownership, not a raw pointer:
  /// artifacts are handed to embedders and may outlive their Engine.
  std::shared_ptr<std::atomic<uint64_t>> BcCompiles;
  /// Threaded-tier accounting, same sharing story (null outside a cache).
  std::shared_ptr<ThreadedCounters> TCnt;
};

/// Compiles \p Req outside any cache (one-shot embedders, tests).
std::shared_ptr<const ProgramArtifact>
compileArtifact(const CompileRequest &Req);

/// Cache observability (EngineTest pins the single-flight guarantee on
/// these).
struct CacheStats {
  uint64_t Lookups = 0;
  uint64_t Hits = 0;
  /// Lookups that found no entry (Lookups = Hits + Misses; misses include
  /// the lookups served by the disk tier without an IR compile).
  uint64_t Misses = 0;
  uint64_t IrCompiles = 0;       ///< actual front-end + optimizer runs
  uint64_t BytecodeCompiles = 0; ///< actual IR-to-bytecode runs
  uint64_t ThreadedCompiles = 0; ///< actual fusion-pass runs
  uint64_t Evictions = 0;
  /// Lookups that found another thread's compile of the same key in flight
  /// and blocked for its result (counted within Hits).
  uint64_t SingleFlightJoins = 0;
  /// Persistent tier (EngineOptions::CacheDir; all zero without one).
  uint64_t DiskHits = 0;   ///< misses served by a valid on-disk artifact
  uint64_t DiskWrites = 0; ///< artifacts persisted after a compile
  uint64_t DiskErrors = 0; ///< invalid/corrupt files or failed writes
};

//===----------------------------------------------------------------------===//
// Jobs
//===----------------------------------------------------------------------===//

/// Which front-end run-time system services yields during a job
/// (rts/Dispatchers.h).
using cmm::DispatcherKind;

/// One unit of batch work: run Entry(Args) of a program on a backend.
struct Job {
  /// The program: pre-interned as an artifact...
  std::shared_ptr<const ProgramArtifact> Artifact;
  /// ...or, when Artifact is null, described by a request the engine
  /// compiles through its cache.
  CompileRequest Request;

  Backend B = Backend::Walk;
  std::string Entry = "main";
  std::vector<Value> Args;
  DispatcherKind Dispatcher = DispatcherKind::None;

  /// Fuel: abstract-machine transitions per resume segment (the
  /// runWithRuntime budget). Exhaustion leaves Status == Running.
  uint64_t MaxSteps = ~uint64_t(0);
  /// Wall-clock deadline in milliseconds; 0 disables. Checked between
  /// execution slices, so enforcement granularity is
  /// Continuation::SliceSteps.
  double DeadlineMillis = 0;
  /// Memory quota in bytes (page-granular; 0 disables). Checked between
  /// execution slices like the deadline; exceeding it stops the job with
  /// JobResult::MemExceeded set and Status == Running.
  uint64_t MaxMemoryBytes = 0;

  /// Green-threads scheduling (src/sched, docs/SCHEDULER.md). When Enabled,
  /// Entry(Args) runs as green thread 1 of an M:N schedule instead of as a
  /// lone executor: the guest may spawn further threads, talk over bounded
  /// channels, sleep on the virtual clock, and join, through the yield
  /// vocabulary of rts/SchedFormat.h. Job::MaxSteps becomes the per-thread
  /// fuel, Job::Dispatcher services non-scheduler yields inside every green
  /// thread, and extra drivers ride the engine's pool. Per-job observers,
  /// traces, profiles, deadlines, and memory quotas do not apply to
  /// scheduled jobs (a schedule is many executors); sched.* metrics in the
  /// engine registry cover them instead.
  struct SchedSpec {
    bool Enabled = false;
    /// Transitions per cooperative slice.
    uint64_t SliceFuel = 1 << 14;
    /// Host drivers including the submitting one; extras ride the pool.
    unsigned Drivers = 1;
    /// Spawn guard: more live threads than this fails the schedule.
    uint64_t MaxThreads = 1 << 20;
  };
  SchedSpec Sched;

  /// Caller-owned observer, used by this job only (observers are not
  /// thread-safe; never share one across concurrently submitted jobs).
  MachineObserver *Obs = nullptr;
  /// When set, the engine attaches a per-job TraceSink writing here, with
  /// Trace.JobId filled in from the assigned job id (caller-owned stream,
  /// exclusive to this job).
  std::ostream *TraceTo = nullptr;
  TraceOptions Trace;
  /// Attach a per-job Profiler and return its JSON in the result.
  bool CollectProfile = false;
};

/// Everything one job produced. Errors travel through the result — a
/// failing job never aborts its batch.
struct JobResult {
  uint64_t Id = 0;
  /// Compile/validation failure; when non-empty the job never ran.
  std::string CompileError;
  MachineStatus Status = MachineStatus::Idle;
  /// Argument area after Halted (the returned values) or Suspended (the
  /// unhandled yield request, tag first).
  std::vector<Value> Results;
  std::string WrongReason;    ///< after Wrong
  SourceLoc WrongLoc;         ///< after Wrong
  Stats MachineStats;
  /// Dispatcher-side runtime statistics (meaningful when Job::Dispatcher
  /// != None; RtWalk is populated by the unwinding dispatcher only).
  RtStats RtWalk;
  uint64_t RtDispatches = 0;
  /// Completed suspend/resume cycles (yields the dispatcher serviced and
  /// resumed from).
  uint64_t ResumeCycles = 0;
  bool CacheHit = false; ///< artifact came from the cache already compiled
  bool TimedOut = false; ///< stopped by DeadlineMillis
  bool MemExceeded = false; ///< stopped by MaxMemoryBytes
  /// Scheduled jobs (Job::Sched): the schedule quiesced with live parked
  /// threads (Status == Running, reported loudly instead of hanging).
  bool Deadlocked = false;
  uint64_t SchedThreads = 0;  ///< green threads spawned, incl. the main one
  uint64_t SchedSwitches = 0; ///< scheduler slices dispatched
  std::string ProfileJson; ///< with Job::CollectProfile
  double CompileMillis = 0;
  double RunMillis = 0;
  /// Time spent queued between submit() and a worker picking the job up
  /// (0 for synchronous runJob calls).
  double QueueMillis = 0;

  bool ok() const {
    return CompileError.empty() && Status == MachineStatus::Halted;
  }
};

//===----------------------------------------------------------------------===//
// Engine
//===----------------------------------------------------------------------===//

struct EngineOptions {
  /// Worker threads; 0 = hardware concurrency.
  unsigned Threads = 0;
  /// Intern compiled artifacts across jobs. Disabling never changes
  /// results, only throughput (EngineTest pins this).
  bool EnableCache = true;
  /// Cache capacity in artifacts, evicted LRU; 0 = unbounded.
  size_t CacheCapacity = 1024;
  /// Persistent cache directory (docs/ENGINE.md § "Persistent cache").
  /// When non-empty, compiled artifacts are also written to
  /// `<CacheDir>/<keyhex>.cmmart` and cache misses consult the directory
  /// before compiling, so a second process with the same CacheDir starts
  /// disk-warm. Empty disables the disk tier. Requires EnableCache.
  std::string CacheDir;

  /// Engine-wide merged trace (docs/OBSERVABILITY.md § "Engine telemetry").
  /// When set, every job's lifecycle (queue / compile / run spans, on one
  /// wall-clock timeline, one Chrome track per pool worker) is written
  /// here; the stream is caller-owned, must outlive the engine, and is
  /// written under an engine lock, so it must not be shared with per-job
  /// Job::TraceTo sinks. The format is always Chrome trace_event JSON.
  std::ostream *TraceTo = nullptr;
  /// With TraceTo: also record full machine-event traces for every Nth
  /// job (1 = all jobs, 0 = lifecycle spans only). Sampled jobs buffer
  /// their events and splice them into the merged trace at completion,
  /// each under its own Chrome pid.
  unsigned TraceMachineSample = 0;

  /// Periodic metrics snapshots: when set, a MetricsExporter thread
  /// appends one JSON snapshot line to this caller-owned stream every
  /// SnapshotIntervalMillis (plus a final line at engine destruction).
  std::ostream *SnapshotTo = nullptr;
  double SnapshotIntervalMillis = 1000;
};

/// The batch execution engine. One Engine per embedding host; all methods
/// are thread-safe.
class Engine {
public:
  explicit Engine(EngineOptions Opts = {});
  ~Engine();

  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  /// Compiles \p Req through the content-hash cache (single-flight: when N
  /// threads race on one key, exactly one compiles). With the cache
  /// disabled, compiles directly. Never returns null — failures are inside
  /// the artifact. \p WasHit, when non-null, reports whether this call
  /// found the artifact already compiled or in flight (always false
  /// without a cache).
  std::shared_ptr<const ProgramArtifact> compile(const CompileRequest &Req,
                                                 bool *WasHit = nullptr);

  /// Enqueues \p J; returns the job id to wait on.
  uint64_t submit(Job J);

  /// Blocks until job \p Id finishes and returns (and forgets) its result.
  JobResult wait(uint64_t Id);

  /// submit() all of \p Jobs, wait for all, and return results in the
  /// submission order.
  std::vector<JobResult> run(std::vector<Job> Jobs);

  /// Runs one job synchronously on the calling thread (no pool hop). Used
  /// by the workers and by single-run embedders (cmmi, the harness). Runs
  /// exactly a session's first segment, then finishes the job where it
  /// stopped.
  JobResult runJob(const Job &J, uint64_t Id = 0);

  /// Runs \p J synchronously like runJob, but when it stops Suspended with
  /// an unserviced yield (or out of budget), parks the live executor in a
  /// JobSession instead of discarding it: the caller becomes the dispatcher
  /// and continues the job later through JobSession::resumeRaw /
  /// dispatchOnce — possibly from a different thread, possibly across a
  /// protocol boundary (src/svc runs yields over the wire this way). \p R
  /// receives the first segment's result either way; the session is null
  /// when the job already finished (a terminal status, a compile error, or
  /// a scheduled job). Sessions must not outlive the engine. docs/SERVICE.md § "Sessions" describes the lifecycle.
  std::unique_ptr<JobSession> startSession(const Job &J, JobResult &R);

  CacheStats cacheStats() const;
  unsigned threadCount() const { return Pool.threadCount(); }
  ThreadPool &pool() { return Pool; }

  /// The engine's metrics registry (cache, pool, and job metrics all land
  /// here; docs/OBSERVABILITY.md lists the name catalog). Live — counters
  /// keep moving while jobs run.
  MetricsRegistry &metrics() { return Registry; }
  /// One JSON snapshot of metrics(): {"counters":{..},"gauges":{..},
  /// "histograms":{..}}.
  std::string metricsJson() const { return Registry.json(); }

private:
  /// Wired handles for the per-job metrics (the registry mutex is touched
  /// once, here, never per job).
  struct JobMetrics {
    Counter &Jobs, &Halted, &Wrong, &Suspended, &CompileErrors, &Timeouts,
        &FuelExhausted, &MemExceeded, &ResumeCycles;
    /// Session lifecycle (Engine::startSession / engine/Session.h):
    /// sessions opened, wire-level resumes serviced, sessions still parked.
    Counter &Sessions, &SessionResumes;
    Gauge &SessionsOpen;
    /// Per-backend job counts (engine.backend_* — cmmstat buckets these
    /// into its backends report). Indexed by Backend.
    Counter &BackendWalk, &BackendVm, &BackendThreaded;
    Gauge &Queued, &Running;
    Histogram &QueueMicros, &CompileMicros, &RunMicros, &JobMicros,
        &ResumeCyclesPerJob;
    explicit JobMetrics(MetricsRegistry &R)
        : Jobs(R.counter("engine.jobs")),
          Halted(R.counter("engine.jobs_halted")),
          Wrong(R.counter("engine.jobs_wrong")),
          Suspended(R.counter("engine.jobs_suspended")),
          CompileErrors(R.counter("engine.jobs_compile_error")),
          Timeouts(R.counter("engine.jobs_timeout")),
          FuelExhausted(R.counter("engine.jobs_fuel_exhausted")),
          MemExceeded(R.counter("engine.jobs_mem_exceeded")),
          ResumeCycles(R.counter("engine.resume_cycles")),
          Sessions(R.counter("engine.sessions")),
          SessionResumes(R.counter("engine.session_resumes")),
          SessionsOpen(R.gauge("engine.sessions_open")),
          BackendWalk(R.counter("engine.backend_walk_jobs")),
          BackendVm(R.counter("engine.backend_vm_jobs")),
          BackendThreaded(R.counter("engine.backend_threaded_jobs")),
          Queued(R.gauge("engine.jobs_queued")),
          Running(R.gauge("engine.jobs_running")),
          QueueMicros(R.histogram("engine.queue_micros")),
          CompileMicros(R.histogram("engine.compile_micros")),
          RunMicros(R.histogram("engine.run_micros")),
          JobMicros(R.histogram("engine.job_micros")),
          ResumeCyclesPerJob(R.histogram("engine.resume_cycles_per_job")) {}

    /// Counts one finished job into exactly one engine.jobs_* outcome
    /// counter (compile errors are counted where they are found).
    void countOutcome(MachineStatus St, const ResumeOutcome &Out);
  };

  /// Sessions count their segments into JM and reach the merged trace.
  friend class JobSession;

  /// The one job path shared by runJob and startSession: counts the job,
  /// resolves its artifact (filling \p R's compile fields), and runs its
  /// first segment in a new session, filling the rest of \p R. Returns
  /// null when the job already finished here: a compile error or a
  /// scheduled job.
  std::unique_ptr<JobSession> openJob(const Job &J, uint64_t Id,
                                      JobResult &R);

  /// Runs a Job::Sched job as an M:N schedule over the pool: builds an
  /// executor factory from the artifact, maps the job's fuel and
  /// dispatcher onto SchedOptions, and folds the SchedResult (plus its
  /// outcome) into \p R, which already carries the compile fields.
  void runScheduled(const Job &J,
                    const std::shared_ptr<const ProgramArtifact> &Art,
                    JobResult &R);

  /// True when job \p Id 's machine events are recorded into the merged
  /// trace (EngineOptions::TraceMachineSample).
  bool sampledForTrace(uint64_t Id) const;
  /// Emits a Chrome complete-span ("ph":"X") into the merged trace (no-op
  /// without one). Takes TraceMu.
  void emitEngineSpan(std::string_view Name, uint64_t JobId, unsigned Tid,
                      uint64_t TsMicros, uint64_t DurMicros);
  /// Splices a sampled job's buffered machine events (newline-separated
  /// Chrome lines) into the merged trace under the job's own pid, in one
  /// contiguous run.
  void spliceMachineEvents(uint64_t JobId, const std::string &Lines);
  /// Microseconds since the engine's construction (the merged-trace
  /// timeline).
  uint64_t nowMicros() const;

  /// Declared first: everything below holds handles into it, so it must be
  /// destroyed last.
  MetricsRegistry Registry;
  EngineOptions Opts;
  JobMetrics JM;
  std::unique_ptr<ModuleCache> Cache;

  /// Merged-trace state (EngineOptions::TraceTo). Jobs on any worker splice
  /// completed spans under TraceMu; the sink itself is not thread-safe.
  std::chrono::steady_clock::time_point Epoch;
  std::mutex TraceMu;
  std::unique_ptr<TraceSink> EngTrace;

  std::mutex ResMu;
  std::condition_variable ResCv;
  std::unordered_map<uint64_t, JobResult> Results;
  std::atomic<uint64_t> NextId{1};

  /// The snapshot thread reads Registry; declared after it, destroyed (and
  /// stopped) before it goes away.
  std::unique_ptr<MetricsExporter> Exporter;

  /// Declared last: its destructor joins the workers, which touch the
  /// members above, so it must be destroyed first.
  ThreadPool Pool;
};

} // namespace cmm::engine

#endif // CMM_ENGINE_ENGINE_H
