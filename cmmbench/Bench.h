//===- cmmbench/Bench.h - Shared pieces of the end-to-end benchmark -------===//
//
// Part of cmmex (see DESIGN.md and cmmbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the four cmmbench workloads share: run configuration, sample
/// statistics, host facts, the span tracer, registry-delta snapshots, and
/// the closed-loop engine client that exn_exec, compile_churn and
/// green_relay are built on.
///
/// Spans are recorded only by the benchmark's own threads, around the calls
/// it makes into a layer; the engine's per-job phase timings (JobResult's
/// QueueMillis / CompileMillis / RunMillis) become child spans of the call
/// that returned them. Nothing here instruments src/.
///
//===----------------------------------------------------------------------===//

#ifndef CMMBENCH_BENCH_H
#define CMMBENCH_BENCH_H

#include "costmodel/DispatchWorkloads.h"
#include "engine/Engine.h"
#include "obs/Metrics.h"
#include "support/Rng.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace cmmbench {

using Clock = std::chrono::steady_clock;

inline double usBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::micro>(B - A).count();
}
inline double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}
inline Clock::time_point after(Clock::time_point T, double Seconds) {
  return T + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(Seconds));
}

//===----------------------------------------------------------------------===//
// Configuration and results
//===----------------------------------------------------------------------===//

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  /// Length of the measured part of the run (warm-up included).
  double Seconds = 10;
  /// Relative directory for per-run files (the svc socket directory).
  std::string WorkDir = ".";
  /// Worker threads and client counts derive from this (hostFacts().Nproc).
  unsigned Nproc = 1;
  /// How many times set-up is repeated; setup_s is the median.
  unsigned SetupReps = 5;
  /// Checker self-test: corrupt the expected answer of an item that ran, so
  /// a correct program must be reported wrong.
  bool CorruptExpected = false;
};

/// One reported number.
struct Metric {
  double Value = 0;
  std::string Unit;
};
using Metrics = std::map<std::string, Metric>;

class Tracer;

/// What one workload run produced.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// The first few failures, described.
  std::vector<std::string> Notes;
  /// End-to-end metrics.
  Metrics E2E;
  /// Per-layer metrics; filled only by a traced run.
  Metrics Layer;
  /// Human-readable lines printed before the result.
  std::vector<std::string> Report;

  void fail(std::string Why) {
    ++Failed;
    if (Notes.size() < 8)
      Notes.push_back(std::move(Why));
  }
  void e2e(const std::string &Name, double V, const char *Unit) {
    E2E[Name] = {V, Unit};
  }
  void layer(const std::string &Name, double V, const char *Unit) {
    Layer[Name] = {V, Unit};
  }
};

//===----------------------------------------------------------------------===//
// Host facts
//===----------------------------------------------------------------------===//

struct HostFacts {
  /// CPUs this process may run on (sched_getaffinity, not the machine's
  /// total: a container's CPU mask is what the benchmark actually gets).
  unsigned Nproc = 1;
  std::string BuildType;
  std::string Dispatch; ///< threadedDispatchKind()
  std::string Compiler;
  std::string Commit;
  std::string json() const;
};

HostFacts hostFacts();

/// Peak resident set size of this process so far, in MiB.
double peakRssMiB();

//===----------------------------------------------------------------------===//
// Sample statistics
//===----------------------------------------------------------------------===//

/// Nearest-rank percentile (0..100) of \p V; sorts it. 0 when empty.
double percentile(std::vector<double> &V, double P);
double median(std::vector<double> V);

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// One span: a call into a layer, or a phase the layer reported back.
struct Span {
  const char *Name = "";  ///< "engine.job", "engine.queue", "ir.compile", ...
  const char *Layer = ""; ///< module name: engine, sem, vm, sched, svc, ...
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 for a root span
  uint64_t Req = 0;    ///< the op the span belongs to
  double T0 = 0, T1 = 0; ///< microseconds since the tracer's epoch
  uint32_t Tid = 0;
};

/// In-memory span store. Each recording thread owns one buffer (no lock on
/// the recording path); everything is analysed and written after the run.
class Tracer {
public:
  class Buffer {
  public:
    /// Records a span and returns its id (for children).
    uint64_t add(const char *Name, const char *Layer, uint64_t Parent,
                 uint64_t Req, Clock::time_point T0, Clock::time_point T1);
    /// Same, with times already in microseconds since the epoch.
    uint64_t addUs(const char *Name, const char *Layer, uint64_t Parent,
                   uint64_t Req, double T0, double T1);

  private:
    friend class Tracer;
    Buffer(Tracer &T, uint32_t Tid) : Owner(T), Tid(Tid) {}
    Tracer &Owner;
    uint32_t Tid;
    std::vector<Span> Spans;
  };

  Tracer() : Epoch(Clock::now()) {}
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// A new buffer for the calling thread; stays valid for the tracer's
  /// lifetime.
  Buffer &buffer();
  double us(Clock::time_point T) const { return usBetween(Epoch, T); }

  /// Self time of the ops rooted at \p RootName spans: each span's duration
  /// minus the part of it its children cover, summed per layer and per span
  /// name. Also the share of root-span time that the roots' children cover
  /// (the coverage of the layer spans).
  struct SelfTimes {
    std::map<std::string, double> SelfUsByLayer;
    std::map<std::string, double> SelfUsByName;
    double RootUs = 0, CoveredUs = 0;
    uint64_t Roots = 0;
  };
  SelfTimes selfTimes(const char *RootName) const;

  /// Writes a Chrome trace_event document (pid 0, one "X" event per span)
  /// that tools/cmmstat reads. Only ops whose request id is a multiple of
  /// \p ReqStride are written, to bound the file.
  bool writeChrome(const std::string &Path, uint64_t ReqStride) const;

  uint64_t spanCount() const;

private:
  std::atomic<uint64_t> NextId{1};
  Clock::time_point Epoch;
  mutable std::mutex Mu; ///< guards Buffers (not their contents)
  std::vector<std::unique_ptr<Buffer>> Buffers;
};

//===----------------------------------------------------------------------===//
// Registry deltas
//===----------------------------------------------------------------------===//

/// Counters and histograms of a MetricsRegistry at one instant, so a phase
/// can be measured as the difference of two snapshots.
struct RegSnap {
  std::map<std::string, uint64_t> Counters;
  /// Histogram name -> bucket lower bound -> count.
  std::map<std::string, std::map<uint64_t, uint64_t>> Hists;

  static RegSnap take(cmm::MetricsRegistry &R,
                      const std::vector<std::string> &CounterNames,
                      const std::vector<std::string> &HistNames);
  uint64_t counterDelta(const RegSnap &Before, const std::string &N) const;
  /// Samples recorded between \p Before and this snapshot.
  uint64_t histCount(const RegSnap &Before, const std::string &N) const;
  /// Percentile of the samples recorded between the snapshots (bucket
  /// lower bound, as the registry's own percentiles).
  double histPercentile(const RegSnap &Before, const std::string &N,
                        double P) const;
};

//===----------------------------------------------------------------------===//
// The closed-loop engine client
//===----------------------------------------------------------------------===//

/// Registry and cache-counter snapshots bracketing a timed window, and the
/// process's peak RSS when it closed.
struct PhaseSnaps {
  RegSnap Before, After;
  cmm::engine::CacheStats CacheBefore, CacheAfter;
  double PeakRssMiB = 0;
};

/// Takes \p Out.Before at \p From and \p Out.After at \p To on a helper
/// thread (the caller joins it), so the deltas cover exactly the window.
/// The peak RSS is read at \p To too: what the workload's steady state
/// needed, before any answer checking (whose compiles allocate) runs.
std::thread snapWindow(cmm::MetricsRegistry &Reg,
                       const std::function<cmm::engine::CacheStats()> &Cache,
                       Clock::time_point From, Clock::time_point To,
                       PhaseSnaps &Out);

/// One completed engine op.
struct OpRecord {
  uint32_t Item = 0; ///< catalog / corpus index the op was drawn from
  uint8_t B = 0;     ///< engine::Backend
  bool Timed = false;    ///< issued and completed inside the timed window
  bool Halted = false;   ///< halted with exactly one bits32 result
  bool CacheHit = false;
  uint32_t Got = 0; ///< the result
  float DoneS = 0;  ///< completion, in seconds after the timed window opened
  uint64_t Steps = 0;
  float LatUs = 0, QueueUs = 0, CompileUs = 0, RunUs = 0;
  uint32_t Dispatches = 0, Walked = 0, ResumeCycles = 0;
  uint32_t SchedSwitches = 0, SchedThreads = 0;
};

struct ClosedLoop {
  unsigned Clients = 1;
  /// Ops issued from Start; only ops issued at or after TimedFrom and
  /// completed before Stop are timed; nothing is issued after Stop.
  Clock::time_point TimedFrom, Stop;
  /// Builds op \p Seq (deterministic in the seed and Seq) and reports the
  /// item it was drawn from.
  std::function<cmm::engine::Job(uint64_t Seq, uint32_t &Item)> Make;
};

/// Runs \p L against \p E: Clients threads each submit one job and wait for
/// it, over and over. Returns every completed op (timed or not), and fills
/// \p Snaps with the engine's registry and cache over the timed window.
std::vector<OpRecord> runClosedLoop(cmm::engine::Engine &E,
                                    const ClosedLoop &L, Tracer *T,
                                    PhaseSnaps &Snaps);

/// Counts every op as attempted and fails each that did not halt with the
/// answer \p ExpectedOf gives for its item (nullopt: no reference answer).
/// \p Corrupt flips the answer of the first op's item: the checker's
/// self-test.
void checkAnswers(
    const std::vector<OpRecord> &Ops,
    const std::function<std::optional<uint32_t>(uint32_t)> &ExpectedOf,
    bool Corrupt, Outcome &Out);


/// Sets a closed-loop run's end-to-end metrics and adds its summary line,
/// which starts with \p What. The timed window is cut into intervals of at
/// least a second and at least 1000 ops (so each interval's p99 has ten
/// samples beyond it): ops_per_s is the upper decile of the intervals'
/// completion rates, op_p50_us and op_p95_us (and the per-layer op.p99_us)
/// the lower deciles of their latency percentiles. A shared host only ever
/// slows a run down, so the best intervals are the steadiest estimate of
/// what the code itself does.
void loopResults(const std::string &What, const std::vector<OpRecord> &Ops,
                 double TimedSeconds, double SetupS, const PhaseSnaps &Snaps,
                 Outcome &Out);

/// Engine- and executor-layer metrics every closed-loop workload reports
/// from its traced run: queue/run/compile latency, pool and cache ratios,
/// per-backend step rates, dispatcher work per op.
void engineLayerMetrics(const std::vector<OpRecord> &Ops, const PhaseSnaps &W,
                        double TimedSeconds, Outcome &Out);

/// exec.steps_per_op, overall and per technique: the mean over the items
/// of \p Steps (each item weighted once), exact for a seed.
void stepsMetrics(const std::map<uint32_t, uint64_t> &Steps,
                  const std::function<cmm::DispatchTechnique(uint32_t)> &TechOf,
                  Outcome &Out);

/// Registry names engineLayerMetrics reads.
const std::vector<std::string> &engineCounterNames();
const std::vector<std::string> &engineHistNames();

/// Self time per layer per op, and coverage, from a traced run.
void traceLayerMetrics(const Tracer &T, const char *RootName, Outcome &Out);

/// Checks that every op of one item reported the same step count (the
/// executors are checked against each other: one program, one cost) and
/// returns item -> steps.
std::map<uint32_t, uint64_t> checkStepsAgree(const std::vector<OpRecord> &Ops,
                                             Outcome &Out);

/// Runs every job of \p Jobs on a fresh cache-less engine with \p Threads
/// workers (answer references and input calibration; never timed).
std::vector<cmm::engine::JobResult>
runAll(const std::vector<cmm::engine::Job> &Jobs, unsigned Threads);

/// A C-- module exporting `repeat(reps, a0..a{NArgs-1})`, which calls the
/// imported \p Callee(a0..) reps times and returns the sum of its results:
/// the knob that sizes one op without touching the program under test.
std::string repeaterSource(const std::string &Callee, unsigned NArgs);

/// A backend drawn walk:vm:threaded = 1:2:2.
cmm::engine::Backend backendMix(cmm::Rng &R);

/// Bits32 values.
std::vector<cmm::Value> b32s(const std::vector<uint32_t> &Vs);

/// The DispatcherKind a technique's runtime variants need.
cmm::engine::DispatcherKind dispatcherFor(cmm::DispatchTechnique T);

/// Short metric-name spelling of a technique ("cut_gen", ..., "cps").
const char *techniqueKey(cmm::DispatchTechnique T);

/// Builds the workload's state \p Reps times, timing each build; keeps the
/// last and stores the median build time in \p MedianSeconds. Tearing down
/// an earlier build is not timed.
template <typename State>
std::unique_ptr<State>
setUpMedian(unsigned Reps, const std::function<std::unique_ptr<State>()> &Make,
            double &MedianSeconds) {
  std::vector<double> Times;
  std::unique_ptr<State> S;
  for (unsigned I = 0; I < Reps; ++I) {
    S.reset();
    Clock::time_point T0 = Clock::now();
    S = Make();
    Times.push_back(secondsSince(T0));
  }
  MedianSeconds = median(std::move(Times));
  return S;
}

/// Untimed warm-up at the start of a run of \p Seconds.
inline double warmupSeconds(double Seconds) {
  return std::min(1.0, 0.1 * Seconds);
}

//===----------------------------------------------------------------------===//
// The workloads (one file each)
//===----------------------------------------------------------------------===//

/// \p T is null for the untraced run that gives the end-to-end metrics.
Outcome runExnExec(const RunConfig &C, Tracer *T);
Outcome runCompileChurn(const RunConfig &C, Tracer *T);
Outcome runSvcOpen(const RunConfig &C, Tracer *T);
Outcome runGreenRelay(const RunConfig &C, Tracer *T);

} // namespace cmmbench

#endif // CMMBENCH_BENCH_H
