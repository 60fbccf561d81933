//===- cmmbench/Bench.cpp -------------------------------------------------===//
//
// Part of cmmex (see DESIGN.md and cmmbench/README.md).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "vm/Threaded.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sched.h>
#include <sys/resource.h>
#include <thread>
#include <unordered_map>
#include <unordered_set>

using namespace cmm;
using namespace cmmbench;

//===----------------------------------------------------------------------===//
// Host facts
//===----------------------------------------------------------------------===//

HostFacts cmmbench::hostFacts() {
  HostFacts H;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof Set, &Set) == 0)
    H.Nproc = unsigned(std::max(1, CPU_COUNT(&Set)));
  else
    H.Nproc = std::max(1u, std::thread::hardware_concurrency());
  H.BuildType = CMMBENCH_BUILD_TYPE;
  H.Dispatch = threadedDispatchKind();
  H.Compiler = __VERSION__;
  H.Commit = CMMBENCH_COMMIT;
  return H;
}

std::string HostFacts::json() const {
  auto Str = [](const std::string &S) {
    std::string O = "\"";
    for (char C : S)
      if (C == '"' || C == '\\')
        (O += '\\') += C;
      else if (uint8_t(C) >= 0x20)
        O += C;
    return O + "\"";
  };
  return "{\"nproc\":" + std::to_string(Nproc) +
         ",\"build_type\":" + Str(BuildType) + ",\"dispatch\":" +
         Str(Dispatch) + ",\"compiler\":" + Str(Compiler) +
         ",\"commit\":" + Str(Commit) + "}";
}

double cmmbench::peakRssMiB() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double cmmbench::percentile(std::vector<double> &V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = size_t(std::ceil(P / 100.0 * double(V.size())));
  return V[std::min(V.size() - 1, Rank == 0 ? 0 : Rank - 1)];
}

double cmmbench::median(std::vector<double> V) { return percentile(V, 50); }

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

uint64_t Tracer::Buffer::addUs(const char *Name, const char *Layer,
                               uint64_t Parent, uint64_t Req, double T0,
                               double T1) {
  Span S;
  S.Name = Name;
  S.Layer = Layer;
  S.Id = Owner.NextId.fetch_add(1, std::memory_order_relaxed);
  S.Parent = Parent;
  S.Req = Req;
  S.T0 = T0;
  S.T1 = std::max(T0, T1);
  S.Tid = Tid;
  Spans.push_back(S);
  return S.Id;
}

uint64_t Tracer::Buffer::add(const char *Name, const char *Layer,
                             uint64_t Parent, uint64_t Req,
                             Clock::time_point T0, Clock::time_point T1) {
  return addUs(Name, Layer, Parent, Req, Owner.us(T0), Owner.us(T1));
}

Tracer::Buffer &Tracer::buffer() {
  std::lock_guard<std::mutex> Lock(Mu);
  Buffers.push_back(
      std::unique_ptr<Buffer>(new Buffer(*this, uint32_t(Buffers.size()))));
  return *Buffers.back();
}

uint64_t Tracer::spanCount() const {
  std::lock_guard<std::mutex> Lock(Mu);
  uint64_t N = 0;
  for (const auto &B : Buffers)
    N += B->Spans.size();
  return N;
}

Tracer::SelfTimes Tracer::selfTimes(const char *RootName) const {
  std::lock_guard<std::mutex> Lock(Mu);
  // Only the ops: spans of requests whose root is a RootName span.
  std::unordered_set<uint64_t> Ops;
  for (const auto &B : Buffers)
    for (const Span &S : B->Spans)
      if (S.Parent == 0 && std::string_view(S.Name) == RootName)
        Ops.insert(S.Req);
  // Children by parent id. Every child span lies inside its parent's
  // interval; siblings may overlap, so coverage is an interval union.
  std::unordered_map<uint64_t, std::vector<const Span *>> Kids;
  std::vector<const Span *> All;
  for (const auto &B : Buffers)
    for (const Span &S : B->Spans) {
      if (!Ops.count(S.Req))
        continue;
      All.push_back(&S);
      if (S.Parent)
        Kids[S.Parent].push_back(&S);
    }
  SelfTimes Out;
  for (const Span *S : All) {
    double Covered = 0;
    auto It = Kids.find(S->Id);
    if (It != Kids.end()) {
      std::vector<std::pair<double, double>> Iv;
      for (const Span *K : It->second)
        Iv.push_back({std::max(K->T0, S->T0), std::min(K->T1, S->T1)});
      std::sort(Iv.begin(), Iv.end());
      double End = S->T0;
      for (auto [A, B] : Iv) {
        A = std::max(A, End);
        if (B > A) {
          Covered += B - A;
          End = B;
        }
      }
    }
    double Self = (S->T1 - S->T0) - Covered;
    Out.SelfUsByLayer[S->Layer] += Self;
    Out.SelfUsByName[S->Name] += Self;
    if (S->Parent == 0) {
      ++Out.Roots;
      Out.RootUs += S->T1 - S->T0;
      Out.CoveredUs += Covered;
    }
  }
  return Out;
}

bool Tracer::writeChrome(const std::string &Path, uint64_t ReqStride) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> Lock(Mu);
  std::fprintf(F, "{\"traceEvents\":[\n");
  std::fprintf(F, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
                  "\"args\":{\"name\":\"cmmbench\"}}");
  for (const auto &B : Buffers)
    for (const Span &S : B->Spans) {
      if (ReqStride > 1 && S.Req % ReqStride != 0)
        continue;
      std::fprintf(F,
                   ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%" PRIu32
                   ",\"args\":{\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                   ",\"req\":%" PRIu64 "}}",
                   S.Name, S.Layer, S.T0, S.T1 - S.T0, S.Tid, S.Id, S.Parent,
                   S.Req);
    }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

//===----------------------------------------------------------------------===//
// Registry snapshots
//===----------------------------------------------------------------------===//

RegSnap RegSnap::take(MetricsRegistry &R,
                      const std::vector<std::string> &CounterNames,
                      const std::vector<std::string> &HistNames) {
  RegSnap S;
  for (const std::string &N : CounterNames)
    S.Counters[N] = R.counter(N).value();
  for (const std::string &N : HistNames) {
    std::map<uint64_t, uint64_t> &B = S.Hists[N];
    R.histogram(N).forEachBucket(
        [&B](uint64_t Lo, uint64_t Count) { B[Lo] = Count; });
  }
  return S;
}

uint64_t RegSnap::counterDelta(const RegSnap &Before,
                               const std::string &N) const {
  auto A = Counters.find(N), B = Before.Counters.find(N);
  if (A == Counters.end())
    return 0;
  return A->second - (B == Before.Counters.end() ? 0 : B->second);
}

namespace {
std::map<uint64_t, uint64_t> bucketDelta(const RegSnap &After,
                                         const RegSnap &Before,
                                         const std::string &N) {
  std::map<uint64_t, uint64_t> D;
  auto A = After.Hists.find(N);
  if (A == After.Hists.end())
    return D;
  auto B = Before.Hists.find(N);
  for (auto [Lo, Count] : A->second) {
    uint64_t Prev = 0;
    if (B != Before.Hists.end()) {
      auto It = B->second.find(Lo);
      if (It != B->second.end())
        Prev = It->second;
    }
    if (Count > Prev)
      D[Lo] = Count - Prev;
  }
  return D;
}
} // namespace

uint64_t RegSnap::histCount(const RegSnap &Before, const std::string &N) const {
  uint64_t C = 0;
  for (auto [Lo, Count] : bucketDelta(*this, Before, N))
    C += Count;
  return C;
}

double RegSnap::histPercentile(const RegSnap &Before, const std::string &N,
                               double P) const {
  std::map<uint64_t, uint64_t> D = bucketDelta(*this, Before, N);
  uint64_t Total = 0;
  for (auto [Lo, Count] : D)
    Total += Count;
  if (Total == 0)
    return 0;
  uint64_t Rank = std::max<uint64_t>(1, uint64_t(std::ceil(P / 100.0 *
                                                           double(Total))));
  uint64_t Seen = 0;
  for (auto [Lo, Count] : D) {
    Seen += Count;
    if (Seen >= Rank)
      return double(Lo);
  }
  return double(D.rbegin()->first);
}

//===----------------------------------------------------------------------===//
// Closed-loop client
//===----------------------------------------------------------------------===//

std::vector<OpRecord> cmmbench::runClosedLoop(engine::Engine &E,
                                              const ClosedLoop &L, Tracer *T,
                                              PhaseSnaps &Snaps) {
  std::thread Snapper = snapWindow(
      E.metrics(), [&E] { return E.cacheStats(); }, L.TimedFrom, L.Stop,
      Snaps);
  std::atomic<uint64_t> NextSeq{0};
  std::vector<std::vector<OpRecord>> PerClient(L.Clients);
  std::vector<Tracer::Buffer *> Bufs(L.Clients, nullptr);
  if (T)
    for (auto &B : Bufs)
      B = &T->buffer();

  auto Client = [&](unsigned Idx) {
    std::vector<OpRecord> &Out = PerClient[Idx];
    Tracer::Buffer *Buf = Bufs[Idx];
    for (;;) {
      Clock::time_point T0 = Clock::now();
      if (T0 >= L.Stop)
        break;
      uint64_t Seq = NextSeq.fetch_add(1, std::memory_order_relaxed);
      OpRecord Rec;
      engine::Job J = L.Make(Seq, Rec.Item);
      Rec.B = uint8_t(J.B);
      bool Scheduled = J.Sched.Enabled;
      engine::JobResult R = E.wait(E.submit(std::move(J)));
      Clock::time_point T1 = Clock::now();
      Rec.Timed = T0 >= L.TimedFrom && T1 <= L.Stop;
      Rec.DoneS = float(usBetween(L.TimedFrom, T1) / 1e6);
      Rec.Halted = R.ok() && R.Results.size() == 1 && R.Results[0].isBits();
      Rec.Got = Rec.Halted ? uint32_t(R.Results[0].Raw) : 0;
      Rec.CacheHit = R.CacheHit;
      Rec.Steps = R.MachineStats.Steps;
      Rec.LatUs = float(usBetween(T0, T1));
      Rec.QueueUs = float(R.QueueMillis * 1000.0);
      Rec.CompileUs = float(R.CompileMillis * 1000.0);
      Rec.RunUs = float(R.RunMillis * 1000.0);
      Rec.Dispatches = uint32_t(R.RtDispatches);
      Rec.Walked = uint32_t(R.RtWalk.ActivationsVisited);
      Rec.ResumeCycles = uint32_t(R.ResumeCycles);
      Rec.SchedSwitches = uint32_t(R.SchedSwitches);
      Rec.SchedThreads = uint32_t(R.SchedThreads);
      if (Buf) {
        // The engine's own phase timings, laid back to back from submit:
        // their durations are measured, their exact offsets are not.
        uint64_t Root = Buf->add("engine.job", "engine", 0, Seq, T0, T1);
        double At = T->us(T0);
        Buf->addUs("engine.queue", "engine", Root, Seq, At, At + Rec.QueueUs);
        At += Rec.QueueUs;
        if (Rec.CompileUs > 0) {
          Buf->addUs("engine.compile", "compile", Root, Seq, At,
                     At + Rec.CompileUs);
          At += Rec.CompileUs;
        }
        const char *Layer = Scheduled                        ? "sched"
                            : Rec.B == uint8_t(engine::Backend::Walk) ? "sem"
                                                                      : "vm";
        Buf->addUs("exec.run", Layer, Root, Seq, At, At + Rec.RunUs);
      }
      Out.push_back(Rec);
    }
  };

  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < L.Clients; ++I)
    Threads.emplace_back(Client, I);
  for (std::thread &Th : Threads)
    Th.join();
  Snapper.join();

  std::vector<OpRecord> All;
  for (auto &V : PerClient)
    All.insert(All.end(), V.begin(), V.end());
  return All;
}

void cmmbench::loopResults(const std::string &What,
                           const std::vector<OpRecord> &Ops,
                           double TimedSeconds, double SetupS,
                           const PhaseSnaps &Snaps, Outcome &Out) {
  constexpr double IntervalOps = 1000;
  uint64_t Timed = 0;
  for (const OpRecord &R : Ops)
    Timed += R.Timed;
  double Mean = TimedSeconds > 0 ? double(Timed) / TimedSeconds : 0;
  double Len = std::max(1.0, IntervalOps / std::max(1.0, Mean));
  size_t N = std::max<size_t>(1, size_t(TimedSeconds / Len));
  Len = TimedSeconds / double(N);
  std::vector<std::vector<double>> Iv(N);
  for (const OpRecord &R : Ops)
    if (R.Timed)
      Iv[std::min(N - 1, size_t(std::max(0.0f, R.DoneS) / Len))].push_back(
          R.LatUs);
  std::vector<double> Rate, P50, P95, P99;
  for (std::vector<double> &V : Iv) {
    Rate.push_back(double(V.size()) / Len);
    P50.push_back(percentile(V, 50));
    P95.push_back(percentile(V, 95));
    P99.push_back(percentile(V, 99));
  }
  Out.e2e("setup_s", SetupS, "s");
  Out.e2e("ops_per_s", percentile(Rate, 90), "ops/s");
  Out.e2e("op_p50_us", percentile(P50, 10), "us");
  Out.e2e("op_p95_us", percentile(P95, 10), "us");
  Out.layer("op.p99_us", percentile(P99, 10), "us");
  Out.e2e("peak_rss_mib", Snaps.PeakRssMiB, "MiB");
  char Line[120];
  std::snprintf(Line, sizeof Line,
                ", %llu timed ops in %.1f s (%zu intervals), setup %.3f s",
                (unsigned long long)Timed, TimedSeconds, N, SetupS);
  Out.Report.push_back(What + Line);
}

void cmmbench::checkAnswers(
    const std::vector<OpRecord> &Ops,
    const std::function<std::optional<uint32_t>(uint32_t)> &ExpectedOf,
    bool Corrupt, Outcome &Out) {
  for (const OpRecord &R : Ops) {
    ++Out.Attempted;
    std::optional<uint32_t> Want = ExpectedOf(R.Item);
    if (Want && Corrupt && R.Item == Ops.front().Item)
      *Want ^= 1;
    if (R.Halted && Want && R.Got == *Want)
      continue;
    std::string Why = !R.Halted ? "did not halt with one result"
                      : !Want   ? "has no reference answer"
                                : "got " + std::to_string(R.Got) +
                                    ", expected " + std::to_string(*Want);
    Out.fail("item " + std::to_string(R.Item) + " on " +
             std::string(engine::backendName(engine::Backend(R.B))) + ": " +
             Why);
  }
}

std::map<uint32_t, uint64_t>
cmmbench::checkStepsAgree(const std::vector<OpRecord> &Ops, Outcome &Out) {
  std::map<uint32_t, uint64_t> Steps;
  std::map<uint32_t, uint8_t> FirstBackend;
  for (const OpRecord &R : Ops) {
    if (!R.Halted)
      continue;
    auto [It, New] = Steps.emplace(R.Item, R.Steps);
    if (New) {
      FirstBackend[R.Item] = R.B;
    } else if (It->second != R.Steps) {
      Out.fail("item " + std::to_string(R.Item) + ": " +
               std::string(engine::backendName(engine::Backend(R.B))) +
               " took " + std::to_string(R.Steps) + " steps, " +
               std::string(engine::backendName(
                   engine::Backend(FirstBackend[R.Item]))) +
               " took " + std::to_string(It->second));
    }
  }
  return Steps;
}

std::vector<engine::JobResult>
cmmbench::runAll(const std::vector<engine::Job> &Jobs, unsigned Threads) {
  engine::EngineOptions O;
  O.Threads = Threads;
  O.EnableCache = false;
  engine::Engine E(O);
  std::vector<engine::JobResult> Out(Jobs.size());
  E.pool().parallelFor(0, Jobs.size(),
                       [&](uint64_t I) { Out[I] = E.runJob(Jobs[I]); });
  return Out;
}

std::string cmmbench::repeaterSource(const std::string &Callee,
                                     unsigned NArgs) {
  std::string Params, Args;
  for (unsigned I = 0; I < NArgs; ++I) {
    Params += ", bits32 a" + std::to_string(I);
    Args += (I ? ", a" : "a") + std::to_string(I);
  }
  return "import " + Callee + ";\n"
         "export repeat;\n"
         "repeat(bits32 reps" + Params + ") {\n"
         "  bits32 i, acc, r;\n"
         "  i = 0;\n"
         "  acc = 0;\n"
         "loop:\n"
         "  if i == reps { return (acc); }\n"
         "  r = " + Callee + "(" + Args + ");\n"
         "  acc = acc + r;\n"
         "  i = i + 1;\n"
         "  goto loop;\n"
         "}\n";
}

engine::Backend cmmbench::backendMix(Rng &R) {
  uint64_t Mix = R.below(5);
  return Mix == 0   ? engine::Backend::Walk
         : Mix <= 2 ? engine::Backend::Vm
                    : engine::Backend::Threaded;
}

std::vector<Value> cmmbench::b32s(const std::vector<uint32_t> &Vs) {
  std::vector<Value> Out;
  for (uint32_t V : Vs)
    Out.push_back(Value::bits(32, V));
  return Out;
}

engine::DispatcherKind cmmbench::dispatcherFor(DispatchTechnique T) {
  switch (T) {
  case DispatchTechnique::CutRuntime:
    return engine::DispatcherKind::Cut;
  case DispatchTechnique::UnwindRuntime:
    return engine::DispatcherKind::Unwind;
  default:
    return engine::DispatcherKind::None;
  }
}

const char *cmmbench::techniqueKey(DispatchTechnique T) {
  switch (T) {
  case DispatchTechnique::CutGenerated:
    return "cut_gen";
  case DispatchTechnique::CutRuntime:
    return "cut_rt";
  case DispatchTechnique::UnwindGenerated:
    return "unwind_gen";
  case DispatchTechnique::UnwindRuntime:
    return "unwind_rt";
  case DispatchTechnique::Cps:
    break;
  }
  return "cps";
}

//===----------------------------------------------------------------------===//
// Layer metrics shared by the engine workloads
//===----------------------------------------------------------------------===//

const std::vector<std::string> &cmmbench::engineCounterNames() {
  static const std::vector<std::string> N = {
      "pool.busy_micros",     "pool.idle_micros",      "pool.tasks_executed",
      "pool.tasks_stolen",    "sched.context_switches", "sched.chan_sends",
      "svc.errors",           "svc.bad_frames",        "svc.quota_rejects"};
  return N;
}

const std::vector<std::string> &cmmbench::engineHistNames() {
  static const std::vector<std::string> N = {
      "cache.compile_micros", "sched.run_slice_micros", "engine.queue_micros",
      "svc.request_micros"};
  return N;
}

void cmmbench::engineLayerMetrics(const std::vector<OpRecord> &Ops,
                                  const PhaseSnaps &W, double TimedSeconds,
                                  Outcome &Out) {
  const RegSnap &Before = W.Before, &After = W.After;
  const engine::CacheStats &C0 = W.CacheBefore, &C1 = W.CacheAfter;
  std::vector<double> Queue, Run, Compile;
  std::vector<double> RunBy[3];
  double StepsBy[3] = {0, 0, 0}, RunMsBy[3] = {0, 0, 0};
  double Dispatches = 0, Walked = 0, Cycles = 0, Threads = 0, Switches = 0;
  uint64_t N = 0;
  for (const OpRecord &R : Ops) {
    if (!R.Timed)
      continue;
    ++N;
    Queue.push_back(R.QueueUs);
    Run.push_back(R.RunUs);
    if (!R.CacheHit)
      Compile.push_back(R.CompileUs);
    RunBy[R.B].push_back(R.RunUs);
    StepsBy[R.B] += double(R.Steps);
    RunMsBy[R.B] += R.RunUs / 1000.0;
    Dispatches += R.Dispatches;
    Walked += R.Walked;
    Cycles += R.ResumeCycles;
    Threads += R.SchedThreads;
    Switches += R.SchedSwitches;
  }
  double Ops1 = double(std::max<uint64_t>(N, 1));
  Out.layer("engine.queue_us.p50", percentile(Queue, 50), "us");
  Out.layer("engine.queue_us.p99", percentile(Queue, 99), "us");
  Out.layer("engine.queue_us.samples",
            double(After.histCount(Before, "engine.queue_micros")), "count");
  Out.layer("engine.run_us.p50", percentile(Run, 50), "us");
  Out.layer("engine.run_us.p99", percentile(Run, 99), "us");
  Out.layer("engine.compile_us.p50", percentile(Compile, 50), "us");
  Out.layer("engine.compile_us.p99", percentile(Compile, 99), "us");

  double Busy = double(After.counterDelta(Before, "pool.busy_micros"));
  double Idle = double(After.counterDelta(Before, "pool.idle_micros"));
  double Exec = double(After.counterDelta(Before, "pool.tasks_executed"));
  double Stolen = double(After.counterDelta(Before, "pool.tasks_stolen"));
  Out.layer("pool.busy_ratio", Busy + Idle > 0 ? Busy / (Busy + Idle) : 0,
            "ratio");
  Out.layer("pool.steal_ratio", Exec > 0 ? Stolen / Exec : 0, "ratio");

  double Lookups = double(C1.Lookups - C0.Lookups);
  Out.layer("cache.lookups", Lookups, "count");
  Out.layer("cache.hit_ratio",
            Lookups > 0 ? double(C1.Hits - C0.Hits) / Lookups : 0, "ratio");
  Out.layer("cache.ir_compiles", double(C1.IrCompiles - C0.IrCompiles),
            "count");
  Out.layer("cache.bytecode_compiles",
            double(C1.BytecodeCompiles - C0.BytecodeCompiles), "count");
  Out.layer("cache.threaded_compiles",
            double(C1.ThreadedCompiles - C0.ThreadedCompiles), "count");
  Out.layer("cache.evictions", double(C1.Evictions - C0.Evictions), "count");
  Out.layer("cache.singleflight_joins",
            double(C1.SingleFlightJoins - C0.SingleFlightJoins), "count");
  Out.layer("cache.compile_us.p50",
            After.histPercentile(Before, "cache.compile_micros", 50), "us");
  Out.layer("cache.compile_us.p99",
            After.histPercentile(Before, "cache.compile_micros", 99), "us");

  static const char *BackendKey[3] = {"walk", "vm", "threaded"};
  for (int B = 0; B < 3; ++B) {
    Out.layer(std::string("exec.steps_per_s.") + BackendKey[B],
              RunMsBy[B] > 0 ? StepsBy[B] / (RunMsBy[B] / 1000.0) : 0,
              "steps/s");
    Out.layer(std::string("exec.run_us.p50.") + BackendKey[B],
              percentile(RunBy[B], 50), "us");
  }
  Out.layer("rts.dispatches_per_op", Dispatches / Ops1, "count");
  Out.layer("rts.frames_walked_per_op", Walked / Ops1, "count");
  Out.layer("exec.resume_cycles_per_op", Cycles / Ops1, "count");

  Out.layer("sched.switches_per_s",
            TimedSeconds > 0
                ? double(After.counterDelta(Before, "sched.context_switches")) /
                      TimedSeconds
                : 0,
            "1/s");
  Out.layer("sched.threads_per_op", Threads / Ops1, "count");
  Out.layer("sched.switches_per_op", Switches / Ops1, "count");
  Out.layer("sched.chan_msgs_per_op",
            double(After.counterDelta(Before, "sched.chan_sends")) / Ops1,
            "count");
  Out.layer("sched.slice_us.p50",
            After.histPercentile(Before, "sched.run_slice_micros", 50), "us");
  Out.layer("sched.slice_us.p99",
            After.histPercentile(Before, "sched.run_slice_micros", 99), "us");
}

std::thread cmmbench::snapWindow(
    MetricsRegistry &Reg, const std::function<engine::CacheStats()> &Cache,
    Clock::time_point From, Clock::time_point To, PhaseSnaps &Out) {
  return std::thread([&Reg, Cache, From, To, &Out] {
    std::this_thread::sleep_until(From);
    Out.Before = RegSnap::take(Reg, engineCounterNames(), engineHistNames());
    Out.CacheBefore = Cache();
    std::this_thread::sleep_until(To);
    Out.After = RegSnap::take(Reg, engineCounterNames(), engineHistNames());
    Out.CacheAfter = Cache();
    Out.PeakRssMiB = peakRssMiB();
  });
}

void cmmbench::stepsMetrics(
    const std::map<uint32_t, uint64_t> &Steps,
    const std::function<DispatchTechnique(uint32_t)> &TechOf, Outcome &Out) {
  std::map<DispatchTechnique, std::pair<double, double>> ByTech; // sum, n
  double Total = 0;
  for (auto [Item, N] : Steps) {
    Total += double(N);
    auto &[Sum, Count] = ByTech[TechOf(Item)];
    Sum += double(N);
    Count += 1;
  }
  Out.layer("exec.steps_per_op",
            Steps.empty() ? 0 : Total / double(Steps.size()), "steps");
  for (DispatchTechnique T : AllDispatchTechniques) {
    auto [Sum, Count] = ByTech[T];
    Out.layer(std::string("exec.steps_per_op.") + techniqueKey(T),
              Count > 0 ? Sum / Count : 0, "steps");
  }
}

void cmmbench::traceLayerMetrics(const Tracer &T, const char *RootName,
                                 Outcome &Out) {
  Tracer::SelfTimes S = T.selfTimes(RootName);
  double Ops = double(std::max<uint64_t>(S.Roots, 1));
  for (const char *Layer :
       {"engine", "compile", "sem", "vm", "sched", "svc", "gen"}) {
    auto It = S.SelfUsByLayer.find(Layer);
    Out.layer(std::string("self_us_per_op.") + Layer,
              It == S.SelfUsByLayer.end() ? 0 : It->second / Ops, "us");
  }
  Out.layer("trace.coverage", S.RootUs > 0 ? S.CoveredUs / S.RootUs : 0,
            "ratio");
  Out.layer("trace.spans", double(T.spanCount()), "count");
  std::string Line = "self time per op (us):";
  char Buf[64];
  for (const auto &[Name, Us] : S.SelfUsByName) {
    std::snprintf(Buf, sizeof Buf, " %s=%.2f", Name.c_str(), Us / Ops);
    Line += Buf;
  }
  Out.Report.push_back(Line);
}
