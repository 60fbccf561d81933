//===- bench/bench_interp.cpp - Experiment INTERP -------------------------===//
//
// Part of cmmex (see DESIGN.md). Three-way backend comparison: the same
// workloads, executed by the reference tree walker (sem/Machine.h), by the
// bytecode VM (vm/Vm.h), and by the threaded tier (vm/Threaded.h). All
// backends implement identical observable semantics (the differential
// harness holds them to it, counter for counter), so the wall-time ratios
// here are pure interpretation overhead: walk/vm measures what re-walking
// expression trees costs against register bytecode; vm/threaded measures
// what superinstruction fusion buys (both run the same dispatch loop, the
// vm backend over the unfused op stream, the threaded tier over the fused
// stream).
//
// Rows of one workload share a name prefix: interp/<workload>/walk, .../vm,
// and .../threaded. main() computes per-workload speedups and their
// geomeans into the BENCH_interp.json metadata block.
//
// Workloads cover the IR's cost centres: call/return frames (sp1), tail
// calls (sp2), straight-line expression loops (sp3), memory traffic
// (memrev), every Figure 2 exception-dispatch technique under its raising
// workload, and a mixed random program from the differential corpus.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "costmodel/RandomProgram.h"
#include "engine/Engine.h"
#include "rts/Dispatchers.h"
#include "vm/Threaded.h"
#include "vm/Vm.h"

#include <cmath>
#include <functional>

using namespace cmm;
using namespace cmm::bench;

namespace {

const char *sumProdSource() {
  return R"(
export sp1, sp2, sp3;
sp1(bits32 n) {
  bits32 s, p;
  if n == 1 { return (1, 1); } else {
    s, p = sp1(n - 1);
    return (s + n, p * n);
  }
}
sp2(bits32 n) { jump sp2_help(n, 1, 1); }
sp2_help(bits32 n, bits32 s, bits32 p) {
  if n == 1 { return (s, p); } else {
    jump sp2_help(n - 1, s + n, p * n);
  }
}
sp3(bits32 n) {
  bits32 s, p;
  s = 1; p = 1;
loop:
  if n == 1 { return (s, p); } else {
    s = s + n; p = p * n; n = n - 1;
    goto loop;
  }
}
)";
}

/// Writes n words into the data segment, then reverses them in place and
/// sums the result: a load/store-bound loop.
const char *memRevSource() {
  return R"(
export memrev;
data buf { bits32[256]; }
memrev(bits32 n) {
  bits32 i, j, t, u, s;
  i = 0;
fill:
  if i < n {
    bits32[buf + i * 4] = i * 3 + 1;
    i = i + 1;
    goto fill;
  }
  i = 0; j = n - 1;
swap:
  if i < j {
    t = bits32[buf + i * 4];
    u = bits32[buf + j * 4];
    bits32[buf + i * 4] = u;
    bits32[buf + j * 4] = t;
    i = i + 1; j = j - 1;
    goto swap;
  }
  i = 0; s = 0;
sum:
  if i < n {
    s = s + bits32[buf + i * 4];
    i = i + 1;
    goto sum;
  }
  return (s);
}
)";
}

/// One workload: a compiled program plus how to run it.
struct Workload {
  std::string Name;
  std::unique_ptr<IrProgram> Prog;
  std::string Entry;
  std::vector<Value> Args;
  /// Which dispatcher the workload's yields expect (none for most).
  DispatchTechnique Technique = DispatchTechnique::CutGenerated;
};

void runInterp(benchmark::State &State, const Workload &W,
               std::unique_ptr<Executor> Exec) {
  Executor &M = *Exec;
  uint64_t Steps = 0, Runs = 0;
  for (auto _ : State) {
    M.resetStats();
    M.start(W.Entry, W.Args);
    DispatcherHolder D(M, runtimeDispatcher(W.Technique));
    MachineStatus St = runWithRuntime(M, std::ref(D));
    if (St != MachineStatus::Halted) {
      State.SkipWithError("machine did not halt");
      return;
    }
    benchmark::DoNotOptimize(M.argArea()[0].Raw);
    Steps += M.stats().Steps;
    ++Runs;
  }
  State.counters["steps"] =
      benchmark::Counter(static_cast<double>(Steps) / Runs);
  State.counters["steps_per_sec"] = benchmark::Counter(
      static_cast<double>(Steps), benchmark::Counter::kIsRate);
}

std::vector<Workload> &workloads() {
  static std::vector<Workload> Ws = [] {
    std::vector<Workload> V;
    auto Add = [&](std::string Name, const std::string &Src,
                   std::string Entry, std::vector<Value> Args,
                   DispatchTechnique T = DispatchTechnique::CutGenerated) {
      Workload W;
      W.Name = std::move(Name);
      W.Prog = compileOrDie({Src});
      W.Entry = std::move(Entry);
      W.Args = std::move(Args);
      W.Technique = T;
      V.push_back(std::move(W));
    };
    Add("sp1_calls", sumProdSource(), "sp1", {b32(200)});
    Add("sp2_jumps", sumProdSource(), "sp2", {b32(200)});
    Add("sp3_loop", sumProdSource(), "sp3", {b32(200)});
    Add("memrev", memRevSource(), "memrev", {b32(256)});
    for (DispatchTechnique T : AllDispatchTechniques)
      Add(std::string("dispatch_") + dispatchTechniqueName(T),
          dispatchWorkloadSource(T), "bench", {b32(40), b32(1)}, T);
    {
      RandomProgramOptions G;
      G.NumProcs = 6;
      G.Strategy = DispatchTechnique::CutGenerated;
      Add("random_mixed", generateRandomProgram(7, G), "main", {b32(12)});
    }
    return V;
  }();
  return Ws;
}

void registerAll() {
  suiteMetadata()["backends"] = "walk,vm,threaded";
  suiteMetadata()["threaded_dispatch"] = threadedDispatchKind();
  suiteMetadata()["fusion"] = "all (vm rows: none)";
  for (const Workload &W : workloads()) {
    for (engine::Backend B : engine::AllBackends)
      benchmark::RegisterBenchmark(
          ("interp/" + W.Name + "/" + std::string(engine::backendName(B)))
              .c_str(),
          [&W, B](benchmark::State &S) {
            runInterp(S, W, engine::makeExecutor(B, *W.Prog));
          });
  }
  // Bytecode compilation is a one-time, per-program cost; measured so the
  // speedup table can show how quickly the VM amortizes it.
  benchmark::RegisterBenchmark("interp/compile_bytecode",
                               [](benchmark::State &S) {
                                 const Workload &W = workloads().front();
                                 for (auto _ : S) {
                                   CompiledProgram CP =
                                       compileToBytecode(*W.Prog);
                                   benchmark::DoNotOptimize(CP.Procs.size());
                                 }
                               });
  // Same for the fusion pass, which the threaded tier adds on top.
  benchmark::RegisterBenchmark(
      "interp/fuse_threaded", [](benchmark::State &S) {
        const Workload &W = workloads().front();
        auto BC =
            std::make_shared<const CompiledProgram>(compileToBytecode(*W.Prog));
        for (auto _ : S) {
          auto TP = fuseProgram(BC);
          benchmark::DoNotOptimize(TP->Fusion.FusedSites);
        }
      });
}

[[maybe_unused]] const bool Registered = (registerAll(), true);

/// Per-iteration cpu time of run named <workload>/<suffix>, or 0.
double cpuPerIter(const JsonCaptureReporter &R, const std::string &Name) {
  for (const auto &Run : R.runs())
    if (Run.benchmark_name() == Name && Run.iterations > 0 &&
        !Run.error_occurred)
      return Run.cpu_accumulated_time / double(Run.iterations);
  return 0.0;
}

std::string fmt(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.3f", V);
  return Buf;
}

/// Computes per-workload speedup ratios and their geomeans into the suite
/// metadata, so BENCH_interp.json carries the comparison, not just raw rows.
void annotateSpeedups(const JsonCaptureReporter &R) {
  struct Geo {
    double LogSum = 0;
    unsigned N = 0;
    void add(double Ratio) { LogSum += std::log(Ratio), ++N; }
    double mean() const { return N ? std::exp(LogSum / N) : 0.0; }
  };
  Geo VmOverWalk, ThreadedOverWalk, FusionGain;
  for (const Workload &W : workloads()) {
    double Walk = cpuPerIter(R, "interp/" + W.Name + "/walk");
    double Vm = cpuPerIter(R, "interp/" + W.Name + "/vm");
    double Thr = cpuPerIter(R, "interp/" + W.Name + "/threaded");
    if (!Walk || !Vm || !Thr)
      continue;
    VmOverWalk.add(Walk / Vm);
    ThreadedOverWalk.add(Walk / Thr);
    FusionGain.add(Vm / Thr);
    suiteMetadata()["speedup_" + W.Name] =
        "vm_over_walk=" + fmt(Walk / Vm) + " fusion_gain=" + fmt(Vm / Thr);
  }
  suiteMetadata()["geomean_vm_over_walk"] = fmt(VmOverWalk.mean());
  suiteMetadata()["geomean_threaded_over_walk"] = fmt(ThreadedOverWalk.mean());
  suiteMetadata()["geomean_fusion_gain"] = fmt(FusionGain.mean());
}

} // namespace

int main(int argc, char **argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  JsonCaptureReporter Reporter;
  ::benchmark::RunSpecifiedBenchmarks(&Reporter);
  annotateSpeedups(Reporter);
  if (!Reporter.writeJsonFile("interp"))
    std::fprintf(stderr, "warning: could not write BENCH_interp.json\n");
  ::benchmark::Shutdown();
  return 0;
}
