//===- bench/bench_fig2_design_space.cpp - Experiment F2 ------------------===//
//
// Part of cmmex (see DESIGN.md). Figure 2: the design space of control
// transfer for exceptions — {stack walk?} x {generated code vs run-time
// system} — plus continuation-passing style. One workload, five
// implementations (src/costmodel/DispatchWorkloads); the benchmark
// measures:
//
//  - raise cost as a function of stack depth (cut and CPS are O(1);
//    unwinding variants are O(depth), the runtime one with a larger
//    constant because the walk is interpretive);
//  - normal-path cost (unwinding variants are free; cutting pays handler-
//    stack bookkeeping per scope entry; CPS pays closure allocation);
//  - the crossover in total cost as the raise frequency varies.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "costmodel/DispatchWorkloads.h"
#include "rts/Dispatchers.h"

using namespace cmm;
using namespace cmm::bench;

namespace {

const IrProgram &benchProgram(DispatchTechnique T) {
  static std::unique_ptr<IrProgram> Progs[5];
  auto &Slot = Progs[static_cast<int>(T)];
  if (!Slot)
    Slot = compileOrDie({dispatchWorkloadSource(T)});
  return *Slot;
}

MachineStatus runWithPolicyRuntime(Machine &M, DispatchTechnique T) {
  DispatcherHolder D(M, runtimeDispatcher(T));
  return runWithRuntime(M, std::ref(D));
}

/// Raise (or not) across a stack of the given depth.
void BM_dispatch(benchmark::State &State) {
  auto T = static_cast<DispatchTechnique>(State.range(0));
  uint64_t Depth = static_cast<uint64_t>(State.range(1));
  uint64_t DoRaise = static_cast<uint64_t>(State.range(2));
  const IrProgram &Prog = benchProgram(T);

  uint64_t Steps = 0, Yields = 0, Pops = 0, Runs = 0;
  for (auto _ : State) {
    Machine M(Prog);
    M.start("bench", {b32(Depth), b32(DoRaise)});
    if (runWithPolicyRuntime(M, T) != MachineStatus::Halted) {
      State.SkipWithError("did not halt");
      return;
    }
    benchmark::DoNotOptimize(M.argArea()[0].Raw);
    Steps += M.stats().Steps;
    Yields += M.stats().Yields;
    Pops += M.stats().UnwindPops + M.stats().FramesCutOver;
    ++Runs;
  }
  State.SetLabel(dispatchTechniqueName(T));
  State.counters["steps"] = static_cast<double>(Steps) / Runs;
  State.counters["yields"] = static_cast<double>(Yields) / Runs;
  State.counters["frames_unwound_or_cut"] = static_cast<double>(Pops) / Runs;
}

/// Total cost as the raise frequency varies (period = iterations between
/// raises). The crossover between cutting and unwinding lives here.
void BM_sweep(benchmark::State &State) {
  auto T = static_cast<DispatchTechnique>(State.range(0));
  uint64_t Period = static_cast<uint64_t>(State.range(1));
  static std::unique_ptr<IrProgram> Progs[5];
  auto &Slot = Progs[static_cast<int>(T)];
  if (!Slot)
    Slot = compileOrDie({sweepWorkloadSource(T)});

  constexpr uint64_t Iters = 256, Depth = 6;
  uint64_t Steps = 0, Runs = 0;
  for (auto _ : State) {
    Machine M(*Slot);
    M.start("sweep", {b32(Iters), b32(Period), b32(Depth)});
    if (runWithPolicyRuntime(M, T) != MachineStatus::Halted) {
      State.SkipWithError("did not halt");
      return;
    }
    benchmark::DoNotOptimize(M.argArea()[0].Raw);
    Steps += M.stats().Steps;
    ++Runs;
  }
  State.SetLabel(dispatchTechniqueName(T));
  State.counters["steps_per_iter"] =
      static_cast<double>(Steps) / Runs / Iters;
}

} // namespace

// The 2x2 of Figure 2 plus CPS, at three depths, raise vs no raise.
static void dispatchArgs(benchmark::internal::Benchmark *B) {
  for (DispatchTechnique T : AllDispatchTechniques)
    for (int64_t Depth : {4, 32, 256})
      for (int64_t Raise : {0, 1})
        B->Args({static_cast<int64_t>(T), Depth, Raise});
}
BENCHMARK(BM_dispatch)->Apply(dispatchArgs);

static void sweepArgs(benchmark::internal::Benchmark *B) {
  for (DispatchTechnique T :
       {DispatchTechnique::CutGenerated, DispatchTechnique::UnwindGenerated,
        DispatchTechnique::UnwindRuntime})
    for (int64_t Period : {1, 2, 4, 8, 16, 32, 64, 128, 256})
      B->Args({static_cast<int64_t>(T), Period});
}
BENCHMARK(BM_sweep)->Apply(sweepArgs);

CMM_BENCH_MAIN(fig2_design_space);
