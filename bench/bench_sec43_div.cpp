//===- bench/bench_sec43_div.cpp - Experiment §4.3 ------------------------===//
//
// Part of cmmex (see DESIGN.md). Section 4.3: primitive operations that can
// fail. %divu is the fast-but-dangerous variant (one "instruction");
// %%divu is the slow-but-solid library procedure that tests its divisor
// and maps failure into a yield. The benchmark measures the cost of the
// check on the success path and the full dispatch cost on failure.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "rts/Dispatchers.h"

using namespace cmm;
using namespace cmm::bench;

namespace {

const char *divSource() {
  return R"(
export fast_loop, solid_loop, solid_fail;

data d0 { bits32 1; bits32 53744; bits32 0; bits32 0; }

/* Sum of a/i for i in 1..n, fast variant. */
fast_loop(bits32 a, bits32 n) {
  bits32 i, acc;
  i = 1;
  acc = 0;
loop:
  if i > n { return (acc); }
  acc = acc + %divu(a, i);
  i = i + 1;
  goto loop;
}

/* Same, slow-but-solid variant. */
solid_loop(bits32 a, bits32 n) {
  bits32 i, acc, q;
  i = 1;
  acc = 0;
loop:
  if i > n { return (acc); }
  q = %%divu(a, i) also aborts;
  acc = acc + q;
  i = i + 1;
  goto loop;
}

/* One failing division, handled. */
solid_fail(bits32 a) {
  bits32 q;
  q = %%divu(a, 0) also unwinds to k also aborts descriptors d0;
  return (q);
continuation k:
  return (4294967295);
}
)";
}

const IrProgram &program() {
  static std::unique_ptr<IrProgram> P = compileOrDie({divSource()});
  return *P;
}

void BM_div(benchmark::State &State) {
  bool Solid = State.range(0) != 0;
  uint64_t N = static_cast<uint64_t>(State.range(1));
  uint64_t Steps = 0, Runs = 0;
  for (auto _ : State) {
    Machine M(program());
    M.start(Solid ? "solid_loop" : "fast_loop", {b32(1000000), b32(N)});
    if (M.run() != MachineStatus::Halted) {
      State.SkipWithError("did not halt");
      return;
    }
    benchmark::DoNotOptimize(M.argArea()[0].Raw);
    Steps += M.stats().Steps;
    ++Runs;
  }
  State.SetLabel(Solid ? "%%divu(checked)" : "%divu(fast)");
  State.counters["steps_per_div"] =
      static_cast<double>(Steps) / Runs / N;
}

void BM_div_failure_dispatch(benchmark::State &State) {
  uint64_t Steps = 0, Runs = 0;
  for (auto _ : State) {
    Machine M(program());
    M.start("solid_fail", {b32(42)});
    DispatcherHolder D(M, DispatcherKind::Unwind);
    if (runWithRuntime(M, std::ref(D)) != MachineStatus::Halted) {
      State.SkipWithError("did not halt");
      return;
    }
    benchmark::DoNotOptimize(M.argArea()[0].Raw);
    Steps += M.stats().Steps;
    ++Runs;
  }
  State.counters["steps"] = static_cast<double>(Steps) / Runs;
}

} // namespace

static void divArgs(benchmark::internal::Benchmark *B) {
  for (int64_t Solid : {0, 1})
    for (int64_t N : {64, 1024})
      B->Args({Solid, N});
}
BENCHMARK(BM_div)->Apply(divArgs);
BENCHMARK(BM_div_failure_dispatch);

CMM_BENCH_MAIN(sec43_div);
