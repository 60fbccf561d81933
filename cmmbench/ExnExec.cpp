//===- cmmbench/ExnExec.cpp - Workload exn_exec ---------------------------===//
//
// Part of cmmex (see DESIGN.md and cmmbench/README.md).
//
// Closed loop over pre-interned artifacts: 2*nproc clients keep one job
// each in flight on an engine with nproc workers. The job mix covers all
// five exception techniques (Figure 2 plus CPS) as the dispatch workload,
// the three sweep variants, and generated random programs, on the
// walk:vm:threaded = 1:2:2 backend mix. Every artifact is compiled during
// set-up, so the executors (sem, vm) and the dispatchers (rts) do the work
// and the compile pipeline, the cache and svc do none.
//
// Op sizes are calibrated, not drawn: every item is scaled to one of five
// fixed step budgets, so the mix costs the same on every seed and the seed
// only varies which programs, depths and periods fill it.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "costmodel/RandomProgram.h"
#include "support/Rng.h"

#include <algorithm>
#include <cmath>
#include <optional>

using namespace cmm;
using namespace cmmbench;

namespace {

enum class Kind { Dispatch, Sweep, Random };

struct Item {
  Kind K = Kind::Dispatch;
  DispatchTechnique Tech = DispatchTechnique::CutGenerated;
  engine::CompileRequest Req;
  std::string Entry;
  /// Args[0] is the size knob: repetitions for `repeat`, iterations for
  /// `sweep`.
  std::vector<uint32_t> Args;
  uint64_t StepBudget = 0;
  std::shared_ptr<const engine::ProgramArtifact> Art;
};

/// Step budgets per op: 0.1 ms to a few ms on the bytecode executors.
constexpr uint64_t StepBudgets[] = {8000, 16000, 32000, 64000, 128000};
constexpr uint32_t SweepProbeIters = 64;
constexpr uint32_t Inputs[] = {0, 1, 3, 7, 12, 100};

uint32_t logUniform(Rng &R, uint32_t Lo, uint32_t Hi) {
  double U = double(R.below(1 << 20)) / double(1 << 20);
  return uint32_t(std::lround(std::exp(std::log(double(Lo)) +
                                       U * (std::log(double(Hi)) -
                                            std::log(double(Lo))))));
}

std::vector<Item> makeCatalog(uint64_t Seed) {
  Rng R(Seed * 0x9e3779b97f4a7c15ull + 0x65786e);
  std::vector<Item> Items;
  auto add = [&](Kind K, DispatchTechnique T, uint64_t Budget,
                 unsigned Variant) {
    Item I;
    I.K = K;
    I.Tech = T;
    I.StepBudget = Budget;
    I.Req.Optimize = R.chance(1, 2);
    switch (K) {
    case Kind::Dispatch:
      I.Req.Sources = {dispatchWorkloadSource(T), repeaterSource("bench", 2)};
      I.Entry = "repeat";
      I.Args = {1, logUniform(R, 8, 512), Variant}; // depth, do_raise
      break;
    case Kind::Sweep:
      I.Req.Sources = {sweepWorkloadSource(T)};
      I.Entry = "sweep";
      I.Args = {SweepProbeIters, logUniform(R, 1, 256),
                uint32_t(R.range(4, 16))}; // iters, period, depth
      break;
    case Kind::Random: {
      RandomProgramOptions O;
      O.NumProcs = 2 + unsigned(Items.size() % 11);
      O.Strategy = T;
      I.Req.Sources = {generateRandomProgram(R.next(), O),
                       repeaterSource("main", 1)};
      I.Entry = "repeat";
      I.Args = {1, Inputs[R.below(std::size(Inputs))]};
      break;
    }
    }
    Items.push_back(std::move(I));
  };
  for (uint64_t Budget : StepBudgets)
    for (unsigned Variant : {0u, 1u}) {
      for (DispatchTechnique T : AllDispatchTechniques) {
        add(Kind::Dispatch, T, Budget, Variant);
        add(Kind::Random, T, Budget, Variant);
      }
      for (DispatchTechnique T :
           {DispatchTechnique::CutGenerated, DispatchTechnique::UnwindGenerated,
            DispatchTechnique::UnwindRuntime})
        add(Kind::Sweep, T, Budget, Variant);
    }
  return Items;
}

engine::Job jobFor(const Item &I, engine::Backend B, bool Unoptimized) {
  engine::Job J;
  if (Unoptimized) {
    J.Request = I.Req;
    J.Request.Optimize = false;
  } else {
    J.Artifact = I.Art;
  }
  J.B = B;
  J.Entry = I.Entry;
  J.Args = b32s(I.Args);
  J.Dispatcher = dispatcherFor(I.Tech);
  return J;
}

/// The answer of the dispatch and sweep items, from the workloads' closed
/// forms; nullopt for random programs (they get the walker's answer).
std::optional<uint32_t> closedForm(const Item &I) {
  switch (I.K) {
  case Kind::Dispatch:
    return uint32_t(I.Args[0] * (I.Args[2] ? 1099u : 1u));
  case Kind::Sweep: {
    uint32_t Iters = I.Args[0], Period = I.Args[1];
    return Iters + 1098u * ((Iters + Period - 1) / Period);
  }
  case Kind::Random:
    break;
  }
  return std::nullopt;
}

struct State {
  std::unique_ptr<engine::Engine> E;
  std::vector<std::shared_ptr<const engine::ProgramArtifact>> Arts;
  std::string Error;
};

} // namespace

Outcome cmmbench::runExnExec(const RunConfig &C, Tracer *T) {
  Outcome Out;
  std::vector<Item> Items = makeCatalog(C.Seed);

  // Input calibration: one unit-size run per item on the walker, then scale
  // the size knob to the item's step budget.
  {
    std::vector<engine::Job> Probe;
    for (const Item &I : Items)
      Probe.push_back(jobFor(I, engine::Backend::Walk, true));
    std::vector<engine::JobResult> R = runAll(Probe, C.Nproc);
    for (size_t K = 0; K < Items.size(); ++K) {
      if (!R[K].ok()) {
        Out.fail("calibration run of item " + std::to_string(K) +
                 " failed: " + R[K].CompileError + R[K].WrongReason);
        return Out;
      }
      double Unit = double(R[K].MachineStats.Steps) / double(Items[K].Args[0]);
      Items[K].Args[0] = uint32_t(std::max(
          1.0, std::round(double(Items[K].StepBudget) / std::max(1.0, Unit))));
    }
  }

  double SetupS = 0;
  std::unique_ptr<State> S = setUpMedian<State>(
      C.SetupReps,
      [&] {
        auto St = std::make_unique<State>();
        engine::EngineOptions O;
        O.Threads = C.Nproc;
        St->E = std::make_unique<engine::Engine>(O);
        for (const Item &I : Items) {
          auto A = St->E->compile(I.Req);
          if (!A->ok()) {
            St->Error = A->error();
            break;
          }
          A->threaded(); // compiles the bytecode too
          St->Arts.push_back(std::move(A));
        }
        return St;
      },
      SetupS);
  if (!S->Error.empty()) {
    Out.fail("set-up compile failed: " + S->Error);
    return Out;
  }
  for (size_t K = 0; K < Items.size(); ++K)
    Items[K].Art = S->Arts[K];

  Clock::time_point Start = Clock::now();
  ClosedLoop L;
  L.Clients = 2 * C.Nproc;
  L.TimedFrom = after(Start, warmupSeconds(C.Seconds));
  L.Stop = after(Start, C.Seconds);
  L.Make = [&](uint64_t Seq, uint32_t &Pick) {
    Rng R(C.Seed ^ (Seq * 0xd1b54a32d192ed03ull));
    Pick = uint32_t(R.below(Items.size()));
    engine::Backend B = backendMix(R);
    return jobFor(Items[Pick], B, false);
  };
  PhaseSnaps Snaps;
  std::vector<OpRecord> Ops = runClosedLoop(*S->E, L, T, Snaps);

  // Answers: closed forms, and the tree walker on the unoptimized program
  // for the random items (computed after the timed phase, in parallel).
  std::vector<std::optional<uint32_t>> Expected(Items.size());
  {
    std::vector<size_t> RandomIdx;
    std::vector<engine::Job> Ref;
    for (size_t K = 0; K < Items.size(); ++K) {
      if (std::optional<uint32_t> V = closedForm(Items[K])) {
        Expected[K] = *V;
      } else {
        RandomIdx.push_back(K);
        Ref.push_back(jobFor(Items[K], engine::Backend::Walk, true));
      }
    }
    std::vector<engine::JobResult> R = runAll(Ref, C.Nproc);
    for (size_t J = 0; J < R.size(); ++J) {
      if (!R[J].ok() || R[J].Results.size() != 1) {
        Out.fail("reference run of item " + std::to_string(RandomIdx[J]) +
                 " did not halt with one result");
        continue;
      }
      Expected[RandomIdx[J]] = uint32_t(R[J].Results[0].Raw);
    }
  }
  checkAnswers(Ops, [&](uint32_t K) { return Expected[K]; }, C.CorruptExpected,
               Out);
  std::map<uint32_t, uint64_t> Steps = checkStepsAgree(Ops, Out);

  double TimedSeconds = usBetween(L.TimedFrom, L.Stop) / 1e6;
  loopResults("exn_exec: " + std::to_string(Items.size()) + " items", Ops,
              TimedSeconds, SetupS, Snaps, Out);

  if (T) {
    engineLayerMetrics(Ops, Snaps, TimedSeconds, Out);
    stepsMetrics(Steps, [&](uint32_t K) { return Items[K].Tech; }, Out);
    traceLayerMetrics(*T, "engine.job", Out);
  }
  return Out;
}
