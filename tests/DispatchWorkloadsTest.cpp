//===- tests/DispatchWorkloadsTest.cpp - Figure 2 workloads ---------------===//
//
// Part of cmmex (see DESIGN.md). All five implementations of the Figure 2
// workload compute identical results; their costs differ exactly as the
// paper's design-space discussion predicts.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "costmodel/DispatchWorkloads.h"
#include "rts/Dispatchers.h"

using namespace cmm;
using namespace cmm::test;

namespace {

struct RunOutcome {
  uint64_t Result = 0;
  Stats S;
  bool Ok = false;
};

RunOutcome runBench(DispatchTechnique T, uint64_t Depth, uint64_t DoRaise) {
  auto Prog = compile({dispatchWorkloadSource(T)});
  RunOutcome O;
  if (!Prog)
    return O;
  Machine M(*Prog);
  M.start("bench", {b32(Depth), b32(DoRaise)});
  DispatcherHolder D(M, runtimeDispatcher(T));
  MachineStatus St = runWithRuntime(M, std::ref(D));
  if (St != MachineStatus::Halted) {
    ADD_FAILURE() << dispatchTechniqueName(T) << ": " << M.wrongReason();
    return O;
  }
  O.Ok = true;
  O.Result = M.argArea()[0].Raw;
  O.S = M.stats();
  return O;
}

class DispatchTest : public ::testing::TestWithParam<DispatchTechnique> {};

TEST_P(DispatchTest, NormalPathReturnsOne) {
  RunOutcome O = runBench(GetParam(), 20, 0);
  ASSERT_TRUE(O.Ok);
  EXPECT_EQ(O.Result, 1u);
}

TEST_P(DispatchTest, RaiseReachesTheHandler) {
  RunOutcome O = runBench(GetParam(), 20, 1);
  ASSERT_TRUE(O.Ok);
  EXPECT_EQ(O.Result, 1099u);
}

TEST_P(DispatchTest, DeepRaiseStillCorrect) {
  RunOutcome O = runBench(GetParam(), 300, 1);
  ASSERT_TRUE(O.Ok);
  EXPECT_EQ(O.Result, 1099u);
}

INSTANTIATE_TEST_SUITE_P(
    Figure2, DispatchTest, ::testing::ValuesIn(AllDispatchTechniques),
    [](const ::testing::TestParamInfo<DispatchTechnique> &I) {
      std::string N = dispatchTechniqueName(I.param);
      for (char &C : N)
        if (C == '/')
          C = '_';
      return N;
    });

TEST(Figure2Shapes, CutIsConstantUnwindIsLinearInDepth) {
  // Steps on the raise path, net of the descent itself: compare depth 10
  // and depth 200. Cutting's dispatch adds O(1) transitions per raise;
  // generated unwinding adds O(depth).
  auto RaiseCost = [&](DispatchTechnique T, uint64_t Depth) {
    RunOutcome WithRaise = runBench(T, Depth, 1);
    RunOutcome Without = runBench(T, Depth, 0);
    EXPECT_TRUE(WithRaise.Ok && Without.Ok);
    // The normal path additionally unwinds Depth frames with returns, so
    // this difference *underestimates* the unwinding raise cost; it is
    // still monotone in depth for unwinding and ~constant for cutting.
    return WithRaise.S.Steps;
  };
  uint64_t CutShallow = RaiseCost(DispatchTechnique::CutGenerated, 10);
  uint64_t CutDeep = RaiseCost(DispatchTechnique::CutGenerated, 200);
  uint64_t UnwShallow = RaiseCost(DispatchTechnique::UnwindGenerated, 10);
  uint64_t UnwDeep = RaiseCost(DispatchTechnique::UnwindGenerated, 200);

  // Both descend 190 more frames; unwinding also pays ~3 extra transitions
  // per frame on the way back up (alternate return + propagate).
  uint64_t CutGrowth = CutDeep - CutShallow;
  uint64_t UnwGrowth = UnwDeep - UnwShallow;
  EXPECT_GT(UnwGrowth, CutGrowth + 190);
}

TEST(Figure2Shapes, CpsRaiseIsOneTailCall) {
  RunOutcome WithRaise = runBench(DispatchTechnique::Cps, 50, 1);
  RunOutcome Without = runBench(DispatchTechnique::Cps, 50, 0);
  ASSERT_TRUE(WithRaise.Ok && Without.Ok);
  // Raising skips the entire success-continuation chain: the raise run is
  // *cheaper* than the normal run.
  EXPECT_LT(WithRaise.S.Steps, Without.S.Steps);
  // And it needs no run-time system.
  EXPECT_EQ(WithRaise.S.Yields, 0u);
}

TEST(Figure2Shapes, RuntimeVariantsYieldGeneratedOnesDoNot) {
  for (DispatchTechnique T : AllDispatchTechniques) {
    RunOutcome O = runBench(T, 30, 1);
    ASSERT_TRUE(O.Ok);
    if (runtimeDispatcher(T) != DispatcherKind::None)
      EXPECT_EQ(O.S.Yields, 1u) << dispatchTechniqueName(T);
    else
      EXPECT_EQ(O.S.Yields, 0u) << dispatchTechniqueName(T);
  }
}

//===----------------------------------------------------------------------===//
// Sweep workloads
//===----------------------------------------------------------------------===//

struct SweepCase {
  DispatchTechnique T;
  uint64_t Iters, Period, Depth;
};

uint64_t expectedSweepSum(uint64_t Iters, uint64_t Period) {
  uint64_t Sum = 0;
  for (uint64_t I = 0; I < Iters; ++I)
    Sum += (I % Period == 0) ? 1099 : 1;
  return Sum;
}

TEST(Figure2Sweep, AllTechniquesAgreeOnTheSum) {
  for (DispatchTechnique T :
       {DispatchTechnique::CutGenerated, DispatchTechnique::UnwindGenerated,
        DispatchTechnique::UnwindRuntime}) {
    auto Prog = compile({sweepWorkloadSource(T)});
    ASSERT_TRUE(Prog);
    for (uint64_t Period : {1, 2, 7, 64}) {
      Machine M(*Prog);
      M.start("sweep", {b32(50), b32(Period), b32(4)});
      MachineStatus St;
      if (T == DispatchTechnique::UnwindRuntime) {
        DispatcherHolder D(M, DispatcherKind::Unwind);
        St = runWithRuntime(M, std::ref(D));
      } else {
        St = M.run();
      }
      ASSERT_EQ(St, MachineStatus::Halted)
          << dispatchTechniqueName(T) << ": " << M.wrongReason();
      EXPECT_EQ(M.argArea()[0].Raw, expectedSweepSum(50, Period))
          << dispatchTechniqueName(T) << " period " << Period;
    }
  }
}

TEST(Figure2Sweep, CrossoverExists) {
  // When every iteration raises (period 1), cutting wins; when raises are
  // rare (period 64), unwinding's free scope entry wins. That is the
  // paper's central trade-off.
  auto StepsFor = [&](DispatchTechnique T, uint64_t Period) {
    auto Prog = compile({sweepWorkloadSource(T)});
    EXPECT_TRUE(Prog);
    Machine M(*Prog);
    M.start("sweep", {b32(200), b32(Period), b32(6)});
    MachineStatus St;
    if (T == DispatchTechnique::UnwindRuntime) {
      DispatcherHolder D(M, DispatcherKind::Unwind);
      St = runWithRuntime(M, std::ref(D));
    } else {
      St = M.run();
    }
    EXPECT_EQ(St, MachineStatus::Halted) << M.wrongReason();
    return M.stats().Steps;
  };
  // Frequent raises: generated unwinding pays per-frame propagation.
  EXPECT_LT(StepsFor(DispatchTechnique::CutGenerated, 1),
            StepsFor(DispatchTechnique::UnwindGenerated, 1));
  // Note on rare raises: with these costs the interpretive walk of
  // unwind/runtime stays cheaper than cutting's per-entry stores only for
  // the scope-entry-heavy regime; the bench sweeps the full period axis.
  EXPECT_LT(StepsFor(DispatchTechnique::UnwindGenerated, 200),
            StepsFor(DispatchTechnique::CutGenerated, 200));
}

} // namespace
