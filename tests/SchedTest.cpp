//===- tests/SchedTest.cpp - Green-threads scheduler conformance ----------===//
//
// Part of cmmex (see DESIGN.md). Pins the M:N scheduler's contracts
// (sched/Scheduler.h): spawn/join/channel/timer semantics; determinism —
// identical observables with 1 driver and with N drivers, and under any
// slice-fuel split, on all three backends; scheduled-vs-direct parity (a
// computation's results under the scheduler equal its direct run); Wrong
// propagation; loud deadlock detection; virtual-time sleeps; the >= 10k
// green-thread acceptance workload; the driver policy (a serial schedule
// starts no helper driver, an exception-raising ring gives the same
// observables at every driver count); and the engine's Job::Sched
// embedding, whose gauges drain after schedules that fail.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "costmodel/DispatchWorkloads.h"
#include "engine/Engine.h"
#include "rts/SchedFormat.h"
#include "sched/Scheduler.h"

#include <chrono>
#include <thread>

using namespace cmm;
using namespace cmm::sched;
using cmm::test::b32;

namespace {

std::string T(uint64_t Tag) { return schedTagLiteral(Tag); }

/// main spawns a worker computing n + 1 and joins it.
std::string spawnJoinSource() {
  return "export main;\n"
         "worker(bits32 x) {\n"
         "  return (x + 1);\n"
         "}\n"
         "main(bits32 n) {\n"
         "  bits32 t, r;\n"
         "  t = yield(" + T(SchedTagSpawn) + ", worker, n);\n"
         "  r = yield(" + T(SchedTagJoin) + ", t);\n"
         "  return (r);\n"
         "}\n";
}

/// A producer streams squares 0..n-1 plus a 999999 sentinel over a bounded
/// channel (capacity 2, so it parks); main sums. sum(i^2, i<5) = 30.
std::string pipelineSource() {
  return "export main;\n"
         "producer(bits32 c, bits32 n) {\n"
         "  bits32 i;\n"
         "  i = 0;\n"
         "loop:\n"
         "  if i == n {\n"
         "    yield(" + T(SchedTagChanSend) + ", c, 999999);\n"
         "    return (0);\n"
         "  }\n"
         "  yield(" + T(SchedTagChanSend) + ", c, i * i);\n"
         "  i = i + 1;\n"
         "  goto loop;\n"
         "}\n"
         "main(bits32 n) {\n"
         "  bits32 c, t, v, sum;\n"
         "  c = yield(" + T(SchedTagChanNew) + ", 2);\n"
         "  t = yield(" + T(SchedTagSpawn) + ", producer, c, n);\n"
         "  sum = 0;\n"
         "loop:\n"
         "  v = yield(" + T(SchedTagChanRecv) + ", c);\n"
         "  if v == 999999 { goto done; }\n"
         "  sum = sum + v;\n"
         "  goto loop;\n"
         "done:\n"
         "  return (sum);\n"
         "}\n";
}

/// Three sleepers with distinct virtual-time deadlines report in deadline
/// order regardless of spawn order: 10*10000 + 20*100 + 30 = 102030.
std::string sleepersSource() {
  return "export main;\n"
         "sleeper(bits32 c, bits32 ticks) {\n"
         "  yield(" + T(SchedTagSleep) + ", ticks);\n"
         "  yield(" + T(SchedTagChanSend) + ", c, ticks);\n"
         "  return (0);\n"
         "}\n"
         "main() {\n"
         "  bits32 c, t, a, b, d;\n"
         "  c = yield(" + T(SchedTagChanNew) + ", 4);\n"
         "  t = yield(" + T(SchedTagSpawn) + ", sleeper, c, 30);\n"
         "  t = yield(" + T(SchedTagSpawn) + ", sleeper, c, 10);\n"
         "  t = yield(" + T(SchedTagSpawn) + ", sleeper, c, 20);\n"
         "  a = yield(" + T(SchedTagChanRecv) + ", c);\n"
         "  b = yield(" + T(SchedTagChanRecv) + ", c);\n"
         "  d = yield(" + T(SchedTagChanRecv) + ", c);\n"
         "  return (a * 10000 + b * 100 + d);\n"
         "}\n";
}

/// Receives on a channel nobody will ever send to.
std::string deadlockSource() {
  return "export main;\n"
         "main() {\n"
         "  bits32 c, v;\n"
         "  c = yield(" + T(SchedTagChanNew) + ", 1);\n"
         "  v = yield(" + T(SchedTagChanRecv) + ", c);\n"
         "  return (v);\n"
         "}\n";
}

/// The spawned worker reads an unbound local (goes wrong); main never
/// learns — the schedule must fail with the worker's precise reason.
std::string wrongWorkerSource() {
  return "export main;\n"
         "worker(bits32 x) {\n"
         "  bits32 a, b;\n"
         "  if x == 0 { a = 1; }\n"
         "  b = a + 1;\n"
         "  return (b);\n"
         "}\n"
         "main() {\n"
         "  bits32 t, r;\n"
         "  t = yield(" + T(SchedTagSpawn) + ", worker, 1);\n"
         "  r = yield(" + T(SchedTagJoin) + ", t);\n"
         "  return (r);\n"
         "}\n";
}

/// n workers each send their index; main drains and sums: n*(n-1)/2.
std::string fanInSource() {
  return "export main;\n"
         "worker(bits32 c, bits32 x) {\n"
         "  yield(" + T(SchedTagChanSend) + ", c, x);\n"
         "  return (0);\n"
         "}\n"
         "main(bits32 n) {\n"
         "  bits32 c, i, t, v, sum;\n"
         "  c = yield(" + T(SchedTagChanNew) + ", 64);\n"
         "  i = 0;\n"
         "spawnloop:\n"
         "  if i == n { goto drain; }\n"
         "  t = yield(" + T(SchedTagSpawn) + ", worker, c, i);\n"
         "  i = i + 1;\n"
         "  goto spawnloop;\n"
         "drain:\n"
         "  sum = 0;\n"
         "  i = 0;\n"
         "recvloop:\n"
         "  if i == n { goto done; }\n"
         "  v = yield(" + T(SchedTagChanRecv) + ", c);\n"
         "  sum = sum + v;\n"
         "  i = i + 1;\n"
         "  goto recvloop;\n"
         "done:\n"
         "  return (sum);\n"
         "}\n";
}

/// Direct-run twin of fanInSource (no scheduler): same arithmetic, same
/// result — the scheduled-vs-direct observable.
std::string fanInDirectSource() {
  return "export main;\n"
         "main(bits32 n) {\n"
         "  bits32 i, sum;\n"
         "  sum = 0;\n"
         "  i = 0;\n"
         "loop:\n"
         "  if i == n { return (sum); }\n"
         "  sum = sum + i;\n"
         "  i = i + 1;\n"
         "  goto loop;\n"
         "}\n";
}

/// Two threads bounce a token through a pair of capacity-1 channels for n
/// rounds: at most one thread is ever runnable, so the schedule is strictly
/// serial whatever the driver count.
std::string pingPongSource() {
  return "export main;\n"
         "ponger(bits32 cin, bits32 cout) {\n"
         "  bits32 v;\n"
         "loop:\n"
         "  v = yield(" + T(SchedTagChanRecv) + ", cin);\n"
         "  if v == 0 { return (0); }\n"
         "  yield(" + T(SchedTagChanSend) + ", cout, v + 1);\n"
         "  goto loop;\n"
         "}\n"
         "main(bits32 n) {\n"
         "  bits32 a, b, t, i, v;\n"
         "  a = yield(" + T(SchedTagChanNew) + ", 1);\n"
         "  b = yield(" + T(SchedTagChanNew) + ", 1);\n"
         "  t = yield(" + T(SchedTagSpawn) + ", ponger, a, b);\n"
         "  i = 0;\n"
         "  v = 1;\n"
         "loop:\n"
         "  if i == n { goto fin; }\n"
         "  yield(" + T(SchedTagChanSend) + ", a, v);\n"
         "  v = yield(" + T(SchedTagChanRecv) + ", b);\n"
         "  i = i + 1;\n"
         "  goto loop;\n"
         "fin:\n"
         "  yield(" + T(SchedTagChanSend) + ", a, 0);\n"
         "  t = yield(" + T(SchedTagJoin) + ", t);\n"
         "  return (v);\n"
         "}\n";
}

/// A token passes `rounds` times around a ring of k green threads over
/// capacity-1 channels (main is node 0). Every hop adds bench(depth, raise)
/// to the token, where bench is the dispatch workload of one exception
/// technique linked in as a second module, raising and handling an
/// exception when the token is a multiple of p. Only the token's holder is
/// runnable except while main spawns the ring.
std::string exceptionRingSource() {
  return "import bench;\n"
         "export main;\n"
         "data ring { bits32[64]; }\n"
         "hop(bits32 v, bits32 p, bits32 depth) {\n"
         "  bits32 r;\n"
         "  if %modu(v, p) == 0 {\n"
         "    r = bench(depth, 1);\n"
         "  } else {\n"
         "    r = bench(depth, 0);\n"
         "  }\n"
         "  return (v + r);\n"
         "}\n"
         "node(bits32 cin, bits32 cout, bits32 p, bits32 depth) {\n"
         "  bits32 v;\n"
         "loop:\n"
         "  v = yield(" + T(SchedTagChanRecv) + ", cin);\n"
         "  if v == 4294967295 {\n"
         "    yield(" + T(SchedTagChanSend) + ", cout, v);\n"
         "    return (0);\n"
         "  }\n"
         "  v = hop(v, p, depth);\n"
         "  yield(" + T(SchedTagChanSend) + ", cout, v);\n"
         "  goto loop;\n"
         "}\n"
         "main(bits32 k, bits32 rounds, bits32 p, bits32 depth) {\n"
         "  bits32 i, c, t, v;\n"
         "  i = 0;\n"
         "mkchan:\n"
         "  if i == k { goto spawn; }\n"
         "  c = yield(" + T(SchedTagChanNew) + ", 1);\n"
         "  bits32[ring + i * 4] = c;\n"
         "  i = i + 1;\n"
         "  goto mkchan;\n"
         "spawn:\n"
         "  i = 1;\n"
         "spawnloop:\n"
         "  if i == k { goto run; }\n"
         "  t = yield(" + T(SchedTagSpawn) + ", node, bits32[ring + i * 4],\n"
         "            bits32[ring + %modu(i + 1, k) * 4], p, depth);\n"
         "  i = i + 1;\n"
         "  goto spawnloop;\n"
         "run:\n"
         "  v = 0;\n"
         "  i = 0;\n"
         "round:\n"
         "  if i == rounds { goto stop; }\n"
         "  yield(" + T(SchedTagChanSend) + ", bits32[ring + 4], v);\n"
         "  v = yield(" + T(SchedTagChanRecv) + ", bits32[ring]);\n"
         "  v = hop(v, p, depth);\n"
         "  i = i + 1;\n"
         "  goto round;\n"
         "stop:\n"
         "  yield(" + T(SchedTagChanSend) + ", bits32[ring + 4], 4294967295);\n"
         "  t = yield(" + T(SchedTagChanRecv) + ", bits32[ring]);\n"
         "  return (v);\n"
         "}\n";
}

SchedResult runSched(const IrProgram &Prog, engine::Backend B,
                     SchedOptions Opts, std::string_view Entry,
                     std::vector<Value> Args,
                     Scheduler::SubmitFn Submit = {}) {
  Scheduler S([&Prog, B] { return engine::makeExecutor(B, Prog); }, Opts,
              std::move(Submit));
  return S.run(Entry, std::move(Args));
}

class SchedBackendTest : public ::testing::TestWithParam<engine::Backend> {};

TEST_P(SchedBackendTest, SpawnJoinRoundTrip) {
  std::unique_ptr<IrProgram> Prog = cmm::test::compile({spawnJoinSource()});
  ASSERT_TRUE(Prog);
  SchedResult R = runSched(*Prog, GetParam(), {}, "main", {b32(41)});
  ASSERT_TRUE(R.ok()) << R.WrongReason;
  EXPECT_EQ(R.Results, std::vector<Value>{b32(42)});
  EXPECT_EQ(R.ThreadsSpawned, 2u);
}

TEST_P(SchedBackendTest, BoundedChannelPipeline) {
  std::unique_ptr<IrProgram> Prog = cmm::test::compile({pipelineSource()});
  ASSERT_TRUE(Prog);
  SchedResult R = runSched(*Prog, GetParam(), {}, "main", {b32(5)});
  ASSERT_TRUE(R.ok()) << R.WrongReason;
  EXPECT_EQ(R.Results, std::vector<Value>{b32(30)});
  // n sends + the sentinel, each with a matching receive.
  EXPECT_EQ(R.ChanSends, 6u);
  EXPECT_EQ(R.ChanRecvs, 6u);
}

TEST_P(SchedBackendTest, VirtualTimeOrdersSleepers) {
  std::unique_ptr<IrProgram> Prog = cmm::test::compile({sleepersSource()});
  ASSERT_TRUE(Prog);
  SchedResult R = runSched(*Prog, GetParam(), {}, "main", {});
  ASSERT_TRUE(R.ok()) << R.WrongReason;
  EXPECT_EQ(R.Results, std::vector<Value>{b32(102030)});
  EXPECT_EQ(R.TimerWaits, 3u);
}

TEST_P(SchedBackendTest, DeadlockIsLoud) {
  std::unique_ptr<IrProgram> Prog = cmm::test::compile({deadlockSource()});
  ASSERT_TRUE(Prog);
  SchedResult R = runSched(*Prog, GetParam(), {}, "main", {});
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(R.Deadlocked);
  EXPECT_EQ(R.Status, MachineStatus::Running);
  EXPECT_NE(R.WrongReason.find("deadlock"), std::string::npos);
}

TEST_P(SchedBackendTest, WorkerWrongFailsScheduleWithItsReason) {
  std::unique_ptr<IrProgram> Prog = cmm::test::compile({wrongWorkerSource()});
  ASSERT_TRUE(Prog);
  SchedResult R = runSched(*Prog, GetParam(), {}, "main", {});
  EXPECT_EQ(R.Status, MachineStatus::Wrong);
  EXPECT_FALSE(R.WrongReason.empty());
  // The reason is the worker's own goes-wrong reason, not a scheduler
  // wrapper: the same observable a direct run of worker(1) produces.
  std::unique_ptr<Executor> M =
      engine::makeExecutor(GetParam(), *Prog);
  M->start("worker", {b32(1)});
  ASSERT_EQ(M->run(), MachineStatus::Wrong);
  EXPECT_EQ(R.WrongReason, M->wrongReason());
}

TEST_P(SchedBackendTest, FuelSplitParity) {
  // The cooperative quantum is unobservable: any SliceFuel produces the
  // same results, switch-for-switch the same counters with one driver.
  std::unique_ptr<IrProgram> Prog = cmm::test::compile({pipelineSource()});
  ASSERT_TRUE(Prog);
  SchedOptions Big;
  Big.SliceFuel = 1 << 20;
  SchedResult R0 = runSched(*Prog, GetParam(), Big, "main", {b32(7)});
  ASSERT_TRUE(R0.ok()) << R0.WrongReason;
  for (uint64_t Fuel : {1ull, 3ull, 17ull, 1000ull}) {
    SchedOptions O;
    O.SliceFuel = Fuel;
    SchedResult R = runSched(*Prog, GetParam(), O, "main", {b32(7)});
    ASSERT_TRUE(R.ok()) << "fuel=" << Fuel << ": " << R.WrongReason;
    EXPECT_EQ(R.Results, R0.Results) << "fuel=" << Fuel;
    EXPECT_EQ(R.StepsTotal, R0.StepsTotal) << "fuel=" << Fuel;
    EXPECT_EQ(R.ChanSends, R0.ChanSends) << "fuel=" << Fuel;
  }
}

TEST_P(SchedBackendTest, ScheduledMatchesDirectRun) {
  std::unique_ptr<IrProgram> Sched = cmm::test::compile({fanInSource()});
  std::unique_ptr<IrProgram> Direct =
      cmm::test::compile({fanInDirectSource()});
  ASSERT_TRUE(Sched && Direct);
  SchedResult R = runSched(*Sched, GetParam(), {}, "main", {b32(50)});
  ASSERT_TRUE(R.ok()) << R.WrongReason;

  std::unique_ptr<Executor> M = engine::makeExecutor(GetParam(), *Direct);
  M->start("main", {b32(50)});
  ASSERT_EQ(M->run(), MachineStatus::Halted);
  EXPECT_EQ(R.Results, M->argArea());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SchedBackendTest,
                         ::testing::ValuesIn(engine::AllBackends),
                         [](const auto &Info) {
                           return std::string(
                               engine::backendName(Info.param));
                         });

//===----------------------------------------------------------------------===//
// Multi-driver determinism and scale
//===----------------------------------------------------------------------===//

TEST(SchedTest, MultiDriverObservablesMatchSingleDriver) {
  std::unique_ptr<IrProgram> Prog = cmm::test::compile({fanInSource()});
  ASSERT_TRUE(Prog);
  SchedResult One =
      runSched(*Prog, engine::Backend::Vm, {}, "main", {b32(200)});
  ASSERT_TRUE(One.ok()) << One.WrongReason;

  engine::ThreadPool Pool(4);
  SchedOptions O;
  O.Drivers = 4;
  SchedResult Many = runSched(
      *Prog, engine::Backend::Vm, O, "main", {b32(200)},
      [&Pool](std::function<void()> Task) { Pool.submit(std::move(Task)); });
  ASSERT_TRUE(Many.ok()) << Many.WrongReason;

  // Interleavings differ; observables must not.
  EXPECT_EQ(Many.Results, One.Results);
  EXPECT_EQ(Many.ThreadsSpawned, One.ThreadsSpawned);
  EXPECT_EQ(Many.ChanSends, One.ChanSends);
  EXPECT_EQ(Many.ChanRecvs, One.ChanRecvs);
  EXPECT_EQ(Many.StepsTotal, One.StepsTotal);
}

TEST(SchedTest, TenThousandGreenThreadsComplete) {
  // The acceptance workload: >= 10k green threads over one channel, on a
  // multi-driver pool, byte-identical observables to the single-driver
  // schedule. sum(0..9999) = 49995000.
  std::unique_ptr<IrProgram> Prog = cmm::test::compile({fanInSource()});
  ASSERT_TRUE(Prog);
  const uint64_t N = 10000;

  SchedResult One =
      runSched(*Prog, engine::Backend::Vm, {}, "main", {b32(N)});
  ASSERT_TRUE(One.ok()) << One.WrongReason;
  EXPECT_EQ(One.Results, std::vector<Value>{b32(49995000)});
  EXPECT_EQ(One.ThreadsSpawned, N + 1);
  EXPECT_EQ(One.ChanSends, N);

  engine::ThreadPool Pool(4);
  SchedOptions O;
  O.Drivers = 4;
  SchedResult Many = runSched(
      *Prog, engine::Backend::Vm, O, "main", {b32(N)},
      [&Pool](std::function<void()> Task) { Pool.submit(std::move(Task)); });
  ASSERT_TRUE(Many.ok()) << Many.WrongReason;
  EXPECT_EQ(Many.Results, One.Results);
  EXPECT_EQ(Many.ThreadsSpawned, One.ThreadsSpawned);
  EXPECT_EQ(Many.StepsTotal, One.StepsTotal);
}

void expectSameStats(const Stats &A, const Stats &B, const std::string &What) {
  EXPECT_EQ(A.Steps, B.Steps) << What;
  EXPECT_EQ(A.Calls, B.Calls) << What;
  EXPECT_EQ(A.Jumps, B.Jumps) << What;
  EXPECT_EQ(A.Returns, B.Returns) << What;
  EXPECT_EQ(A.Cuts, B.Cuts) << What;
  EXPECT_EQ(A.FramesCutOver, B.FramesCutOver) << What;
  EXPECT_EQ(A.Yields, B.Yields) << What;
  EXPECT_EQ(A.UnwindPops, B.UnwindPops) << What;
  EXPECT_EQ(A.ContsBound, B.ContsBound) << What;
  EXPECT_EQ(A.Loads, B.Loads) << What;
  EXPECT_EQ(A.Stores, B.Stores) << What;
  EXPECT_EQ(A.CalleeSaveMoves, B.CalleeSaveMoves) << What;
  EXPECT_EQ(A.MaxStackDepth, B.MaxStackDepth) << What;
}

TEST_P(SchedBackendTest, ExceptionRingSameAtEveryDriverCount) {
  // The green_relay guest's shape: one runnable thread at a time except
  // while main spawns the ring, and an exception raised and handled on
  // every third hop, under each technique. Helpers come and go with the
  // spawn phase; the observables must not notice.
  const uint32_t K = 16, Rounds = 4, P = 3, Depth = 4;
  uint32_t Want = 0;
  for (uint32_t H = 0; H < K * Rounds; ++H)
    Want += Want % P == 0 ? 1099u : 1u;

  engine::ThreadPool Pool(4);
  auto Submit = [&Pool](std::function<void()> Task) {
    Pool.submit(std::move(Task));
  };
  for (DispatchTechnique Tech : AllDispatchTechniques) {
    std::string Name = dispatchTechniqueName(Tech);
    std::unique_ptr<IrProgram> Prog = cmm::test::compile(
        {dispatchWorkloadSource(Tech), exceptionRingSource()});
    ASSERT_TRUE(Prog) << Name;
    SchedOptions O;
    O.Exn = runtimeDispatcher(Tech);
    std::vector<Value> Args = {b32(K), b32(Rounds), b32(P), b32(Depth)};
    SchedResult One = runSched(*Prog, GetParam(), O, "main", Args);
    ASSERT_TRUE(One.ok()) << Name << ": " << One.WrongReason;
    EXPECT_EQ(One.Results, std::vector<Value>{b32(Want)}) << Name;
    EXPECT_EQ(One.ThreadsSpawned, K) << Name;
    for (unsigned Drivers : {2u, 4u}) {
      std::string What = Name + " drivers=" + std::to_string(Drivers);
      O.Drivers = Drivers;
      SchedResult Many = runSched(*Prog, GetParam(), O, "main", Args, Submit);
      ASSERT_TRUE(Many.ok()) << What << ": " << Many.WrongReason;
      EXPECT_EQ(Many.Results, One.Results) << What;
      EXPECT_EQ(Many.StepsTotal, One.StepsTotal) << What;
      EXPECT_EQ(Many.ChanSends, One.ChanSends) << What;
      EXPECT_EQ(Many.ChanRecvs, One.ChanRecvs) << What;
      EXPECT_EQ(Many.ThreadsSpawned, One.ThreadsSpawned) << What;
      expectSameStats(Many.MachineStats, One.MachineStats, What);
    }
  }
}

TEST(SchedTest, SpawnGuardFailsLoudly) {
  std::unique_ptr<IrProgram> Prog = cmm::test::compile({fanInSource()});
  ASSERT_TRUE(Prog);
  SchedOptions O;
  O.MaxThreads = 16;
  SchedResult R =
      runSched(*Prog, engine::Backend::Walk, O, "main", {b32(100)});
  EXPECT_EQ(R.Status, MachineStatus::Wrong);
  EXPECT_NE(R.WrongReason.find("thread limit"), std::string::npos);
}

TEST(SchedTest, PerThreadFuelFailsSchedule) {
  std::unique_ptr<IrProgram> Prog = cmm::test::compile({fanInSource()});
  ASSERT_TRUE(Prog);
  SchedOptions O;
  O.SliceFuel = 64;
  O.MaxStepsPerThread = 200; // main's spawn/drain loops need far more
  SchedResult R =
      runSched(*Prog, engine::Backend::Walk, O, "main", {b32(100)});
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(R.FuelExhausted);
  EXPECT_EQ(R.Status, MachineStatus::Running);
}

//===----------------------------------------------------------------------===//
// Exception dispatch inside green threads
//===----------------------------------------------------------------------===//

TEST(SchedTest, UnhandledNonSchedYieldFailsSchedule) {
  // Without a dispatcher, an exception-style yield inside a green thread
  // is an unhandled yield — reported, not hung.
  std::string Src = "export main;\n"
                    "main() {\n"
                    "  yield(7) also aborts;\n"
                    "  return (0);\n"
                    "}\n";
  std::unique_ptr<IrProgram> Prog = cmm::test::compile({Src});
  ASSERT_TRUE(Prog);
  SchedResult R = runSched(*Prog, engine::Backend::Walk, {}, "main", {});
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.WrongReason.find("unhandled yield"), std::string::npos);
}

TEST(SchedTest, UnwindDispatcherServicesGreenThreads) {
  // The Figure 9 workload raising through the run-time system, spawned as
  // a green thread: the scheduler's per-thread UnwindingDispatcher must
  // produce the same 1099 observable as a direct run under the engine's
  // dispatcher.
  std::string Bench = dispatchWorkloadSource(DispatchTechnique::UnwindRuntime);
  std::string Main =
      "import bench;\n"
      "export sched_main;\n"
      "sched_main(bits32 depth) {\n"
      "  bits32 t, r;\n"
      "  t = yield(" + T(SchedTagSpawn) + ", bench, depth, 1);\n"
      "  r = yield(" + T(SchedTagJoin) + ", t);\n"
      "  return (r);\n"
      "}\n";
  std::unique_ptr<IrProgram> Prog = cmm::test::compile({Bench, Main});
  ASSERT_TRUE(Prog);
  SchedOptions O;
  O.Exn = DispatcherKind::Unwind;
  SchedResult R =
      runSched(*Prog, engine::Backend::Vm, O, "sched_main", {b32(6)});
  ASSERT_TRUE(R.ok()) << R.WrongReason;
  EXPECT_EQ(R.Results, std::vector<Value>{b32(1099)});
}

//===----------------------------------------------------------------------===//
// Engine embedding (Job::Sched)
//===----------------------------------------------------------------------===//

TEST(SchedTest, EngineRunsScheduledJobs) {
  engine::EngineOptions EO;
  EO.Threads = 4;
  engine::Engine Eng(EO);
  engine::Job J;
  J.Request.Sources = {fanInSource()};
  J.B = engine::Backend::Vm;
  J.Args = {b32(300)};
  J.Sched.Enabled = true;
  J.Sched.Drivers = 4;
  engine::JobResult R = Eng.wait(Eng.submit(J));
  ASSERT_TRUE(R.ok()) << R.CompileError << R.WrongReason;
  EXPECT_EQ(R.Results, std::vector<Value>{b32(300 * 299 / 2)});
  EXPECT_EQ(R.SchedThreads, 301u);
  EXPECT_GT(R.SchedSwitches, 0u);
  EXPECT_GT(R.MachineStats.Steps, 0u);

  // sched.* metrics landed in the engine registry.
  EXPECT_EQ(Eng.metrics().counter("sched.threads_spawned").value(), 301u);
  EXPECT_EQ(Eng.metrics().counter("sched.runs").value(), 1u);
  EXPECT_EQ(Eng.metrics().gauge("sched.threads_live").value(), 0);
}

TEST(SchedTest, EngineReportsScheduledDeadlock) {
  engine::Engine Eng;
  engine::Job J;
  J.Request.Sources = {deadlockSource()};
  J.Sched.Enabled = true;
  engine::JobResult R = Eng.runJob(J);
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(R.Deadlocked);
  EXPECT_EQ(R.Status, MachineStatus::Running);
  EXPECT_EQ(Eng.metrics().counter("sched.deadlocks").value(), 1u);
  // The failed schedule withdrew its parked main thread from the gauges.
  EXPECT_EQ(Eng.metrics().gauge("sched.threads_live").value(), 0);
  EXPECT_EQ(Eng.metrics().gauge("sched.runnable").value(), 0);
  EXPECT_EQ(Eng.metrics().gauge("sched.parked").value(), 0);
}

TEST(SchedTest, GaugesDrainAfterConcurrentFailedSchedules) {
  // Schedules that go wrong, run out of fuel or deadlock share the gauges
  // with one that halts; each moves them by its own deltas and withdraws
  // what it still holds when it ends.
  engine::EngineOptions EO;
  EO.Threads = 4;
  engine::Engine Eng(EO);
  auto Make = [](std::string Src, std::vector<Value> Args) {
    engine::Job J;
    J.Request.Sources = {std::move(Src)};
    J.B = engine::Backend::Vm;
    J.Args = std::move(Args);
    J.Sched.Enabled = true;
    J.Sched.Drivers = 2;
    J.Sched.SliceFuel = 64;
    return J;
  };
  engine::Job Fuel = Make(fanInSource(), {b32(100)});
  Fuel.MaxSteps = 200;
  std::vector<engine::Job> Jobs = {
      Make(wrongWorkerSource(), {}), Fuel, Make(deadlockSource(), {}),
      Make(fanInSource(), {b32(300)})};
  std::vector<engine::JobResult> Rs = Eng.run(Jobs);
  EXPECT_EQ(Rs[0].Status, MachineStatus::Wrong);
  EXPECT_EQ(Rs[1].Status, MachineStatus::Running);
  EXPECT_TRUE(Rs[2].Deadlocked);
  ASSERT_TRUE(Rs[3].ok()) << Rs[3].WrongReason;
  EXPECT_EQ(Rs[3].Results, std::vector<Value>{b32(300 * 299 / 2)});

  EXPECT_EQ(Eng.metrics().counter("sched.runs").value(), 4u);
  EXPECT_EQ(Eng.metrics().counter("sched.deadlocks").value(), 1u);
  auto ExpectDrained = [&Eng](const char *What) {
    EXPECT_EQ(Eng.metrics().gauge("sched.threads_live").value(), 0) << What;
    EXPECT_EQ(Eng.metrics().gauge("sched.runnable").value(), 0) << What;
    EXPECT_EQ(Eng.metrics().gauge("sched.parked").value(), 0) << What;
  };
  ExpectDrained("concurrent");

  // Alone, each failed schedule is the last to move the gauges.
  for (size_t I = 0; I < 3; ++I) {
    EXPECT_FALSE(Eng.runJob(Jobs[I]).ok());
    ExpectDrained(I == 0 ? "wrong" : I == 1 ? "fuel" : "deadlock");
  }
}

/// pool.tasks_executed once \p Eng's pool has dequeued everything queued.
uint64_t tasksExecutedWhenIdle(engine::Engine &Eng) {
  for (int I = 0; I < 5000 && Eng.pool().queuedApprox() > 0; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  return Eng.metrics().counter("pool.tasks_executed").value();
}

TEST(SchedTest, SerialScheduleStartsNoHelperDriver) {
  // A ping-pong never has more than one runnable thread, so Drivers = 4
  // must cost no pool task at all; a fan-in's spawn burst must start one.
  engine::EngineOptions EO;
  EO.Threads = 4;
  engine::Engine Eng(EO);
  auto Run = [&Eng](std::string Src, uint32_t N) {
    engine::Job J;
    J.Request.Sources = {std::move(Src)};
    J.B = engine::Backend::Vm;
    J.Args = {b32(N)};
    J.Sched.Enabled = true;
    J.Sched.Drivers = 4;
    J.Artifact = Eng.compile(J.Request);
    uint64_t Before = tasksExecutedWhenIdle(Eng);
    engine::JobResult R = Eng.runJob(J);
    EXPECT_TRUE(R.ok()) << R.CompileError << R.WrongReason;
    return std::make_pair(R, tasksExecutedWhenIdle(Eng) - Before);
  };

  auto [Serial, SerialTasks] = Run(pingPongSource(), 200);
  EXPECT_EQ(Serial.Results, std::vector<Value>{b32(201)});
  EXPECT_EQ(SerialTasks, 0u);

  auto [FanIn, FanInTasks] = Run(fanInSource(), 50);
  EXPECT_EQ(FanIn.Results, std::vector<Value>{b32(50 * 49 / 2)});
  EXPECT_GE(FanInTasks, 1u);
}

} // namespace
