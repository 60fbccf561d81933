//===- bench/bench_sched.cpp - Experiment SCHED ---------------------------===//
//
// Part of cmmex (see DESIGN.md). The green-threads runtime's cost model,
// measured (docs/SCHEDULER.md, EXPERIMENTS.md § "SCHED"):
//
//  - sched/context_switch: one green thread yielding in a tight loop. Every
//    yield parks the thread, snapshots its continuation, and requeues it, so
//    switches_per_sec is the raw price of a cooperative context switch —
//    the headline number for the runtime.
//
//  - sched/ping_pong: two threads bouncing a token through a pair of
//    capacity-1 channels. Each round is two sends, two receives, and the
//    park/wake handoff between threads; rounds_per_sec prices the
//    cross-thread resume path the scheduler is built around.
//
//  - sched/spawn_join: spawn n trivial threads and join each. threads_per_sec
//    prices thread creation (fresh isolated Memory per thread) plus the
//    join rendezvous.
//
//  - sched/relay/<drivers>: the 16-worker relay pipeline under 1, 2 and 4
//    drivers. Observables are identical across driver counts
//    (tests/SchedSoakTest.cpp pins this); the wall clock difference is what
//    host parallelism buys a channel-bound load whose every channel
//    operation takes the one scheduler lock.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "engine/Engine.h"
#include "engine/ThreadPool.h"
#include "rts/SchedFormat.h"
#include "sched/Scheduler.h"

#include <thread>

using namespace cmm;
using namespace cmm::bench;
using namespace cmm::sched;

namespace {

std::string T(uint64_t Tag) { return schedTagLiteral(Tag); }

const IrProgram &yieldLoopProgram() {
  static std::unique_ptr<IrProgram> Prog = compileOrDie(
      {"export main;\n"
       "main(bits32 n) {\n"
       "  bits32 i;\n"
       "  i = 0;\n"
       "loop:\n"
       "  if i == n { return (i); }\n"
       "  yield(" + T(SchedTagYield) + ");\n"
       "  i = i + 1;\n"
       "  goto loop;\n"
       "}\n"});
  return *Prog;
}

const IrProgram &pingPongProgram() {
  static std::unique_ptr<IrProgram> Prog = compileOrDie(
      {"export main;\n"
       "ponger(bits32 cin, bits32 cout) {\n"
       "  bits32 v;\n"
       "loop:\n"
       "  v = yield(" + T(SchedTagChanRecv) + ", cin);\n"
       "  if v == 0 { return (0); }\n"
       "  yield(" + T(SchedTagChanSend) + ", cout, v);\n"
       "  goto loop;\n"
       "}\n"
       "main(bits32 rounds) {\n"
       "  bits32 a, b, t, i, v;\n"
       "  a = yield(" + T(SchedTagChanNew) + ", 1);\n"
       "  b = yield(" + T(SchedTagChanNew) + ", 1);\n"
       "  t = yield(" + T(SchedTagSpawn) + ", ponger, a, b);\n"
       "  i = 0;\n"
       "loop:\n"
       "  if i == rounds { goto fin; }\n"
       "  yield(" + T(SchedTagChanSend) + ", a, i + 1);\n"
       "  v = yield(" + T(SchedTagChanRecv) + ", b);\n"
       "  i = i + 1;\n"
       "  goto loop;\n"
       "fin:\n"
       "  yield(" + T(SchedTagChanSend) + ", a, 0);\n"
       "  v = yield(" + T(SchedTagJoin) + ", t);\n"
       "  return (i);\n"
       "}\n"});
  return *Prog;
}

const IrProgram &spawnJoinProgram() {
  static std::unique_ptr<IrProgram> Prog = compileOrDie(
      {"export main;\n"
       "data tids { bits32[4096]; }\n"
       "worker(bits32 x) {\n"
       "  return (x + 1);\n"
       "}\n"
       "main(bits32 n) {\n"
       "  bits32 i, t, sum;\n"
       "  i = 0;\n"
       "spawnloop:\n"
       "  if i == n { goto joinall; }\n"
       "  t = yield(" + T(SchedTagSpawn) + ", worker, i);\n"
       "  bits32[tids + i * 4] = t;\n"
       "  i = i + 1;\n"
       "  goto spawnloop;\n"
       "joinall:\n"
       "  sum = 0;\n"
       "  i = 0;\n"
       "joinloop:\n"
       "  if i == n { return (sum); }\n"
       "  t = yield(" + T(SchedTagJoin) + ", bits32[tids + i * 4]);\n"
       "  sum = sum + t;\n"
       "  i = i + 1;\n"
       "  goto joinloop;\n"
       "}\n"});
  return *Prog;
}

const IrProgram &relayProgram() {
  static std::unique_ptr<IrProgram> Prog = compileOrDie(
      {"export main;\n"
       "data chans { bits32[128]; }\n"
       "worker(bits32 cin, bits32 cout) {\n"
       "  bits32 v;\n"
       "loop:\n"
       "  v = yield(" + T(SchedTagChanRecv) + ", cin);\n"
       "  if v == 999999 {\n"
       "    yield(" + T(SchedTagChanSend) + ", cout, v);\n"
       "    return (0);\n"
       "  }\n"
       "  yield(" + T(SchedTagChanSend) + ", cout, v + 1);\n"
       "  goto loop;\n"
       "}\n"
       "main(bits32 n, bits32 m) {\n"
       "  bits32 i, t, v, c, sum;\n"
       "  i = 0;\n"
       // Capacity 32 per channel: main feeds every token before draining,
       // so total pipeline capacity must exceed the token count or the
       // schedule deadlocks by design.
       "mkchan:\n"
       "  if i > n { goto spawn; }\n"
       "  c = yield(" + T(SchedTagChanNew) + ", 32);\n"
       "  bits32[chans + i * 4] = c;\n"
       "  i = i + 1;\n"
       "  goto mkchan;\n"
       "spawn:\n"
       "  i = 0;\n"
       "spawnloop:\n"
       "  if i == n { goto feed; }\n"
       "  t = yield(" + T(SchedTagSpawn) + ", worker,\n"
       "            bits32[chans + i * 4], bits32[chans + (i + 1) * 4]);\n"
       "  i = i + 1;\n"
       "  goto spawnloop;\n"
       "feed:\n"
       "  i = 0;\n"
       "feedloop:\n"
       "  if i == m { goto fin; }\n"
       "  yield(" + T(SchedTagChanSend) + ", bits32[chans], i);\n"
       "  i = i + 1;\n"
       "  goto feedloop;\n"
       "fin:\n"
       "  yield(" + T(SchedTagChanSend) + ", bits32[chans], 999999);\n"
       "  sum = 0;\n"
       "drain:\n"
       "  v = yield(" + T(SchedTagChanRecv) + ", bits32[chans + n * 4]);\n"
       "  if v == 999999 { goto done; }\n"
       "  sum = sum + v;\n"
       "  goto drain;\n"
       "done:\n"
       "  return (sum);\n"
       "}\n"});
  return *Prog;
}

SchedResult runOnce(const IrProgram &Prog, SchedOptions Opts,
                    std::vector<Value> Args,
                    Scheduler::SubmitFn Submit = {}) {
  Scheduler S(
      [&Prog] { return engine::makeExecutor(engine::Backend::Vm, Prog); },
      Opts, std::move(Submit));
  return S.run("main", std::move(Args));
}

void contextSwitch(benchmark::State &State) {
  const IrProgram &Prog = yieldLoopProgram();
  constexpr uint64_t Yields = 20'000;
  uint64_t Switches = 0;
  for (auto _ : State) {
    SchedResult R = runOnce(Prog, {}, {b32(Yields)});
    if (R.Status != MachineStatus::Halted) {
      State.SkipWithError("yield loop did not halt");
      return;
    }
    Switches += R.ContextSwitches;
    benchmark::DoNotOptimize(R.StepsTotal);
  }
  State.counters["switches_per_sec"] = benchmark::Counter(
      static_cast<double>(Switches), benchmark::Counter::kIsRate);
}

void pingPong(benchmark::State &State) {
  const IrProgram &Prog = pingPongProgram();
  constexpr uint64_t Rounds = 5'000;
  uint64_t Done = 0, Switches = 0;
  for (auto _ : State) {
    SchedResult R = runOnce(Prog, {}, {b32(Rounds)});
    if (R.Status != MachineStatus::Halted) {
      State.SkipWithError("ping-pong did not halt");
      return;
    }
    Done += Rounds;
    Switches += R.ContextSwitches;
    benchmark::DoNotOptimize(R.StepsTotal);
  }
  State.counters["rounds_per_sec"] = benchmark::Counter(
      static_cast<double>(Done), benchmark::Counter::kIsRate);
  State.counters["switches_per_sec"] = benchmark::Counter(
      static_cast<double>(Switches), benchmark::Counter::kIsRate);
}

void spawnJoin(benchmark::State &State) {
  const IrProgram &Prog = spawnJoinProgram();
  constexpr uint64_t Threads = 1'000;
  uint64_t Spawned = 0;
  for (auto _ : State) {
    SchedResult R = runOnce(Prog, {}, {b32(Threads)});
    if (R.Status != MachineStatus::Halted) {
      State.SkipWithError("spawn/join did not halt");
      return;
    }
    Spawned += R.ThreadsSpawned - 1; // exclude the main thread
    benchmark::DoNotOptimize(R.StepsTotal);
  }
  State.counters["threads_per_sec"] = benchmark::Counter(
      static_cast<double>(Spawned), benchmark::Counter::kIsRate);
}

void relay(benchmark::State &State) {
  const IrProgram &Prog = relayProgram();
  const unsigned Drivers = static_cast<unsigned>(State.range(0));
  constexpr uint64_t Workers = 16, Tokens = 400;
  engine::ThreadPool Pool(Drivers > 1 ? Drivers - 1 : 1);
  auto Submit = [&Pool](std::function<void()> Task) {
    Pool.submit(std::move(Task));
  };
  uint64_t Hops = 0;
  for (auto _ : State) {
    SchedOptions O;
    O.Drivers = Drivers;
    O.SliceFuel = 2048;
    SchedResult R = runOnce(Prog, O, {b32(Workers), b32(Tokens)},
                            Drivers > 1 ? Scheduler::SubmitFn(Submit)
                                        : Scheduler::SubmitFn());
    if (R.Status != MachineStatus::Halted) {
      State.SkipWithError("relay did not halt");
      return;
    }
    Hops += R.ChanSends;
    benchmark::DoNotOptimize(R.StepsTotal);
  }
  State.counters["hops_per_sec"] = benchmark::Counter(
      static_cast<double>(Hops), benchmark::Counter::kIsRate);
}

void registerAll() {
  suiteMetadata()["cpus"] = std::to_string(affinityCpus());
  suiteMetadata()["backend"] = "vm";
  suiteMetadata()["relay_workers"] = "16";
  suiteMetadata()["relay_tokens"] = "400";
  benchmark::RegisterBenchmark("sched/context_switch", contextSwitch)
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
  benchmark::RegisterBenchmark("sched/ping_pong", pingPong)
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
  benchmark::RegisterBenchmark("sched/spawn_join", spawnJoin)
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
  benchmark::RegisterBenchmark("sched/relay", relay)
      ->Arg(1)
      ->Arg(2)
      ->Arg(4)
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
}

[[maybe_unused]] const bool Registered = (registerAll(), true);

} // namespace

CMM_BENCH_MAIN(sched);
