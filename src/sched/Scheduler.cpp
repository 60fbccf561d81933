//===- sched/Scheduler.cpp ------------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "sched/Scheduler.h"

#include "rts/Dispatchers.h"
#include "rts/SchedFormat.h"

#include <condition_variable>
#include <deque>
#include <mutex>
#include <queue>
#include <unordered_map>

using namespace cmm;
using namespace cmm::sched;

namespace {

void addStats(Stats &A, const Stats &S) {
  A.Steps += S.Steps;
  A.Calls += S.Calls;
  A.Jumps += S.Jumps;
  A.Returns += S.Returns;
  A.Cuts += S.Cuts;
  A.FramesCutOver += S.FramesCutOver;
  A.Yields += S.Yields;
  A.UnwindPops += S.UnwindPops;
  A.ContsBound += S.ContsBound;
  A.Loads += S.Loads;
  A.Stores += S.Stores;
  A.CalleeSaveMoves += S.CalleeSaveMoves;
  A.MaxStackDepth = std::max(A.MaxStackDepth, S.MaxStackDepth);
}

} // namespace

//===----------------------------------------------------------------------===//
// Core state
//===----------------------------------------------------------------------===//

/// One green thread. Owned by the core; its executor is touched only by
/// the driver currently running its slice (the core lock hands threads
/// between drivers, so cross-thread migration needs no further sync).
struct Scheduler::Green {
  enum class State : uint8_t { Runnable, Running, Parked, Done };
  /// What the next slice must do first.
  enum class Pending : uint8_t { Start, Continue, Resume };

  uint64_t Tid = 0;
  std::unique_ptr<Executor> M;
  State St = State::Runnable;
  Pending Pend = Pending::Start;
  std::vector<Value> ResumeParams; ///< for Pending::Resume
  std::string StartProc;
  std::vector<Value> StartArgs;
  uint64_t Steps = 0; ///< lifetime transitions (fuel accounting)
  std::vector<Value> Results;
  std::vector<uint64_t> Joiners; ///< tids parked in join on this thread
  Value SendVal;                 ///< pending value while parked in send
  /// Per-thread exception dispatchers (created on first non-sched yield).
  std::optional<DispatcherHolder> Disp;
};

/// A bounded channel. Senders park when the queue is full, receivers when
/// it is empty and no sender waits; FIFO in both directions.
struct Scheduler::Channel {
  uint64_t Cap = 1;
  std::deque<Value> Q;
  std::deque<uint64_t> SendWaiters;
  std::deque<uint64_t> RecvWaiters;
};

/// The shared schedule state. Reference-counted so driver tasks that start
/// after the schedule finished (or after the Scheduler object died) still
/// have something safe to look at.
struct Scheduler::Core {
  // Immutable after construction.
  SchedOptions Opts;
  ExecutorFactory Factory;
  Metrics M; ///< by value; never reaches through the Scheduler object

  std::mutex Mu;
  std::condition_variable Cv;
  std::unordered_map<uint64_t, std::unique_ptr<Green>> Threads;
  std::deque<uint64_t> RunQ;
  uint64_t NextTid = 1;
  uint64_t NextChan = 1;
  std::unordered_map<uint64_t, Channel> Channels;
  /// Armed virtual-time timers: (deadline, tid), earliest first.
  std::priority_queue<std::pair<uint64_t, uint64_t>,
                      std::vector<std::pair<uint64_t, uint64_t>>,
                      std::greater<>>
      Timers;
  uint64_t VNow = 0; ///< virtual clock (sleep ticks)

  uint64_t Live = 0;   ///< threads not yet Done
  uint64_t Parked = 0; ///< threads in State::Parked
  unsigned ActiveSlices = 0;
  bool Finished = false;

  // Outcome (valid once Finished).
  MachineStatus Status = MachineStatus::Idle;
  std::vector<Value> MainResults;
  std::string WrongReason;
  SourceLoc WrongLoc;
  bool Deadlocked = false;
  bool FuelExhausted = false;

  // Counters mirrored into SchedResult.
  uint64_t Spawned = 0, Switches = 0, StepsTotal = 0, Sends = 0, Recvs = 0,
           TimerWaits = 0;
  Stats Agg;

  Green *get(uint64_t Tid) {
    auto It = Threads.find(Tid);
    return It == Threads.end() ? nullptr : It->second.get();
  }

  void gauges() {
    M.Runnable->set(int64_t(RunQ.size()));
    M.Parked->set(int64_t(Parked));
    M.Live->set(int64_t(Live));
  }

  /// Fails the whole schedule (lock held). Idempotent: the first failure
  /// (or completion) wins, later slices see Finished and stand down.
  void fail(MachineStatus St, std::string Reason, SourceLoc Loc,
            bool DeadlockFlag, bool FuelFlag) {
    if (Finished)
      return;
    Finished = true;
    Status = St;
    WrongReason = std::move(Reason);
    WrongLoc = Loc;
    Deadlocked = DeadlockFlag;
    FuelExhausted = FuelFlag;
    if (DeadlockFlag)
      M.Deadlocks->add(1);
    Cv.notify_all();
  }

  /// Makes \p G runnable with a pending resume of \p Params (lock held).
  void wake(Green &G, std::vector<Value> Params) {
    if (G.St == Green::State::Parked)
      --Parked;
    G.St = Green::State::Runnable;
    G.Pend = Green::Pending::Resume;
    G.ResumeParams = std::move(Params);
    RunQ.push_back(G.Tid);
    Cv.notify_one();
  }

  /// Retires \p G (lock held): records results, folds its machine counters
  /// into the aggregate, releases its executor (10k parked executors are
  /// cheap; 10k dead ones need not keep their memories alive), and wakes
  /// its joiners with its first result.
  void retire(Green &G) {
    G.St = Green::State::Done;
    G.Results = G.M->argArea();
    addStats(Agg, G.M->stats());
    G.M.reset();
    --Live;
    Value R = G.Results.empty() ? Value::bits(32, 0) : G.Results[0];
    for (uint64_t J : G.Joiners)
      if (Green *W = get(J))
        wake(*W, {R});
    G.Joiners.clear();
  }
};

//===----------------------------------------------------------------------===//
// Scheduler
//===----------------------------------------------------------------------===//

Scheduler::Scheduler(ExecutorFactory F, SchedOptions O, SubmitFn S,
                     MetricsRegistry *Reg)
    : Factory(std::move(F)), Opts(O), Submit(std::move(S)) {
  MetricsRegistry &R = Reg ? *Reg : MetricsRegistry::null();
  M.Spawned = &R.counter("sched.threads_spawned");
  M.Switches = &R.counter("sched.context_switches");
  M.Sends = &R.counter("sched.chan_sends");
  M.Recvs = &R.counter("sched.chan_recvs");
  M.TimerWaits = &R.counter("sched.timer_waits");
  M.Joins = &R.counter("sched.joins");
  M.Deadlocks = &R.counter("sched.deadlocks");
  M.Runs = &R.counter("sched.runs");
  M.Live = &R.gauge("sched.threads_live");
  M.Runnable = &R.gauge("sched.runnable");
  M.Parked = &R.gauge("sched.parked");
  M.SliceMicros = &R.histogram("sched.run_slice_micros");
}

SchedResult Scheduler::run(std::string_view Entry, std::vector<Value> Args) {
  auto C = std::make_shared<Core>();
  C->Opts = Opts;
  C->Opts.Drivers = std::max(1u, Opts.Drivers);
  C->Opts.SliceFuel = std::max<uint64_t>(1, Opts.SliceFuel);
  C->Factory = Factory;
  C->M = M;
  M.Runs->add(1);

  {
    std::lock_guard<std::mutex> Lock(C->Mu);
    auto G = std::make_unique<Green>();
    G->Tid = C->NextTid++;
    G->M = C->Factory();
    G->Pend = Green::Pending::Start;
    G->StartProc = std::string(Entry);
    G->StartArgs = std::move(Args);
    C->RunQ.push_back(G->Tid);
    C->Threads.emplace(G->Tid, std::move(G));
    ++C->Live;
    ++C->Spawned;
    M.Spawned->add(1);
    C->gauges();
  }

  // Extra drivers ride the host pool; each holds the core alive. The
  // calling thread is always a driver too, so the schedule finishes even
  // if none of these ever starts (a saturated one-worker pool).
  if (Submit)
    for (unsigned I = 1; I < C->Opts.Drivers; ++I)
      Submit([C] { driverLoop(C); });
  driverLoop(C);

  SchedResult R;
  std::lock_guard<std::mutex> Lock(C->Mu);
  R.Status = C->Status;
  R.Results = C->MainResults;
  R.WrongReason = C->WrongReason;
  R.WrongLoc = C->WrongLoc;
  R.Deadlocked = C->Deadlocked;
  R.FuelExhausted = C->FuelExhausted;
  R.ThreadsSpawned = C->Spawned;
  R.ContextSwitches = C->Switches;
  R.StepsTotal = C->StepsTotal;
  R.ChanSends = C->Sends;
  R.ChanRecvs = C->Recvs;
  R.TimerWaits = C->TimerWaits;
  R.MachineStats = C->Agg;
  return R;
}

void Scheduler::driverLoop(const std::shared_ptr<Core> &CP) {
  Core &C = *CP;
  std::unique_lock<std::mutex> Lock(C.Mu);
  for (;;) {
    if (C.Finished)
      break;
    if (!C.RunQ.empty()) {
      Green *G = C.get(C.RunQ.front());
      C.RunQ.pop_front();
      if (!G || G->St != Green::State::Runnable)
        continue; // stale queue entry
      G->St = Green::State::Running;
      ++C.Switches;
      C.M.Switches->add(1);
      ++C.ActiveSlices;
      C.gauges();
      Lock.unlock();
      runSlice(C, *G);
      Lock.lock();
      --C.ActiveSlices;
      if (C.ActiveSlices == 0)
        // Quiescence may be decidable now — every waiter must re-check.
        C.Cv.notify_all();
      continue;
    }
    if (C.ActiveSlices > 0) {
      // Another driver's slice may enqueue work (or finish the schedule).
      C.Cv.wait(Lock);
      continue;
    }
    // Quiescent: nothing runnable, nothing running.
    if (!C.Timers.empty()) {
      // Virtual time jumps to the earliest deadline; wake everything due.
      C.VNow = C.Timers.top().first;
      while (!C.Timers.empty() && C.Timers.top().first <= C.VNow) {
        uint64_t Tid = C.Timers.top().second;
        C.Timers.pop();
        if (Green *G = C.get(Tid))
          C.wake(*G, {});
      }
      C.gauges();
      continue;
    }
    if (C.Live > 0) {
      C.fail(MachineStatus::Running,
             "deadlock: " + std::to_string(C.Live) +
                 " green thread(s) parked with no runnable thread and no "
                 "armed timer",
             SourceLoc(), /*Deadlock=*/true, /*Fuel=*/false);
      break;
    }
    // Every thread halted: the schedule completed.
    if (!C.Finished) {
      C.Finished = true;
      C.Status = MachineStatus::Halted;
      if (Green *Main = C.get(1))
        C.MainResults = Main->Results;
      C.Cv.notify_all();
    }
    break;
  }
  C.Cv.notify_all();
}

void Scheduler::runSlice(Core &C, Green &G) {
  auto T0 = std::chrono::steady_clock::now();
  Executor &M = *G.M;
  uint64_t Fuel = C.Opts.SliceFuel;
  bool Requeue = false; // cooperative yield: back of the queue

  auto Spend = [&] {
    // Charge transitions executed since the last checkpoint against the
    // slice and the thread's lifetime fuel.
    uint64_t Total = M.stats().Steps;
    uint64_t Used = Total - G.Steps;
    G.Steps = Total;
    Fuel = Used >= Fuel ? 0 : Fuel - Used;
  };

  if (G.Pend == Green::Pending::Start)
    M.start(G.StartProc, std::move(G.StartArgs));

  for (;;) {
    MachineStatus St = M.status();
    if (St == MachineStatus::Running || St == MachineStatus::Idle) {
      // Continue (or freshly started): burn the remaining slice.
      Continuation Cn = Continuation::capture(M);
      Cn.setBudget({Fuel, 0, 0});
      St = Cn.resume().Status;
      Spend();
    } else if (St == MachineStatus::Suspended &&
               G.Pend == Green::Pending::Resume) {
      Continuation Cn = Continuation::capture(M);
      Cn.setBudget({Fuel, 0, 0});
      St = Cn.resume(ResumeChoice::ret(unsigned(
                         M.frameCallSite(0)->Bundle.ReturnsTo.size() - 1)),
                     std::move(G.ResumeParams))
               .Status;
      G.ResumeParams.clear();
      Spend();
    }
    G.Pend = Green::Pending::Continue;

    if (St == MachineStatus::Halted || St == MachineStatus::Wrong) {
      std::lock_guard<std::mutex> Lock(C.Mu);
      if (C.Finished)
        return;
      if (St == MachineStatus::Wrong) {
        C.fail(MachineStatus::Wrong, M.wrongReason(), M.wrongLoc(), false,
               false);
        return;
      }
      C.retire(G);
      C.StepsTotal += G.Steps;
      C.gauges();
      break;
    }

    if (St == MachineStatus::Running) {
      // Slice fuel exhausted mid-run.
      std::lock_guard<std::mutex> Lock(C.Mu);
      if (C.Finished)
        return;
      if (G.Steps >= C.Opts.MaxStepsPerThread) {
        C.fail(MachineStatus::Running,
               "green thread " + std::to_string(G.Tid) +
                   " exhausted its fuel",
               SourceLoc(), false, /*Fuel=*/true);
        return;
      }
      G.St = Green::State::Runnable;
      G.Pend = Green::Pending::Continue;
      C.RunQ.push_back(G.Tid);
      C.Cv.notify_one();
      C.gauges();
      break;
    }

    // Suspended: decode and service the request.
    SchedRequest Req = readSchedRequest(M);
    if (!Req.Valid) {
      // Not a scheduler request: delegate to the thread's exception
      // dispatcher, like a direct run under the same DispatcherKind would.
      if (!G.Disp)
        G.Disp.emplace(M);
      DispatchResult D = G.Disp->dispatch(C.Opts.Exn);
      if (D == DispatchResult::Handled && Fuel > 0)
        continue; // resumed in place; spend the rest of the slice
      if (D == DispatchResult::Handled) {
        // Handled but out of fuel: back of the queue.
        std::lock_guard<std::mutex> Lock(C.Mu);
        if (C.Finished)
          return;
        G.St = Green::State::Runnable;
        C.RunQ.push_back(G.Tid);
        C.Cv.notify_one();
        C.gauges();
        break;
      }
      if (M.status() == MachineStatus::Wrong)
        continue; // the dispatcher went wrong; report that reason
      YieldRequest Y = readYieldRequest(M);
      std::lock_guard<std::mutex> Lock(C.Mu);
      C.fail(MachineStatus::Suspended,
             "unhandled yield (tag " + std::to_string(Y.Tag) +
                 ") in green thread " + std::to_string(G.Tid),
             SourceLoc(), false, false);
      return;
    }

    std::vector<Value> Params;
    bool KeepRunning;
    {
      std::lock_guard<std::mutex> Lock(C.Mu);
      if (C.Finished)
        return;
      KeepRunning = handleRequest(C, G, Params);
      if (G.St == Green::State::Running && !KeepRunning) {
        // handleRequest decided park (state already Parked) or requeue —
        // requeue is signalled by leaving the thread Running with a
        // pending resume; translate that here.
        Requeue = true;
        G.St = Green::State::Runnable;
        G.Pend = Green::Pending::Resume;
        G.ResumeParams = std::move(Params);
        C.RunQ.push_back(G.Tid);
        C.Cv.notify_one();
      }
      C.gauges();
    }
    if (!KeepRunning)
      break;
    if (Fuel == 0) {
      // Resume-in-place granted but the slice is spent: carry the resume
      // parameters to the next slice instead.
      std::lock_guard<std::mutex> Lock(C.Mu);
      if (C.Finished)
        return;
      G.St = Green::State::Runnable;
      G.Pend = Green::Pending::Resume;
      G.ResumeParams = std::move(Params);
      C.RunQ.push_back(G.Tid);
      C.Cv.notify_one();
      C.gauges();
      break;
    }
    G.Pend = Green::Pending::Resume;
    G.ResumeParams = std::move(Params);
  }

  (void)Requeue;
  C.M.SliceMicros->record(uint64_t(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - T0)
          .count()));
}

/// Lock held. Returns true to resume \p G in place with \p Params; false
/// when the thread parked (G.St == Parked), must be requeued (G.St left
/// Running, Params are the eventual resume values), or the schedule
/// failed (C.Finished).
bool Scheduler::handleRequest(Core &C, Green &G, std::vector<Value> &Params) {
  Executor &M = *G.M;
  SchedRequest Req = readSchedRequest(M);
  auto Park = [&] {
    G.St = Green::State::Parked;
    ++C.Parked;
  };
  auto Fail = [&](std::string Why) {
    C.fail(MachineStatus::Wrong,
           std::move(Why) + " in green thread " + std::to_string(G.Tid),
           SourceLoc(), false, false);
    return false;
  };

  switch (Req.Tag) {
  case SchedTagSpawn: {
    if (Req.Operands.empty() || !Req.Operands[0].isCode())
      return Fail("scheduler spawn of a non-procedure value");
    const IrProgram &Prog = M.program();
    uint64_t Idx = Req.Operands[0].codeIndex();
    if (Idx >= Prog.Procs.size())
      return Fail("scheduler spawn of an unknown procedure");
    if (C.Live >= C.Opts.MaxThreads)
      return Fail("scheduler thread limit (" +
                  std::to_string(C.Opts.MaxThreads) + ") exceeded by spawn");
    auto NG = std::make_unique<Green>();
    NG->Tid = C.NextTid++;
    NG->M = C.Factory();
    NG->Pend = Green::Pending::Start;
    NG->StartProc = Prog.Names->spelling(Prog.Procs[Idx]->Name);
    NG->StartArgs.assign(Req.Operands.begin() + 1, Req.Operands.end());
    uint64_t Tid = NG->Tid;
    C.RunQ.push_back(Tid);
    C.Threads.emplace(Tid, std::move(NG));
    ++C.Live;
    ++C.Spawned;
    C.M.Spawned->add(1);
    C.Cv.notify_one();
    Params = {Value::bits(32, Tid)};
    return true;
  }
  case SchedTagYield:
    Params.clear();
    return false; // requeue at the back: the cooperative quantum point
  case SchedTagSleep: {
    uint64_t Ticks =
        !Req.Operands.empty() && Req.Operands[0].isBits() ? Req.Operands[0].Raw
                                                          : 0;
    ++C.TimerWaits;
    C.M.TimerWaits->add(1);
    if (Ticks == 0) {
      Params.clear();
      return false; // sleep(0) is a plain yield
    }
    Park();
    C.Timers.emplace(C.VNow + Ticks, G.Tid);
    return false;
  }
  case SchedTagChanNew: {
    uint64_t Cap = !Req.Operands.empty() && Req.Operands[0].isBits()
                       ? Req.Operands[0].Raw
                       : 1;
    uint64_t H = C.NextChan++;
    Channel &Ch = C.Channels[H];
    Ch.Cap = std::max<uint64_t>(1, Cap);
    Params = {Value::bits(32, H)};
    return true;
  }
  case SchedTagChanSend: {
    if (Req.Operands.size() < 2 || !Req.Operands[0].isBits())
      return Fail("malformed channel send");
    auto It = C.Channels.find(Req.Operands[0].Raw);
    if (It == C.Channels.end())
      return Fail("send on unknown channel");
    Channel &Ch = It->second;
    Value V = Req.Operands[1];
    ++C.Sends;
    C.M.Sends->add(1);
    // Hand off directly to the oldest parked receiver if any; otherwise
    // queue if there is room; otherwise park.
    while (!Ch.RecvWaiters.empty()) {
      uint64_t R = Ch.RecvWaiters.front();
      Ch.RecvWaiters.pop_front();
      if (Green *W = C.get(R)) {
        C.wake(*W, {V});
        Params.clear();
        return true;
      }
    }
    if (Ch.Q.size() < Ch.Cap) {
      Ch.Q.push_back(V);
      Params.clear();
      return true;
    }
    G.SendVal = V;
    Park();
    Ch.SendWaiters.push_back(G.Tid);
    return false;
  }
  case SchedTagChanRecv: {
    if (Req.Operands.empty() || !Req.Operands[0].isBits())
      return Fail("malformed channel receive");
    auto It = C.Channels.find(Req.Operands[0].Raw);
    if (It == C.Channels.end())
      return Fail("receive on unknown channel");
    Channel &Ch = It->second;
    ++C.Recvs;
    C.M.Recvs->add(1);
    if (!Ch.Q.empty()) {
      Value V = Ch.Q.front();
      Ch.Q.pop_front();
      // A parked sender's value takes the freed slot, preserving order.
      while (!Ch.SendWaiters.empty()) {
        uint64_t S = Ch.SendWaiters.front();
        Ch.SendWaiters.pop_front();
        if (Green *W = C.get(S)) {
          Ch.Q.push_back(W->SendVal);
          C.wake(*W, {});
          break;
        }
      }
      Params = {V};
      return true;
    }
    Park();
    Ch.RecvWaiters.push_back(G.Tid);
    return false;
  }
  case SchedTagJoin: {
    if (Req.Operands.empty() || !Req.Operands[0].isBits())
      return Fail("malformed join");
    Green *T = C.get(Req.Operands[0].Raw);
    if (!T)
      return Fail("join on unknown thread " +
                  std::to_string(Req.Operands.empty() ? 0
                                                      : Req.Operands[0].Raw));
    C.M.Joins->add(1);
    if (T->St == Green::State::Done) {
      Params = {T->Results.empty() ? Value::bits(32, 0) : T->Results[0]};
      return true;
    }
    Park();
    T->Joiners.push_back(G.Tid);
    return false;
  }
  case SchedTagSelf:
    Params = {Value::bits(32, G.Tid)};
    return true;
  default:
    return Fail("unknown scheduler request tag " + std::to_string(Req.Tag));
  }
}
