//===- cmmbench/SvcOpen.cpp - Workload svc_open ---------------------------===//
//
// Part of cmmex (see DESIGN.md and cmmbench/README.md).
//
// Open loop against an in-process svc::Server on a per-run socket: nproc
// connections driven by nproc/2 generator threads with seeded Poisson
// arrivals, the cmmload hot:cold:yield = 8:1:1 mix with backends
// round-robin, and every yield op driven over the wire until it halts.
// Each op's latency is timed from when it was due, not when it was sent,
// so a stall is charged to every op it delays.
//
// Phases (shares of the run): warm-up 10% at RateLow, 15% at RateLow, 15%
// at RateHigh, then a 60% linear ramp in steps of StepSeconds. max_rate_ok
// is the offered rate at which the ramp's p99 crosses the 2 ms limit, read
// off a monotone fit of each step's p99 against its rate; a step where
// fewer than 98% of arrivals were answered by CompletionGraceSeconds after
// it ended has a growing backlog and counts as failing at any limit.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Rng.h"
#include "svc/Client.h"
#include "svc/Server.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <poll.h>
#include <unistd.h>
#include <unordered_map>

using namespace cmm;
using namespace cmmbench;

namespace {

/// Calibrated once on a 4-vCPU host (cmmbench/README.md): RateLow is about a
/// tenth and RateHigh about a third of max_rate_ok there; the ramp runs
/// from half of it to past capacity.
constexpr double RateLow = 8000, RateHigh = 24000;
constexpr double RampFrom = 40000, RampTo = 160000;
/// Windows are judged by the lower decile of their ticks (see Schedule). A
/// tick lasts long enough to expect TickSamples arrivals (ten beyond its
/// p99), and at least MinTickSeconds.
constexpr double TickSamples = 1000, MinTickSeconds = 0.05;
constexpr double StepSeconds = 0.75;
/// An arrival counts as completed when answered by this long after its
/// window ends; more than 2% left over means a backlog is building.
constexpr double CompletionGraceSeconds = 0.1;
/// Capacity is the peak completion rate over bins this long.
constexpr double CapacityBinSeconds = 0.25;
constexpr double LatencyLimitUs = 2000;
constexpr double MinCompletedShare = 0.98;
/// A generator this late at p99, in a ramp step the server passed, fell
/// behind before the server did.
constexpr double GeneratorLateLimitUs = 1000;
constexpr double DrainSeconds = 20;
/// The ramp stops once more than this many seconds of arrivals (at the
/// current rate) are outstanding: a hundred times the latency limit, so the
/// knee is long past, and going on only grows the backlog and the memory it
/// holds.
constexpr double OverloadSeconds = 0.2;

constexpr uint32_t YieldIters = 3, YieldDepth = 4;
/// sweep(3, 1, 4): every iteration raises, each worth 1099.
constexpr uint32_t YieldAnswer = 3 * 1099;
const char *const Tenant = "bench";

enum Cls : uint8_t { Hot, Cold, Yield };
const char *const ClsName[3] = {"hot", "cold", "yield"};

std::string hotSource() {
  return "export main;\nmain(bits32 n) { return (n + 1); }\n";
}
std::string coldSource(uint32_t K) {
  return "export main;\nmain(bits32 n) { return (n + " + std::to_string(K) +
         "); }\n";
}

/// The offered-rate schedule and the windows it is judged in: low, high,
/// then one window per ramp step. Each window is cut into ticks; a
/// window's percentiles are the lower deciles of its ticks' percentiles, so
/// the ticks hit by a host stall (5-25 ms preemptions of a vCPU are routine
/// on a shared VM) cannot decide a window.
struct Schedule {
  struct Window {
    double From, To, Rate;
    unsigned Ticks;
  };
  double WarmEnd;
  std::vector<Window> Windows; ///< [0] low, [1] high, [2..] ramp steps

  explicit Schedule(double S) : WarmEnd(0.1 * S) {
    double LowEnd = 0.25 * S, HighEnd = 0.4 * S;
    auto add = [&](double From, double To, double Rate) {
      double Tick = std::max(MinTickSeconds, TickSamples / Rate);
      Windows.push_back(
          {From, To, Rate,
           std::max(1u, unsigned((To - From) / Tick + 1e-9))});
    };
    add(WarmEnd, LowEnd, RateLow);
    add(LowEnd, HighEnd, RateHigh);
    unsigned Steps =
        std::max(2u, unsigned((S - HighEnd) / StepSeconds + 1e-9));
    double StepLen = (S - HighEnd) / Steps;
    for (unsigned K = 0; K < Steps; ++K)
      add(HighEnd + K * StepLen, HighEnd + (K + 1) * StepLen,
          RampFrom + (RampTo - RampFrom) * K / (Steps - 1));
  }
  double end() const { return Windows.back().To; }
  /// Index of the window containing \p T, or -1 in the warm-up.
  int windowOf(double T) const {
    if (T < WarmEnd)
      return -1;
    for (size_t K = 0; K < Windows.size(); ++K)
      if (T < Windows[K].To)
        return int(K);
    return int(Windows.size()) - 1;
  }
  double rateAt(double T) const {
    return T < WarmEnd ? RateLow : Windows[windowOf(T)].Rate;
  }
};

struct Frame {
  Clock::time_point Sent, Recv;
  double CompileUs = 0, RunUs = 0;
};

/// One op (a run request, plus its resumes for a yield), kept small: a run
/// records about a million of them.
struct SvcOp {
  double DueUs = 0, SentUs = 0, DoneUs = 0; ///< microseconds from start
  Cls C = Hot;
  uint8_t B = 0;
  bool Ok = false, CacheHit = false;
  uint16_t Replies = 0;
  uint16_t ResumeCycles = 0;
  uint32_t Expected = 0;
  uint32_t Steps = 0;
  float CompileUs = 0, RunUs = 0;

  double dueS() const { return DueUs / 1e6; }
  double latencyUs() const { return DoneUs - DueUs; }
};

struct Conn {
  std::unique_ptr<svc::Client> Cli;
  uint64_t Issued = 0;
  bool Dead = false;
  /// Request id -> (op index, send time).
  std::unordered_map<uint64_t, std::pair<size_t, Clock::time_point>> InFlight;
};

struct GenResult {
  std::vector<SvcOp> Ops;
  /// Traced runs only: the round trip of every frame of the ops due in the
  /// high window (for svc.rtt_us).
  std::vector<double> HighRttUs;
  size_t OutstandingMax = 0;
  /// What went wrong, for the report (an op's failure is its Ok flag).
  std::vector<std::string> Errors;
  /// Replies that matched no request: failures with no op to charge.
  uint64_t Stray = 0;
  /// Steps per class (must agree across every op of the class).
  uint64_t ClassSteps[3] = {0, 0, 0};
};

/// What the generator threads share.
struct GenShared {
  std::atomic<uint32_t> ColdSeq{1};
  std::atomic<int64_t> Outstanding{0};
  std::atomic<bool> Overloaded{false};
};

struct State {
  std::unique_ptr<svc::Server> Srv;
  std::vector<std::unique_ptr<svc::Client>> Conns; ///< closed before Srv
  std::string Error;
};

/// One generator thread: owns \p Conns, issues its share of the arrivals.
void generate(const RunConfig &Cfg, unsigned Idx, unsigned Gens,
              std::vector<Conn *> Conns, const Schedule &Sch,
              Clock::time_point Start, GenShared &Sh,
              Tracer *T, GenResult &Out) {
  Rng R((Cfg.Seed + 1) * 0x9e3779b97f4a7c15ull ^
        (Idx + 1) * 0x5851f42d4c957f2dull);
  Tracer::Buffer *Buf = T ? &T->buffer() : nullptr;
  auto usOf = [&](Clock::time_point P) { return usBetween(Start, P); };
  auto expo = [&](double Rate) {
    double U = (double(R.below(1u << 30)) + 1.0) / double(1u << 30);
    return -std::log(U) / Rate;
  };
  const std::string YieldSrc =
      sweepWorkloadSource(DispatchTechnique::UnwindRuntime);
  size_t InFlight = 0;
  unsigned NextConn = 0;
  double NextDue = expo(Sch.rateAt(0) / Gens);
  const Schedule::Window &High = Sch.Windows[1];
  /// Traced runs trace the ops due in the high window: the steady state at
  /// a fixed rate, not the ramp's deliberate overload.
  auto traced = [&](const SvcOp &O) {
    return Buf && O.DueUs >= High.From * 1e6 && O.DueUs < High.To * 1e6;
  };
  /// Each traced in-flight op's frames so far.
  std::unordered_map<size_t, std::vector<Frame>> Frames;

  auto finish = [&](size_t OpIdx, bool Ok, Clock::time_point Now) {
    SvcOp &O = Out.Ops[OpIdx];
    O.Ok = Ok;
    O.DoneUs = usOf(Now);
    --InFlight;
    Sh.Outstanding.fetch_sub(1, std::memory_order_relaxed);
    if (!traced(O))
      return;
    uint64_t Req = (uint64_t(Idx) << 40) | OpIdx;
    double At = T->us(Start);
    uint64_t Root =
        Buf->addUs("svc.op", "svc", 0, Req, At + O.DueUs, At + O.DoneUs);
    Buf->addUs("gen.late", "gen", Root, Req, At + O.DueUs, At + O.SentUs);
    auto It = Frames.find(OpIdx);
    if (It == Frames.end())
      return;
    for (const Frame &F : It->second) {
      uint64_t Fr = Buf->add("svc.frame", "svc", Root, Req, F.Sent, F.Recv);
      // The server reports how long each frame compiled and ran, not when:
      // both are placed at the end of the frame.
      double RecvUs = T->us(F.Recv);
      double RunAt = RecvUs - F.RunUs;
      const char *Layer =
          O.B == uint8_t(engine::Backend::Walk) ? "sem" : "vm";
      Buf->addUs("exec.run", Layer, Fr, Req, RunAt, RecvUs);
      if (F.CompileUs > 0)
        Buf->addUs("engine.compile", "compile", Fr, Req, RunAt - F.CompileUs,
                   RunAt);
      Out.HighRttUs.push_back(usBetween(F.Sent, F.Recv));
    }
    Frames.erase(It);
  };

  auto issue = [&](double DueS) {
    Conn *Cn = nullptr;
    for (size_t Tries = 0; Tries < Conns.size() && !Cn; ++Tries) {
      Conn *Cand = Conns[NextConn++ % Conns.size()];
      if (!Cand->Dead)
        Cn = Cand;
    }
    uint64_t Draw = R.below(10);
    SvcOp O;
    O.DueUs = DueS * 1e6;
    O.C = Draw < 8 ? Hot : Draw == 8 ? Cold : Yield;
    svc::RunRequestMsg M;
    M.Tenant = Tenant;
    O.B = uint8_t(Cn ? Cn->Issued++ % 3 : 0);
    M.Backend = O.B;
    switch (O.C) {
    case Hot:
      M.Sources = {hotSource()};
      M.Args = b32s({41});
      O.Expected = 42;
      break;
    case Cold: {
      uint32_t K = Sh.ColdSeq.fetch_add(1, std::memory_order_relaxed);
      M.Sources = {coldSource(K)};
      M.Args = b32s({1});
      O.Expected = 1 + K;
      break;
    }
    case Yield:
      M.Sources = {YieldSrc};
      M.Entry = "sweep";
      M.Args = b32s({YieldIters, 1, YieldDepth});
      M.Park = true; // every raise comes back over the wire
      O.Expected = YieldAnswer;
      break;
    }
    size_t OpIdx = Out.Ops.size();
    Out.Ops.push_back(std::move(O));
    ++InFlight;
    Out.OutstandingMax = std::max(Out.OutstandingMax, InFlight);
    if (double(Sh.Outstanding.fetch_add(1, std::memory_order_relaxed) + 1) >
        OverloadSeconds * Sch.rateAt(DueS))
      Sh.Overloaded.store(true, std::memory_order_relaxed);
    Clock::time_point Now = Clock::now();
    Out.Ops[OpIdx].SentUs = usOf(Now);
    if (!Cn) {
      Out.Errors.push_back("no live connection");
      finish(OpIdx, false, Now);
      return;
    }
    Cn->InFlight[Cn->Cli->sendRun(std::move(M))] = {OpIdx, Now};
  };

  auto onReply = [&](Conn &Cn, const svc::Reply &Rp) {
    Clock::time_point Now = Clock::now();
    auto It = Cn.InFlight.find(Rp.ReqId);
    if (It == Cn.InFlight.end()) {
      Out.Errors.push_back("reply to an unknown request");
      ++Out.Stray;
      return;
    }
    auto [OpIdx, Sent] = It->second;
    Cn.InFlight.erase(It);
    SvcOp &O = Out.Ops[OpIdx];
    if (traced(O))
      Frames[OpIdx].push_back({Sent, Now,
                               Rp.Result.CompileMillis * 1000.0,
                               Rp.Result.RunMillis * 1000.0});
    if (Rp.Type != svc::MsgType::RespResult) {
      Out.Errors.push_back(std::string(ClsName[O.C]) + ": error reply " +
                           std::string(svc::errCodeName(Rp.Error.Code)) +
                           ": " + Rp.Error.Message);
      return finish(OpIdx, false, Now);
    }
    const svc::ResultMsg &M = Rp.Result;
    O.CompileUs += float(M.CompileMillis * 1000.0);
    O.RunUs += float(M.RunMillis * 1000.0);
    if (O.Replies++ == 0)
      O.CacheHit = M.CacheHit;
    if (!M.CompileError.empty()) {
      Out.Errors.push_back(std::string(ClsName[O.C]) + ": " + M.CompileError);
      return finish(OpIdx, false, Now);
    }
    MachineStatus St = MachineStatus(M.Status);
    if (St == MachineStatus::Suspended && M.SessionId != 0 && O.C == Yield &&
        M.DispatchHandled) {
      svc::ResumeRequestMsg Rs;
      Rs.Tenant = Tenant;
      Rs.SessionId = M.SessionId;
      Rs.Op = svc::ResumeOp::Dispatch;
      Rs.Dispatcher = uint8_t(engine::DispatcherKind::Unwind);
      Clock::time_point ResumeAt = Clock::now();
      Cn.InFlight[Cn.Cli->sendResume(std::move(Rs))] = {OpIdx, ResumeAt};
      return;
    }
    uint32_t Expected = O.Expected ^ (Cfg.CorruptExpected && OpIdx == 0);
    bool Ok = St == MachineStatus::Halted && M.Results.size() == 1 &&
              M.Results[0] == Value::bits(32, Expected);
    if (!Ok) {
      Out.Errors.push_back(std::string(ClsName[O.C]) +
                           ": wrong answer or status " +
                           std::to_string(int(St)));
    } else {
      O.Steps = uint32_t(M.MachineStats.Steps);
      O.ResumeCycles = uint16_t(M.ResumeCycles);
      uint64_t &Want = Out.ClassSteps[O.C];
      if (Want == 0)
        Want = O.Steps;
      else if (Want != O.Steps) {
        Out.Errors.push_back(std::string(ClsName[O.C]) + ": " +
                             std::to_string(O.Steps) + " steps, expected " +
                             std::to_string(Want));
        Ok = false;
      }
    }
    finish(OpIdx, Ok, Now);
  };

  const Clock::time_point Drain = after(Start, Sch.end() + DrainSeconds);
  std::vector<pollfd> Fds(Conns.size());
  for (;;) {
    Clock::time_point Now = Clock::now();
    double NowS = usBetween(Start, Now) / 1e6;
    bool Open = !Sh.Overloaded.load(std::memory_order_relaxed);
    while (Open && NextDue <= NowS && NextDue < Sch.end()) {
      issue(NextDue);
      NextDue += expo(Sch.rateAt(NextDue) / Gens);
    }
    if ((!Open || NextDue >= Sch.end()) && InFlight == 0)
      break;
    if (Now > Drain) {
      for (Conn *Cn : Conns)
        for (auto &[Id, P] : Cn->InFlight) {
          Out.Errors.push_back(std::string(ClsName[Out.Ops[P.first].C]) +
                               ": no reply within the drain");
          finish(P.first, false, Now);
        }
      break;
    }
    double WaitS =
        Open && NextDue < Sch.end() ? std::max(0.0, NextDue - NowS) : 0.05;
    timespec Ts;
    Ts.tv_sec = time_t(WaitS);
    Ts.tv_nsec = long((WaitS - double(Ts.tv_sec)) * 1e9);
    for (size_t K = 0; K < Conns.size(); ++K)
      Fds[K] = {Conns[K]->Dead ? -1 : Conns[K]->Cli->fd(), POLLIN, 0};
    if (ppoll(Fds.data(), Fds.size(), &Ts, nullptr) <= 0)
      continue;
    for (size_t K = 0; K < Conns.size(); ++K) {
      if (!(Fds[K].revents & (POLLIN | POLLERR | POLLHUP)))
        continue;
      Conn &Cn = *Conns[K];
      std::optional<svc::Reply> Rp = Cn.Cli->waitAny();
      if (Rp) {
        onReply(Cn, *Rp);
        continue;
      }
      Out.Errors.push_back("connection lost: " + Cn.Cli->error());
      Cn.Dead = true;
      for (auto &[Id, P] : Cn.InFlight)
        finish(P.first, false, Clock::now());
      Cn.InFlight.clear();
    }
  }
}

/// What happened to the ops due in one window.
struct WindowStats {
  std::vector<std::vector<double>> TickLat;  ///< latency per op, per tick
  std::vector<std::vector<double>> TickLate; ///< generator lateness, per tick
  uint64_t Arrivals = 0;
  /// Ops answered right within CompletionGraceSeconds of the window's end.
  uint64_t Completed = 0;
  double P50 = 0, P95 = 0, P99 = 0, LateP99 = 0;
  size_t MinTickSamples = 0;

  void finish() {
    std::vector<double> P50s, P95s, P99s, LateP99s;
    MinTickSamples = SIZE_MAX;
    for (size_t K = 0; K < TickLat.size(); ++K) {
      if (TickLat[K].empty())
        continue;
      P50s.push_back(percentile(TickLat[K], 50));
      P95s.push_back(percentile(TickLat[K], 95));
      P99s.push_back(percentile(TickLat[K], 99));
      LateP99s.push_back(percentile(TickLate[K], 99));
      MinTickSamples = std::min(MinTickSamples, TickLat[K].size());
    }
    P50 = percentile(P50s, 10);
    P95 = percentile(P95s, 10);
    P99 = percentile(P99s, 10);
    LateP99 = percentile(LateP99s, 10);
  }
  /// The window ran (its arrivals were not cut short by the overload
  /// stop) and no backlog built up in it.
  bool kept(const Schedule::Window &Win) const {
    return double(Arrivals) >= 0.9 * Win.Rate * (Win.To - Win.From) &&
           double(Completed) >= MinCompletedShare * double(Arrivals);
  }
};

} // namespace

Outcome cmmbench::runSvcOpen(const RunConfig &C, Tracer *T) {
  Outcome Out;
  const unsigned Gens = std::max(1u, C.Nproc / 2);
  const unsigned NConns = std::max(Gens, C.Nproc);

  std::string Dir = C.WorkDir + "/svc-XXXXXX";
  if (!mkdtemp(Dir.data())) {
    Out.fail("cannot create a socket directory under " + C.WorkDir);
    return Out;
  }
  const std::string SockPath = Dir + "/s";

  double SetupS = 0;
  std::unique_ptr<State> S = setUpMedian<State>(
      C.SetupReps,
      [&] {
        auto St = std::make_unique<State>();
        svc::ServerOptions O;
        O.UnixPath = SockPath;
        // Overload past the knee must queue, not be refused: the ramp's top
        // windows are meant to fail on latency, never on a quota.
        O.Quota.MaxInFlight = 1u << 30;
        O.Quota.MaxSessions = 1u << 30;
        // Every parked session here is resumed at once, so expiry never
        // applies. Off, because the reaper can expire a session parked
        // while it scans: it samples the clock before taking the table
        // lock, and a LastUsedMicros stamped after that sample underflows
        // Now - LastUsedMicros to a huge age.
        O.SessionTtlMillis = 0;
        St->Srv = std::make_unique<svc::Server>(O);
        if (!St->Srv->start(&St->Error))
          return St;
        for (unsigned K = 0; K < NConns; ++K) {
          std::unique_ptr<svc::Client> Cli =
              svc::Client::connectUnix(SockPath, &St->Error);
          if (!Cli || !Cli->ping()) {
            St->Error = "connect/ping failed: " + St->Error;
            return St;
          }
          St->Conns.push_back(std::move(Cli));
        }
        for (std::string Src :
             {hotSource(),
              sweepWorkloadSource(DispatchTechnique::UnwindRuntime)}) {
          svc::CompileRequestMsg M;
          M.Tenant = Tenant;
          M.Sources = {Src};
          std::optional<svc::CompiledMsg> R = St->Conns[0]->compile(M);
          if (!R || !R->Ok) {
            St->Error = "set-up compile failed";
            return St;
          }
        }
        return St;
      },
      SetupS);

  auto cleanup = [&] {
    S.reset();
    ::unlink(SockPath.c_str());
    ::rmdir(Dir.c_str());
  };
  if (!S->Error.empty()) {
    Out.fail("server set-up: " + S->Error);
    cleanup();
    return Out;
  }

  Schedule Sch(C.Seconds);
  std::vector<Conn> Conns(NConns);
  for (unsigned K = 0; K < NConns; ++K)
    Conns[K].Cli = std::move(S->Conns[K]);
  std::vector<GenResult> Results(Gens);
  GenShared Shared;

  MetricsRegistry &Reg = S->Srv->metrics();
  RegSnap RunBefore = RegSnap::take(Reg, engineCounterNames(), {});
  Clock::time_point Start = Clock::now();
  PhaseSnaps High;
  std::thread Snapper = snapWindow(
      Reg, [&] { return S->Srv->engine().cacheStats(); },
      after(Start, Sch.Windows[1].From), after(Start, Sch.Windows[1].To), High);
  std::vector<std::thread> Threads;
  for (unsigned G = 0; G < Gens; ++G) {
    std::vector<Conn *> Mine;
    for (unsigned K = G; K < NConns; K += Gens)
      Mine.push_back(&Conns[K]);
    Threads.emplace_back(generate, std::cref(C), G, Gens, Mine, std::cref(Sch),
                         Start, std::ref(Shared), T, std::ref(Results[G]));
  }
  for (std::thread &Th : Threads)
    Th.join();
  Snapper.join();
  RegSnap RunAfter = RegSnap::take(Reg, engineCounterNames(), {});
  Conns.clear();

  // Correctness: every op answered right, steps agree within each class.
  uint64_t ClassSteps[3] = {0, 0, 0};
  std::vector<const SvcOp *> All;
  for (GenResult &G : Results) {
    for (const SvcOp &O : G.Ops) {
      All.push_back(&O);
      ++Out.Attempted;
      Out.Failed += !O.Ok;
    }
    Out.Failed += G.Stray;
    for (std::string &E : G.Errors)
      if (Out.Notes.size() < 8)
        Out.Notes.push_back(std::move(E));
    for (int K = 0; K < 3; ++K) {
      if (G.ClassSteps[K] == 0)
        continue;
      if (ClassSteps[K] != 0 && ClassSteps[K] != G.ClassSteps[K])
        Out.fail(std::string(ClsName[K]) + ": step counts differ across "
                                           "generators");
      ClassSteps[K] = G.ClassSteps[K];
    }
  }

  // Windows: ops by due time, then by tick within the window; a failed op
  // counts as missing any limit.
  const size_t NWin = Sch.Windows.size();
  std::vector<WindowStats> W(NWin);
  for (size_t K = 0; K < NWin; ++K) {
    W[K].TickLat.resize(Sch.Windows[K].Ticks);
    W[K].TickLate.resize(Sch.Windows[K].Ticks);
  }
  auto tickOf = [&](int Wi, double T) {
    const Schedule::Window &Win = Sch.Windows[Wi];
    return std::min<size_t>(Win.Ticks - 1, size_t((T - Win.From) /
                                                  (Win.To - Win.From) *
                                                  Win.Ticks));
  };
  std::vector<std::vector<double>> ClassHigh(3);
  std::vector<double> AllLate;
  for (const SvcOp *O : All) {
    int Wi = Sch.windowOf(O->dueS());
    if (Wi < 0)
      continue;
    const Schedule::Window &Win = Sch.Windows[Wi];
    WindowStats &Ws = W[Wi];
    ++Ws.Arrivals;
    double L = O->Ok ? O->latencyUs() : INFINITY;
    size_t Tick = tickOf(Wi, O->dueS());
    Ws.TickLat[Tick].push_back(L);
    double Late = O->SentUs - O->DueUs;
    Ws.TickLate[Tick].push_back(Late);
    AllLate.push_back(Late);
    if (Wi == 1)
      ClassHigh[O->C].push_back(L);
    if (O->Ok && O->DoneUs <= (Win.To + CompletionGraceSeconds) * 1e6)
      ++Ws.Completed;
  }
  for (WindowStats &Ws : W)
    Ws.finish();

  // max_rate_ok: where a monotone fit of log p99 against the offered rate
  // crosses the limit. A step whose backlog grew, or that was cut short
  // because the ramp stopped at OverloadSeconds, counts as unboundedly
  // slow. The fit (pool-adjacent-violators) keeps one transient bad step
  // from ending the ramp early, and one lucky step from extending it.
  const size_t Steps = NWin - 2;
  std::vector<double> Fit; // log p99 per step, made nondecreasing
  std::vector<size_t> Span;
  for (size_t K = 2; K < NWin; ++K) {
    Fit.push_back(std::log(W[K].kept(Sch.Windows[K]) && std::isfinite(W[K].P99)
                               ? std::max(1.0, W[K].P99)
                               : 1e9));
    Span.push_back(1);
    while (Fit.size() > 1 && Fit[Fit.size() - 2] > Fit.back()) {
      double N1 = double(Span[Span.size() - 2]), N2 = double(Span.back());
      double M = (Fit[Fit.size() - 2] * N1 + Fit.back() * N2) / (N1 + N2);
      Fit.pop_back();
      Span.pop_back();
      Fit.back() = M;
      Span.back() += size_t(N2);
    }
  }
  std::vector<double> StepFit;
  for (size_t B = 0; B < Fit.size(); ++B)
    StepFit.insert(StepFit.end(), Span[B], Fit[B]);
  const double Limit = std::log(LatencyLimitUs);
  double MaxRate = Sch.Windows.back().Rate;
  size_t Passed = 0;
  while (Passed < Steps && StepFit[Passed] <= Limit)
    ++Passed;
  if (Passed < Steps) {
    double Hi = Sch.Windows[2 + Passed].Rate;
    // Below the first step, the high phase is the next point of the curve.
    double Lo = Passed ? Sch.Windows[1 + Passed].Rate : RateHigh;
    double FitLo =
        Passed ? StepFit[Passed - 1] : std::log(std::max(1.0, W[1].P99));
    double Frac = StepFit[Passed] > FitLo
                      ? (Limit - FitLo) / (StepFit[Passed] - FitLo)
                      : 0;
    MaxRate = Lo + std::clamp(Frac, 0.0, 1.0) * (Hi - Lo);
  }
  bool GeneratorFirst = false;
  for (size_t K = 0; K < Passed; ++K)
    GeneratorFirst |= W[2 + K].LateP99 > GeneratorLateLimitUs;

  // Capacity: the most ops completed in any CapacityBinSeconds once the
  // ramp has begun. The ramp ends past saturation, where the server
  // completes as fast as it can.
  double Capacity = 0;
  {
    const double RampFrom = Sch.Windows[2].From;
    std::vector<uint32_t> Bins(size_t((Sch.end() + DrainSeconds - RampFrom) /
                                      CapacityBinSeconds) +
                               1);
    for (const SvcOp *O : All)
      if (O->Ok && O->DoneUs >= RampFrom * 1e6)
        ++Bins[std::min(Bins.size() - 1,
                        size_t((O->DoneUs / 1e6 - RampFrom) /
                               CapacityBinSeconds))];
    for (uint32_t B : Bins)
      Capacity = std::max(Capacity, B / CapacityBinSeconds);
  }

  Out.e2e("setup_s", SetupS, "s");
  Out.e2e("ops_per_s", Capacity, "ops/s");
  Out.e2e("op_p50_us", W[1].P50, "us");
  Out.e2e("op_p95_us", W[1].P95, "us");
  Out.layer("op.p99_us", W[1].P99, "us");
  // Read when the high window closed: the ramp's deliberate overload queues
  // work whose memory says nothing about the steady state.
  Out.e2e("peak_rss_mib", High.PeakRssMiB, "MiB");
  char Line[240];
  std::snprintf(Line, sizeof Line,
                "svc_open: %zu ops; low %.0f/s p50 %.0f p99 %.0f us; high "
                "%.0f/s p50 %.0f p99 %.0f us (>= %zu samples per tick); "
                "capacity %.0f/s; max_rate_ok %.0f (%zu/%zu ramp steps under "
                "the limit); setup %.4f s",
                All.size(), RateLow, W[0].P50, W[0].P99, RateHigh, W[1].P50,
                W[1].P99, W[1].MinTickSamples, Capacity, MaxRate, Passed, Steps,
                SetupS);
  Out.Report.push_back(Line);
  std::string Ramp = "svc_open ramp (rate:p99us:done%:late_p99us):";
  for (size_t K = 2; K < NWin; ++K) {
    std::snprintf(Line, sizeof Line, " %.0f:%.0f:%.1f:%.0f",
                  Sch.Windows[K].Rate,
                  std::isfinite(W[K].P99) ? W[K].P99 : -1.0,
                  W[K].Arrivals ? 100.0 * double(W[K].Completed) /
                                      double(W[K].Arrivals)
                                : 0.0,
                  W[K].LateP99);
    Ramp += Line;
  }
  Out.Report.push_back(Ramp);
  if (Passed == Steps)
    Out.Report.push_back("svc_open: the fit never crossed the limit; "
                         "max_rate_ok is the ramp's top, a lower bound");
  if (GeneratorFirst)
    Out.Report.push_back("svc_open: INVALID ramp: the generator fell behind "
                         "before the server did");

  if (T) {
    // Engine view of the high phase, from what each response reported.
    std::vector<OpRecord> Recs;
    for (const SvcOp *O : All) {
      OpRecord R;
      R.Item = O->C;
      R.B = O->B;
      R.Timed = Sch.windowOf(O->dueS()) == 1 && O->Ok;
      R.Halted = O->Ok;
      R.CacheHit = O->CacheHit;
      R.Steps = O->Steps;
      R.LatUs = float(O->latencyUs());
      R.CompileUs = float(O->CompileUs);
      R.RunUs = float(O->RunUs);
      R.ResumeCycles = O->ResumeCycles;
      Recs.push_back(R);
    }
    engineLayerMetrics(Recs, High, Sch.Windows[1].To - Sch.Windows[1].From,
                       Out);
    // The yield class is the only exception program; the mix weights the
    // classes 8:1:1.
    Out.layer("exec.steps_per_op.unwind_rt", double(ClassSteps[Yield]),
              "steps");
    Out.layer("exec.steps_per_op",
              (8.0 * double(ClassSteps[Hot]) + double(ClassSteps[Cold]) +
               double(ClassSteps[Yield])) / 10.0,
              "steps");

    std::vector<double> Rtt;
    size_t Outstanding = 0;
    for (GenResult &G : Results) {
      Rtt.insert(Rtt.end(), G.HighRttUs.begin(), G.HighRttUs.end());
      Outstanding = std::max(Outstanding, G.OutstandingMax);
    }
    double RttP50 = percentile(Rtt, 50);
    double ReqP50 = High.After.histPercentile(High.Before, "svc.request_micros",
                                              50);
    Out.layer("open.p50_us_low", W[0].P50, "us");
    Out.layer("open.p99_us_low", W[0].P99, "us");
    Out.layer("open.p50_us_high", W[1].P50, "us");
    Out.layer("open.p99_us_high", W[1].P99, "us");
    Out.layer("open.max_rate_ok", MaxRate, "ops/s");
    Out.layer("open.ramp_steps_ok", double(Passed), "count");
    Out.layer("open.samples_high", double(W[1].Arrivals), "count");
    Out.layer("svc.rtt_us.p50", RttP50, "us");
    Out.layer("svc.rtt_us.p99", percentile(Rtt, 99), "us");
    for (int K = 0; K < 3; ++K)
      Out.layer(std::string("svc.") + ClsName[K] + "_us.p99",
                percentile(ClassHigh[K], 99), "us");
    Out.layer("svc.request_us.p50", ReqP50, "us");
    Out.layer("svc.request_us.p99",
              High.After.histPercentile(High.Before, "svc.request_micros", 99),
              "us");
    Out.layer("svc.unattributed_us.p50", RttP50 - ReqP50, "us");
    for (const char *N : {"svc.errors", "svc.bad_frames", "svc.quota_rejects"})
      Out.layer(N, double(RunAfter.counterDelta(RunBefore, N)), "count");
    Out.layer("gen.late_us.p99", percentile(AllLate, 99), "us");
    Out.layer("gen.outstanding_max", double(Outstanding), "count");
    Out.layer("gen.valid", GeneratorFirst ? 0 : 1, "bool");
    traceLayerMetrics(*T, "svc.op", Out);
  }
  cleanup();
  return Out;
}
