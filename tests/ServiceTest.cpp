//===- tests/ServiceTest.cpp - cmmexd service-level tests -----------------===//
//
// Part of cmmex (see DESIGN.md).
//
// The service suite behind ISSUE 9: round trips on every backend, tenant
// quota enforcement (fuel / deadline / memory / in-flight / sessions),
// resume-over-the-wire parity with the in-process engine, session
// lifecycle (close, tenant isolation, TTL expiry), graceful shutdown, and
// the protocol-rejection catalog (truncated frames, bit-flipped checksums,
// stale versions, oversized length prefixes — each refused loudly without
// crashing the server or leaking the connection).
//
// Every test spawns its own in-process server on an ephemeral socket
// (test::ServiceHarness), so the suite is hermetic and safe under
// `ctest -j`.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "costmodel/DispatchWorkloads.h"
#include "engine/Engine.h"
#include "support/MiniJson.h"
#include "svc/Client.h"
#include "svc/Server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <thread>

using namespace cmm;
using namespace cmm::engine;
using cmm::test::b32;
using cmm::test::ServiceHarness;

namespace {

const char *addOneSource() {
  return "export main;\n"
         "main(bits32 n) { return (n + 1); }\n";
}

const char *loopForeverSource() {
  return "export main;\n"
         "main(bits32 n) {\n"
         "loop:\n"
         "  n = n + 1;\n"
         "  goto loop;\n"
         "}\n";
}

/// Touches one fresh memory page per iteration (pages are allocated
/// lazily on store), so the memory quota is the only thing that can stop
/// it before fuel runs out.
const char *pageHogSource() {
  return "export main;\n"
         "main(bits32 n) {\n"
         "  bits32 a;\n"
         "  a = 0;\n"
         "loop:\n"
         "  bits32[a] = n;\n"
         "  a = a + 4096;\n"
         "  goto loop;\n"
         "}\n";
}

svc::RunRequestMsg runMsg(std::string Source, std::string Tenant = "t") {
  svc::RunRequestMsg M;
  M.Tenant = std::move(Tenant);
  M.Sources = {std::move(Source)};
  M.Args = {b32(41)};
  return M;
}

/// Parks a sweep workload (UnwindRuntime raises on every period-th
/// iteration; with no server-side dispatcher the first raise suspends and
/// parks). Returns the parked session id, or 0 on failure.
uint64_t parkSweep(svc::Client &C, const std::string &Tenant = "t") {
  svc::RunRequestMsg M;
  M.Tenant = Tenant;
  M.Sources = {sweepWorkloadSource(DispatchTechnique::UnwindRuntime)};
  M.Entry = "sweep";
  M.Args = {b32(6), b32(2), b32(4)};
  M.Park = true;
  std::optional<svc::ResultMsg> R = C.run(std::move(M));
  if (!R || MachineStatus(R->Status) != MachineStatus::Suspended)
    return 0;
  return R->SessionId;
}

//===----------------------------------------------------------------------===//
// Round trips
//===----------------------------------------------------------------------===//

TEST(ServiceRoundTrip, PingAndStats) {
  ServiceHarness H;
  auto C = H.client();
  ASSERT_TRUE(C);
  EXPECT_TRUE(C->ping());
  std::optional<std::string> S = C->statsJson();
  ASSERT_TRUE(S.has_value());
  std::optional<JsonValue> Doc = parseJson(*S);
  ASSERT_TRUE(Doc.has_value()) << "stats are not valid JSON";
  const JsonValue *Counters = Doc->get("counters");
  ASSERT_NE(Counters, nullptr);
  // The snapshot covers both the service layer and the engine beneath it.
  EXPECT_GE(Counters->numberAt("svc.requests"), 1.0);
  EXPECT_NE(Counters->get("engine.jobs"), nullptr);
}

TEST(ServiceRoundTrip, RunRoundTripOnEveryBackend) {
  ServiceHarness H;
  auto C = H.client();
  ASSERT_TRUE(C);
  for (Backend B : AllBackends) {
    svc::RunRequestMsg M = runMsg(addOneSource());
    M.Backend = uint8_t(B);
    std::optional<svc::ResultMsg> R = C->run(std::move(M));
    ASSERT_TRUE(R.has_value()) << backendName(B);
    EXPECT_TRUE(R->CompileError.empty()) << R->CompileError;
    EXPECT_EQ(MachineStatus(R->Status), MachineStatus::Halted)
        << backendName(B);
    ASSERT_EQ(R->Results.size(), 1u);
    EXPECT_EQ(R->Results[0], b32(42));
    EXPECT_EQ(R->SessionId, 0u);
  }
  // Same source, so every backend after the first compiled from the cache.
  svc::RunRequestMsg M = runMsg(addOneSource());
  std::optional<svc::ResultMsg> R = C->run(std::move(M));
  ASSERT_TRUE(R.has_value());
  EXPECT_TRUE(R->CacheHit);
}

TEST(ServiceRoundTrip, PipelinedRequestsAllComplete) {
  ServiceHarness H;
  auto C = H.client();
  ASSERT_TRUE(C);
  constexpr int N = 16;
  std::vector<uint64_t> Ids;
  for (int I = 0; I < N; ++I) {
    svc::RunRequestMsg M = runMsg(addOneSource());
    M.Args = {b32(uint64_t(I))};
    Ids.push_back(C->sendRun(std::move(M)));
  }
  // Responses may arrive in any order; wait(id) must pair each one up.
  for (int I = N - 1; I >= 0; --I) {
    std::optional<svc::Reply> R = C->wait(Ids[size_t(I)]);
    ASSERT_TRUE(R.has_value()) << C->error();
    ASSERT_EQ(R->Type, svc::MsgType::RespResult);
    ASSERT_EQ(R->Result.Results.size(), 1u);
    EXPECT_EQ(R->Result.Results[0], b32(uint64_t(I) + 1));
  }
}

TEST(ServiceRoundTrip, CompileInternsAndReportsCacheHit) {
  ServiceHarness H;
  auto C = H.client();
  ASSERT_TRUE(C);
  svc::CompileRequestMsg M;
  M.Tenant = "t";
  M.Sources = {addOneSource()};
  std::optional<svc::CompiledMsg> R1 = C->compile(M);
  ASSERT_TRUE(R1.has_value());
  EXPECT_TRUE(R1->Ok) << R1->Error;
  EXPECT_EQ(R1->Key.size(), 32u);
  EXPECT_FALSE(R1->CacheHit);
  std::optional<svc::CompiledMsg> R2 = C->compile(M);
  ASSERT_TRUE(R2.has_value());
  EXPECT_TRUE(R2->CacheHit);
  EXPECT_EQ(R2->Key, R1->Key);

  // A compile failure travels in the artifact, not as a protocol error.
  svc::CompileRequestMsg Bad;
  Bad.Tenant = "t";
  Bad.Sources = {"export main;\nmain(bits32 n) { return (q); }\n"};
  std::optional<svc::CompiledMsg> R3 = C->compile(Bad);
  ASSERT_TRUE(R3.has_value());
  EXPECT_FALSE(R3->Ok);
  EXPECT_FALSE(R3->Error.empty());
}

TEST(ServiceRoundTrip, CompileHitFlagIsPerRequest) {
  // The hit flag must describe this request's own lookup: hits on other
  // keys landing concurrently (a second client hammering one hot source)
  // must never turn a cold compile into a reported hit.
  ServiceHarness H;
  auto Cold = H.client(), Hot = H.client();
  ASSERT_TRUE(Cold && Hot);
  svc::CompileRequestMsg HotMsg;
  HotMsg.Tenant = "t";
  HotMsg.Sources = {addOneSource()};
  ASSERT_TRUE(Hot->compile(HotMsg).has_value());

  std::atomic<bool> Stop{false};
  std::thread Hammer([&] {
    constexpr size_t Window = 8;
    std::deque<uint64_t> Pending;
    while (!Stop.load() || !Pending.empty()) {
      if (!Stop.load() && Pending.size() < Window) {
        Pending.push_back(Hot->sendCompile(HotMsg));
        continue;
      }
      std::optional<svc::Reply> R = Hot->wait(Pending.front());
      Pending.pop_front();
      if (!R)
        return;
      EXPECT_TRUE(R->Compiled.CacheHit);
    }
  });
  unsigned FalseHits = 0;
  for (unsigned I = 0; I < 200; ++I) {
    svc::CompileRequestMsg M;
    M.Tenant = "t";
    M.Sources = {"export main;\nmain(bits32 n) { return (n + " +
                 std::to_string(I + 2) + "); }\n"};
    std::optional<svc::CompiledMsg> R = Cold->compile(M);
    ASSERT_TRUE(R.has_value()) << Cold->error();
    EXPECT_TRUE(R->Ok) << R->Error;
    FalseHits += R->CacheHit;
  }
  Stop.store(true);
  Hammer.join();
  EXPECT_EQ(FalseHits, 0u) << "cold compiles reported as cache hits";
}

TEST(ServiceRoundTrip, WrongJobReportsReasonNotCrash) {
  ServiceHarness H;
  auto C = H.client();
  ASSERT_TRUE(C);
  // Reads an unbound local: the machine goes Wrong, the service reports it.
  svc::RunRequestMsg M = runMsg("export main;\n"
                                "main(bits32 n) {\n"
                                "  bits32 x, y;\n"
                                "  if n != 0 { x = y; }\n"
                                "  return (x);\n"
                                "}\n");
  M.Args = {b32(1)};
  std::optional<svc::ResultMsg> R = C->run(std::move(M));
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(MachineStatus(R->Status), MachineStatus::Wrong);
  EXPECT_FALSE(R->WrongReason.empty());
  EXPECT_TRUE(C->ping()) << "connection must survive a Wrong job";
}

TEST(ServiceRoundTrip, TcpTransportRoundTrip) {
  svc::ServerOptions O;
  O.UseTcp = true;
  O.TcpPort = 0; // ephemeral
  ServiceHarness H(std::move(O));
  ASSERT_TRUE(H.ok());
  EXPECT_NE(H.server().tcpPort(), 0u);
  auto C = H.client();
  ASSERT_TRUE(C);
  std::optional<svc::ResultMsg> R = C->run(runMsg(addOneSource()));
  ASSERT_TRUE(R.has_value());
  ASSERT_EQ(R->Results.size(), 1u);
  EXPECT_EQ(R->Results[0], b32(42));
}

//===----------------------------------------------------------------------===//
// Tenant quotas
//===----------------------------------------------------------------------===//

TEST(ServiceQuota, FuelQuotaLeavesRunningWithoutTimeout) {
  svc::ServerOptions O;
  O.Quota.MaxFuel = 1000;
  ServiceHarness H(std::move(O));
  auto C = H.client();
  ASSERT_TRUE(C);
  // The request asks for unlimited fuel; the tenant quota clamps it.
  std::optional<svc::ResultMsg> R = C->run(runMsg(loopForeverSource()));
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(MachineStatus(R->Status), MachineStatus::Running);
  EXPECT_FALSE(R->TimedOut);
  EXPECT_LE(R->MachineStats.Steps, 1000u);
}

TEST(ServiceQuota, DeadlineQuotaStopsARunawayJob) {
  svc::ServerOptions O;
  O.Quota.MaxDeadlineMillis = 25;
  ServiceHarness H(std::move(O));
  auto C = H.client();
  ASSERT_TRUE(C);
  svc::RunRequestMsg M = runMsg(loopForeverSource());
  M.DeadlineMillis = 60'000; // clamped down to the quota's 25ms
  std::optional<svc::ResultMsg> R = C->run(std::move(M));
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(MachineStatus(R->Status), MachineStatus::Running);
  EXPECT_TRUE(R->TimedOut);
}

TEST(ServiceQuota, MemoryQuotaStopsAPageHog) {
  svc::ServerOptions O;
  O.Quota.MaxMemoryBytes = 1 << 16; // 16 pages
  ServiceHarness H(std::move(O));
  auto C = H.client();
  ASSERT_TRUE(C);
  std::optional<svc::ResultMsg> R = C->run(runMsg(pageHogSource()));
  ASSERT_TRUE(R.has_value());
  EXPECT_TRUE(R->MemExceeded);
  EXPECT_NE(MachineStatus(R->Status), MachineStatus::Halted);
}

TEST(ServiceQuota, InFlightQuotaRefusesLoudly) {
  svc::ServerOptions O;
  O.Quota.MaxInFlight = 0; // every run is over quota — deterministically
  ServiceHarness H(std::move(O));
  auto C = H.client();
  ASSERT_TRUE(C);
  svc::ErrorMsg E;
  std::optional<svc::ResultMsg> R = C->run(runMsg(addOneSource()), &E);
  EXPECT_FALSE(R.has_value());
  EXPECT_EQ(E.Code, svc::ErrCode::QuotaExceeded);
  EXPECT_GE(H.server().metrics().counter("svc.quota_rejects").value(), 1u);
  EXPECT_TRUE(C->ping()) << "a quota refusal must not kill the connection";
}

TEST(ServiceQuota, SessionQuotaBoundsParkedSessions) {
  svc::ServerOptions O;
  O.Quota.MaxSessions = 1;
  ServiceHarness H(std::move(O));
  auto C = H.client();
  ASSERT_TRUE(C);
  uint64_t S1 = parkSweep(*C);
  ASSERT_NE(S1, 0u);

  // Second park: refused at admission (the slot is reserved before the job
  // runs, so parallel parks cannot overshoot either).
  svc::RunRequestMsg M;
  M.Tenant = "t";
  M.Sources = {sweepWorkloadSource(DispatchTechnique::UnwindRuntime)};
  M.Entry = "sweep";
  M.Args = {b32(6), b32(2), b32(4)};
  M.Park = true;
  svc::ErrorMsg E;
  std::optional<svc::ResultMsg> R2 = C->run(std::move(M), &E);
  EXPECT_FALSE(R2.has_value());
  EXPECT_EQ(E.Code, svc::ErrCode::QuotaExceeded);

  // Closing the parked session frees the slot for the next park.
  EXPECT_TRUE(C->closeSession("t", S1));
  EXPECT_NE(parkSweep(*C), 0u);
}

//===----------------------------------------------------------------------===//
// Sessions: resume over the wire
//===----------------------------------------------------------------------===//

TEST(ServiceSession, ResumeOverWireMatchesInProcessEngine) {
  // Ground truth: the same sweep serviced in-process by the unwinding
  // dispatcher inside one Engine::runJob call.
  Engine Eng({.Threads = 1});
  Job J;
  J.Request.Sources = {sweepWorkloadSource(DispatchTechnique::UnwindRuntime)};
  J.Entry = "sweep";
  J.Args = {b32(6), b32(2), b32(4)};
  J.Dispatcher = DispatcherKind::Unwind;
  JobResult Expect = Eng.runJob(J);
  ASSERT_TRUE(Expect.ok()) << Expect.CompileError << Expect.WrongReason;

  // Wire: park at every yield and service each one with an explicit
  // ReqResume{Dispatch} round trip.
  ServiceHarness H;
  auto C = H.client();
  ASSERT_TRUE(C);
  svc::RunRequestMsg M;
  M.Tenant = "t";
  M.Sources = {sweepWorkloadSource(DispatchTechnique::UnwindRuntime)};
  M.Entry = "sweep";
  M.Args = {b32(6), b32(2), b32(4)};
  M.Park = true;
  std::optional<svc::ResultMsg> R = C->run(std::move(M));
  ASSERT_TRUE(R.has_value());
  unsigned WireResumes = 0;
  while (MachineStatus(R->Status) == MachineStatus::Suspended) {
    ASSERT_NE(R->SessionId, 0u) << "yield was not parked";
    ASSERT_LT(WireResumes, 100u) << "sweep did not converge";
    svc::ResumeRequestMsg Res;
    Res.Tenant = "t";
    Res.SessionId = R->SessionId;
    Res.Op = svc::ResumeOp::Dispatch;
    Res.Dispatcher = uint8_t(DispatcherKind::Unwind);
    R = C->resume(std::move(Res));
    ASSERT_TRUE(R.has_value());
    EXPECT_TRUE(R->DispatchHandled);
    ++WireResumes;
  }
  EXPECT_EQ(MachineStatus(R->Status), MachineStatus::Halted);
  EXPECT_EQ(R->Results, Expect.Results) << "wire result diverged";
  EXPECT_EQ(WireResumes, Expect.ResumeCycles)
      << "wire resumes != in-process dispatcher cycles";
  EXPECT_EQ(R->SessionId, 0u) << "halted session must be unparked";
  EXPECT_EQ(H.server().sessionsOpen(), 0);
}

TEST(ServiceSession, CloseIsIdempotentAndResumeAfterCloseFails) {
  ServiceHarness H;
  auto C = H.client();
  ASSERT_TRUE(C);
  uint64_t S = parkSweep(*C);
  ASSERT_NE(S, 0u);
  EXPECT_TRUE(C->closeSession("t", S));
  EXPECT_FALSE(C->closeSession("t", S)) << "second close must report absent";
  svc::ResumeRequestMsg Res;
  Res.Tenant = "t";
  Res.SessionId = S;
  Res.Op = svc::ResumeOp::Dispatch;
  Res.Dispatcher = uint8_t(DispatcherKind::Unwind);
  svc::ErrorMsg E;
  EXPECT_FALSE(C->resume(std::move(Res), &E).has_value());
  EXPECT_EQ(E.Code, svc::ErrCode::NoSuchSession);
}

TEST(ServiceSession, TenantsCannotTouchEachOthersSessions) {
  ServiceHarness H;
  auto C = H.client();
  ASSERT_TRUE(C);
  uint64_t S = parkSweep(*C, "alice");
  ASSERT_NE(S, 0u);
  svc::ResumeRequestMsg Res;
  Res.Tenant = "mallory";
  Res.SessionId = S;
  Res.Op = svc::ResumeOp::Dispatch;
  Res.Dispatcher = uint8_t(DispatcherKind::Unwind);
  svc::ErrorMsg E;
  EXPECT_FALSE(C->resume(std::move(Res), &E).has_value());
  EXPECT_EQ(E.Code, svc::ErrCode::NoSuchSession)
      << "foreign sessions must be indistinguishable from absent ones";
  EXPECT_FALSE(C->closeSession("mallory", S));
  EXPECT_TRUE(C->closeSession("alice", S));
}

TEST(ServiceSession, CloseAfterDiscardsTheSessionInOneRoundTrip) {
  ServiceHarness H;
  auto C = H.client();
  ASSERT_TRUE(C);
  uint64_t S = parkSweep(*C);
  ASSERT_NE(S, 0u);
  svc::ResumeRequestMsg Res;
  Res.Tenant = "t";
  Res.SessionId = S;
  Res.Op = svc::ResumeOp::Dispatch;
  Res.Dispatcher = uint8_t(DispatcherKind::Unwind);
  Res.CloseAfter = true; // give up after this much progress
  std::optional<svc::ResultMsg> R = C->resume(std::move(Res));
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->SessionId, 0u) << "CloseAfter must unpark in-round-trip";
  EXPECT_EQ(H.server().sessionsOpen(), 0);
}

TEST(ServiceSession, IdleSessionsExpireAfterTtl) {
  svc::ServerOptions O;
  O.SessionTtlMillis = 50;
  ServiceHarness H(std::move(O));
  auto C = H.client();
  ASSERT_TRUE(C);
  uint64_t S = parkSweep(*C);
  ASSERT_NE(S, 0u);
  // The reaper wakes every max(10ms, ttl/4); well within this wait.
  for (int I = 0; I < 100 && H.server().sessionsOpen() > 0; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(H.server().sessionsOpen(), 0) << "TTL reaper never fired";
  EXPECT_GE(H.server().metrics().counter("svc.sessions_expired").value(), 1u);
  svc::ResumeRequestMsg Res;
  Res.Tenant = "t";
  Res.SessionId = S;
  Res.Op = svc::ResumeOp::Dispatch;
  Res.Dispatcher = uint8_t(DispatcherKind::Unwind);
  svc::ErrorMsg E;
  EXPECT_FALSE(C->resume(std::move(Res), &E).has_value());
  EXPECT_EQ(E.Code, svc::ErrCode::NoSuchSession);
}

TEST(ServiceSession, ActivelyDrivenSessionSurvivesTtl) {
  // The reaper claims a session's Busy flag and then re-checks its idle
  // clock before expiring it, so a session that is being resumed at a
  // period well under the TTL must never be reclaimed.
  svc::ServerOptions O;
  O.SessionTtlMillis = 250;
  ServiceHarness H(std::move(O));
  auto C = H.client();
  ASSERT_TRUE(C);
  // A long sweep: ~20 raises before it halts, far more than this drives.
  svc::RunRequestMsg M;
  M.Tenant = "t";
  M.Sources = {sweepWorkloadSource(DispatchTechnique::UnwindRuntime)};
  M.Entry = "sweep";
  M.Args = {b32(40), b32(2), b32(4)};
  M.Park = true;
  std::optional<svc::ResultMsg> First = C->run(std::move(M));
  ASSERT_TRUE(First.has_value());
  ASSERT_EQ(MachineStatus(First->Status), MachineStatus::Suspended);
  uint64_t S = First->SessionId;
  ASSERT_NE(S, 0u);
  for (int I = 0; I < 8; ++I) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    svc::ResumeRequestMsg Res;
    Res.Tenant = "t";
    Res.SessionId = S;
    Res.Op = svc::ResumeOp::Dispatch;
    Res.Dispatcher = uint8_t(DispatcherKind::Unwind);
    svc::ErrorMsg E;
    std::optional<svc::ResultMsg> R = C->resume(std::move(Res), &E);
    ASSERT_TRUE(R.has_value())
        << "resume " << I << " lost the session: " << E.Message;
    ASSERT_EQ(MachineStatus(R->Status), MachineStatus::Suspended);
    ASSERT_EQ(R->SessionId, S);
  }
  EXPECT_EQ(H.server().sessionsOpen(), 1);
  EXPECT_EQ(H.server().metrics().counter("svc.sessions_expired").value(), 0u);
  EXPECT_TRUE(C->closeSession("t", S));
}

TEST(ServiceSession, StampAfterTheSweepClockIsNotExpired) {
  // The reaper samples its clock before it takes the session table lock, so
  // a session used in between carries a later stamp. Its idle age is zero,
  // not a wrapped-around unsigned difference.
  const uint64_t Ttl = 250'000;
  const uint64_t Now = 1'000'000;
  EXPECT_FALSE(svc::sessionIdleExpired(Now, Now + 1, Ttl));
  EXPECT_FALSE(svc::sessionIdleExpired(Now, Now + Ttl * 4, Ttl));
  EXPECT_FALSE(svc::sessionIdleExpired(Now, Now, Ttl));
  EXPECT_FALSE(svc::sessionIdleExpired(Now, Now - Ttl + 1, Ttl));
  EXPECT_TRUE(svc::sessionIdleExpired(Now, Now - Ttl, Ttl));
  EXPECT_TRUE(svc::sessionIdleExpired(Now, 0, Ttl));
}

//===----------------------------------------------------------------------===//
// Graceful shutdown
//===----------------------------------------------------------------------===//

TEST(ServiceShutdown, DrainDeliversEveryInFlightResponse) {
  ServiceHarness H;
  auto Work = H.client();
  auto Ctl = H.client();
  ASSERT_TRUE(Work && Ctl);

  // Pipeline a batch, give the reader a moment to admit all of them, then
  // ask for shutdown from a second connection. The drain contract: every
  // admitted request still gets its response before the sockets close.
  constexpr int N = 8;
  std::vector<uint64_t> Ids;
  for (int I = 0; I < N; ++I) {
    svc::RunRequestMsg M = runMsg(addOneSource());
    M.Args = {b32(uint64_t(I))};
    Ids.push_back(Work->sendRun(std::move(M)));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_TRUE(Ctl->shutdownServer());

  for (int I = 0; I < N; ++I) {
    std::optional<svc::Reply> R = Work->wait(Ids[size_t(I)]);
    ASSERT_TRUE(R.has_value()) << "response lost in drain: " << Work->error();
    ASSERT_EQ(R->Type, svc::MsgType::RespResult);
    EXPECT_EQ(R->Result.Results[0], b32(uint64_t(I) + 1));
  }
  EXPECT_TRUE(H.server().stopped());
  EXPECT_FALSE(H.server().accepting());
}

TEST(ServiceShutdown, RequestStopIsIdempotent) {
  ServiceHarness H;
  auto C = H.client();
  ASSERT_TRUE(C);
  EXPECT_TRUE(C->ping());
  H.server().requestStop();
  EXPECT_TRUE(H.server().stopped());
  H.server().requestStop(); // second stop: no deadlock, no crash
  EXPECT_TRUE(H.server().stopped());
}

TEST(ServiceShutdown, ConcurrentStopNeverLosesAccounting) {
  // Regression for the admission/drain race: a frame that passed the
  // reader's Stopping check could previously be admitted after
  // requestStop's drain observed zero in-flight requests, landing on the
  // engine pool while the server tore down. beginRequest now refuses
  // under the same lock requestStop raises Stopping under, so every
  // request is either drained or answered ShuttingDown. This hammers the
  // window from several connections (runs, parked sessions, resumes, an
  // active TTL reaper) while stopping the server mid-flight, and then
  // checks that nothing was double-counted or leaked.
  for (int Round = 0; Round < 6; ++Round) {
    svc::ServerOptions O;
    O.SessionTtlMillis = 20; // keep the reaper in the race too
    std::optional<ServiceHarness> H;
    H.emplace(std::move(O));
    ASSERT_TRUE(H->ok());

    // Connect (and be served once) before the stop clock starts: a driver
    // thread that has not been scheduled by then would find the listener
    // already shut down.
    std::vector<std::unique_ptr<svc::Client>> Clients;
    for (int T = 0; T < 3; ++T) {
      Clients.push_back(H->client());
      ASSERT_TRUE(Clients.back() && Clients.back()->ping());
    }
    std::atomic<bool> Stop{false};
    std::vector<std::thread> Drivers;
    for (int T = 0; T < 3; ++T) {
      Drivers.emplace_back([&Stop, T, C = std::move(Clients[size_t(T)])] {
        for (int I = 0; I < 64 && C->ok() && !Stop.load(); ++I) {
          if (T == 0) {
            // Park a session and immediately drive it to completion.
            uint64_t S = parkSweep(*C);
            if (S) {
              svc::ResumeRequestMsg Res;
              Res.Tenant = "t";
              Res.SessionId = S;
              Res.Op = svc::ResumeOp::Dispatch;
              Res.Dispatcher = uint8_t(DispatcherKind::Unwind);
              Res.CloseAfter = true;
              C->resume(std::move(Res));
            }
          } else {
            C->run(runMsg(addOneSource()));
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5 + 5 * Round));
    H->server().requestStop();
    Stop.store(true);
    for (std::thread &Th : Drivers)
      Th.join();
    // Sessions still parked at shutdown are swept (and counted closed) by
    // join(); only after it is the accounting final.
    H->server().join();

    MetricsRegistry &M = H->server().metrics();
    EXPECT_EQ(M.counter("svc.sessions").value(),
              M.counter("svc.sessions_closed").value() +
                  M.counter("svc.sessions_expired").value())
        << "round " << Round << ": a session was lost or double-counted";
    EXPECT_EQ(H->server().sessionsOpen(), 0) << "round " << Round;
    EXPECT_EQ(M.gauge("svc.sessions_open").value(), 0) << "round " << Round;
    EXPECT_EQ(M.gauge("svc.inflight").value(), 0)
        << "round " << Round << ": the drain left a request in flight";
    H.reset(); // ~ServiceHarness: idempotent stop + join
  }
}

//===----------------------------------------------------------------------===//
// Protocol rejection: every malformed frame is refused loudly
//===----------------------------------------------------------------------===//

/// Little-endian frame forger for the rejection tests (deliberately not
/// using encodeFrame, so each field can be corrupted independently).
struct RawFrame {
  std::vector<uint8_t> Bytes;
  RawFrame &magic(const char M[4]) {
    Bytes.insert(Bytes.end(), M, M + 4);
    return *this;
  }
  RawFrame &u8(uint8_t V) {
    Bytes.push_back(V);
    return *this;
  }
  RawFrame &u32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Bytes.push_back(uint8_t(V >> (8 * I)));
    return *this;
  }
  RawFrame &u64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Bytes.push_back(uint8_t(V >> (8 * I)));
    return *this;
  }
};

/// Expects the next reply on \p C to be a RespError carrying \p Code, after
/// which the server must have closed the connection.
void expectErrorThenClose(svc::Client &C, svc::ErrCode Code) {
  std::optional<svc::Reply> R = C.waitAny();
  ASSERT_TRUE(R.has_value()) << "no error reply before close: " << C.error();
  ASSERT_EQ(R->Type, svc::MsgType::RespError);
  EXPECT_EQ(R->Error.Code, Code)
      << "got " << svc::errCodeName(R->Error.Code);
  EXPECT_EQ(R->Error.ReqId, 0u) << "request id is unrecoverable here";
  EXPECT_FALSE(C.waitAny().has_value()) << "connection must be closed";
}

/// The server must survive any rejection: a fresh connection still works.
void expectServerAlive(test::ServiceHarness &H) {
  auto C = H.client();
  ASSERT_TRUE(C);
  EXPECT_TRUE(C->ping()) << "server did not survive the rejection";
}

TEST(ServiceProtocol, BadMagicRefused) {
  ServiceHarness H;
  auto C = H.client();
  ASSERT_TRUE(C);
  RawFrame F;
  F.magic("xmmx").u32(svc::ProtocolVersion).u8(uint8_t(svc::MsgType::ReqPing));
  F.u64(0).u64(svc::fnv64(nullptr, 0));
  ASSERT_TRUE(C->sendRaw(F.Bytes.data(), F.Bytes.size()));
  expectErrorThenClose(*C, svc::ErrCode::BadFrame);
  EXPECT_GE(H.server().metrics().counter("svc.bad_frames").value(), 1u);
  expectServerAlive(H);
}

TEST(ServiceProtocol, StaleProtocolVersionRefused) {
  ServiceHarness H;
  auto C = H.client();
  ASSERT_TRUE(C);
  RawFrame F;
  F.magic("cmmx").u32(svc::ProtocolVersion + 7);
  F.u8(uint8_t(svc::MsgType::ReqPing)).u64(0).u64(svc::fnv64(nullptr, 0));
  ASSERT_TRUE(C->sendRaw(F.Bytes.data(), F.Bytes.size()));
  expectErrorThenClose(*C, svc::ErrCode::BadVersion);
  expectServerAlive(H);
}

TEST(ServiceProtocol, OversizedLengthPrefixRefusedBeforeAllocation) {
  svc::ServerOptions O;
  O.MaxFramePayload = 1024;
  ServiceHarness H(std::move(O));
  auto C = H.client();
  ASSERT_TRUE(C);
  // Claim a 1 GiB payload but send none of it: the server must refuse on
  // the prefix alone instead of trying to read (or allocate) the payload.
  RawFrame F;
  F.magic("cmmx").u32(svc::ProtocolVersion).u8(uint8_t(svc::MsgType::ReqRun));
  F.u64(uint64_t(1) << 30);
  ASSERT_TRUE(C->sendRaw(F.Bytes.data(), F.Bytes.size()));
  expectErrorThenClose(*C, svc::ErrCode::BadFrame);
  expectServerAlive(H);
}

TEST(ServiceProtocol, BitFlippedPayloadChecksumRefused) {
  ServiceHarness H;
  auto C = H.client();
  ASSERT_TRUE(C);
  // A well-formed ping whose payload is corrupted after checksumming —
  // exactly what a bit flip in transit looks like.
  ByteWriter W;
  W.u64(7); // request id
  std::vector<uint8_t> Frame;
  svc::encodeFrame(svc::MsgType::ReqPing, W, Frame);
  Frame[svc::FrameHeaderSize] ^= 0x10;
  ASSERT_TRUE(C->sendRaw(Frame.data(), Frame.size()));
  expectErrorThenClose(*C, svc::ErrCode::BadFrame);
  EXPECT_GE(H.server().metrics().counter("svc.bad_frames").value(), 1u);
  expectServerAlive(H);
}

TEST(ServiceProtocol, UnknownFrameTypeRefused) {
  ServiceHarness H;
  auto C = H.client();
  ASSERT_TRUE(C);
  RawFrame F;
  F.magic("cmmx").u32(svc::ProtocolVersion).u8(99);
  F.u64(0).u64(svc::fnv64(nullptr, 0));
  ASSERT_TRUE(C->sendRaw(F.Bytes.data(), F.Bytes.size()));
  expectErrorThenClose(*C, svc::ErrCode::BadFrame);
  expectServerAlive(H);
}

TEST(ServiceProtocol, ResponseTypeFrameRefusedAsRequest) {
  ServiceHarness H;
  auto C = H.client();
  ASSERT_TRUE(C);
  RawFrame F;
  F.magic("cmmx").u32(svc::ProtocolVersion).u8(uint8_t(svc::MsgType::RespPong));
  F.u64(0).u64(svc::fnv64(nullptr, 0));
  ASSERT_TRUE(C->sendRaw(F.Bytes.data(), F.Bytes.size()));
  expectErrorThenClose(*C, svc::ErrCode::BadRequest);
  expectServerAlive(H);
}

TEST(ServiceProtocol, MalformedPayloadRefused) {
  ServiceHarness H;
  auto C = H.client();
  ASSERT_TRUE(C);
  // Type says ping (8-byte payload) but carries 4 bytes: the payload
  // decoder must refuse instead of reading past the end.
  std::vector<uint8_t> Payload = {1, 2, 3, 4};
  RawFrame F;
  F.magic("cmmx").u32(svc::ProtocolVersion).u8(uint8_t(svc::MsgType::ReqPing));
  F.u64(Payload.size());
  F.Bytes.insert(F.Bytes.end(), Payload.begin(), Payload.end());
  F.u64(svc::fnv64(Payload.data(), Payload.size()));
  ASSERT_TRUE(C->sendRaw(F.Bytes.data(), F.Bytes.size()));
  expectErrorThenClose(*C, svc::ErrCode::BadFrame);
  expectServerAlive(H);
}

TEST(ServiceProtocol, TruncatedFrameDropsConnectionWithoutLeak) {
  ServiceHarness H;
  uint64_t Before = H.server().metrics().counter("svc.bad_frames").value();
  {
    auto C = H.client();
    ASSERT_TRUE(C);
    // Header promises 64 payload bytes; the peer vanishes after 8. Nobody
    // is left to answer — the server just counts it and reclaims the
    // connection.
    RawFrame F;
    F.magic("cmmx").u32(svc::ProtocolVersion);
    F.u8(uint8_t(svc::MsgType::ReqPing)).u64(64).u64(0x12345678);
    ASSERT_TRUE(C->sendRaw(F.Bytes.data(), F.Bytes.size()));
  } // Client destructor closes the socket mid-frame.
  for (int I = 0; I < 200; ++I) {
    if (H.server().metrics().counter("svc.bad_frames").value() > Before)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(H.server().metrics().counter("svc.bad_frames").value(), Before)
      << "truncated frame was never noticed";
  expectServerAlive(H);
}

//===----------------------------------------------------------------------===//
// Metrics reconciliation
//===----------------------------------------------------------------------===//

TEST(ServiceMetrics, RunCounterReconcilesWithEngineJobs) {
  ServiceHarness H;
  auto C = H.client();
  ASSERT_TRUE(C);
  for (int I = 0; I < 5; ++I) {
    std::optional<svc::ResultMsg> R = C->run(runMsg(addOneSource()));
    ASSERT_TRUE(R.has_value());
  }
  MetricsRegistry &M = H.server().metrics();
  // The invariant cmmload --check and cmmstat enforce: with zero errors,
  // every admitted run request became exactly one engine job.
  EXPECT_EQ(M.counter("svc.errors").value(), 0u);
  EXPECT_EQ(M.counter("svc.requests_run").value(),
            M.counter("engine.jobs").value());
  EXPECT_EQ(M.counter("svc.bad_frames").value(), 0u);
}

} // namespace
