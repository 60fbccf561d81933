//===- tests/ServiceSoakTest.cpp - multi-client cmmexd soak ---------------===//
//
// Part of cmmex (see DESIGN.md).
//
// The slow service backstop: many concurrent clients hammer one in-process
// server with the cmmload traffic mix (hot cached runs, cold compiles,
// parked yield sessions resumed over the wire) while a rogue thread injects
// protocol violations, quota overruns, and session churn. Labeled `slow`
// and run under ThreadSanitizer in CI — its job is to surface data races
// in the connection/session/tenant machinery, not to measure anything.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "costmodel/DispatchWorkloads.h"
#include "engine/Engine.h"
#include "svc/Client.h"
#include "svc/Server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <thread>

using namespace cmm;
using namespace cmm::engine;
using cmm::test::b32;
using cmm::test::ServiceHarness;

namespace {

struct SoakTally {
  uint64_t Completed = 0;
  uint64_t Failures = 0;
};

/// One mixed-traffic worker: pipelined hot/cold/yield requests until the
/// deadline, then a full drain (every parked session driven to halt).
void soakWorker(ServiceHarness &H, unsigned Idx,
                std::chrono::steady_clock::time_point Deadline,
                SoakTally &Out) {
  auto C = H.client();
  if (!C) {
    ++Out.Failures;
    return;
  }
  const std::string Sweep =
      sweepWorkloadSource(DispatchTechnique::UnwindRuntime);
  struct Pending {
    bool Yield = false;
    uint32_t Expected = 0;
  };
  std::map<uint64_t, Pending> InFlight;
  uint64_t Seq = uint64_t(Idx) * 1'000'000;
  constexpr unsigned Depth = 4;

  auto issue = [&] {
    svc::RunRequestMsg M;
    M.Tenant = "soak";
    M.Backend = uint8_t(Seq % 3);
    Pending P;
    switch (Seq % 10) {
    case 0: { // cold: fresh constant, forced compile
      uint64_t K = Seq + 13;
      M.Sources = {"export main;\nmain(bits32 n) { return (n + " +
                   std::to_string(K) + "); }\n"};
      M.Args = {b32(1)};
      P.Expected = uint32_t(1 + K);
      break;
    }
    case 1: // yield: park and resume over the wire
      M.Sources = {Sweep};
      M.Entry = "sweep";
      M.Args = {b32(3), b32(1), b32(4)};
      M.Park = true;
      P.Yield = true;
      break;
    default: // hot: cache hit after the first compile
      M.Sources = {"export main;\nmain(bits32 n) { return (n + 1); }\n"};
      M.Args = {b32(41)};
      P.Expected = 42;
      break;
    }
    ++Seq;
    InFlight.emplace(C->sendRun(std::move(M)), P);
  };

  for (;;) {
    bool Open = std::chrono::steady_clock::now() < Deadline;
    while (Open && InFlight.size() < Depth)
      issue();
    if (InFlight.empty()) {
      if (!Open)
        break;
      continue;
    }
    std::optional<svc::Reply> R = C->waitAny();
    if (!R) {
      Out.Failures += InFlight.size();
      break;
    }
    auto It = InFlight.find(R->ReqId);
    if (It == InFlight.end()) {
      ++Out.Failures;
      continue;
    }
    Pending P = It->second;
    InFlight.erase(It);
    if (R->Type != svc::MsgType::RespResult ||
        !R->Result.CompileError.empty()) {
      ++Out.Failures;
      continue;
    }
    MachineStatus St = MachineStatus(R->Result.Status);
    if (St == MachineStatus::Suspended && R->Result.SessionId != 0) {
      if (!P.Yield || !R->Result.DispatchHandled) {
        ++Out.Failures;
        continue;
      }
      svc::ResumeRequestMsg Res;
      Res.Tenant = "soak";
      Res.SessionId = R->Result.SessionId;
      Res.Op = svc::ResumeOp::Dispatch;
      Res.Dispatcher = uint8_t(DispatcherKind::Unwind);
      InFlight.emplace(C->sendResume(std::move(Res)), P);
      continue;
    }
    if (St != MachineStatus::Halted ||
        (!P.Yield && (R->Result.Results.size() != 1 ||
                      R->Result.Results[0] != b32(P.Expected)))) {
      ++Out.Failures;
      continue;
    }
    ++Out.Completed;
  }
}

/// The chaos thread: protocol violations and session churn on their own
/// connections, concurrent with the load. None of it may disturb the
/// well-behaved workers.
void chaosWorker(ServiceHarness &H,
                 std::chrono::steady_clock::time_point Deadline,
                 std::atomic<uint64_t> &Violations) {
  while (std::chrono::steady_clock::now() < Deadline) {
    { // a malformed frame, then vanish
      auto C = H.client();
      if (C) {
        const char Junk[] = "definitely not a cmmx frame";
        C->sendRaw(Junk, sizeof Junk);
        Violations.fetch_add(1);
      }
    }
    { // park a session and abandon it (the TTL reaper's food)
      auto C = H.client();
      if (C) {
        svc::RunRequestMsg M;
        M.Tenant = "chaos";
        M.Sources = {sweepWorkloadSource(DispatchTechnique::UnwindRuntime)};
        M.Entry = "sweep";
        M.Args = {b32(3), b32(1), b32(4)};
        M.Park = true;
        C->run(std::move(M));
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

TEST(ServiceSoak, MultiClientMixedTrafficStaysConsistent) {
  svc::ServerOptions O;
  O.Threads = 4;
  // Let the reaper run against live churn: chaos sessions parked in the
  // first half of the run expire while the workers still run. The TTL must
  // also outlast a worker's park-to-resume round trip on a loaded host;
  // at 100 ms, CPU contention (four soaks under TSan beside eight busy
  // loops on 4 vCPUs) expired well-behaved sessions after 100-139 ms idle.
  O.SessionTtlMillis = 1000;
  ServiceHarness H(std::move(O));
  ASSERT_TRUE(H.ok());

  constexpr unsigned Workers = 8;
  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(2500);
  std::vector<SoakTally> Tallies(Workers);
  std::atomic<uint64_t> Violations{0};
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < Workers; ++I)
    Threads.emplace_back(soakWorker, std::ref(H), I, Deadline,
                         std::ref(Tallies[I]));
  std::thread Chaos(chaosWorker, std::ref(H), Deadline, std::ref(Violations));
  for (std::thread &T : Threads)
    T.join();
  Chaos.join();

  uint64_t Completed = 0, Failures = 0;
  for (const SoakTally &T : Tallies) {
    Completed += T.Completed;
    Failures += T.Failures;
  }
  EXPECT_GT(Completed, 100u) << "soak barely ran";
  EXPECT_EQ(Failures, 0u) << "well-behaved clients saw failures";
  EXPECT_GT(Violations.load(), 0u) << "chaos thread never fired";

  // Abandoned chaos sessions must eventually be reaped (within a TTL and a
  // reaper interval of the last park, plus slack for a loaded host).
  for (int I = 0; I < 500 && H.server().sessionsOpen() > 0; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(H.server().sessionsOpen(), 0);

  MetricsRegistry &M = H.server().metrics();
  EXPECT_GT(M.counter("svc.sessions_expired").value(), 0u);
  EXPECT_GE(M.counter("svc.bad_frames").value(), Violations.load());
  // Soak-wide ledger: the bad frames all came from the chaos connection,
  // which never got a run admitted — so the run/jobs invariant still holds.
  EXPECT_EQ(M.counter("svc.requests_run").value(),
            M.counter("engine.jobs").value());
  EXPECT_EQ(M.counter("engine.jobs_wrong").value(), 0u);
}

} // namespace
