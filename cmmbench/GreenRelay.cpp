//===- cmmbench/GreenRelay.cpp - Workload green_relay ---------------------===//
//
// Part of cmmex (see DESIGN.md and cmmbench/README.md).
//
// Closed loop of green-thread schedules (Job::Sched, 2 drivers): two
// clients each keep one schedule in flight on an engine with nproc
// workers. Each schedule passes a token around a ring of K in {16, 64, 256}
// green threads over capacity-1 channels, raising and handling an
// exception under one of the five techniques on some hops. The scheduler
// (park, wake, cross-driver resume) and Continuation dominate; svc and the
// compile pipeline do nothing.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "rts/SchedFormat.h"
#include "support/Rng.h"


using namespace cmm;
using namespace cmmbench;

namespace {

constexpr uint32_t RingSizes[] = {16, 64, 256};
/// Hops per schedule: rounds = HopBudget / K, so every schedule passes the
/// token the same number of times whatever its ring size.
constexpr uint32_t HopBudget = 512;
constexpr uint32_t HopDepth = 4;
/// A hop raises when the token is a multiple of P.
constexpr uint32_t RaisePeriods[] = {3, 13};

struct Template {
  DispatchTechnique Tech = DispatchTechnique::CutGenerated;
  uint32_t K = 16, Rounds = 1, P = 2;
};

std::string T(uint64_t Tag) { return schedTagLiteral(Tag); }

/// The guest. A token passes around a ring of k green threads over
/// capacity-1 channels for `rounds` rounds: main is node 0, nodes 1..k-1
/// are spawned. Every hop adds bench(depth, raise) to the token, where
/// bench is the dispatch workload rendered under one exception technique
/// and linked in as a second module; the hop raises and handles an
/// exception when the token is a multiple of p. 4294967295 is the stop
/// token, which no hop can produce here.
std::string relaySource() {
  return "import bench;\n"
         "export main;\n"
         "data ring { bits32[256]; }\n"
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

/// The guest's answer: k * rounds hops of v := v + (v % p == 0 ? 1099 : 1)
/// from v = 0.
uint32_t closedForm(const Template &T) {
  uint32_t V = 0;
  for (uint64_t H = 0; H < uint64_t(T.K) * T.Rounds; ++H)
    V += V % T.P == 0 ? 1099u : 1u;
  return V;
}

struct State {
  std::unique_ptr<engine::Engine> E;
  std::shared_ptr<const engine::ProgramArtifact> Arts[5];
  std::string Error;
};

} // namespace

Outcome cmmbench::runGreenRelay(const RunConfig &C, Tracer *T) {
  Outcome Out;
  const std::string Relay = relaySource();

  // The templates are fixed (their costs differ widely, so drawing them
  // would make the mix's cost depend on the seed); the seed draws the op
  // sequence: which template, on which backend.
  std::vector<Template> Templates;
  for (DispatchTechnique Tech : AllDispatchTechniques)
    for (uint32_t K : RingSizes)
      for (uint32_t P : RaisePeriods)
        Templates.push_back({Tech, K, HopBudget / K, P});

  double SetupS = 0;
  std::unique_ptr<State> S = setUpMedian<State>(
      C.SetupReps,
      [&] {
        auto St = std::make_unique<State>();
        engine::EngineOptions O;
        O.Threads = C.Nproc;
        St->E = std::make_unique<engine::Engine>(O);
        for (DispatchTechnique Tech : AllDispatchTechniques) {
          engine::CompileRequest Req;
          Req.Sources = {dispatchWorkloadSource(Tech), Relay};
          auto A = St->E->compile(Req);
          if (!A->ok()) {
            St->Error = A->error();
            break;
          }
          A->threaded();
          St->Arts[int(Tech)] = std::move(A);
        }
        return St;
      },
      SetupS);
  if (!S->Error.empty()) {
    Out.fail("set-up compile failed: " + S->Error);
    return Out;
  }

  Clock::time_point Start = Clock::now();
  ClosedLoop L;
  L.Clients = 2;
  L.TimedFrom = after(Start, warmupSeconds(C.Seconds));
  L.Stop = after(Start, C.Seconds);
  L.Make = [&](uint64_t Seq, uint32_t &Item) {
    Rng R(C.Seed ^ (Seq * 0xd1b54a32d192ed03ull));
    Item = uint32_t(R.below(Templates.size()));
    const Template &Tp = Templates[Item];
    engine::Job J;
    J.Artifact = S->Arts[int(Tp.Tech)];
    J.B = backendMix(R);
    J.Args = b32s({Tp.K, Tp.Rounds, Tp.P, HopDepth});
    J.Dispatcher = dispatcherFor(Tp.Tech);
    J.Sched.Enabled = true;
    J.Sched.Drivers = 2;
    return J;
  };
  PhaseSnaps Snaps;
  std::vector<OpRecord> Ops = runClosedLoop(*S->E, L, T, Snaps);

  std::vector<uint32_t> Expected;
  for (const Template &Tp : Templates)
    Expected.push_back(closedForm(Tp));
  checkAnswers(
      Ops, [&](uint32_t K) { return std::optional<uint32_t>(Expected[K]); },
      C.CorruptExpected, Out);
  std::map<uint32_t, uint64_t> Steps = checkStepsAgree(Ops, Out);

  double TimedSeconds = usBetween(L.TimedFrom, L.Stop) / 1e6;
  loopResults("green_relay: " + std::to_string(Templates.size()) +
                  " templates",
              Ops, TimedSeconds, SetupS, Snaps, Out);

  if (T) {
    engineLayerMetrics(Ops, Snaps, TimedSeconds, Out);
    stepsMetrics(Steps, [&](uint32_t K) { return Templates[K].Tech; }, Out);
    traceLayerMetrics(*T, "engine.job", Out);
  }
  return Out;
}
