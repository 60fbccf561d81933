//===- tests/TraceProfileTest.cpp - obs/ trace + profiler + opt stats -----===//
//
// Part of cmmex (see DESIGN.md). Covers the src/obs subsystem: the JSONL
// golden trace, Chrome trace_event structural invariants, the ring-buffer
// flight recorder, Profiler totals against Machine::stats(), and the
// PassManager per-pass instrumentation.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "obs/Profiler.h"
#include "obs/StatsJson.h"
#include "obs/Trace.h"
#include "opt/PassManager.h"
#include "rts/Dispatchers.h"

#include <sstream>

using namespace cmm;
using namespace cmm::test;

namespace {

// Keep this source byte-for-byte stable: the JSONL golden below encodes its
// line:column call-site locations and the machine's exact step numbering.
const char *goldenSource() {
  return R"(export main;
add(bits32 a, bits32 b) {
  return (a + b);
}
main() {
  bits32 r;
  r = add(1, 2);
  r = add(r, 3);
  return (r);
}
)";
}

// See unwindSource() in ObserverTest.cpp (the Figures 8/9 program).
const char *unwindSource() {
  return R"(
export main;
global bits32 moves_tried;
data desc_try {
  bits32 2;
  bits32 101; bits32 0; bits32 1;
  bits32 102; bits32 1; bits32 0;
}
make_move(bits32 t) {
  if t == 7 { yield(101, 42) also aborts; }
  if t == 9 { yield(102) also aborts; }
  return;
}
deep(bits32 t, bits32 d) {
  if d == 0 {
    make_move(t) also aborts;
  } else {
    deep(t, d - 1) also aborts;
  }
  return;
}
try_a_move(bits32 t, bits32 depth) {
  bits32 s, r;
  deep(t, depth) also unwinds to k1, k2 also aborts descriptors desc_try;
  r = 1;
  goto finish;
finish:
  moves_tried = moves_tried + 1;
  return (r);
continuation k1(s):
  r = 100 + s;
  goto finish;
continuation k2:
  r = 200;
  goto finish;
}
main(bits32 t, bits32 depth) {
  bits32 r;
  r = try_a_move(t, depth);
  return (r, moves_tried);
}
)";
}

size_t countOccurrences(const std::string &Haystack, const std::string &Pat) {
  size_t N = 0;
  for (size_t P = Haystack.find(Pat); P != std::string::npos;
       P = Haystack.find(Pat, P + Pat.size()))
    ++N;
  return N;
}

TEST(Trace, JsonlGolden) {
  auto Prog = compile({goldenSource()});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  std::ostringstream OS;
  TraceSink Sink(OS, {});
  M.setObserver(&Sink);
  M.start("main", {});
  ASSERT_EQ(M.run(), MachineStatus::Halted);
  Sink.finish();

  const char *Golden =
      "{\"ev\":\"start\",\"step\":0,\"depth\":0,\"proc\":\"main\"}\n"
      "{\"ev\":\"call\",\"step\":4,\"depth\":1,\"caller\":\"main\","
      "\"callee\":\"add\",\"site\":\"7:3\"}\n"
      "{\"ev\":\"return\",\"step\":8,\"depth\":0,\"callee\":\"add\","
      "\"to\":\"main\",\"site\":\"7:3\",\"cont\":0}\n"
      "{\"ev\":\"call\",\"step\":11,\"depth\":1,\"caller\":\"main\","
      "\"callee\":\"add\",\"site\":\"8:3\"}\n"
      "{\"ev\":\"return\",\"step\":15,\"depth\":0,\"callee\":\"add\","
      "\"to\":\"main\",\"site\":\"8:3\",\"cont\":0}\n"
      "{\"ev\":\"halt\",\"step\":18,\"results\":1}\n";
  EXPECT_EQ(OS.str(), Golden);
  EXPECT_EQ(Sink.eventsDropped(), 0u);
}

TEST(Trace, ChromeFormatIsStructurallySound) {
  auto Prog = compile({unwindSource()});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  std::ostringstream OS;
  TraceOptions TO;
  TO.Fmt = TraceOptions::Format::Chrome;
  TraceSink Sink(OS, TO);
  M.setObserver(&Sink);
  M.start("main", {b32(7), b32(2)});
  DispatcherHolder D(M, DispatcherKind::Unwind);
  ASSERT_EQ(runWithRuntime(M, std::ref(D)), MachineStatus::Halted);
  Sink.finish();

  std::string S = OS.str();
  EXPECT_EQ(S.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(S.find("\n]}\n"), std::string::npos);
  // Every duration span that opens also closes.
  EXPECT_EQ(countOccurrences(S, "\"ph\":\"B\""),
            countOccurrences(S, "\"ph\":\"E\""));
  // The dispatcher's work rides on its own track.
  EXPECT_NE(S.find("\"tid\":1"), std::string::npos);
  EXPECT_NE(S.find("dispatch:unwind"), std::string::npos);
  // The yield shows as an instant event.
  EXPECT_NE(S.find("\"ph\":\"i\""), std::string::npos);
  // No trailing comma before the closing bracket (valid JSON).
  EXPECT_EQ(S.find(",\n]}"), std::string::npos);
}

TEST(Trace, FinishClosesOpenSpansMidRun) {
  auto Prog = compile({goldenSource()});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  std::ostringstream OS;
  TraceOptions TO;
  TO.Fmt = TraceOptions::Format::Chrome;
  TraceSink Sink(OS, TO);
  M.setObserver(&Sink);
  M.start("main", {});
  ASSERT_EQ(M.run(5), MachineStatus::Running); // stop mid-flight
  Sink.finish();
  std::string S = OS.str();
  EXPECT_EQ(countOccurrences(S, "\"ph\":\"B\""),
            countOccurrences(S, "\"ph\":\"E\""));
}

TEST(Trace, RingBufferKeepsNewestEvents) {
  auto Prog = compile({goldenSource()});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  std::ostringstream OS;
  TraceOptions TO;
  TO.RingCapacity = 3;
  TraceSink Sink(OS, TO);
  M.setObserver(&Sink);
  M.start("main", {});
  ASSERT_EQ(M.run(), MachineStatus::Halted);
  Sink.finish();

  std::string S = OS.str();
  size_t Lines = countOccurrences(S, "\n");
  EXPECT_EQ(Lines, 3u);
  EXPECT_GT(Sink.eventsDropped(), 0u);
  EXPECT_EQ(Sink.eventsEmitted(), Lines + Sink.eventsDropped());
  // The newest events survive: the halt is the last line.
  EXPECT_NE(S.find("\"ev\":\"halt\""), std::string::npos);
  // The oldest (start) was dropped.
  EXPECT_EQ(S.find("\"ev\":\"start\""), std::string::npos);
}

TEST(Trace, StepEventsOptIn) {
  auto Prog = compile({goldenSource()});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  std::ostringstream OS;
  TraceOptions TO;
  TO.IncludeSteps = true;
  TraceSink Sink(OS, TO);
  M.setObserver(&Sink);
  M.start("main", {});
  ASSERT_EQ(M.run(), MachineStatus::Halted);
  Sink.finish();
  EXPECT_EQ(countOccurrences(OS.str(), "\"ev\":\"step\""),
            M.stats().Steps);
}

TEST(Profiler, TotalsAgreeWithStats) {
  auto Prog = compile({unwindSource()});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  Profiler P;
  M.setObserver(&P);
  M.start("main", {b32(7), b32(3)});
  DispatcherHolder D(M, DispatcherKind::Unwind);
  ASSERT_EQ(runWithRuntime(M, std::ref(D)), MachineStatus::Halted);
  EXPECT_EQ(M.argArea()[0], b32(142));

  const Stats &S = M.stats();
  uint64_t Steps = 0, CallsIn = 0, CallsOut = 0, Returns = 0, Yields = 0,
           UnwindPops = 0;
  for (const auto &[Proc, PP] : P.procs()) {
    Steps += PP.Steps;
    CallsIn += PP.CallsIn;
    CallsOut += PP.CallsOut;
    Returns += PP.Returns;
    Yields += PP.Yields;
    UnwindPops += PP.UnwindPops;
  }
  EXPECT_EQ(Steps, S.Steps);
  EXPECT_EQ(CallsIn, S.Calls);
  EXPECT_EQ(CallsOut, S.Calls);
  EXPECT_EQ(Yields, S.Yields);
  EXPECT_EQ(UnwindPops, S.UnwindPops);

  uint64_t SiteCalls = 0, SitePops = 0;
  for (const auto &[Node, SP] : P.sites()) {
    SiteCalls += SP.Calls;
    SitePops += SP.UnwindPops;
  }
  EXPECT_EQ(SiteCalls, S.Calls);
  EXPECT_EQ(SitePops, S.UnwindPops);

  const DispatchProfile &DP = P.dispatchProfile();
  EXPECT_EQ(DP.Dispatches, 1u);
  EXPECT_EQ(DP.Handled, 1u);
  EXPECT_GT(DP.ActivationsVisited, 0u);
  uint64_t HistPops = 0, HistDispatches = 0;
  for (const auto &[Pops, N] : DP.UnwindPopHistogram) {
    HistPops += Pops * N;
    HistDispatches += N;
  }
  EXPECT_EQ(HistDispatches, DP.Dispatches);
  EXPECT_EQ(HistPops, S.UnwindPops);

  std::string Report = P.report();
  EXPECT_NE(Report.find("try_a_move"), std::string::npos);
  EXPECT_NE(Report.find("make_move"), std::string::npos);
  EXPECT_NE(Report.find("dispatch"), std::string::npos);

  JsonWriter W;
  P.writeJson(W);
  std::string J = W.take();
  EXPECT_NE(J.find("\"procs\""), std::string::npos);
  EXPECT_NE(J.find("\"sites\""), std::string::npos);
  EXPECT_NE(J.find("\"unwind_pop_histogram\""), std::string::npos);
}

TEST(StatsJson, AllThirteenCounters) {
  auto Prog = compile({goldenSource()});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  M.start("main", {});
  ASSERT_EQ(M.run(), MachineStatus::Halted);
  std::string J = statsToJson(M.stats());
  for (const char *Key :
       {"steps", "calls", "jumps", "returns", "cuts", "frames_cut_over",
        "yields", "unwind_pops", "conts_bound", "loads", "stores",
        "callee_save_moves", "max_stack_depth"})
    EXPECT_NE(J.find("\"" + std::string(Key) + "\""), std::string::npos)
        << "missing stats key " << Key;
}

TEST(PassInstrumentation, RecordsRunsAndDeltas) {
  // A program the optimizer can visibly shrink: constants to fold, a copy
  // to propagate, and a dead assignment to remove.
  const char *Src = R"(
export main;
main() {
  bits32 a, b, c, dead;
  a = 2 + 3;
  b = a;
  dead = 99;
  c = b + 1;
  return (c);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  OptOptions Opts;
  OptReport R = optimizeProgram(*Prog, Opts);

  EXPECT_GT(R.pass(PassId::ConstProp).Runs, 0u);
  EXPECT_GT(R.pass(PassId::CopyProp).Runs, 0u);
  EXPECT_GT(R.pass(PassId::DeadCode).Runs, 0u);
  EXPECT_GE(R.TotalMillis, 0.0);
  // Dead-code elimination removed at least one node overall.
  EXPECT_LT(R.pass(PassId::DeadCode).NodesDelta, 0);

  std::string Text = optReportText(R);
  EXPECT_NE(Text.find("constprop"), std::string::npos);
  EXPECT_NE(Text.find("deadcode"), std::string::npos);

  JsonWriter W;
  writeOptReportJson(W, R);
  std::string J = W.take();
  EXPECT_NE(J.find("\"passes\""), std::string::npos);
  EXPECT_NE(J.find("\"total_millis\""), std::string::npos);
  EXPECT_NE(J.find("\"also_edges_delta\""), std::string::npos);
}

TEST(PassInstrumentation, AlsoEdgeCounting) {
  auto Prog = compile({unwindSource()});
  ASSERT_TRUE(Prog);
  uint64_t Total = 0;
  for (const auto &P : Prog->Procs)
    Total += countAlsoEdges(*P);
  // try_a_move's call carries `also unwinds to k1, k2`; the helpers carry
  // `also aborts`. There must be exceptional edges in this program.
  EXPECT_GT(Total, 0u);
}

} // namespace
