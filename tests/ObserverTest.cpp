//===- tests/ObserverTest.cpp - MachineObserver event stream --------------===//
//
// Part of cmmex (see DESIGN.md). Guards the observability contract of
// sem/Observer.h: event counts agree exactly with Machine::stats(), events
// arrive in a sane order, a no-op observer leaves the machine's behaviour
// and Stats bit-identical to an unobserved run, and MultiObserver fans the
// stream out unchanged.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "rts/Dispatchers.h"
#include "sem/Observer.h"

using namespace cmm;
using namespace cmm::test;

namespace {

const char *recursiveSource() {
  return R"(
export main;
sum(bits32 n) {
  bits32 s;
  if n == 0 { return (0); }
  s = sum(n - 1);
  return (s + n);
}
iter(bits32 n, bits32 acc) {
  if n == 0 { return (acc); }
  jump iter(n - 1, acc + n);
}
main(bits32 n) {
  bits32 a, b;
  a = sum(n);
  b = iter(n, 0);
  return (a + b);
}
)";
}

// The Figures 8/9 exception program from ExceptionsTest.cpp: a yield at
// depth, a handler two procedures up, serviced by the unwinding dispatcher.
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

/// Counts every callback and records a coarse event ordering.
struct CountingObserver final : MachineObserver {
  uint64_t Starts = 0, Halts = 0, Steps = 0, Calls = 0, Jumps = 0,
           Returns = 0, CutFrames = 0, Cuts = 0, Yields = 0, UnwindPops = 0,
           ResumedPops = 0, Resumes = 0, Wrongs = 0, DispatchBegins = 0,
           DispatchEnds = 0;
  std::vector<char> Order; ///< 's'tart 'c'all 'j'ump 'r'eturn 'y'ield
                           ///< 'u'nwind-pop 'R'esume 'h'alt 'D'/'d' dispatch

  void onStart(const Executor &, const IrProc *) override {
    ++Starts;
    Order.push_back('s');
  }
  void onHalt(const Executor &) override {
    ++Halts;
    Order.push_back('h');
  }
  void onStep(const Executor &, const Node *N) override {
    ++Steps;
    // Yield suspensions are not steps; the machine must not report them.
    EXPECT_NE(N->kind(), Node::Kind::Yield);
  }
  void onCall(const Executor &, const CallNode *Site, const IrProc *Caller,
              const IrProc *Callee) override {
    ++Calls;
    Order.push_back('c');
    EXPECT_NE(Site, nullptr);
    EXPECT_NE(Caller, nullptr);
    EXPECT_NE(Callee, nullptr);
  }
  void onJump(const Executor &, const JumpNode *, const IrProc *,
              const IrProc *) override {
    ++Jumps;
    Order.push_back('j');
  }
  void onReturn(const Executor &, const CallNode *, const IrProc *,
                const IrProc *, unsigned) override {
    ++Returns;
    Order.push_back('r');
  }
  void onCutFrameDiscarded(const Executor &, const CallNode *,
                           const IrProc *) override {
    ++CutFrames;
  }
  void onCut(const Executor &, const CutToNode *, const IrProc *, uint64_t,
             bool) override {
    ++Cuts;
  }
  void onYield(const Executor &M) override {
    ++Yields;
    Order.push_back('y');
    EXPECT_EQ(M.status(), MachineStatus::Suspended);
  }
  void onUnwindPop(const Executor &, const CallNode *Site, const IrProc *Owner,
                   bool Resumed) override {
    ++UnwindPops;
    if (Resumed)
      ++ResumedPops;
    Order.push_back('u');
    EXPECT_NE(Site, nullptr);
    EXPECT_NE(Owner, nullptr);
  }
  void onResume(const Executor &M, ResumeChoice::Kind, unsigned) override {
    ++Resumes;
    Order.push_back('R');
    EXPECT_EQ(M.status(), MachineStatus::Running);
  }
  void onWrong(const Executor &, const std::string &, SourceLoc) override {
    ++Wrongs;
  }
  void onDispatchBegin(const Executor &, std::string_view,
                       uint64_t) override {
    ++DispatchBegins;
    Order.push_back('D');
  }
  void onDispatchEnd(const Executor &, std::string_view, bool,
                     uint64_t) override {
    ++DispatchEnds;
    Order.push_back('d');
  }
};

TEST(Observer, CountsAgreeWithStats) {
  auto Prog = compile({recursiveSource()});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  CountingObserver C;
  M.setObserver(&C);
  M.start("main", {b32(6)});
  ASSERT_EQ(M.run(), MachineStatus::Halted);
  ASSERT_EQ(M.argArea().size(), 1u);
  EXPECT_EQ(M.argArea()[0], b32(42)); // 21 + 21

  const Stats &S = M.stats();
  EXPECT_EQ(C.Steps, S.Steps);
  EXPECT_EQ(C.Calls, S.Calls);
  EXPECT_EQ(C.Jumps, S.Jumps);
  EXPECT_EQ(C.Returns, S.Returns);
  EXPECT_EQ(C.Yields, S.Yields);
  EXPECT_EQ(C.UnwindPops, S.UnwindPops);
  EXPECT_EQ(C.Cuts, S.Cuts);
  EXPECT_EQ(C.CutFrames, S.FramesCutOver);
  EXPECT_EQ(C.Starts, 1u);
  EXPECT_EQ(C.Halts, 1u);
  EXPECT_EQ(C.Wrongs, 0u);
}

TEST(Observer, EventOrdering) {
  auto Prog = compile({recursiveSource()});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  CountingObserver C;
  M.setObserver(&C);
  M.start("main", {b32(3)});
  ASSERT_EQ(M.run(), MachineStatus::Halted);

  ASSERT_FALSE(C.Order.empty());
  EXPECT_EQ(C.Order.front(), 's');
  EXPECT_EQ(C.Order.back(), 'h');
  // Calls and returns balance (the entry activation's own Exit fires
  // onHalt, not onReturn), and the running depth never goes negative.
  int64_t Depth = 0;
  for (char E : C.Order) {
    if (E == 'c')
      ++Depth;
    else if (E == 'r') {
      --Depth;
      EXPECT_GE(Depth, 0);
    }
  }
  EXPECT_EQ(Depth, 0);
  EXPECT_EQ(C.Calls, C.Returns);
}

TEST(Observer, NullObserverLeavesStatsIdentical) {
  auto Prog = compile({recursiveSource()});
  ASSERT_TRUE(Prog);

  Machine Plain(*Prog);
  Plain.start("main", {b32(8)});
  ASSERT_EQ(Plain.run(), MachineStatus::Halted);

  Machine Observed(*Prog);
  MachineObserver Nop; // all callbacks empty-bodied
  Observed.setObserver(&Nop);
  Observed.start("main", {b32(8)});
  ASSERT_EQ(Observed.run(), MachineStatus::Halted);

  EXPECT_EQ(Plain.argArea().size(), Observed.argArea().size());
  for (size_t I = 0; I < Plain.argArea().size(); ++I)
    EXPECT_EQ(Plain.argArea()[I], Observed.argArea()[I]);

  const Stats &A = Plain.stats();
  const Stats &B = Observed.stats();
  EXPECT_EQ(A.Steps, B.Steps);
  EXPECT_EQ(A.Calls, B.Calls);
  EXPECT_EQ(A.Jumps, B.Jumps);
  EXPECT_EQ(A.Returns, B.Returns);
  EXPECT_EQ(A.Cuts, B.Cuts);
  EXPECT_EQ(A.FramesCutOver, B.FramesCutOver);
  EXPECT_EQ(A.Yields, B.Yields);
  EXPECT_EQ(A.UnwindPops, B.UnwindPops);
  EXPECT_EQ(A.ContsBound, B.ContsBound);
  EXPECT_EQ(A.Loads, B.Loads);
  EXPECT_EQ(A.Stores, B.Stores);
  EXPECT_EQ(A.CalleeSaveMoves, B.CalleeSaveMoves);
  EXPECT_EQ(A.MaxStackDepth, B.MaxStackDepth);
}

TEST(Observer, UnwindDispatchEvents) {
  auto Prog = compile({unwindSource()});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  CountingObserver C;
  M.setObserver(&C);
  M.start("main", {b32(7), b32(3)});
  DispatcherHolder D(M, DispatcherKind::Unwind);
  ASSERT_EQ(runWithRuntime(M, std::ref(D)), MachineStatus::Halted);
  EXPECT_EQ(M.argArea()[0], b32(142));

  const Stats &S = M.stats();
  EXPECT_EQ(C.Yields, 1u);
  EXPECT_EQ(C.Yields, S.Yields);
  EXPECT_EQ(C.UnwindPops, S.UnwindPops);
  EXPECT_GT(C.UnwindPops, 0u);
  // Exactly one pop resumed into its frame (try_a_move's k1); the others
  // discarded deep/make_move activations.
  EXPECT_EQ(C.ResumedPops, 1u);
  EXPECT_EQ(C.DispatchBegins, 1u);
  EXPECT_EQ(C.DispatchEnds, 1u);
  EXPECT_EQ(C.Resumes, 1u);

  // The dispatch window sits between the yield and the resume:
  // ... y D u u ... u R ... d appears after the resume returns Handled.
  std::string Order(C.Order.begin(), C.Order.end());
  size_t Y = Order.find('y');
  size_t Db = Order.find('D');
  size_t R = Order.find('R');
  size_t De = Order.find('d');
  ASSERT_NE(Y, std::string::npos);
  ASSERT_NE(Db, std::string::npos);
  ASSERT_NE(R, std::string::npos);
  ASSERT_NE(De, std::string::npos);
  EXPECT_LT(Y, Db);
  EXPECT_LT(Db, R);
  EXPECT_LT(R, De);
  for (size_t I = 0; I < Order.size(); ++I)
    if (Order[I] == 'u') {
      EXPECT_GT(I, Db);
      EXPECT_LT(I, R);
    }
}

TEST(Observer, MultiObserverForwardsToAll) {
  auto Prog = compile({recursiveSource()});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  CountingObserver A, B;
  MultiObserver Multi;
  Multi.add(&A);
  Multi.add(&B);
  Multi.add(nullptr); // ignored
  EXPECT_EQ(Multi.size(), 2u);
  M.setObserver(&Multi);
  M.start("main", {b32(4)});
  ASSERT_EQ(M.run(), MachineStatus::Halted);

  EXPECT_GT(A.Steps, 0u);
  EXPECT_EQ(A.Steps, B.Steps);
  EXPECT_EQ(A.Calls, B.Calls);
  EXPECT_EQ(A.Returns, B.Returns);
  EXPECT_EQ(A.Order, B.Order);
}

TEST(Observer, WrongFiresOnBadStart) {
  auto Prog = compile({recursiveSource()});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  CountingObserver C;
  M.setObserver(&C);
  M.start("no_such_proc", {});
  EXPECT_EQ(M.status(), MachineStatus::Wrong);
  EXPECT_EQ(C.Wrongs, 1u);
  EXPECT_EQ(C.Starts, 0u);
}

} // namespace
