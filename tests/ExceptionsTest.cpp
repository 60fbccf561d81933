//===- tests/ExceptionsTest.cpp - Figures 8 and 10 in raw C-- -------------===//
//
// Part of cmmex (see DESIGN.md). Experiments F7-F10: the paper's two
// Modula-3 implementation sketches, written directly in C--:
//  - run-time stack unwinding through the Figure 9 dispatcher, and
//  - stack cutting with an in-memory handler stack (Figure 10),
// plus the compiled (native-code) unwinding technique via return <i/n>.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "rts/Dispatchers.h"

using namespace cmm;
using namespace cmm::test;

namespace {

// Exception tags chosen by the "front end".
constexpr uint64_t TagBadMove = 101;
constexpr uint64_t TagNoMoreTiles = 102;

//===----------------------------------------------------------------------===//
// Run-time stack unwinding (Figures 8 and 9)
//===----------------------------------------------------------------------===//

const char *unwindSource() {
  return R"(
export main;
global bits32 moves_tried;

/* Figure 9's struct exn_descriptor for try_a_move's handler scope:
   BadMove -> continuation 0 (takes the argument),
   NoMoreTiles -> continuation 1. */
data desc_try {
  bits32 2;
  bits32 101; bits32 0; bits32 1;
  bits32 102; bits32 1; bits32 0;
}

/* RAISE compiles to a yield carrying (tag, argument). */
make_move(bits32 t) {
  if t == 7 { yield(101, 42) also aborts; }
  if t == 9 { yield(102) also aborts; }
  return;
}

/* A chain of helper activations with no handlers of their own; the
   dispatcher must walk through all of them. */
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

TEST(UnwindingFigure8, NormalPathHasZeroDispatchCost) {
  auto Prog = compile({unwindSource()});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  M.start("main", {b32(5), b32(0)});
  DispatcherHolder D(M, DispatcherKind::Unwind);
  MachineStatus St = runWithRuntime(M, std::ref(D));
  ASSERT_EQ(St, MachineStatus::Halted);
  ASSERT_EQ(M.argArea().size(), 2u);
  EXPECT_EQ(M.argArea()[0], b32(1));
  EXPECT_EQ(M.argArea()[1], b32(1)); // moves_tried
  EXPECT_EQ(D.dispatches(), 0u);     // no exception: the dispatcher never ran
  EXPECT_EQ(M.stats().Yields, 0u);
}

TEST(UnwindingFigure8, BadMoveUnwindsToHandlerWithArgument) {
  auto Prog = compile({unwindSource()});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  M.start("main", {b32(7), b32(0)});
  DispatcherHolder D(M, DispatcherKind::Unwind);
  ASSERT_EQ(runWithRuntime(M, std::ref(D)), MachineStatus::Halted);
  EXPECT_EQ(M.argArea()[0], b32(142)); // 100 + the RAISE argument
  EXPECT_EQ(M.argArea()[1], b32(1));   // finalization still runs
  EXPECT_EQ(D.dispatches(), 1u);
}

TEST(UnwindingFigure8, SecondHandlerWithoutArgument) {
  auto Prog = compile({unwindSource()});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  M.start("main", {b32(9), b32(0)});
  DispatcherHolder D(M, DispatcherKind::Unwind);
  ASSERT_EQ(runWithRuntime(M, std::ref(D)), MachineStatus::Halted);
  EXPECT_EQ(M.argArea()[0], b32(200));
}

TEST(UnwindingFigure8, WalkLengthGrowsWithStackDepth) {
  auto Prog = compile({unwindSource()});
  ASSERT_TRUE(Prog);

  uint64_t Short, Long;
  {
    Machine M(*Prog);
    M.start("main", {b32(7), b32(1)});
    DispatcherHolder D(M, DispatcherKind::Unwind);
    ASSERT_EQ(runWithRuntime(M, std::ref(D)), MachineStatus::Halted);
    EXPECT_EQ(M.argArea()[0], b32(142));
    Short = D.walkStats().ActivationsVisited;
  }
  {
    Machine M(*Prog);
    M.start("main", {b32(7), b32(30)});
    DispatcherHolder D(M, DispatcherKind::Unwind);
    ASSERT_EQ(runWithRuntime(M, std::ref(D)), MachineStatus::Halted);
    EXPECT_EQ(M.argArea()[0], b32(142));
    Long = D.walkStats().ActivationsVisited;
  }
  // Raising deeper costs a longer interpretive walk: that is the unwinding
  // trade-off of Figure 2.
  EXPECT_GE(Long, Short + 29);
}

TEST(UnwindingFigure8, UnhandledExceptionLeavesThreadSuspended) {
  const char *Src = R"(
export main;
f() { yield(777) also aborts; return; }
main() { f() also aborts; return (0); }
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  M.start("main");
  DispatcherHolder D(M, DispatcherKind::Unwind);
  MachineStatus St = runWithRuntime(M, std::ref(D));
  // Figure 9 would abort(); we decline the yield and stop.
  EXPECT_EQ(St, MachineStatus::Suspended);
}

//===----------------------------------------------------------------------===//
// Stack cutting (Figure 10)
//===----------------------------------------------------------------------===//

const char *cutSource() {
  return R"(
export main;
global bits32 exn_top;
data exn_stack { bits32[64]; }

/* RAISE in the stack-cutting implementation: pop the topmost handler
   continuation and cut to it — no run-time system involved at all. */
get_move(bits32 t) {
  bits32 kv;
  if t == 7 {
    kv = bits32[exn_top];
    exn_top = exn_top - sizeof(kv);
    cut to kv(101, 42);
  }
  return (t + 1);
}

/* Helpers between the raise point and the handler must tolerate being cut
   over: their pending calls carry also aborts. */
deep(bits32 t, bits32 d) {
  bits32 r;
  if d == 0 {
    r = get_move(t) also aborts;
    return (r);
  }
  r = deep(t, d - 1) also aborts;
  return (r);
}

try_cut(bits32 t, bits32 depth) {
  bits32 exn_tag, arg, kv, r;
  /* Enter the handler scope: push k on the dynamic exception stack. */
  exn_top = exn_top + sizeof(kv);
  bits32[exn_top] = k;
  r = deep(t, depth) also cuts to k;
  /* Leave the handler scope. */
  exn_top = exn_top - sizeof(kv);
  return (r);
continuation k(exn_tag, arg):
  return (1000 + exn_tag + arg);
}

main(bits32 t, bits32 depth) {
  bits32 r;
  exn_top = exn_stack;
  r = try_cut(t, depth);
  return (r);
}
)";
}

TEST(CuttingFigure10, NormalPathPaysScopeEntryOnly) {
  auto Prog = compile({cutSource()});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  std::vector<Value> R = runToHalt(M, "main", {b32(5), b32(0)});
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0], b32(6)); // get_move returns t + 1
  EXPECT_EQ(M.stats().Cuts, 0u);
  // The scope entry/leave bookkeeping is real: one store (push k) plus the
  // pointer arithmetic; that is the cost cutting pays even when nothing is
  // raised.
  EXPECT_GE(M.stats().Stores, 1u);
}

TEST(CuttingFigure10, RaiseCutsInConstantTime) {
  auto Prog = compile({cutSource()});
  ASSERT_TRUE(Prog);

  // Dispatch cost must be independent of the stack depth being cut away
  // (measured in machine transitions from the raise to the handler).
  uint64_t CutsOverShallow, CutsOverDeep;
  {
    Machine M(*Prog);
    std::vector<Value> R = runToHalt(M, "main", {b32(7), b32(1)});
    EXPECT_EQ(R[0], b32(1000 + 101 + 42));
    EXPECT_EQ(M.stats().Cuts, 1u);
    CutsOverShallow = M.stats().FramesCutOver;
  }
  {
    Machine M(*Prog);
    std::vector<Value> R = runToHalt(M, "main", {b32(7), b32(30)});
    EXPECT_EQ(R[0], b32(1143));
    EXPECT_EQ(M.stats().Cuts, 1u);
    CutsOverDeep = M.stats().FramesCutOver;
  }
  // The *abstract* machine discards frames one at a time, but a real
  // implementation truncates in constant time; the counter shows exactly
  // what the cut skipped.
  EXPECT_GT(CutsOverDeep, CutsOverShallow);
}

TEST(CuttingFigure10, HandlerStackNestsCorrectly) {
  const char *Src = R"(
export main;
global bits32 exn_top;
data exn_stack { bits32[64]; }

raise_now(bits32 tag) {
  bits32 kv;
  kv = bits32[exn_top];
  exn_top = exn_top - sizeof(kv);
  cut to kv(tag, 0);
}

inner(bits32 raise_tag) {
  bits32 t, a, kv, r;
  exn_top = exn_top + sizeof(kv);
  bits32[exn_top] = ki;
  if raise_tag > 0 {
    r = 0;
    raise_now(raise_tag) also cuts to ki also aborts;
  }
  exn_top = exn_top - sizeof(kv);
  return (7);
continuation ki(t, a):
  return (10 + t);
}

outer(bits32 raise_tag) {
  bits32 t, a, kv, r;
  exn_top = exn_top + sizeof(kv);
  bits32[exn_top] = ko;
  r = inner(raise_tag) also cuts to ko also aborts;
  exn_top = exn_top - sizeof(kv);
  return (r);
continuation ko(t, a):
  return (20 + t);
}

main(bits32 raise_tag) {
  bits32 r;
  exn_top = exn_stack;
  r = outer(raise_tag);
  return (r);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  {
    // No raise: both scopes entered and left.
    Machine M(*Prog);
    EXPECT_EQ(runToHalt(M, "main", {b32(0)})[0], b32(7));
  }
  {
    // Raise inside inner's scope: inner's handler (topmost) wins.
    Machine M(*Prog);
    EXPECT_EQ(runToHalt(M, "main", {b32(3)})[0], b32(13));
  }
}

//===----------------------------------------------------------------------===//
// Native-code stack unwinding: return <i/n> (Section 4.2, Figures 3/4)
//===----------------------------------------------------------------------===//

const char *altReturnSource() {
  return R"(
export caller;

f(bits32 x) {
  if x == 1 { return <0/2> (7); }
  if x == 2 { return <1/2> (8, 9); }
  return <2/2> (x);
}

caller(bits32 x) {
  bits32 r, a, b;
  r = f(x) also returns to k0, k1;
  return (1, r);
continuation k0(a):
  return (2, a);
continuation k1(a, b):
  return (3, a + b);
}
)";
}

struct AltReturnCase {
  uint64_t X, Which, Payload;
};

class AltReturnTest : public ::testing::TestWithParam<AltReturnCase> {};

TEST_P(AltReturnTest, ReturnsToTheRightContinuation) {
  auto Prog = compile({altReturnSource()});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  const AltReturnCase &C = GetParam();
  std::vector<Value> R = runToHalt(M, "caller", {b32(C.X)});
  ASSERT_EQ(R.size(), 2u);
  EXPECT_EQ(R[0], b32(C.Which));
  EXPECT_EQ(R[1], b32(C.Payload));
}

INSTANTIATE_TEST_SUITE_P(
    Section42, AltReturnTest,
    ::testing::Values(AltReturnCase{1, 2, 7},   // return <0/2> -> k0
                      AltReturnCase{2, 3, 17},  // return <1/2> -> k1, 8+9
                      AltReturnCase{5, 1, 5}),  // return <2/2> -> normal
    [](const ::testing::TestParamInfo<AltReturnCase> &I) {
      return "x" + std::to_string(I.param.X);
    });

//===----------------------------------------------------------------------===//
// The slow-but-solid primitives (Section 4.3)
//===----------------------------------------------------------------------===//

TEST(DivSection43, CheckedDivideYieldsOnZeroDivisor) {
  const char *Src = R"(
export main;

data desc_div {
  bits32 1;
  bits32 53744; bits32 0; bits32 0;   /* DivZeroYieldTag -> continuation 0 */
}

safe_div(bits32 a, bits32 b) {
  bits32 q;
  q = %%divu(a, b) also unwinds to dz also aborts descriptors desc_div;
  return (q);
continuation dz:
  return (4294967295);   /* -1: the front end's "division failed" value */
}

main(bits32 a, bits32 b) {
  bits32 r;
  r = safe_div(a, b);
  return (r);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  {
    Machine M(*Prog);
    M.start("main", {b32(42), b32(6)});
    DispatcherHolder D(M, DispatcherKind::Unwind);
    ASSERT_EQ(runWithRuntime(M, std::ref(D)), MachineStatus::Halted);
    EXPECT_EQ(M.argArea()[0], b32(7));
    EXPECT_EQ(D.dispatches(), 0u);
  }
  {
    Machine M(*Prog);
    M.start("main", {b32(42), b32(0)});
    DispatcherHolder D(M, DispatcherKind::Unwind);
    ASSERT_EQ(runWithRuntime(M, std::ref(D)), MachineStatus::Halted);
    EXPECT_EQ(M.argArea()[0], b32(0xFFFFFFFF));
    EXPECT_EQ(D.dispatches(), 1u);
  }
}

TEST(DivSection43, FastDivideGoesWrongOnZeroDivisor) {
  const char *Src = R"(
export main;
main(bits32 a, bits32 b) {
  return (%divu(a, b));
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  M.start("main", {b32(42), b32(0)});
  EXPECT_EQ(M.run(), MachineStatus::Wrong);
  EXPECT_NE(M.wrongReason().find("unspecified"), std::string::npos);
}

} // namespace
