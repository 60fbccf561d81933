//===- tests/VmConformanceTest.cpp - Walker vs bytecode VM vs threaded ----===//
//
// Part of cmmex (see DESIGN.md). The bytecode VM (src/vm) and the threaded
// tier (vm/Threaded.h) claim the exact observable semantics of the
// reference tree walker (src/sem): same status, same answers, same
// goes-wrong reasons byte for byte, same 13 Stats counters, same suspension
// states. This suite pins that claim on a fixed corpus, running every check
// across the full backend matrix in lockstep; cmmdiff re-checks it on every
// random seed.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "costmodel/RandomProgram.h"
#include "engine/Engine.h"
#include "rts/RuntimeInterface.h"
#include "vm/Threaded.h"
#include "vm/Vm.h"

using namespace cmm;
using namespace cmm::test;

namespace {

void expectStatsEqual(const Stats &W, const Stats &V) {
  EXPECT_EQ(W.Steps, V.Steps);
  EXPECT_EQ(W.Calls, V.Calls);
  EXPECT_EQ(W.Jumps, V.Jumps);
  EXPECT_EQ(W.Returns, V.Returns);
  EXPECT_EQ(W.Cuts, V.Cuts);
  EXPECT_EQ(W.FramesCutOver, V.FramesCutOver);
  EXPECT_EQ(W.Yields, V.Yields);
  EXPECT_EQ(W.UnwindPops, V.UnwindPops);
  EXPECT_EQ(W.ContsBound, V.ContsBound);
  EXPECT_EQ(W.Loads, V.Loads);
  EXPECT_EQ(W.Stores, V.Stores);
  EXPECT_EQ(W.CalleeSaveMoves, V.CalleeSaveMoves);
  EXPECT_EQ(W.MaxStackDepth, V.MaxStackDepth);
}

/// Runs \p Entry(\p Args) on every backend — constructed through the
/// engine facade, like every other consumer — and demands that the VM and
/// threaded tiers match the walker's outcome exactly: status, argument
/// area, wrong reason and location, and every counter.
void expectBackendsAgree(const IrProgram &Prog, std::string_view Entry,
                         const std::vector<Value> &Args) {
  auto WP = engine::makeExecutor(engine::Backend::Walk, Prog);
  Executor &W = *WP;
  W.start(Entry, Args);
  MachineStatus SW = W.run(10'000'000);
  for (engine::Backend B : {engine::Backend::Vm, engine::Backend::Threaded}) {
    SCOPED_TRACE(std::string("backend ") +
                 std::string(engine::backendName(B)));
    auto VP = engine::makeExecutor(B, Prog);
    Executor &V = *VP;
    V.start(Entry, Args);
    MachineStatus SV = V.run(10'000'000);
    EXPECT_EQ(SW, SV);
    EXPECT_TRUE(W.argArea() == V.argArea());
    EXPECT_EQ(W.wrongReason(), V.wrongReason());
    EXPECT_EQ(W.wrongLoc().str(), V.wrongLoc().str());
    expectStatsEqual(W.stats(), V.stats());
  }
}

//===----------------------------------------------------------------------===//
// Fixed corpus: every control-transfer and memory shape
//===----------------------------------------------------------------------===//

TEST(VmConformance, RecursionWithMultipleResults) {
  const char *Src = R"(
export main;
sp1(bits32 n) {
  bits32 s, p;
  if n == 1 { return (1, 1); }
  s, p = sp1(n - 1);
  return (s + n, p * n);
}
main(bits32 n) {
  bits32 s, p;
  s, p = sp1(n);
  return (s, p);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  for (uint64_t N : {1, 2, 10, 40})
    expectBackendsAgree(*Prog, "main", {b32(N)});
}

TEST(VmConformance, TailCallsAndLoops) {
  const char *Src = R"(
export main;
helper(bits32 n, bits32 acc) {
  if n == 0 { return (acc); }
  jump helper(n - 1, acc + n);
}
main(bits32 n) {
  bits32 r, i, s;
  r = helper(n, 0);
  i = 0; s = 0;
loop:
  if i == n { return (r + s); }
  s = s + i;
  i = i + 1;
  goto loop;
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  for (uint64_t N : {0, 1, 100})
    expectBackendsAgree(*Prog, "main", {b32(N)});
}

TEST(VmConformance, MemoryTrafficAndData) {
  const char *Src = R"(
export main;
data buf { bits32[16]; }
main(bits32 n) {
  bits32 i, s;
  i = 0;
loop:
  if i == 16 { goto sum; }
  bits32[buf + i * 4] = i * n;
  i = i + 1;
  goto loop;
sum:
  i = 0; s = 0;
sloop:
  if i == 16 { return (s); }
  s = s + bits32[buf + i * 4];
  i = i + 1;
  goto sloop;
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  for (uint64_t N : {1, 3})
    expectBackendsAgree(*Prog, "main", {b32(N)});
}

TEST(VmConformance, StackCutting) {
  const char *Src = R"(
export main;
worker(bits32 kv, bits32 n) {
  if n == 0 { cut to kv(77); }
  jump worker(kv, n - 1);
}
main() {
  bits32 r, v;
  r = worker(k, 3) also cuts to k also aborts;
  return (0);
continuation k(v):
  return (v + 1);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  expectBackendsAgree(*Prog, "main", {});
}

TEST(VmConformance, CheckedDivisionAndPrims) {
  const char *Src = R"(
export main;
main(bits32 a, bits32 b) {
  bits32 q, r;
  q = %%divu(a, b) also aborts;
  r = %lo32(%zx64(q) + %sx64(a));
  return (r ^ %leu(a, b));
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  expectBackendsAgree(*Prog, "main", {b32(84), b32(2)});
  expectBackendsAgree(*Prog, "main", {b32(84), b32(0)}); // goes wrong
}

//===----------------------------------------------------------------------===//
// Goes-wrong parity: reasons must be byte-identical
//===----------------------------------------------------------------------===//

TEST(VmConformance, WrongReasonsMatchExactly) {
  const char *Unbound = R"(
export main;
main(bits32 n) {
  bits32 x, y;
  if n == 0 { x = 1; }
  y = x + 1;
  return (y);
}
)";
  const char *DeadCont = R"(
export main;
make_k() {
  bits32 t;
  return (k);
continuation k(t):
  return (99);
}
use_k(bits32 kv) {
  cut to kv(1);
}
main() {
  bits32 kv, r;
  kv = make_k();
  r = use_k(kv) also aborts;
  return (r);
}
)";
  for (const char *Src : {Unbound, DeadCont}) {
    auto Prog = compile({Src});
    ASSERT_TRUE(Prog);
    expectBackendsAgree(*Prog, "main", {b32(7)});
  }
}

TEST(VmConformance, UnknownStartProcedureMatches) {
  auto Prog = compile({"export main; main() { return (0); }"});
  ASSERT_TRUE(Prog);
  auto WP = engine::makeExecutor(engine::Backend::Walk, *Prog);
  Executor &W = *WP;
  W.start("nonexistent");
  EXPECT_EQ(W.status(), MachineStatus::Wrong);
  for (engine::Backend B : {engine::Backend::Vm, engine::Backend::Threaded}) {
    auto VP = engine::makeExecutor(B, *Prog);
    Executor &V = *VP;
    V.start("nonexistent");
    EXPECT_EQ(V.status(), MachineStatus::Wrong);
    EXPECT_EQ(W.wrongReason(), V.wrongReason());
  }
}

//===----------------------------------------------------------------------===//
// Fused-operand wrongLoc parity: the unbound slot is read by the second
// half of a superinstruction, and the diagnosis must still point at the
// variable reference (RvSlotLocs), byte-identically across all backends.
//===----------------------------------------------------------------------===//

TEST(VmConformance, FusedOperandWrongLocMatches) {
  // `y = x + 1; z = y + x2;` compiles to adjacent Binary ops (a bin+bin
  // fusion site); x2 is unbound on the n != 0 path, so the goes-wrong fires
  // inside the fused pair's second component.
  const char *Src = R"(
export main;
main(bits32 n) {
  bits32 x, x2, y, z;
  x = 5;
  if n == 0 { x2 = 1; }
  y = x + 1;
  z = y + x2;
  return (z);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  // The site must actually fuse, or this test is checking nothing.
  ThreadedMachine T(*Prog);
  const FusionStats &F = T.threadedProgram().Fusion;
  ASSERT_GT(F.SitesByOp[size_t(TOp::BinaryBinary)], 0u);
  expectBackendsAgree(*Prog, "main", {b32(0)}); // halts
  expectBackendsAgree(*Prog, "main", {b32(3)}); // wrong, inside the pair
}

//===----------------------------------------------------------------------===//
// Suspension parity: the run-time system sees the same thread
//===----------------------------------------------------------------------===//

const char *towers() {
  return R"(
export main;
data d_main { bits32 1; bits32 7; bits32 0; bits32 1; }
data d_mid  { bits32 1; bits32 8; bits32 0; bits32 0; }

leaf(bits32 x) {
  yield(7, x) also aborts;
  return (0);
}
mid(bits32 x) {
  bits32 r;
  r = leaf(x) also unwinds to km also aborts descriptors d_mid;
  return (r);
continuation km:
  return (222);
}
main(bits32 x) {
  bits32 r, a;
  r = mid(x) also unwinds to k0, k1 also aborts descriptors d_main;
  return (r);
continuation k0(a):
  return (1000 + a);
continuation k1:
  return (2000);
}
)";
}

TEST(VmConformance, SuspendsIdenticallyAtYield) {
  auto Prog = compile({towers()});
  ASSERT_TRUE(Prog);
  auto WP = engine::makeExecutor(engine::Backend::Walk, *Prog);
  auto VP = engine::makeExecutor(engine::Backend::Vm, *Prog);
  auto TP = engine::makeExecutor(engine::Backend::Threaded, *Prog);
  Executor &W = *WP;
  for (Executor *E : {&*WP, &*VP, &*TP}) {
    E->start("main", {b32(5)});
    ASSERT_EQ(E->run(), MachineStatus::Suspended);
  }
  for (Executor *V : {&*VP, &*TP}) {
    EXPECT_TRUE(W.argArea() == V->argArea());
    ASSERT_EQ(W.stackDepth(), V->stackDepth());
    for (size_t I = 0; I < W.stackDepth(); ++I) {
      EXPECT_EQ(W.frameProc(I), V->frameProc(I));
      EXPECT_EQ(W.frameCallSite(I), V->frameCallSite(I));
    }
    expectStatsEqual(W.stats(), V->stats());
  }

  // Drive all three through the same Table 1 resumption; the suspended
  // substrate (rtUnwindTop, rtResume) must behave identically.
  for (Executor *E : {&*WP, &*VP, &*TP}) {
    CmmRuntime Rt(*E);
    Activation Act;
    ASSERT_TRUE(Rt.firstActivation(Act));
    ASSERT_TRUE(Rt.nextActivation(Act));
    ASSERT_TRUE(Rt.nextActivation(Act)); // main
    ASSERT_TRUE(Rt.setActivation(Act));
    ASSERT_TRUE(Rt.setUnwindCont(0));
    *Rt.findContParam(0) = b32(5);
    ASSERT_TRUE(Rt.resume());
    ASSERT_EQ(E->run(), MachineStatus::Halted);
    EXPECT_EQ(E->argArea()[0], b32(1005));
  }
  expectStatsEqual(W.stats(), VP->stats());
  expectStatsEqual(W.stats(), TP->stats());
}

//===----------------------------------------------------------------------===//
// step() parity: one abstract transition per step on both backends
//===----------------------------------------------------------------------===//

TEST(VmConformance, SingleSteppingTracksTheWalker) {
  const char *Src = R"(
export main;
f(bits32 x) { return (x * 2); }
main(bits32 n) {
  bits32 a, b;
  a = f(n);
  b = f(a);
  return (a + b);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  auto WP = engine::makeExecutor(engine::Backend::Walk, *Prog);
  auto VP = engine::makeExecutor(engine::Backend::Vm, *Prog);
  auto TP = engine::makeExecutor(engine::Backend::Threaded, *Prog);
  Executor &W = *WP, &V = *VP, &T = *TP;
  W.start("main", {b32(3)});
  V.start("main", {b32(3)});
  T.start("main", {b32(3)});
  for (unsigned I = 0; I < 10'000; ++I) {
    bool MoreW = W.step();
    bool MoreV = V.step();
    bool MoreT = T.step();
    ASSERT_EQ(MoreW, MoreV) << "after " << I << " steps";
    ASSERT_EQ(MoreW, MoreT) << "after " << I << " steps";
    ASSERT_EQ(W.status(), V.status()) << "after " << I << " steps";
    ASSERT_EQ(W.status(), T.status()) << "after " << I << " steps";
    ASSERT_EQ(W.stats().Steps, V.stats().Steps) << "after " << I << " steps";
    ASSERT_EQ(W.stats().Steps, T.stats().Steps) << "after " << I << " steps";
    if (!MoreW)
      break;
  }
  ASSERT_EQ(W.status(), MachineStatus::Halted);
  EXPECT_TRUE(W.argArea() == V.argArea());
  EXPECT_TRUE(W.argArea() == T.argArea());
  EXPECT_EQ(W.argArea()[0], b32(18));
}

//===----------------------------------------------------------------------===//
// Random corpus: the same property, over generated programs
//===----------------------------------------------------------------------===//

class VmRandomConformance : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VmRandomConformance, AgreesWithWalker) {
  std::string Src = generateRandomProgram(GetParam());
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  for (uint64_t In : {0, 1, 7, 12})
    expectBackendsAgree(*Prog, "main", {b32(In)});
}

INSTANTIATE_TEST_SUITE_P(Seeds, VmRandomConformance,
                         ::testing::Range<uint64_t>(300, 312));

//===----------------------------------------------------------------------===//
// The compiled form itself
//===----------------------------------------------------------------------===//

TEST(VmConformance, CompiledProgramMirrorsProcOrder) {
  auto Prog = compile({towers()});
  ASSERT_TRUE(Prog);
  VmMachine V(*Prog);
  const CompiledProgram &CP = V.compiled();
  ASSERT_EQ(CP.Procs.size(), Prog->Procs.size());
  for (size_t I = 0; I < CP.Procs.size(); ++I) {
    EXPECT_EQ(CP.Procs[I].Proc, Prog->Procs[I].get());
    EXPECT_EQ(&CP.byProc(Prog->Procs[I].get()), &CP.Procs[I]);
  }
}

TEST(VmConformance, DisassemblerRendersFusedForms) {
  // A comparison driving a branch becomes brc; a constant operand renders
  // as k<n>; a CopyOut expression tail carries the [stage] marker.
  const char *Src = R"(
export main;
main(bits32 n) {
  if n < 10 { return (n + 1); }
  return (0);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  CompiledProgram CP = compileToBytecode(*Prog);
  std::string Listing;
  for (const CompiledProc &C : CP.Procs)
    Listing += disassemble(C, *Prog->Names);
  EXPECT_NE(Listing.find("brc"), std::string::npos) << Listing;
  EXPECT_NE(Listing.find("k"), std::string::npos) << Listing;
  EXPECT_NE(Listing.find("[stage]"), std::string::npos) << Listing;
  EXPECT_NE(Listing.find("entry"), std::string::npos) << Listing;
}

TEST(VmConformance, ThreadedStreamStaysPcParallel) {
  // The fused key stream must be exactly as long as the bytecode (branch
  // targets and RvSlotLocs keep meaning), and the threaded listing renders
  // superinstruction mnemonics at fused sites. The vm backend runs the same
  // loop over the op stream itself: pc for pc, no fused key.
  auto Prog = compile({towers()});
  ASSERT_TRUE(Prog);
  ThreadedMachine T(*Prog);
  const ThreadedProgram &TP = T.threadedProgram();
  ASSERT_EQ(TP.Procs.size(), TP.Bytecode->Procs.size());
  for (uint32_t I = 0; I < TP.Procs.size(); ++I) {
    EXPECT_EQ(TP.Procs[I].Keys.size(), TP.Bytecode->Procs[I].Code.size());
    EXPECT_EQ(&T.dispatchKeys(I), &TP.Procs[I].Keys);
  }
  EXPECT_GT(TP.Fusion.FusedSites, 0u);

  std::unique_ptr<Executor> E =
      engine::makeExecutor(engine::Backend::Vm, *Prog);
  ASSERT_EQ(E->backendName(), "vm");
  const auto *V = static_cast<const VmMachine *>(E.get());
  const CompiledProgram &CP = V->compiled();
  for (uint32_t I = 0; I < CP.Procs.size(); ++I) {
    const std::vector<VmInstr> &Code = CP.Procs[I].Code;
    const std::vector<uint8_t> &Keys = V->dispatchKeys(I);
    ASSERT_EQ(Keys.size(), Code.size());
    for (size_t Pc = 0; Pc < Code.size(); ++Pc) {
      EXPECT_EQ(Keys[Pc], uint8_t(Code[Pc].K)) << "proc " << I << " pc " << Pc;
      EXPECT_LT(unsigned(Keys[Pc]), NumBaseOps);
    }
  }
  std::string Listing;
  for (uint32_t PI = 0; PI < TP.Procs.size(); ++PI)
    Listing += disassembleThreaded(TP, PI, *Prog->Names);
  EXPECT_NE(Listing.find("entry+copyin"), std::string::npos) << Listing;
  EXPECT_NE(Listing.find("[fused with"), std::string::npos) << Listing;
}

} // namespace
