//===- tests/GoesWrongTest.cpp - Section 5.2's stuck states ---------------===//
//
// Part of cmmex (see DESIGN.md). "The machine makes transitions until it
// reaches a state in which no transitions are possible. If, in that state,
// the control is Exit<0/0> and the stack is empty, we say the program has
// terminated normally; otherwise it has gone wrong." Every way a program
// can go wrong is pinned down here, because the formal semantics exists
// precisely so these cases are unambiguous.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "engine/Engine.h"
#include "ir/IlText.h"
#include "rts/RuntimeInterface.h"
#include "vm/Threaded.h"
#include "vm/Vm.h"

using namespace cmm;
using namespace cmm::test;

namespace {

/// Runs main(args) on every backend and expects Wrong with \p ReasonFragment
/// in the reason — and the reasons byte-identical across backends (the
/// goes-wrong rules are part of the observable semantics the VM and the
/// threaded tier preserve). Returns the walker's full reason, for tests that
/// must tell apart rules sharing a fragment.
std::string expectWrongOn(const IrProgram &Prog, std::vector<Value> Args,
                          const char *ReasonFragment) {
  auto M = engine::makeExecutor(engine::Backend::Walk, Prog);
  M->start("main", Args);
  EXPECT_EQ(M->run(), MachineStatus::Wrong);
  EXPECT_NE(M->wrongReason().find(ReasonFragment), std::string::npos)
      << "actual reason: " << M->wrongReason();
  for (engine::Backend B : {engine::Backend::Vm, engine::Backend::Threaded}) {
    SCOPED_TRACE(std::string("backend ") +
                 std::string(engine::backendName(B)));
    auto V = engine::makeExecutor(B, Prog);
    V->start("main", Args);
    EXPECT_EQ(V->run(), MachineStatus::Wrong);
    EXPECT_EQ(V->wrongReason(), M->wrongReason());
    EXPECT_EQ(V->wrongLoc().str(), M->wrongLoc().str());
  }
  return M->wrongReason();
}

std::string expectWrong(const char *Src, std::vector<Value> Args,
                        const char *ReasonFragment) {
  auto Prog = compile({Src});
  if (!Prog)
    return "<compilation failed>";
  return expectWrongOn(*Prog, std::move(Args), ReasonFragment);
}

//===----------------------------------------------------------------------===//
// Dead continuations: the uid check
//===----------------------------------------------------------------------===//

TEST(GoesWrong, CutToDeadContinuation) {
  // make_k returns its continuation value; by then the activation is dead.
  // "Once an activation dies, its continuations die too. Invoking a dead
  // continuation is an unchecked run-time error" (Section 4.1) — which the
  // abstract machine's uid check turns into a definite wrong state.
  const char *Src = R"(
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
  expectWrong(Src, {}, "dead continuation");
}

TEST(GoesWrong, DeadContinuationOfRecursiveSibling) {
  // A continuation captured in one recursive activation is dead in a
  // *different* activation of the same procedure: same node, wrong uid.
  const char *Src = R"(
export main;
global bits32 saved;

capture(bits32 depth) {
  bits32 t, r;
  if depth == 0 {
    saved = k;       /* capture in this activation... */
    return (0);
  }
  r = capture(depth - 1) also aborts;
  /* ...then try to cut to it from a sibling activation whose own k is a
     different continuation value. */
  cut to saved(7) also cuts to k;
continuation k(t):
  return (t);
}

main() {
  bits32 r;
  r = capture(1) also aborts;
  return (r);
}
)";
  expectWrong(Src, {}, "dead continuation");
}

//===----------------------------------------------------------------------===//
// Annotation violations
//===----------------------------------------------------------------------===//

TEST(GoesWrong, CutPastCallSiteWithoutAlsoAborts) {
  const char *Src = R"(
export main;
raiser() {
  bits32 kv;
  kv = bits32[4096];
  cut to kv(1, 2);
}
middle() {
  raiser();   /* no also aborts: the cut may not pass this frame */
  return;
}
main() {
  bits32 t, a;
  bits32[4096] = k;
  middle() also cuts to k also aborts;
  return (0);
continuation k(t, a):
  return (t + a);
}
)";
  EXPECT_EQ(expectWrong(Src, {}, "also aborts"),
            "cut truncates the stack past a call site that lacks an also "
            "aborts annotation");
}

TEST(GoesWrong, CutToContinuationNotInCallSiteAnnotation) {
  const char *Src = R"(
export main;
raiser() {
  bits32 kv;
  kv = bits32[4096];
  cut to kv(1, 2);
}
main() {
  bits32 t, a;
  bits32[4096] = k;
  raiser() also aborts;   /* k is NOT listed in also cuts to */
  return (0);
continuation k(t, a):
  return (t + a);
}
)";
  EXPECT_EQ(expectWrong(Src, {}, "also cuts to"),
            "cut to a continuation that is not listed in the suspended call "
            "site's also cuts to");
}

TEST(GoesWrong, SameActivationCutWithoutAnnotation) {
  // "If the cut to could transfer control to a continuation in the same
  // procedure, it must have an also cuts to annotation naming that
  // continuation" (Section 4.4).
  const char *Src = R"(
export main;
main() {
  bits32 t;
  cut to k(5);   /* missing: also cuts to k */
continuation k(t):
  return (t);
}
)";
  EXPECT_EQ(expectWrong(Src, {}, "also cuts to"),
            "cut to a continuation of the current activation that is not "
            "named in this statement's also cuts to");
}

TEST(SameActivationCut, WorksWithAnnotation) {
  const char *Src = R"(
export main;
main() {
  bits32 t;
  cut to k(5) also cuts to k;
continuation k(t):
  return (t + 1);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  EXPECT_EQ(runToHalt(M, "main")[0], b32(6));
  EXPECT_EQ(M.stats().Cuts, 1u);
}

//===----------------------------------------------------------------------===//
// Return arity: Exit j n vs the call site's bundle
//===----------------------------------------------------------------------===//

TEST(GoesWrong, AlternateReturnAtPlainCallSite) {
  const char *Src = R"(
export main;
f() {
  return <0/1> (7);
}
main() {
  bits32 r;
  r = f();   /* no also returns to: the callee's <i/1> does not match */
  return (r);
}
)";
  expectWrong(Src, {}, "alternate return");
}

TEST(GoesWrong, PlainReturnAtAnnotatedCallSite) {
  const char *Src = R"(
export main;
f() {
  return (7);   /* <0/0>, but the call site promises 1 alternate */
}
main() {
  bits32 r, t;
  r = f() also returns to k;
  return (r);
continuation k(t):
  return (t);
}
)";
  expectWrong(Src, {}, "alternate return");
}

TEST(GoesWrong, AbnormalReturnWithEmptyStack) {
  const char *Src = R"(
export main;
main() {
  return <0/1> (1);
}
)";
  expectWrong(Src, {}, "empty stack");
}

//===----------------------------------------------------------------------===//
// Values that are not what control transfer needs
//===----------------------------------------------------------------------===//

TEST(GoesWrong, CallTargetIsNotCode) {
  const char *Src = R"(
export main;
main() {
  bits32 f, r;
  f = 12345;
  r = f();
  return (r);
}
)";
  EXPECT_EQ(expectWrong(Src, {}, "not code"),
            "call target is not code (bits32 12345)");
}

TEST(GoesWrong, JumpTargetIsNotCode) {
  const char *Src = R"(
export main;
main() {
  bits32 f;
  f = 12345;
  jump f();
}
)";
  EXPECT_EQ(expectWrong(Src, {}, "not code"),
            "jump target is not code (bits32 12345)");
}

TEST(GoesWrong, CutToNonContinuationValue) {
  const char *Src = R"(
export main;
main() {
  bits32 kv;
  kv = 12345;
  cut to kv(1);
}
)";
  expectWrong(Src, {}, "not a continuation");
}

TEST(GoesWrong, UnboundVariable) {
  const char *Src = R"(
export main;
main() {
  bits32 x, y;
  y = x + 1;   /* x never assigned */
  return (y);
}
)";
  expectWrong(Src, {}, "unbound");
}

TEST(GoesWrong, TooFewArguments) {
  // "C-- does not check the number or types of arguments passed to a
  // procedure" — statically. Dynamically, a CopyIn finding too few values
  // in A is a stuck state.
  const char *Src = R"(
export main;
f(bits32 a, bits32 b) {
  return (a + b);
}
main() {
  bits32 r;
  r = f(1);
  return (r);
}
)";
  expectWrong(Src, {}, "too few");
}

TEST(ExtraArgumentsAreIgnored, UncheckedButDefined) {
  const char *Src = R"(
export main;
f(bits32 a) {
  return (a);
}
main() {
  bits32 r;
  r = f(1, 2, 3);
  return (r);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  EXPECT_EQ(runToHalt(M, "main")[0], b32(1));
}

//===----------------------------------------------------------------------===//
// Unspecified primitives (Section 4.3)
//===----------------------------------------------------------------------===//

struct DivCase {
  const char *Expr;
  uint64_t A, B;

  // Printed by value, never as the raw struct bytes: those hold the Expr
  // pointer, which would make the listed test names differ run to run.
  friend void PrintTo(const DivCase &C, std::ostream *Os) {
    *Os << C.Expr << std::hex << " a=0x" << C.A << " b=0x" << C.B;
  }
};

class DivWrongTest : public ::testing::TestWithParam<DivCase> {};

TEST_P(DivWrongTest, UnspecifiedFailure) {
  const DivCase &C = GetParam();
  std::string Src = std::string("export main;\nmain(bits32 a, bits32 b) {\n"
                                "  return (") +
                    C.Expr + ");\n}\n";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  M.start("main", {b32(C.A), b32(C.B)});
  EXPECT_EQ(M.run(), MachineStatus::Wrong);
  EXPECT_NE(M.wrongReason().find("unspecified"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    Section43, DivWrongTest,
    ::testing::Values(DivCase{"a / b", 1, 0}, DivCase{"a % b", 1, 0},
                      DivCase{"%divu(a, b)", 1, 0},
                      DivCase{"%divs(a, b)", 1, 0},
                      DivCase{"%modu(a, b)", 1, 0},
                      DivCase{"%mods(a, b)", 1, 0},
                      // INT_MIN / -1 overflows.
                      DivCase{"a / b", 0x80000000, 0xFFFFFFFF},
                      DivCase{"%divs(a, b)", 0x80000000, 0xFFFFFFFF}),
    [](const ::testing::TestParamInfo<DivCase> &I) {
      return "case" + std::to_string(I.index);
    });

//===----------------------------------------------------------------------===//
// Run-time system misbehaviour is also checked — on both backends, since
// the checked Table 1 substrate is part of the semantics the VM preserves.
//===----------------------------------------------------------------------===//

template <typename Exec> class RtMisuseTest : public ::testing::Test {};

struct BackendNames {
  template <typename T> static std::string GetName(int) {
    if constexpr (std::is_same_v<T, Machine>)
      return "walk";
    else if constexpr (std::is_same_v<T, ThreadedMachine>)
      return "threaded";
    else
      return "vm";
  }
};
using AllBackends = ::testing::Types<Machine, VmMachine, ThreadedMachine>;
TYPED_TEST_SUITE(RtMisuseTest, AllBackends, BackendNames);

TYPED_TEST(RtMisuseTest, RuntimeUnwindPastFrameWithoutAborts) {
  const char *Src = R"(
export main;
f() {
  yield(1) also aborts;
  return;
}
g() {
  f();          /* no also aborts */
  return;
}
main() {
  g() also aborts;
  return (0);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  TypeParam M(*Prog);
  M.start("main");
  ASSERT_EQ(M.run(), MachineStatus::Suspended);
  // Frame 0 (f's caller is g... the yield call site inside f has aborts);
  // unwinding one frame is fine, the second (g's call to f... g's call
  // site lacks aborts) must fail.
  EXPECT_TRUE(M.rtUnwindTop(1));
  EXPECT_FALSE(M.rtUnwindTop(1));
  EXPECT_EQ(M.status(), MachineStatus::Wrong);
  EXPECT_EQ(M.wrongReason(), "run-time system unwound past a call site that "
                             "lacks an also aborts annotation");
}

TYPED_TEST(RtMisuseTest, RuntimeUnwindPastBottomOfStack) {
  // Every call site in this tower carries also aborts, so the unwind walks
  // clean off the bottom — the fifth pop finds no frame at all.
  const char *Src = R"(
export main;
f() {
  yield(1) also aborts;
  return;
}
g() {
  f() also aborts;
  return;
}
main() {
  g() also aborts;
  return (0);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  TypeParam M(*Prog);
  M.start("main");
  ASSERT_EQ(M.run(), MachineStatus::Suspended);
  EXPECT_FALSE(M.rtUnwindTop(5));
  EXPECT_EQ(M.status(), MachineStatus::Wrong);
  EXPECT_NE(M.wrongReason().find("unwound past the bottom of the stack"),
            std::string::npos)
      << "actual reason: " << M.wrongReason();
}

TYPED_TEST(RtMisuseTest, RuntimeResumeWithWrongParameterCount) {
  const char *Src = R"(
export main;
f() {
  yield(1) also aborts;
  return;
}
main() {
  bits32 a, b;
  f() also unwinds to k also aborts;
  return (0);
continuation k(a, b):
  return (a + b);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  TypeParam M(*Prog);
  M.start("main");
  ASSERT_EQ(M.run(), MachineStatus::Suspended);
  ASSERT_TRUE(M.rtUnwindTop(1)); // pop f's frame
  // k expects two parameters; pass one.
  EXPECT_FALSE(M.rtResume(ResumeChoice::unwind(0), {b32(1)}));
  EXPECT_EQ(M.status(), MachineStatus::Wrong);
  EXPECT_NE(M.wrongReason().find("continuation parameters"),
            std::string::npos);
}

TYPED_TEST(RtMisuseTest, RuntimeResumeWhileRunning) {
  const char *Src = "export main;\nmain() { return (1); }\n";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  TypeParam M(*Prog);
  M.start("main");
  EXPECT_FALSE(M.rtResume(ResumeChoice::ret(0), {}));
  EXPECT_EQ(M.status(), MachineStatus::Wrong);
  EXPECT_NE(M.wrongReason().find("resumed a machine that is not suspended"),
            std::string::npos);
}

TYPED_TEST(RtMisuseTest, RuntimeResumeOnHaltedMachine) {
  const char *Src = "export main;\nmain() { return (1); }\n";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  TypeParam M(*Prog);
  M.start("main");
  ASSERT_EQ(M.run(), MachineStatus::Halted);
  EXPECT_FALSE(M.rtResume(ResumeChoice::ret(0), {}));
  EXPECT_EQ(M.status(), MachineStatus::Wrong);
  EXPECT_EQ(M.wrongReason(),
            "run-time system resumed a machine that is not suspended");
  EXPECT_FALSE(M.rtUnwindTop(1));
  EXPECT_EQ(M.wrongReason(),
            "run-time system resumed a machine that is not suspended");
}

TYPED_TEST(RtMisuseTest, RuntimeResumeOnWrongMachineKeepsFirstReason) {
  const char *Src = R"(
export main;
main() {
  bits32 x, y;
  y = x + 1;   /* x never assigned: the machine goes wrong on its own */
  return (y);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  TypeParam M(*Prog);
  M.start("main");
  ASSERT_EQ(M.run(), MachineStatus::Wrong);
  std::string First = M.wrongReason();
  EXPECT_NE(First.find("unbound"), std::string::npos);
  // A confused runtime poking at the wreck must not repaint the diagnosis.
  EXPECT_FALSE(M.rtResume(ResumeChoice::ret(0), {}));
  EXPECT_FALSE(M.rtUnwindTop(1));
  EXPECT_EQ(M.status(), MachineStatus::Wrong);
  EXPECT_EQ(M.wrongReason(), First);
}

TYPED_TEST(RtMisuseTest, RuntimeCutToStaleContinuation) {
  // The runtime stages a cut to a continuation whose activation already
  // returned: the value still decodes (its record persists), but the uid
  // check at resume finds no live frame — same dead-continuation wrong
  // state as a program-level cut.
  const char *Src = R"(
export main;
global bits32 saved;
make_k() {
  bits32 t;
  saved = k;
  return (0);
continuation k(t):
  return (99);
}
main() {
  bits32 r;
  r = make_k() also aborts;
  yield(1) also aborts;
  return (r);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  TypeParam M(*Prog);
  M.start("main");
  ASSERT_EQ(M.run(), MachineStatus::Suspended);
  std::optional<Value> Stale = M.getGlobal("saved");
  ASSERT_TRUE(Stale.has_value());
  CmmRuntime Rt(M);
  ASSERT_TRUE(Rt.setCutToCont(*Stale)); // decodes: staging accepts it
  ASSERT_NE(Rt.findContParam(0), nullptr);
  *Rt.findContParam(0) = b32(5);
  EXPECT_FALSE(Rt.resume()); // ...but the resume transition goes wrong
  EXPECT_EQ(M.status(), MachineStatus::Wrong);
  EXPECT_NE(M.wrongReason().find("dead continuation"), std::string::npos)
      << "actual reason: " << M.wrongReason();
}

TYPED_TEST(RtMisuseTest, RuntimeResumeChoosesInvalidContinuation) {
  const char *Src = R"(
export main;
main() {
  yield(1) also aborts;
  return (0);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  const char *Invalid =
      "run-time system chose an invalid resumption continuation";
  // A return index past the bundle, and a cut to a value that is not a
  // continuation.
  for (const ResumeChoice &Choice :
       {ResumeChoice::ret(5), ResumeChoice::cut(b32(5))}) {
    TypeParam M(*Prog);
    M.start("main");
    ASSERT_EQ(M.run(), MachineStatus::Suspended);
    EXPECT_FALSE(M.rtResume(Choice, {}));
    EXPECT_EQ(M.status(), MachineStatus::Wrong);
    EXPECT_EQ(M.wrongReason(), Invalid);
  }
  // A return once every frame is unwound: with no frame left there is no
  // bundle to choose from, so the choice itself is invalid.
  TypeParam M(*Prog);
  M.start("main");
  ASSERT_EQ(M.run(), MachineStatus::Suspended);
  ASSERT_TRUE(M.rtUnwindTop(1));
  ASSERT_EQ(M.stackDepth(), 0u);
  EXPECT_FALSE(M.rtResume(ResumeChoice::ret(0), {}));
  EXPECT_EQ(M.wrongReason(), Invalid);
}

//===----------------------------------------------------------------------===//
// start: the name, the body, and a restart after going wrong
//===----------------------------------------------------------------------===//

template <typename Exec> class StartTest : public ::testing::Test {};
TYPED_TEST_SUITE(StartTest, AllBackends, BackendNames);

TYPED_TEST(StartTest, UnknownStartProcedure) {
  const char *Src = R"(
export main;
global bits32 g;
main() {
  return (0);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  // A name the program never mentions, and one it uses for a global.
  for (const char *Name : {"nosuch", "g"}) {
    TypeParam M(*Prog);
    M.start(Name);
    EXPECT_EQ(M.status(), MachineStatus::Wrong);
    EXPECT_EQ(M.wrongReason(),
              "unknown start procedure '" + std::string(Name) + "'");
    EXPECT_EQ(M.wrongLoc().str(), SourceLoc().str());
  }
}

TYPED_TEST(StartTest, StartProcedureHasNoBody) {
  const char *Src = R"(
export main;
f() {
  return (1);
}
main() {
  return (0);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  IrProc *F = nullptr;
  for (auto &P : Prog->Procs)
    if (Prog->Names->spelling(P->Name) == "f")
      F = P.get();
  ASSERT_NE(F, nullptr);
  F->EntryPoint = nullptr; // an imported procedure this program lacks
  TypeParam M(*Prog);
  M.start("f");
  EXPECT_EQ(M.status(), MachineStatus::Wrong);
  EXPECT_EQ(M.wrongReason(), "procedure 'f' has no body");
  EXPECT_EQ(M.wrongLoc().str(), SourceLoc().str());
}

TYPED_TEST(StartTest, RestartAfterGoingWrongHalts) {
  // The first run goes wrong two frames deep with continuations bound; the
  // restart must begin from a clean stack, memory and continuation table.
  const char *Src = R"(
export main;
data cell { bits32[1]; }
div(bits32 a, bits32 b) {
  bits32 t;
  t = bits32[cell];
  bits32[cell] = t + 1;
  return (a / b);
}
mid(bits32 b) {
  bits32 r;
  r = div(100, b) also cuts to k;
  return (r);
continuation k(r):
  return (r);
}
main(bits32 b) {
  bits32 r, n;
  r = mid(b);
  n = bits32[cell];
  return (r + n);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  TypeParam M(*Prog);
  M.start("main", {b32(0)});
  ASSERT_EQ(M.run(), MachineStatus::Wrong);
  EXPECT_EQ(M.wrongReason(), "unspecified: signed division by zero (use "
                             "%%divs for the checked variant)");
  EXPECT_EQ(M.stackDepth(), 2u);
  M.start("main", {b32(5)});
  ASSERT_EQ(M.run(), MachineStatus::Halted);
  EXPECT_EQ(M.stackDepth(), 0u);
  ASSERT_EQ(M.argArea().size(), 1u);
  EXPECT_EQ(M.argArea()[0], b32(21)); // 100 / 5, plus the one fresh store
}

//===----------------------------------------------------------------------===//
// Operand-kind discipline: primitives on laundered values
//===----------------------------------------------------------------------===//

// The static checker guarantees operand shapes at direct call sites, but an
// indirect call can launder a float (or a mis-sized word) into any
// parameter. The machine must go wrong with a clear message instead of
// reinterpreting the representation.

TEST(GoesWrong, PrimAppliedToLaunderedFloat) {
  const char *Src = R"(
export main;
g(bits32 v) {
  bits32 r;
  r = %divu(v, 3);
  return (r);
}
main() {
  bits32 t, r;
  t = g;
  r = t(1.5);
  return (r);
}
)";
  expectWrong(Src, {}, "applied to a floating-point operand");
}

TEST(GoesWrong, PrimAppliedToMisSizedWord) {
  const char *Src = R"(
export main;
g(bits32 v) {
  bits64 w;
  w = %zx64(v);
  return (%lo32(w));
}
main() {
  bits32 t, r;
  t = g;
  r = t(%zx64(9));
  return (r);
}
)";
  expectWrong(Src, {}, "applied to a bits64 operand");
}

TEST(GoesWrong, FloatPrimAppliedToLaunderedWord) {
  const char *Src = R"(
export main;
g(float64 w) {
  float64 s;
  s = %fadd(w, 2.0);
  return (%f2i(s));
}
main() {
  bits32 t, r;
  t = g;
  r = t(5);
  return (r);
}
)";
  expectWrong(Src, {}, "applied to a bit operand");
}

TEST(GoesWrong, MixedFloatAndBitArithmetic) {
  const char *Src = R"(
export main;
g(bits32 v) {
  bits32 r;
  r = v + 1;
  return (r);
}
main() {
  bits32 t, r;
  t = g;
  r = t(2.5);
  return (r);
}
)";
  expectWrong(Src, {}, "mixed floating-point and bit operands");
}

// The operand rule of sem/Ops.h (docs/LANGUAGE.md): a binary operator or a
// two-operand primitive whose operands differ in width goes wrong, naming
// both widths, and so does a bit operation on a float.

/// g computes \p Expr over its bits32 parameter x, which main fills with a
/// bits16 65535 through an indirect call.
std::string launderedBits16(const char *Expr) {
  return std::string("export main;\ng(bits32 x) {\n  bits32 r;\n  r = ") +
         Expr +
         ";\n  return (r);\n}\nmain() {\n  bits32 t, r;\n  bits16 h;\n"
         "  h = 65535;\n  t = g;\n  r = t(h);\n  return (r);\n}\n";
}

TEST(GoesWrong, BinaryOperandsOfDifferentWidths) {
  expectWrong(launderedBits16("x + 1").c_str(), {},
              "'+' applied to operands of different widths (bits16 and "
              "bits32)");
  expectWrong(launderedBits16("1 + x").c_str(), {},
              "'+' applied to operands of different widths (bits32 and "
              "bits16)");
  expectWrong(launderedBits16("x == 65535").c_str(), {},
              "'==' applied to operands of different widths (bits16 and "
              "bits32)");
}

TEST(GoesWrong, PrimOperandsOfDifferentWidths) {
  expectWrong(launderedBits16("%divu(x, 1)").c_str(), {},
              "%divu applied to operands of different widths (bits16 and "
              "bits32)");
}

TEST(GoesWrong, BitOperationOnLaunderedFloat) {
  for (const char *Op : {"!", "~"}) {
    SCOPED_TRACE(Op);
    std::string Src = std::string("export main;\ng(bits32 v) {\n  bits32 r;\n"
                                  "  r = ") +
                      Op +
                      "v;\n  return (r);\n}\nmain() {\n  bits32 t, r;\n"
                      "  t = g;\n  r = t(1.5);\n  return (r);\n}\n";
    expectWrong(Src.c_str(), {}, "bit operation on floating-point operands");
  }
}

// Sema checks a primitive's operand count, but IL text and deserialized
// artifacts come from outside the program: a miscounted primitive must go
// wrong by name on every backend, not read past its operands.
TEST(GoesWrong, PrimWithWrongOperandCountFromIlText) {
  // main() { bits32 r; r = PRIM; return (r); }, with PRIM applied to some
  // of the literals 7, 3 and 1.
  const std::string Il = R"(cmmex-il v2
image 268435456 -
dataend 268435456
proc main
  var r bits32
  expr 0 int 7 :bits32 @2.11
  expr 1 int 3 :bits32 @2.14
  expr 2 int 1 :bits32 @2.17
  expr 3 PRIM :bits32 @2.7
  expr 4 name r local :bits32 @3.11
  node 0 entry 0 ^1 @1.1
  node 1 copyin 0 ^2 @1.1
  node 2 assign r 0 #3 ^3 @2.3
  node 3 copyout 1 #4 ^4 @3.3
  node 4 exit 0 0 @3.3
  entry ^0
endproc
)";
  const std::pair<const char *, const char *> Cases[] = {
      {"prim %divu 1 #0", "%divu applied to the wrong number of operands"},
      {"prim %divu 3 #0 #1 #2",
       "%divu applied to the wrong number of operands"},
      {"prim %zx64 2 #0 #1", "%zx64 applied to the wrong number of operands"},
  };
  for (const auto &[Prim, Reason] : Cases) {
    SCOPED_TRACE(Prim);
    std::string Text = Il;
    Text.replace(Text.find("PRIM"), 4, Prim);
    std::string Err;
    auto Prog = parseIl(Text, &Err);
    ASSERT_TRUE(Prog) << Err;
    expectWrongOn(*Prog, {}, Reason);
  }
}

} // namespace
