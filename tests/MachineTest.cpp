//===- tests/MachineTest.cpp - Transition-rule unit tests -----------------===//
//
// Part of cmmex (see DESIGN.md). Direct tests of the Section 5.2 abstract
// machine: values, memory, the argument-passing area, environments across
// calls, continuation values as first-class data, and the counters the
// benchmarks rely on.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "engine/Engine.h"

using namespace cmm;
using namespace cmm::test;

namespace {

//===----------------------------------------------------------------------===//
// Memory: explicit, byte-addressed, little-endian
//===----------------------------------------------------------------------===//

TEST(Memory, LoadStoreRoundTripAllWidths) {
  // The C-- type system does not convert implicitly: loads come back at
  // their access width, so each is returned separately.
  const char *Src = R"(
export main;
data buf { bits32[8]; }
main() {
  bits8[buf] = 255;
  bits16[buf + 4] = 43981;       /* 0xABCD */
  bits32[buf + 8] = 305419896;   /* 0x12345678 */
  bits64[buf + 16] = 1311768467463790320;  /* 0x123456789ABCDEF0 */
  return (bits8[buf], bits16[buf + 4], bits32[buf + 8], bits64[buf + 16]);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  std::vector<Value> R = runToHalt(M, "main");
  ASSERT_EQ(R.size(), 4u);
  EXPECT_EQ(R[0], Value::bits(8, 255));
  EXPECT_EQ(R[1], Value::bits(16, 0xABCD));
  EXPECT_EQ(R[2], Value::bits(32, 0x12345678));
  EXPECT_EQ(R[3], Value::bits(64, 0x123456789ABCDEF0ULL));
}

TEST(Memory, LittleEndianByteOrder) {
  // "The loadtype and storetype operations use the native byte order of the
  // target machine" — ours is little-endian.
  const char *Src = R"(
export main;
data buf { bits32[2]; }
main() {
  bits32[buf] = 305419896;   /* 0x12345678 */
  return (bits8[buf], bits8[buf + 1], bits8[buf + 2], bits8[buf + 3]);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  std::vector<Value> R = runToHalt(M, "main");
  ASSERT_EQ(R.size(), 4u);
  EXPECT_EQ(R[0], Value::bits(8, 0x78));
  EXPECT_EQ(R[1], Value::bits(8, 0x56));
  EXPECT_EQ(R[2], Value::bits(8, 0x34));
  EXPECT_EQ(R[3], Value::bits(8, 0x12));
}

TEST(Memory, StringLiteralsAreAddressesOfNulTerminatedData) {
  const char *Src = R"(
export main;
main() {
  bits32 s;
  s = "Hi";
  return (bits8[s], bits8[s + 1], bits8[s + 2]);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  std::vector<Value> R = runToHalt(M, "main");
  EXPECT_EQ(R[0], Value::bits(8, 'H'));
  EXPECT_EQ(R[1], Value::bits(8, 'i'));
  EXPECT_EQ(R[2], Value::bits(8, 0));
}

TEST(Memory, DataBlocksWithInitializersAndRelocations) {
  const char *Src = R"(
export main;
data table {
  bits32 10, 20, 30;
  bits32 helper;       /* relocation: the address of a procedure */
}
helper(bits32 x) { return (x * 2); }
main() {
  bits32 f, r;
  f = bits32[table + 12];
  r = f(bits32[table + 4]);   /* helper(20) */
  return (bits32[table] + r);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  EXPECT_EQ(runToHalt(M, "main")[0], b32(10 + 40));
}

//===----------------------------------------------------------------------===//
// Wrap-around arithmetic at every width
//===----------------------------------------------------------------------===//

struct ArithCase {
  const char *Expr;
  uint64_t A, B, Expected;

  // Printed by value, never as the raw struct bytes: those hold the Expr
  // pointer, which would make the listed test names differ run to run.
  friend void PrintTo(const ArithCase &C, std::ostream *Os) {
    *Os << C.Expr << std::hex << " a=0x" << C.A << " b=0x" << C.B << " -> 0x"
        << C.Expected;
  }
};

class ArithTest : public ::testing::TestWithParam<ArithCase> {};

TEST_P(ArithTest, Evaluates) {
  const ArithCase &C = GetParam();
  std::string Src = std::string("export main;\nmain(bits32 a, bits32 b) {\n"
                                "  return (") +
                    C.Expr + ");\n}\n";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  // Every backend applies the operators of sem/Ops.h; each is pinned here.
  for (engine::Backend B : engine::AllBackends) {
    SCOPED_TRACE(engine::backendName(B));
    auto M = engine::makeExecutor(B, *Prog);
    std::vector<Value> R = runToHalt(*M, "main", {b32(C.A), b32(C.B)});
    ASSERT_EQ(R.size(), 1u);
    EXPECT_EQ(R[0].Raw, C.Expected) << C.Expr << "(" << C.A << "," << C.B
                                    << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Eval, ArithTest,
    ::testing::Values(
        ArithCase{"a + b", 0xFFFFFFFF, 1, 0},          // wraps
        ArithCase{"a - b", 0, 1, 0xFFFFFFFF},          // wraps
        ArithCase{"a * b", 0x10000, 0x10000, 0},       // wraps
        ArithCase{"a / b", 0xFFFFFFF9, 2, 0xFFFFFFFD}, // signed: -7/2 = -3
        ArithCase{"a % b", 0xFFFFFFF9, 2, 0xFFFFFFFF}, // signed: -7%2 = -1
        ArithCase{"%divu(a, b)", 0xFFFFFFF9, 2, 0x7FFFFFFC},
        ArithCase{"%modu(a, b)", 7, 3, 1},
        ArithCase{"a & b", 0b1100, 0b1010, 0b1000},
        ArithCase{"a | b", 0b1100, 0b1010, 0b1110},
        ArithCase{"a ^ b", 0b1100, 0b1010, 0b0110},
        ArithCase{"a << b", 1, 31, 0x80000000},
        ArithCase{"a << b", 1, 32, 0},                 // over-shift
        ArithCase{"a >> b", 0x80000000, 31, 1},        // logical
        ArithCase{"%shra(a, b)", 0x80000000, 31, 0xFFFFFFFF}, // arithmetic
        ArithCase{"a < b", 0xFFFFFFFF, 0, 1},          // signed: -1 < 0
        ArithCase{"%ltu(a, b)", 0xFFFFFFFF, 0, 0},     // unsigned
        ArithCase{"a == b", 7, 7, 1}, ArithCase{"a != b", 7, 7, 0},
        ArithCase{"a <= b", 7, 7, 1}, ArithCase{"a >= b", 8, 7, 1},
        ArithCase{"a > b", 8, 7, 1},
        ArithCase{"%leu(a, b)", 5, 5, 1},
        ArithCase{"%gtu(a, b)", 0xFFFFFFFF, 0, 1},
        ArithCase{"%geu(a, b)", 0, 0, 1},
        ArithCase{"-a", 5, 0, 0xFFFFFFFB},
        ArithCase{"~a", 0, 0, 0xFFFFFFFF},
        ArithCase{"!a", 0, 0, 1}, ArithCase{"!a", 3, 0, 0}),
    [](const ::testing::TestParamInfo<ArithCase> &I) {
      return "op" + std::to_string(I.index);
    });

TEST(Eval, PrimitivesTakeCodeValuesAsBits) {
  // A procedure's address is a bits32 like any other to the operators
  // (docs/LANGUAGE.md): an unsigned comparison of code pointers computes.
  const char *Src = R"(
export main;
f() { return (1); }
main() {
  bits32 p;
  p = f;
  return (%ltu(p, 5), %geu(p, p), p == f);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  for (engine::Backend B : engine::AllBackends) {
    SCOPED_TRACE(engine::backendName(B));
    auto M = engine::makeExecutor(B, *Prog);
    EXPECT_EQ(runToHalt(*M, "main"),
              (std::vector<Value>{b32(0), b32(1), b32(1)}));
  }
}

TEST(Eval, WidthConversions) {
  const char *Src = R"(
export main;
main(bits32 a) {
  bits64 w;
  w = %sx64(a);
  return (%lo32(w), %hi32(w), %lo32(%zx64(a)), %hi32(%zx64(a)));
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  std::vector<Value> R = runToHalt(M, "main", {b32(0xFFFFFFFE)});
  EXPECT_EQ(R[0], b32(0xFFFFFFFE)); // low half of sign-extension
  EXPECT_EQ(R[1], b32(0xFFFFFFFF)); // high half: sign bits
  EXPECT_EQ(R[2], b32(0xFFFFFFFE));
  EXPECT_EQ(R[3], b32(0));          // zero-extension
}

TEST(Eval, FloatArithmetic) {
  const char *Src = R"(
export main;
main() {
  float64 x, y;
  x = 1.5;
  y = %fadd(x, 2.25);
  if %flt(x, y) {
    return (%f2i(%fmul(y, 4.0)));
  }
  return (0);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  EXPECT_EQ(runToHalt(M, "main")[0], b32(15)); // (1.5+2.25)*4 = 15
}

//===----------------------------------------------------------------------===//
// Environments, globals, frames
//===----------------------------------------------------------------------===//

TEST(Env, LocalsAreSavedAcrossCalls) {
  const char *Src = R"(
export main;
clobber() {
  bits32 x, y, z;
  x = 111; y = 222; z = 333;
  return;
}
main() {
  bits32 x, y, z;
  x = 1; y = 2; z = 3;
  clobber();
  return (x + y + z);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  EXPECT_EQ(runToHalt(M, "main")[0], b32(6));
}

TEST(Env, GlobalsAreSharedAcrossActivations) {
  const char *Src = R"(
export main;
global bits32 g;
bump() { g = g + 1; return; }
main() {
  g = 10;
  bump();
  bump();
  bump();
  return (g);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  EXPECT_EQ(runToHalt(M, "main")[0], b32(13));
  EXPECT_EQ(M.getGlobal("g")->Raw, 13u);
}

TEST(Env, CallResultsCanTargetGlobals) {
  const char *Src = R"(
export main;
global bits32 g;
two() { return (2, 20); }
main() {
  bits32 r;
  r, g = two();
  return (r + g);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  EXPECT_EQ(runToHalt(M, "main")[0], b32(22));
}

//===----------------------------------------------------------------------===//
// Continuation values are first-class data
//===----------------------------------------------------------------------===//

TEST(Continuations, CanBePassedStoredAndCompared) {
  // "A continuation value may be passed to procedures or stored in data
  // structures; its type is the native data-pointer type" (Section 4.1).
  const char *Src = R"(
export main;
data slot { bits32[1]; }
invoke(bits32 kv) {
  cut to kv(41);
}
main() {
  bits32 t, same;
  bits32[slot] = k;
  same = 0;
  if bits32[slot] == k { same = 1; }
  invoke(bits32[slot]) also cuts to k also aborts;
  return (0, 0);
continuation k(t):
  return (t + same, same);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  std::vector<Value> R = runToHalt(M, "main");
  EXPECT_EQ(R[0], b32(42));
  EXPECT_EQ(R[1], b32(1)); // the stored value compared equal to k
}

TEST(Continuations, SizeofIsOnePointer) {
  // sizeof(k) for a continuation is one native pointer (Section 5.4's
  // representation discussion; Figure 10 depends on it).
  const char *Src = R"(
export main;
main() {
  bits32 t;
  goto done;
continuation k(t):
  return (0);
done:
  return (sizeof(k));
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  EXPECT_EQ(runToHalt(M, "main")[0], b32(4));
}

TEST(Continuations, FreshPerActivation) {
  // Each Entry binds fresh continuation values: two activations of the same
  // procedure have different continuations for the same source name.
  const char *Src = R"(
export main;
probe(bits32 depth) {
  bits32 t, r;
  if depth == 0 {
    return (k);
  }
  r = probe(depth - 1) also aborts;
  if r == k { return (1); }   /* same value? must not be */
  return (0);
continuation k(t):
  return (t);
}
main() {
  bits32 r;
  r = probe(1) also aborts;
  return (r);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  EXPECT_EQ(runToHalt(M, "main")[0], b32(0));
  EXPECT_GE(M.stats().ContsBound, 2u);
}

//===----------------------------------------------------------------------===//
// Counters
//===----------------------------------------------------------------------===//

TEST(Stats, CountsWhatHappened) {
  const char *Src = R"(
export main;
leaf() { return (1); }
main() {
  bits32 a, b;
  a = leaf();
  b = leaf();
  bits32[4096] = a;
  a = bits32[4096];
  return (a + b);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  runToHalt(M, "main");
  EXPECT_EQ(M.stats().Calls, 2u);
  EXPECT_EQ(M.stats().Returns, 2u);
  EXPECT_EQ(M.stats().Stores, 1u);
  EXPECT_EQ(M.stats().Loads, 1u);
  EXPECT_EQ(M.stats().MaxStackDepth, 1u);
}

TEST(Machine, CanBeRestarted) {
  const char *Src = R"(
export main;
global bits32 g;
main(bits32 x) {
  g = g + x;
  return (g);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  EXPECT_EQ(runToHalt(M, "main", {b32(5)})[0], b32(5));
  // start() resets globals and memory: the second run is independent.
  EXPECT_EQ(runToHalt(M, "main", {b32(7)})[0], b32(7));
}

TEST(Machine, StepLimitLeavesMachineRunning) {
  const char *Src = R"(
export main;
main() {
loop:
  goto loop;
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  M.start("main");
  EXPECT_EQ(M.run(1000), MachineStatus::Running);
  EXPECT_EQ(M.run(1000), MachineStatus::Running); // can continue
}

} // namespace
