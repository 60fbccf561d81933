//===- tests/OptTest.cpp - Optimizer unit tests ---------------------------===//
//
// Part of cmmex (see DESIGN.md). Experiments around Table 3 and Figure 6:
// standard optimizations driven by the dataflow rules, the extra flow edges
// that make them sound in the presence of exceptions, and the SSA numbering
// of the example procedure.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "opt/PassManager.h"
#include "opt/Ssa.h"

using namespace cmm;
using namespace cmm::test;

namespace {

//===----------------------------------------------------------------------===//
// Constant propagation and dead code
//===----------------------------------------------------------------------===//

TEST(ConstProp, FoldsConstantComputations) {
  const char *Src = R"(
export main;
main() {
  bits32 a, b, c;
  a = 6;
  b = a * 7;
  c = b + 1;
  if c == 43 {
    return (b);
  }
  return (0);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  uint64_t StepsBefore;
  {
    Machine M(*Prog);
    EXPECT_EQ(runToHalt(M, "main")[0], b32(42));
    StepsBefore = M.stats().Steps;
  }
  OptReport R = optimizeProgram(*Prog);
  EXPECT_GE(R.ConstProp.ExprsRewritten, 2u);
  EXPECT_GE(R.ConstProp.BranchesResolved, 1u);
  DiagnosticEngine Diags;
  ASSERT_TRUE(validateProgram(*Prog, Diags)) << Diags.str();
  {
    Machine M(*Prog);
    EXPECT_EQ(runToHalt(M, "main")[0], b32(42));
    EXPECT_LT(M.stats().Steps, StepsBefore);
  }
}

TEST(ConstProp, DoesNotFoldThroughCallClobberedGlobals) {
  const char *Src = R"(
export main;
global bits32 g;
set_g() { g = 9; return; }
main() {
  bits32 r;
  g = 1;
  set_g();
  r = g + 1;
  return (r);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  optimizeProgram(*Prog);
  Machine M(*Prog);
  // If the optimizer wrongly assumed g==1 survives the call, this is 2.
  EXPECT_EQ(runToHalt(M, "main")[0], b32(10));
}

TEST(ConstProp, JoinOfDifferentConstantsIsNotConstant) {
  const char *Src = R"(
export main;
main(bits32 x) {
  bits32 a;
  if x > 0 {
    a = 1;
  } else {
    a = 2;
  }
  return (a * 10);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  optimizeProgram(*Prog);
  Machine M(*Prog);
  EXPECT_EQ(runToHalt(M, "main", {b32(5)})[0], b32(10));
  Machine M2(*Prog);
  EXPECT_EQ(runToHalt(M2, "main", {b32(0)})[0], b32(20));
}

// 0.0 and -0.0 compare equal but are different constants: 1.0 / x tells
// them apart, so a join of the two must not be folded as either one.
TEST(ConstProp, SignedZerosAreDifferentConstantsAtAJoin) {
  const char *Src = R"(
export main;
main(bits32 n) {
  float64 x, y;
  if n == 0 {
    x = 0.0;
  } else {
    x = -0.0;
  }
  y = 1.0 / x;
  if %flt(y, 0.0) {
    return (1);
  }
  return (0);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  optimizeProgram(*Prog);
  Machine M(*Prog);
  EXPECT_EQ(runToHalt(M, "main", {b32(0)})[0], b32(0)); // 1/0.0 = +inf
  Machine M2(*Prog);
  EXPECT_EQ(runToHalt(M2, "main", {b32(1)})[0], b32(1)); // 1/-0.0 = -inf
}

TEST(DeadCode, RemovesDeadAssignsButKeepsFailingExprs) {
  const char *Src = R"(
export main;
main(bits32 x) {
  bits32 dead1, dead2, live;
  dead1 = x * 100;
  dead2 = %divu(x, x);   /* can fail when x == 0: must stay */
  live = x + 1;
  return (live);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  OptReport R = optimizeProgram(*Prog);
  EXPECT_EQ(R.DeadCode.AssignsRemoved, 1u); // only dead1
  {
    Machine M(*Prog);
    EXPECT_EQ(runToHalt(M, "main", {b32(4)})[0], b32(5));
  }
  {
    // The unspecified failure of %divu(0,0) is preserved.
    Machine M(*Prog);
    M.start("main", {b32(0)});
    EXPECT_EQ(M.run(), MachineStatus::Wrong);
  }
}

//===----------------------------------------------------------------------===//
// The Hennessy scenario: dataflow edges make exceptions safe to optimize
//===----------------------------------------------------------------------===//

/// y is computed before the call, used *only* by the handler continuation.
/// With the `also cuts to` edge in the dataflow, y stays live across the
/// call; without it, dead-code elimination deletes the assignment and the
/// handler reads an unbound variable.
const char *hennessySource() {
  return R"(
export main;
global bits32 exn_top;
data exn_stack { bits32[8]; }

boom() {
  bits32 kv;
  kv = bits32[exn_top];
  exn_top = exn_top - sizeof(kv);
  cut to kv(1, 2);
}

f(bits32 x) {
  bits32 y, t, a, kv;
  y = x * 3;
  exn_top = exn_top + sizeof(kv);
  bits32[exn_top] = k;
  boom() also cuts to k also aborts;
  exn_top = exn_top - sizeof(kv);
  return (0);
continuation k(t, a):
  return (y + t + a);
}

main(bits32 x) {
  bits32 r;
  exn_top = exn_stack;
  r = f(x);
  return (r);
}
)";
}

TEST(Table3Edges, OptimizerPreservesHandlerLiveValues) {
  auto Prog = compile({hennessySource()});
  ASSERT_TRUE(Prog);
  OptOptions Opts;
  Opts.WithExceptionalEdges = true;
  optimizeProgram(*Prog, Opts);
  Machine M(*Prog);
  EXPECT_EQ(runToHalt(M, "main", {b32(10)})[0], b32(33)); // 30 + 1 + 2
}

TEST(Table3Edges, AblationDeletesHandlerLiveValues) {
  auto Prog = compile({hennessySource()});
  ASSERT_TRUE(Prog);
  OptOptions Opts;
  Opts.WithExceptionalEdges = false; // the unsound approximation
  OptReport R = optimizeProgram(*Prog, Opts);
  EXPECT_GE(R.DeadCode.AssignsRemoved, 1u);
  Machine M(*Prog);
  M.start("main", {b32(10)});
  EXPECT_EQ(M.run(), MachineStatus::Wrong);
  EXPECT_NE(M.wrongReason().find("unbound"), std::string::npos)
      << M.wrongReason();
}

//===----------------------------------------------------------------------===//
// Callee-saves placement (Section 4.2)
//===----------------------------------------------------------------------===//

/// y is live across the call on the normal path *and* used by the handler:
/// the classic value that must not go into a callee-saves register.
const char *calleeSavesSource() {
  return R"(
export main;
global bits32 exn_top;
data exn_stack { bits32[8]; }

boom(bits32 x) {
  bits32 kv;
  if x == 7 {
    kv = bits32[exn_top];
    exn_top = exn_top - sizeof(kv);
    cut to kv(1, 2);
  }
  return;
}

f(bits32 x) {
  bits32 y, t, a, kv;
  y = x * 3;
  exn_top = exn_top + sizeof(kv);
  bits32[exn_top] = k;
  boom(x) also cuts to k also aborts;
  exn_top = exn_top - sizeof(kv);
  return (y + 1);
continuation k(t, a):
  return (y + t + a);
}

main(bits32 x) {
  bits32 r;
  exn_top = exn_stack;
  r = f(x);
  return (r);
}
)";
}

TEST(CalleeSaves, SoundPlacementKeepsHandlerValuesInTheFrame) {
  auto Prog = compile({calleeSavesSource()});
  ASSERT_TRUE(Prog);
  OptOptions Opts;
  Opts.PlaceCalleeSaves = true;
  OptReport R = optimizeProgram(*Prog, Opts);
  EXPECT_GE(R.CalleeSaves.VarsExcludedByCutEdges, 1u);
  for (const auto &P : Prog->Procs)
    EXPECT_EQ(countKilledLiveValues(*P, *Prog), 0u);
  {
    Machine M(*Prog);
    EXPECT_EQ(runToHalt(M, "main", {b32(5)})[0], b32(16)); // normal: 15+1
  }
  {
    Machine M(*Prog);
    EXPECT_EQ(runToHalt(M, "main", {b32(7)})[0], b32(24)); // handler: 21+1+2
  }
}

TEST(CalleeSaves, UnsoundPlacementIsKilledByTheCut) {
  auto Prog = compile({calleeSavesSource()});
  ASSERT_TRUE(Prog);
  OptOptions Opts;
  Opts.PlaceCalleeSaves = true;
  Opts.CalleeSaves.RespectCutEdges = false; // the miscompile
  OptReport R = optimizeProgram(*Prog, Opts);
  EXPECT_GE(R.CalleeSaves.VarsPlaced, 1u);

  unsigned Killed = 0;
  for (const auto &P : Prog->Procs)
    Killed += countKilledLiveValues(*P, *Prog);
  EXPECT_GE(Killed, 1u); // the static checker sees the bug

  {
    // Normal path: callee-saves registers work fine.
    Machine M(*Prog);
    EXPECT_EQ(runToHalt(M, "main", {b32(5)})[0], b32(16));
  }
  {
    // Exceptional path: the cut destroys y; the handler's read goes wrong.
    Machine M(*Prog);
    M.start("main", {b32(7)});
    EXPECT_EQ(M.run(), MachineStatus::Wrong);
    EXPECT_NE(M.wrongReason().find("unbound"), std::string::npos);
  }
}

//===----------------------------------------------------------------------===//
// SSA numbering of the Figure 5 example
//===----------------------------------------------------------------------===//

const char *figure5Source() {
  return R"(
export f;
g() { return (1, 2); }
f(bits32 a) {
  bits32 b, c, d;
  b = a;
  c = a;
  b, c = g() also unwinds to k also aborts;
  c = b + c + a;
  return (c);
continuation k(d):
  return (b + d);
}
)";
}

TEST(Figure6Ssa, NumberingIsSingleAssignment) {
  auto Prog = compile({figure5Source()});
  ASSERT_TRUE(Prog);
  IrProc *F = Prog->findProc("f");
  ASSERT_TRUE(F);
  SsaNumbering Ssa = computeSsa(*F, *Prog);

  // Every (location, version) pair is defined at most once across nodes and
  // φ-functions; no use reads a version that was never defined.
  std::set<std::pair<unsigned, unsigned>> Defined;
  for (size_t Id = 0; Id < F->Nodes.size(); ++Id) {
    for (const auto &[Loc, Ver] : Ssa.Defs[Id])
      EXPECT_TRUE(Defined.insert({Loc, Ver}).second)
          << "duplicate definition of version " << Ver;
    for (const SsaNumbering::Phi &Phi : Ssa.Phis[Id])
      EXPECT_TRUE(Defined.insert({Phi.Loc, Phi.Result}).second);
  }
  for (size_t Id = 0; Id < F->Nodes.size(); ++Id)
    for (const auto &[Loc, Ver] : Ssa.Uses[Id])
      if (Ver != 0) {
        EXPECT_TRUE(Defined.count({Loc, Ver}))
            << "use of undefined version " << Ver << " of "
            << Ssa.Universe.describe(Loc, *Prog->Names);
      }
}

TEST(Figure6Ssa, HandlerSeesPreCallVersionOfB) {
  auto Prog = compile({figure5Source()});
  ASSERT_TRUE(Prog);
  IrProc *F = Prog->findProc("f");
  ASSERT_TRUE(F);
  SsaNumbering Ssa = computeSsa(*F, *Prog);
  std::string Dump = Ssa.print(*F, *Prog->Names);
  EXPECT_FALSE(Dump.empty());

  // Find b's versions: the CopyIn of the call result defines a b version
  // that must differ from the one the handler k uses (k is reached along
  // the unwind edge, before the result CopyIn).
  Symbol B = Prog->Names->lookup("b");
  ASSERT_TRUE(B);
  std::optional<unsigned> BLoc = Ssa.Universe.varIndex(B);
  ASSERT_TRUE(BLoc.has_value());

  unsigned AssignVersion = 0, ResultVersion = 0, HandlerUse = 0;
  for (Node *N : reachableNodes(*F)) {
    if (isa<AssignNode>(N) && cast<AssignNode>(N)->Var == B)
      for (const auto &[Loc, Ver] : Ssa.Defs[N->Id])
        if (Loc == *BLoc)
          AssignVersion = Ver;
    if (const auto *C = dyn_cast<CopyInNode>(N)) {
      bool DefinesB =
          std::find(C->Vars.begin(), C->Vars.end(), B) != C->Vars.end();
      if (DefinesB && C->Vars.size() == 2) // the b, c = g() result CopyIn
        for (const auto &[Loc, Ver] : Ssa.Defs[N->Id])
          if (Loc == *BLoc)
            ResultVersion = Ver;
    }
    if (const auto *E = dyn_cast<CopyOutNode>(N)) {
      // The handler's return (b + d) is the CopyOut using both b and d.
      (void)E;
      bool UsesB = false, UsesD = false;
      for (const auto &[Loc, Ver] : Ssa.Uses[N->Id]) {
        (void)Ver;
        if (Ssa.Universe.describe(Loc, *Prog->Names) == "b")
          UsesB = true;
        if (Ssa.Universe.describe(Loc, *Prog->Names) == "d")
          UsesD = true;
      }
      if (UsesB && UsesD)
        for (const auto &[Loc, Ver] : Ssa.Uses[N->Id])
          if (Loc == *BLoc)
            HandlerUse = Ver;
    }
  }
  ASSERT_NE(AssignVersion, 0u);
  ASSERT_NE(ResultVersion, 0u);
  ASSERT_NE(HandlerUse, 0u);
  EXPECT_NE(AssignVersion, ResultVersion);
  // The handler runs when g unwinds: it must see the pre-call b, not the
  // call's result.
  EXPECT_EQ(HandlerUse, AssignVersion);
}

//===----------------------------------------------------------------------===//
// Optimizing the Figure 1 programs end to end
//===----------------------------------------------------------------------===//

TEST(OptPipeline, Figure1ProgramsSurviveOptimization) {
  const char *Src = R"(
export sp3;
sp3(bits32 n) {
  bits32 s, p;
  s = 1; p = 1;
loop:
  if n == 1 {
    return (s, p);
  } else {
    s = s + n;
    p = p * n;
    n = n - 1;
    goto loop;
  }
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  optimizeProgram(*Prog);
  DiagnosticEngine Diags;
  ASSERT_TRUE(validateProgram(*Prog, Diags)) << Diags.str();
  Machine M(*Prog);
  std::vector<Value> R = runToHalt(M, "sp3", {b32(5)});
  EXPECT_EQ(R[0], b32(15));
  EXPECT_EQ(R[1], b32(120));
}

//===----------------------------------------------------------------------===//
// Constant folding operand discipline
//===----------------------------------------------------------------------===//

// foldConstExpr must only fold operand shapes the machine would accept:
// Bits of the width the primitive expects. A float or mixed-width operand
// (reachable dynamically through an indirect call) goes wrong at run time,
// and folding it to a .Raw reinterpretation would silently change that
// behaviour — the cmmdiff oracle treats such a change as a miscompile.
TEST(ConstProp, FoldRefusesUnsoundOperandShapes) {
  Interner Names;
  AstArena Arena;
  SourceLoc L;
  auto Int = [&](uint64_t V) -> Expr * {
    return Arena.make<IntLitExpr>(L, V);
  };
  auto Flt = [&](double V) -> Expr * {
    return Arena.make<FloatLitExpr>(L, V);
  };
  auto Prim1 = [&](const char *Name, Expr *A) -> Expr * {
    Expr *Args[] = {A};
    return Arena.make<PrimExpr>(L, Names.intern(Name),
                                Arena.copy(std::span<Expr *const>(Args)));
  };
  auto Prim2 = [&](const char *Name, Expr *A, Expr *B) -> Expr * {
    Expr *Args[] = {A, B};
    return Arena.make<PrimExpr>(L, Names.intern(Name),
                                Arena.copy(std::span<Expr *const>(Args)));
  };
  auto Fold = [&](const Expr *E) { return foldConstExpr(E, Names); };

  // Well-shaped folds still fold.
  EXPECT_EQ(Fold(Prim2("%ltu", Int(5), Int(7))), Value::bits(32, 1));
  EXPECT_EQ(Fold(Prim2("%divu", Prim1("%zx64", Int(10)),
                       Prim1("%zx64", Int(3)))),
            Value::bits(64, 3));
  EXPECT_EQ(Fold(Prim1("%hi32", Prim1("%zx64", Int(1)))),
            Value::bits(32, 0));

  // Mixed widths: bits64 against bits32 must not fold.
  EXPECT_EQ(Fold(Prim2("%ltu", Prim1("%zx64", Int(5)), Int(7))),
            std::nullopt);
  EXPECT_EQ(Fold(Prim2("%divu", Prim1("%zx64", Int(10)), Int(3))),
            std::nullopt);
  EXPECT_EQ(Fold(Prim2("%modu", Int(10), Prim1("%sx64", Int(3)))),
            std::nullopt);
  EXPECT_EQ(Fold(Prim2("%geu", Prim1("%zx64", Int(1)), Int(1))),
            std::nullopt);

  // Wrong width for the conversions.
  EXPECT_EQ(Fold(Prim1("%lo32", Int(5))), std::nullopt);
  EXPECT_EQ(Fold(Prim1("%zx64", Prim1("%zx64", Int(1)))), std::nullopt);

  // Float operands never fold through the unsigned primitives.
  EXPECT_EQ(Fold(Prim2("%divu", Flt(1.5), Int(3))), std::nullopt);

  // Evaluation that could fail is never folded away.
  EXPECT_EQ(Fold(Prim2("%divu", Int(5), Int(0))), std::nullopt);

  // Folding applies sem/Ops.h, so it computes exactly what the machine
  // computes: the most negative bits32 % -1 is 0, the same / goes wrong,
  // and a binary operator over mixed widths goes wrong too.
  auto Bin = [&](BinOp Op, Expr *A, Expr *B) -> Expr * {
    return Arena.make<BinaryExpr>(L, Op, A, B);
  };
  EXPECT_EQ(Fold(Bin(BinOp::Mod, Int(0x80000000), Int(0xffffffff))),
            Value::bits(32, 0));
  EXPECT_EQ(Fold(Bin(BinOp::Div, Int(0x80000000), Int(0xffffffff))),
            std::nullopt);
  EXPECT_EQ(Fold(Bin(BinOp::Add, Prim1("%zx64", Int(1)), Int(1))),
            std::nullopt);
}

} // namespace
