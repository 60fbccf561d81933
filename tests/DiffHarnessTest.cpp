//===- tests/DiffHarnessTest.cpp - Differential harness corpus ------------===//
//
// Part of cmmex (see DESIGN.md). The `cmmdiff` oracle on a fixed seed
// corpus: every (strategy, optimizer configuration) cell of every seed must
// compute the same answer, the Table 3 ablation must be caught diverging on
// at least one seed, and the minimizer must emit reproducers that load.
// Regressions the harness has already found are pinned down at the bottom
// with their checked-in reproducers (see tests/repro_calleesaves_cut.cmm).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "costmodel/DiffHarness.h"
#include "opt/CalleeSaves.h"
#include "syntax/AstPrinter.h"
#include "syntax/Parser.h"

using namespace cmm;
using namespace cmm::test;

namespace {

std::string divergenceText(const DiffSeedResult &R) {
  std::string Out;
  for (const DiffDivergence &D : R.Divergences)
    if (!D.Expected)
      Out += D.str() + "\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// The fixed corpus
//===----------------------------------------------------------------------===//

TEST(DiffHarness, FixedSeedCorpusAgrees) {
  // ~25 seeds x 5 strategies x 7 configs x 6 inputs. Seeds are cheap (the
  // generated loops are bounded), so this is the suite's broadest net.
  unsigned AblationSeeds = 0;
  for (uint64_t Seed = 0; Seed < 25; ++Seed) {
    DiffSeedResult R = diffTestSeed(Seed);
    EXPECT_FALSE(R.hasUnexpected())
        << "seed " << Seed << " diverged:\n" << divergenceText(R);
    EXPECT_GT(R.RunsExecuted, 0u);
    if (R.ablationDiverged())
      ++AblationSeeds;
  }
  // Table 3: dropping the `also` edges MUST miscompile some programs —
  // otherwise the ablation check has lost its teeth.
  EXPECT_GE(AblationSeeds, 1u);
}

TEST(DiffHarness, WrongProgramsAgreeAcrossStrategies) {
  // Unguarded divisions make some inputs go wrong; every strategy must go
  // wrong identically (same reason), and halting inputs must still agree.
  DiffOptions Opts;
  Opts.Gen.WrongChancePct = 30;
  unsigned SignedDivisionWrongs = 0;
  for (uint64_t Seed = 0; Seed < 8; ++Seed) {
    DiffSeedResult R = diffTestSeed(Seed, Opts);
    EXPECT_FALSE(R.hasUnexpected())
        << "seed " << Seed << " diverged:\n" << divergenceText(R);
    // The corpus must reach the binary operators' stuck state, not only the
    // primitives': otherwise a wrong reason or location reported there goes
    // unseen by the comparison above.
    RandomProgramOptions Gen = Opts.Gen;
    Gen.Strategy = DispatchTechnique::CutGenerated;
    auto Prog = compile({generateRandomProgram(Seed, Gen)});
    ASSERT_TRUE(Prog);
    for (uint64_t X : Opts.Inputs) {
      Machine M(*Prog);
      M.start("main", {b32(uint32_t(X))});
      if (M.run() == MachineStatus::Wrong &&
          M.wrongReason().rfind("unspecified: signed ", 0) == 0)
        ++SignedDivisionWrongs;
    }
  }
  EXPECT_GE(SignedDivisionWrongs, 1u);
}

TEST(DiffHarness, ScheduledRenderingMatchesDirect) {
  // The scheduled-vs-direct column (CheckScheduled): every strategy's
  // computation, spawned as a green thread under the M:N scheduler, must
  // reproduce the direct reference outcome — including seeds whose
  // programs go wrong (WrongChancePct), which must fail the schedule with
  // the identical reason. Kept small here (the full sweep carries
  // --scheduled); skipping the optimizer/backend columns keeps it a
  // scheduler check, not a rerun of the corpus test.
  DiffOptions Opts;
  Opts.CheckScheduled = true;
  Opts.CheckVm = false;
  Opts.CheckStats = false;
  Opts.CheckRoundTrip = false;
  Opts.CheckSerialize = false;
  for (uint64_t Seed = 0; Seed < 10; ++Seed) {
    DiffSeedResult R = diffTestSeed(Seed, Opts);
    EXPECT_FALSE(R.hasUnexpected())
        << "seed " << Seed << " diverged:\n" << divergenceText(R);
  }
  Opts.Gen.WrongChancePct = 30;
  for (uint64_t Seed = 0; Seed < 5; ++Seed) {
    DiffSeedResult R = diffTestSeed(Seed, Opts);
    EXPECT_FALSE(R.hasUnexpected())
        << "wrong-seed " << Seed << " diverged:\n" << divergenceText(R);
  }
}

TEST(DiffHarness, HandlerFreeProgramsAgree) {
  DiffOptions Opts;
  Opts.Gen.UseHandlers = false;
  for (uint64_t Seed = 0; Seed < 8; ++Seed) {
    DiffSeedResult R = diffTestSeed(Seed, Opts);
    EXPECT_FALSE(R.hasUnexpected())
        << "seed " << Seed << " diverged:\n" << divergenceText(R);
  }
}

//===----------------------------------------------------------------------===//
// The minimizer
//===----------------------------------------------------------------------===//

TEST(DiffHarness, MinimizerEmitsLoadableRepro) {
  // Seed 3's ablation divergence is stable; whatever the minimizer keeps of
  // it must parse, compile, and survive the printer round trip — that is
  // the contract that makes reproducers worth checking in.
  std::optional<DiffRepro> R = minimizeDivergence(3);
  ASSERT_TRUE(R.has_value());
  EXPECT_FALSE(R->Source.empty());
  EXPECT_NE(R->Source.find("cmmdiff reproducer"), std::string::npos);
  auto Prog = compile({R->Source});
  EXPECT_TRUE(Prog);
}

//===----------------------------------------------------------------------===//
// Printer round trip: print . parse . print is a fixed point
//===----------------------------------------------------------------------===//

TEST(AstRoundTrip, RandomProgramsReachPrinterFixedPoint) {
  for (uint64_t Seed = 0; Seed < 12; ++Seed)
    for (DispatchTechnique T : AllDispatchTechniques) {
      RandomProgramOptions G;
      G.Strategy = T;
      std::string Src = generateRandomProgram(Seed, G);
      DiagnosticEngine D1;
      Parser P1(Src, D1);
      Module M1 = P1.parseModule();
      ASSERT_FALSE(D1.hasErrors())
          << "seed " << Seed << " [" << dispatchTechniqueName(T)
          << "] does not parse:\n" << D1.str();
      std::string Once = printModule(M1);
      DiagnosticEngine D2;
      Parser P2(Once, D2);
      Module M2 = P2.parseModule();
      ASSERT_FALSE(D2.hasErrors())
          << "printed form does not re-parse:\n" << D2.str();
      EXPECT_EQ(printModule(M2), Once)
          << "seed " << Seed << " [" << dispatchTechniqueName(T)
          << "] is not a printer fixed point";
    }
}

//===----------------------------------------------------------------------===//
// Regression: the callee-saves flush bug (seeds 24, 81, 185)
//===----------------------------------------------------------------------===//

// cmmdiff's first catch. A CalleeSaves set stays in effect until the next
// CalleeSaves node, so a cut-edged call whose own placement was empty could
// still execute with handler-live variables in registers, left there by an
// *earlier* call's node on the same path — and the cut kills them. The
// placement pass now flushes such calls with an empty CalleeSaves node.
// The seeds that caught it must stay clean under the full matrix:
TEST(DiffHarness, CalleeSavesFlushSeedsStayClean) {
  for (uint64_t Seed : {uint64_t(24), uint64_t(81), uint64_t(185)}) {
    DiffSeedResult R = diffTestSeed(Seed);
    EXPECT_FALSE(R.hasUnexpected())
        << "seed " << Seed << " regressed:\n" << divergenceText(R);
  }
}

// The minimized reproducer, also checked in as
// tests/repro_calleesaves_cut.cmm: seed 24's cut/generated rendering. f1's
// first call (no cut edges) parks b in a callee-saves register; its second
// call reaches continuation k, which needs b, and the placement for that
// call chose nothing — so before the fix nothing took b out of the
// register and the cut killed it ("use of unbound variable 'b'").
const char *CalleeSavesRepro = R"(
export main;
global bits32 exn_top;
data exn_stack { bits32[64]; }
f0(bits32 x) {
  bits32 a, b, c, d, t, u, kv, r;
  a = x + 3;
  b = x * 4;
  c = (x ^ 0) & 7;
  d = x - 5;
  a = 6;
  c = a;
  x = %%modu(a, (2) | 1) also aborts;
  c = %lo32(%zx64((x & c)) + %sx64((5 | b)));
  if (c) < ((d | c)) {
    x = ((a + 0) & 3);
  } else {
    d = ((a + 7) & %leu(a, x));
  }
  exn_top = exn_top + 4;
  bits32[exn_top] = k;
  r = f1((a - a)) also cuts to k also aborts;
  exn_top = exn_top - 4;
  x = %%divu((b + 3), (c) | 1) also aborts;
  a = x;
  x = %%modu(%lo32(%zx64(x) + %sx64(d)), ((1 + x)) | 1) also aborts;
  return ((r + (%leu(d, 5) & a)) ^ b);
  continuation k(t, u):
    d = ((a + b) ^ t) + (u * 3);
    return (d + 99);
}
f1(bits32 x) {
  bits32 a, b, c, d, t, u, kv, r;
  a = x + 2;
  b = x * 4;
  c = (x ^ 0) & 7;
  d = x - 2;
  c = 5;
  loop0:
  if (c) > (0) {
    d = x;
    c = c - 1;
    goto loop0;
  }
  a = %%divu(c, ((x | x)) | 1) also aborts;
  if (c) == (x) {
    x = b;
  } else {
    x = ((2 * c) - (c + d));
  }
  b = ((c + b) ^ (x - d));
  if ((9 | c)) <= ((6 + 7)) {
    a = ((7 - 2) - (b - x));
  } else {
    d = (a + a);
  }
  exn_top = exn_top + 4;
  bits32[exn_top] = k;
  r = f2(8) also cuts to k also aborts;
  exn_top = exn_top - 4;
  a = ((5 * a) * (9 - 5));
  c = ((d - d) ^ (x | d));
  a = b;
  return ((r + (a & 1)) ^ b);
  continuation k(t, u):
    d = ((a + b) ^ t) + (u * 3);
    return (d + 39);
}
f2(bits32 x) {
  bits32 a, b, c, d, t, u, kv, r;
  a = x + 0;
  b = x * 4;
  c = (x ^ 0) & 7;
  d = x - 5;
  x = %%divu((b - x), (4) | 1) also aborts;
  a = (b - 3);
  c = 5;
  loop1:
  if (c) > (0) {
    b = x;
    c = c - 1;
    goto loop1;
  }
  d = 8;
  c = %%divu((5 ^ b), (3) | 1) also aborts;
  r = f3((a * 6)) also aborts;
  a = (%lo32(%zx64(5) + %sx64(x)) - x);
  b = %modu((a + 9), ((d * 5)) | 1);
  c = ((b ^ 2) | (c ^ 0));
  return ((r + 2) ^ b);
}
f3(bits32 x) {
  bits32 a, b, c, d, t, u, kv, r;
  a = x + 0;
  b = x * 3;
  c = (x ^ 0) & 7;
  d = x - 3;
  x = ((8 + 2) - (c + b));
  d = b;
  c = %%divu(%ltu(7, x), (3) | 1) also aborts;
  x = 2;
  if ((5 | x)) <= ((8 - 0)) {
    b = b;
  } else {
    b = a;
  }
  if ((c) & 3) == (0) {
    kv = bits32[exn_top];
    exn_top = exn_top - 4;
    cut to kv(11, (a - 3));
  }
  return (%ltu(c, 4));
}
main(bits32 x) {
  bits32 r, t, u;
  exn_top = exn_stack;
  r = f0(x);
  return (r);
}
)";

TEST(CalleeSavesRegression, FlushPreservesCutKilledValues) {
  auto Reference = compile({CalleeSavesRepro});
  ASSERT_TRUE(Reference);
  Machine RM(*Reference);
  std::vector<Value> Want = runToHalt(RM, "main", {b32(0)});
  ASSERT_EQ(Want.size(), 1u);
  EXPECT_EQ(Want[0], b32(566));

  auto Optimized = compile({CalleeSavesRepro});
  ASSERT_TRUE(Optimized);
  OptOptions Opts;
  Opts.PlaceCalleeSaves = true;
  OptReport R = optimizeProgram(*Optimized, Opts);
  // The hazardous call in f1 must have been flushed...
  EXPECT_GE(R.CalleeSaves.CutHazardFlushes, 1u);
  // ...and the soundness audit must find no live value a cut can kill.
  for (const auto &P : Optimized->Procs)
    EXPECT_EQ(countKilledLiveValues(*P, *Optimized), 0u)
        << "in " << Optimized->Names->spelling(P->Name);
  Machine OM(*Optimized);
  EXPECT_EQ(runToHalt(OM, "main", {b32(0)}), Want);
}

} // namespace
